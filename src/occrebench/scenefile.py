"""Text scene-spec format (YAML).

A scene spec lists cameras, primitives, an evaluation grid (explicit or by
preset), and a background color:

    background: [0.0, 0.0, 0.0]
    cameras:
      - {fx: 31.5, fy: 31.5, cx: 31.5, cy: 23.5, width: 64, height: 48,
         near: 2.5, far: 12.0, position: [0, 0, 0], yaw_deg: 0.0}
    primitives:
      - {shape: box, min: [-1, -1, 5], max: [1, 1, 7], density: 60,
         albedo: [0.9, 0.1, 0.1]}
      - {shape: sphere, center: [0, 0, 9], radius: 1.2, density: 40,
         albedo: [0.1, 0.9, 0.1]}
      - {shape: ground, axis: y, offset: 1.4, side: above, density: 60,
         albedo: [0.5, 0.5, 0.5]}
    grid:
      preset: desk            # or origin/counts/resolution (+ frame)

Camera orientation is either a full ``rotation`` matrix or a ``yaw_deg``
turn about the world y axis.  The grid's optional ``position``/``yaw_deg``/
``rotation`` give the voxel-to-world pose; presets default to the driving
convention (voxel x forward, y left, z up).

Unknown keys are rejected with their path; semantic violations report the
offending field; YAML syntax errors carry line/column.

The text is read by ``LOADER``: PyYAML's libyaml-backed ``CSafeLoader``
when PyYAML was built with libyaml, its pure-Python ``SafeLoader``
otherwise.  Both build the document with the same ``SafeConstructor`` and
resolver, so a spec parses to the same ``SceneSpec`` under either.  A
syntax error's line and column are the same under both and are the
contract; the wording of the problem comes from the loader.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import yaml

from .field import AnalyticScene, Box, HalfSpace, Sphere
from .geometry import CameraIntrinsics, CameraView, FrustumSpec, Pose, rotation_y
from .grids import FRAME_CAMERA, FRAME_VOXEL, VoxelGrid


LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class SceneSpecError(ValueError):
    """Scene-spec parse or validation failure, with field path context."""


# voxel (x fwd, y left, z up) -> camera/world (x right, y down, z fwd)
DRIVING_AXES = np.array([[0.0, -1.0, 0.0],
                         [0.0, 0.0, -1.0],
                         [1.0, 0.0, 0.0]])

GRID_PRESETS = {
    # desk-scale default: 16 m forward, 8 m to each side, 4 m of height
    "desk": dict(origin=(0.0, -8.0, -2.5), counts=(64, 64, 16),
                 resolution=(0.25, 0.25, 0.25)),
    # the full-scale driving benchmark geometry: 51.2 m forward,
    # 25.6 m to each side, 6.4 m of height at 0.2 m voxels
    "sscbench-kitti360": dict(origin=(0.0, -25.6, -2.0), counts=(256, 256, 32),
                              resolution=(0.2, 0.2, 0.2)),
}


@dataclass
class SceneSpec:
    scene: AnalyticScene
    views: list
    grid: VoxelGrid
    grid_to_world: Pose


def _require_mapping(node, path):
    if not isinstance(node, dict):
        raise SceneSpecError(f"{path}: expected a mapping, got {type(node).__name__}")


def _check_keys(node, path, allowed):
    for key in node:
        if key not in allowed:
            raise SceneSpecError(
                f"{path}.{key}: unknown key (allowed: {', '.join(sorted(allowed))})")


@contextmanager
def _at(path):
    """Report a TypeError or ValueError raised in the block as a
    SceneSpecError at ``path``; a SceneSpecError passes through unchanged."""
    try:
        yield
    except SceneSpecError:
        raise
    except (TypeError, ValueError) as e:
        raise SceneSpecError(f"{path}: {e}") from None


_REQUIRED = object()


def _get(node, path, key, default=_REQUIRED):
    if key in node:
        return node[key]
    if default is _REQUIRED:
        raise SceneSpecError(f"{path}.{key}: required key missing")
    return default


def _number(value, path) -> float:
    """``value`` as a float; a bool, a null or a non-number raises."""
    if not isinstance(value, bool) and value is not None:
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise SceneSpecError(f"{path}: expected a number, got {value!r}")


def _float(node, path, key) -> float:
    return _number(_get(node, path, key), f"{path}.{key}")


def _vec3(node, path, item=_number):
    """Three ``item``s (numbers by default) as an array."""
    if not isinstance(node, (list, tuple)) or len(node) != 3:
        raise SceneSpecError(f"{path}: expected a list of 3, got {node!r}")
    return np.array([item(x, f"{path}[{a}]") for a, x in enumerate(node)])


def _pose(node, path) -> Pose:
    _check_keys(node, path, {"position", "yaw_deg", "rotation"})
    if "rotation" in node and "yaw_deg" in node:
        raise SceneSpecError(f"{path}: give rotation or yaw_deg, not both")
    translation = _vec3(node.get("position", (0.0, 0.0, 0.0)), f"{path}.position")
    if "rotation" in node:
        rot = _vec3(node["rotation"], f"{path}.rotation", _vec3)
    elif "yaw_deg" in node:
        rot = rotation_y(np.deg2rad(_float(node, path, "yaw_deg")))
    else:
        rot = np.eye(3)
    with _at(path):
        return Pose(rot, translation)


def _camera(node, path) -> CameraView:
    _require_mapping(node, path)
    _check_keys(node, path, {"fx", "fy", "cx", "cy", "width", "height", "near",
                             "far", "position", "yaw_deg", "rotation"})
    with _at(path):
        intr = CameraIntrinsics(*(_float(node, path, k) for k in ("fx", "fy", "cx", "cy")),
                                width=_get(node, path, "width"),
                                height=_get(node, path, "height"))
    near, far = _float(node, path, "near"), _float(node, path, "far")
    with _at(f"{path}.near/far"):
        fr = FrustumSpec(near, far)
    pose = _pose({k: node[k] for k in ("position", "yaw_deg", "rotation")
                  if k in node}, path)
    return CameraView(intr, pose, fr)


def _primitive(node, path):
    _require_mapping(node, path)
    shape = _get(node, path, "shape")
    if shape not in ("box", "sphere", "ground"):
        raise SceneSpecError(f"{path}.shape: unknown shape {shape!r}")
    common = {"shape", "density", "albedo"}
    with _at(path):
        density = _float(node, path, "density")
        albedo = _vec3(_get(node, path, "albedo"), f"{path}.albedo")
        if shape == "box":
            _check_keys(node, path, common | {"min", "max"})
            return Box(_vec3(_get(node, path, "min"), f"{path}.min"),
                       _vec3(_get(node, path, "max"), f"{path}.max"),
                       density, albedo)
        if shape == "sphere":
            _check_keys(node, path, common | {"center", "radius"})
            return Sphere(_vec3(_get(node, path, "center"), f"{path}.center"),
                          _float(node, path, "radius"), density, albedo)
        _check_keys(node, path, common | {"axis", "offset", "side"})
        axis = {"x": 0, "y": 1, "z": 2}.get(str(node.get("axis", "y")))
        if axis is None:
            raise SceneSpecError(f"{path}.axis: must be one of x, y, z")
        side_name = str(node.get("side", "above"))
        if side_name not in ("above", "below"):
            raise SceneSpecError(f"{path}.side: must be 'above' or 'below'")
        return HalfSpace(axis=axis, offset=_float(node, path, "offset"),
                         side=+1 if side_name == "above" else -1,
                         density=density, albedo=albedo)


def _grid(node, path) -> tuple[VoxelGrid, Pose]:
    _require_mapping(node, path)
    _check_keys(node, path, {"preset", "origin", "counts", "resolution", "frame",
                             "position", "yaw_deg", "rotation"})
    pose_keys = {k: node[k] for k in ("position", "yaw_deg", "rotation") if k in node}
    if "preset" in node:
        name = str(node["preset"])
        if name not in GRID_PRESETS:
            raise SceneSpecError(
                f"{path}.preset: unknown preset {name!r} "
                f"(available: {', '.join(sorted(GRID_PRESETS))})")
        for key in ("origin", "counts", "resolution", "frame"):
            if key in node:
                raise SceneSpecError(f"{path}.{key}: not allowed with a preset")
        p = GRID_PRESETS[name]
        grid = VoxelGrid.filled(p["origin"], p["counts"], p["resolution"],
                                False, dtype=bool, frame=FRAME_VOXEL)
        if pose_keys:
            pose = _pose(pose_keys, path)
        else:
            pose = Pose(DRIVING_AXES, np.zeros(3))
        return grid, pose
    with _at(path):
        frame = str(node.get("frame", FRAME_CAMERA))
        grid = VoxelGrid.filled(_vec3(_get(node, path, "origin"), f"{path}.origin"),
                                _get(node, path, "counts"),
                                _vec3(_get(node, path, "resolution"),
                                      f"{path}.resolution"),
                                False, dtype=bool, frame=frame)
    return grid, _pose(pose_keys, path)


def parse_scene_spec(text: str) -> SceneSpec:
    try:
        doc = yaml.load(text, Loader=LOADER)
    except yaml.MarkedYAMLError as e:
        mark = e.problem_mark
        where = (f" at line {mark.line + 1}, column {mark.column + 1}"
                 if mark else "")
        raise SceneSpecError(f"syntax error{where}: {e.problem}") from None
    if doc is None:
        raise SceneSpecError("empty scene spec")
    _require_mapping(doc, "spec")
    _check_keys(doc, "spec", {"background", "cameras", "primitives", "grid"})

    background = _vec3(doc.get("background", (0.0, 0.0, 0.0)), "spec.background")
    cameras_node = _get(doc, "spec", "cameras")
    if not isinstance(cameras_node, list) or not cameras_node:
        raise SceneSpecError("spec.cameras: need a nonempty list")
    views = [_camera(c, f"spec.cameras[{i}]") for i, c in enumerate(cameras_node)]

    prim_node = doc.get("primitives", [])
    if not isinstance(prim_node, list):
        raise SceneSpecError("spec.primitives: expected a list")
    primitives = tuple(_primitive(p, f"spec.primitives[{i}]")
                       for i, p in enumerate(prim_node))
    with _at("spec.background"):
        scene = AnalyticScene(primitives, background=background)

    grid_node = doc.get("grid")
    grid, grid_to_world = _grid({"preset": "desk"} if grid_node is None else grid_node,
                                "spec.grid")
    return SceneSpec(scene=scene, views=views, grid=grid, grid_to_world=grid_to_world)

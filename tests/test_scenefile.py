"""Scene-spec error paths: each failure names where in the spec it is."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import yaml

from occrebench import scenefile
from occrebench.scenefile import SceneSpecError, parse_scene_spec

from test_bench_checks import workloads  # noqa: F401  (a fixture)

CAMERA = ("{fx: 31.5, fy: 31.5, cx: 31.5, cy: 23.5, width: 64, height: 48, "
          "near: 2.5, far: 12.0}")


def spec(extra: str = "", camera: str = CAMERA) -> str:
    return f"cameras:\n  - {camera}\n{extra}"


def test_minimal_spec_parses():
    parsed = parse_scene_spec(spec())
    assert len(parsed.views) == 1 and parsed.grid.counts == (64, 64, 16)


@pytest.mark.parametrize("text, path", [
    (spec("colour: [1, 0, 0]\n"), "spec.colour"),
    (spec(camera=CAMERA[:-1] + ", zoom: 2}"), r"spec.cameras\[0\].zoom"),
    (spec(camera=CAMERA[:-1] + ", translation: [0, 0, 0]}"), r"spec.cameras\[0\].translation"),
    (spec("primitives:\n  - {shape: box, min: [0, 0, 5], max: [1, 1, 6], "
          "density: 1, albedo: [1, 0, 0], size: 3}\n"), r"spec.primitives\[0\].size"),
    (spec("grid: {preset: desk, spacing: 1}\n"), "spec.grid.spacing"),
])
def test_unknown_key_names_its_path(text, path):
    with pytest.raises(SceneSpecError, match=path + ": unknown key"):
        parse_scene_spec(text)


@pytest.mark.parametrize("text, path", [
    ("primitives: []\n", "spec.cameras"),
    (spec(camera=CAMERA.replace("fx: 31.5, ", "")), r"spec.cameras\[0\].fx"),
    (spec("primitives:\n  - {shape: sphere, center: [0, 0, 5], density: 1, "
          "albedo: [1, 0, 0]}\n"), r"spec.primitives\[0\].radius"),
    (spec("grid: {counts: [2, 2, 2], resolution: [1, 1, 1]}\n"), "spec.grid.origin"),
])
def test_missing_required_key(text, path):
    with pytest.raises(SceneSpecError, match=path + ": required key missing"):
        parse_scene_spec(text)


@pytest.mark.parametrize("shape", ["cube", "halfspace"])
def test_unknown_shape_is_reported_before_its_keys(shape):
    """A box with a misspelt shape reported its missing density."""
    with pytest.raises(SceneSpecError,
                       match=rf"spec.primitives\[0\].shape: unknown shape '{shape}'"):
        parse_scene_spec(spec(f"primitives:\n  - {{shape: {shape}, min: [0, 0, 5], "
                              "max: [1, 1, 6]}\n"))


@pytest.mark.parametrize("grid", ["", "grid: null\n"], ids=["absent", "null"])
def test_missing_grid_is_the_desk_preset(grid):
    parsed, desk = parse_scene_spec(spec(grid)), parse_scene_spec(spec("grid: {preset: desk}\n"))
    assert parsed.grid.same_geometry(desk.grid) and parsed.grid.frame == desk.grid.frame
    assert parsed.grid.values.dtype == bool and not parsed.grid.values.any()
    for a, b in ((parsed.grid_to_world.rotation, desk.grid_to_world.rotation),
                 (parsed.grid_to_world.translation, desk.grid_to_world.translation)):
        assert np.array_equal(a, b)


def test_preset_with_explicit_origin_rejected():
    with pytest.raises(SceneSpecError,
                       match="spec.grid.origin: not allowed with a preset"):
        parse_scene_spec(spec("grid: {preset: desk, origin: [0, 0, 0]}\n"))


# The python loader, and libyaml's if PyYAML has it.
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def test_yaml_syntax_error_reports_line_and_column(monkeypatch):
    # The stray "]" closing the grid mapping is line 3, column 20, under
    # either loader; the wording of the problem is the loader's.
    for loader in LOADERS:
        monkeypatch.setattr(scenefile, "LOADER", loader)
        with pytest.raises(SceneSpecError, match="syntax error at line 3, column 20"):
            parse_scene_spec(spec("grid: {preset: desk]\n"))


def test_the_libyaml_loader_is_chosen_when_pyyaml_has_it(monkeypatch):
    assert scenefile.LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__
                                else yaml.SafeLoader)
    used = []

    class Spy(yaml.SafeLoader):
        def __init__(self, stream):
            used.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(scenefile, "LOADER", Spy)
    parse_scene_spec(spec())
    assert used == [spec()]


def same(a, b) -> bool:
    """Equal values, arrays by dtype, shape and elements, dataclasses by field."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


FULL = spec("background: [0.1, 0.2, 0.3]\n"
            "primitives:\n"
            "  - {shape: box, min: [-1, -1, 5], max: [1, 1, 7], density: 60, "
            "albedo: [0.9, 0.1, 0.1]}\n"
            "  - {shape: sphere, center: [0, 0, 9], radius: 1.2, density: 4e1, "
            "albedo: [0.1, 0.9, 0.1]}\n"
            "  - {shape: ground, axis: z, offset: -1.4, side: below, density: 60, "
            "albedo: [0.5, 0.5, 0.5]}\n"
            "grid: {origin: [-2, -2, 3], counts: [8, 8, 4], resolution: [0.5, 0.5, 1.0], "
            "frame: voxel, position: [0, 0.5, 0], "
            "rotation: [[1, 0, 0], [0, 0, -1], [0, 1, 0]]}\n",
            camera=CAMERA[:-1] + ", position: [0.5, -1, 0], yaw_deg: 12.5}")


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
@pytest.mark.parametrize("name, primitives", [("minimal", 0), ("desk", 0), ("full", 3),
                                              ("street", 9)])
def test_both_loaders_give_equal_specs(name, primitives, workloads,  # noqa: F811
                                       monkeypatch):
    text = (yaml.safe_dump(workloads.street_spec(0)) if name == "street" else
            {"minimal": spec(), "desk": spec("grid: {preset: desk}\n"), "full": FULL}[name])
    parsed = []
    for loader in LOADERS:
        monkeypatch.setattr(scenefile, "LOADER", loader)
        parsed.append(parse_scene_spec(text))
    assert same(*parsed)
    assert len(parsed[0].scene.primitives) == primitives
    assert not same(parsed[0], parse_scene_spec(spec("background: [0, 0, 0.5]\n")))


def test_nan_primitive_names_its_path():
    with pytest.raises(SceneSpecError, match=r"spec.primitives\[0\]: sphere radius nan"):
        parse_scene_spec(spec("primitives:\n  - {shape: sphere, center: [0, 0, 5], "
                              "radius: .nan, density: .nan, albedo: [1, 0, 0]}\n"))
    with pytest.raises(SceneSpecError, match=r"spec.primitives\[1\]: primitive density inf"):
        parse_scene_spec(spec("primitives:\n"
                              "  - {shape: sphere, center: [0, 0, 5], radius: 1, "
                              "density: 1, albedo: [1, 0, 0]}\n"
                              "  - {shape: ground, offset: 1.5, density: .inf, "
                              "albedo: [1, 0, 0]}\n"))


@pytest.mark.parametrize("camera, match", [
    (CAMERA[:-1] + ", position: [.nan, 0, 0]}", r"spec.cameras\[0\]: translation \[nan"),
    (CAMERA.replace("cx: 31.5", "cx: .nan"), r"spec.cameras\[0\]: cx nan"),
    (CAMERA.replace("fy: 31.5", "fy: .inf"), r"spec.cameras\[0\]: fy inf"),
    (CAMERA.replace("far: 12.0", "far: .inf"), r"spec.cameras\[0\].near/far: far inf"),
], ids=["position", "cx", "fy", "far"])
def test_non_finite_camera_names_its_path(camera, match):
    with pytest.raises(SceneSpecError, match=match):
        parse_scene_spec(spec(camera=camera))


GRID = "grid: {{origin: [0, 0, 0], counts: {}, resolution: [1, 1, 1]}}\n"
SPHERE = "primitives:\n  - {{shape: sphere, center: [0, 0, 5], {}, albedo: [1, 0, 0]}}\n"


@pytest.mark.parametrize("text, match", [
    (spec(GRID.format("[4.7, 4, 4]")), "spec.grid: voxel counts must be an int >= 1, got 4.7"),
    (spec(GRID.format("[true, 4, 4]")), "spec.grid: voxel counts must be an int >= 1, got True"),
    (spec(camera=CAMERA.replace("width: 64", "width: 64.9")),
     r"spec.cameras\[0\]: width must be an int >= 2, got 64.9"),
    (spec(camera=CAMERA.replace("width: 64", "width: null")),
     r"spec.cameras\[0\]: width must be an int >= 2, got None"),
    (spec(camera=CAMERA.replace("fx: 31.5", "fx: null")),
     r"spec.cameras\[0\].fx: expected a number, got None"),
    (spec(camera=CAMERA.replace("near: 2.5", "near: null")),
     r"spec.cameras\[0\].near: expected a number, got None"),
    (spec(camera=CAMERA[:-1] + ", yaw_deg: abc}"),
     r"spec.cameras\[0\].yaw_deg: expected a number, got 'abc'"),
    (spec(camera=CAMERA[:-1] + ", position: [0, true, 0]}"),
     r"spec.cameras\[0\].position\[1\]: expected a number, got True"),
    (spec(SPHERE.format("radius: null, density: 1")),
     r"spec.primitives\[0\].radius: expected a number, got None"),
    (spec(SPHERE.format("radius: 1, density: null")),
     r"spec.primitives\[0\].density: expected a number, got None"),
    (spec("primitives:\n  - {shape: ground, offset: null, density: 1, albedo: [1, 0, 0]}\n"),
     r"spec.primitives\[0\].offset: expected a number, got None"),
], ids=["counts-float", "counts-bool", "width-float", "width-null", "fx-null", "near-null",
        "yaw-text", "position-bool", "radius-null", "density-null", "offset-null"])
def test_bad_number_names_its_path(text, match):
    """Each of these parsed to a truncated number, or raised a bare
    TypeError or ValueError."""
    with pytest.raises(SceneSpecError, match=match):
        parse_scene_spec(text)

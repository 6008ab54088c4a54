"""Scene-spec error paths: each failure names where in the spec it is."""

from __future__ import annotations

import numpy as np
import pytest

from occrebench.scenefile import SceneSpecError, parse_scene_spec

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


def test_yaml_syntax_error_reports_line_and_column():
    # The stray "]" closing the grid mapping is line 3, column 20.
    with pytest.raises(SceneSpecError, match="syntax error at line 3, column 20"):
        parse_scene_spec(spec("grid: {preset: desk]\n"))


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

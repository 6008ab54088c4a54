"""``tests/vis_probe.py`` runs: one trial on each rig, so that the probe
keeps step with the march and its oracles."""

import pytest

import vis_probe


@pytest.mark.parametrize("rig", vis_probe.RIGS, ids=lambda rig: f"{rig[0]}x{rig[1]}")
def test_one_trial_per_rig(rig):
    dis, both, bad_grids = vis_probe.run("blobs", rig, trials=1)
    assert 0 <= dis < both and bad_grids in (0, 1)

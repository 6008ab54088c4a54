"""Metrics emission: byte-stable JSON and CSV carrying the same values."""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from occrebench.benchmark import MetricsReport, compute_metrics
from occrebench.grids import VoxelGrid
from occrebench.reporting import METRIC_COLUMNS, metrics_csv, metrics_to_json


def grid(bits) -> VoxelGrid:
    return VoxelGrid([0.0, 0.0, 0.0], (2, 2, 2), 0.5,
                     np.array(bits, dtype=bool).reshape(2, 2, 2))


def report(pred_bits) -> MetricsReport:
    return compute_metrics(grid(pred_bits), grid([1, 1, 0, 0, 1, 0, 0, 0]),
                           grid([1, 1, 1, 1, 1, 1, 1, 0]),
                           grid([1, 0, 1, 1, 0, 0, 0, 0]))


# No predicted positives, so O_Pre (and precision) are undefined.
EMPTY = [0, 0, 0, 0, 0, 0, 0, 0]
SOME = [1, 0, 1, 0, 0, 1, 0, 1]

GOLDEN_JSON = """{
  "config_fingerprint": "abc123",
  "counts": {
    "frustum_fn": 3,
    "frustum_fp": 0,
    "frustum_tn": 4,
    "frustum_total": 7,
    "frustum_tp": 0,
    "invisible_empty_fn": 0,
    "invisible_empty_fp": 2,
    "invisible_empty_tn": 0,
    "invisible_empty_tp": 2,
    "invisible_total": 4
  },
  "metrics": {
    "ie_acc": 0.5,
    "ie_pre": 0.5,
    "ie_rec": 1.0,
    "iou": 0.0,
    "o_acc": 0.5714285714285714,
    "o_pre": null,
    "o_rec": 0.0,
    "precision": null,
    "recall": 0.0
  },
  "seed": 7,
  "undefined": [
    "o_pre",
    "precision"
  ]
}
"""

GOLDEN_CSV = (
    "arm,o_acc,o_pre,o_rec,ie_acc,ie_pre,ie_rec,iou,precision,recall,frustum_tp,"
    "frustum_fp,frustum_fn,frustum_tn,invisible_empty_tp,invisible_empty_fp,"
    "invisible_empty_fn,invisible_empty_tn,frustum_total,invisible_total\n"
    "none,0.5714285714285714,,0.0,0.5,0.5,1.0,0.0,,0.0,0,0,3,4,2,2,0,0,7,4\n"
    "some,0.42857142857142855,0.3333333333333333,0.3333333333333333,0.25,"
    "0.3333333333333333,0.5,0.2,0.3333333333333333,0.3333333333333333,"
    "1,2,2,2,1,2,1,0,7,4\n")


def test_json_bytes_are_frozen():
    assert metrics_to_json(report(EMPTY), fingerprint="abc123", seed=7) == GOLDEN_JSON


def test_csv_bytes_are_frozen():
    rows = [("none", report(EMPTY)), ("some", report(SOME))]
    assert metrics_csv(rows, label="arm") == GOLDEN_CSV


def test_undefined_metric_is_null_and_empty_cell():
    rep = report(EMPTY)
    assert rep.o_pre is None and rep.undefined == ("o_pre", "precision")
    doc = json.loads(metrics_to_json(rep))
    assert doc["metrics"]["o_pre"] is None and doc["undefined"] == ["o_pre", "precision"]
    row = next(csv.DictReader(io.StringIO(metrics_csv([("x", rep)]))))
    assert row["o_pre"] == "" and row["precision"] == ""


def test_json_and_csv_carry_the_same_values():
    for bits in (EMPTY, SOME):
        rep = report(bits)
        doc = json.loads(metrics_to_json(rep))
        row = next(csv.DictReader(io.StringIO(metrics_csv([("x", rep)]))))
        for name in METRIC_COLUMNS:
            value = doc["metrics"][name]
            assert value == getattr(rep, name)
            assert row[name] == ("" if value is None else repr(value))
            if value is not None:
                assert float(row[name]) == value
        for name, count in doc["counts"].items():
            assert int(row[name]) == count == rep.counts[name]

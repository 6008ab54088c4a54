"""Machine-readable result emission: metrics as JSON and CSV, plus the
gradient-check and magnitude-demo tables.

JSON and CSV carry identical values: undefined metrics are JSON null and
empty CSV cells.  Float formatting goes through repr, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import io
import json

import numpy as np

from .benchmark import MetricsReport
from .gridio import atomic_write_bytes

METRIC_COLUMNS = list(MetricsReport.METRIC_NAMES)
COUNT_COLUMNS = ["frustum_tp", "frustum_fp", "frustum_fn", "frustum_tn",
                 "invisible_empty_tp", "invisible_empty_fp",
                 "invisible_empty_fn", "invisible_empty_tn",
                 "frustum_total", "invisible_total"]


def config_fingerprint(payload: dict) -> str:
    """Stable short hash of a configuration dict."""
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def metrics_to_json(report: MetricsReport, fingerprint: str = "",
                    seed: int | None = None) -> str:
    doc = {
        "metrics": {name: getattr(report, name) for name in METRIC_COLUMNS},
        "counts": {k: report.counts[k] for k in COUNT_COLUMNS},
        "undefined": list(report.undefined),
        "config_fingerprint": fingerprint,
        "seed": seed,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def metrics_csv_header(label: str = "label") -> str:
    return ",".join([label] + METRIC_COLUMNS + COUNT_COLUMNS)


def metrics_to_csv_row(report: MetricsReport, label: str) -> str:
    cells = [label]
    for name in METRIC_COLUMNS:
        value = getattr(report, name)
        cells.append("" if value is None else repr(value))
    cells += [str(report.counts[k]) for k in COUNT_COLUMNS]
    return ",".join(cells)


def metrics_csv(rows, label: str = "label") -> str:
    """rows: iterable of (label, MetricsReport)."""
    out = io.StringIO()
    out.write(metrics_csv_header(label) + "\n")
    for name, report in rows:
        out.write(metrics_to_csv_row(report, str(name)) + "\n")
    return out.getvalue()


def table_csv(header, rows) -> str:
    """Generic numeric table; floats through repr for byte stability."""
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        cells = [repr(float(c)) if isinstance(c, (float, np.floating))
                 else str(c) for c in row]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def write_ppm(path, image: np.ndarray) -> None:
    """8-bit binary PPM dump of a float image in [0, 1], shape (h, w, 3)."""
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    data = np.round(img * 255.0).astype(np.uint8)
    h, w = data.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode()
    atomic_write_bytes(path, header + data.tobytes())

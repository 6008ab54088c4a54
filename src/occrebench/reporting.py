"""Machine-readable result emission: metrics as JSON and CSV.

JSON and CSV carry identical values: undefined metrics are JSON null and
empty CSV cells.  Float formatting goes through repr, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import io
import json

from .benchmark import MetricsReport

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

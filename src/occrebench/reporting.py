"""Machine-readable result emission: metrics as JSON and CSV.

JSON and CSV carry identical values: undefined metrics are JSON null and
empty CSV cells.  Float formatting goes through repr, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json

from .benchmark import COUNT_NAMES, MetricsReport

METRIC_COLUMNS = MetricsReport.METRIC_NAMES


def config_fingerprint(payload: dict) -> str:
    """Stable short hash of a configuration dict."""
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def metrics_to_json(report: MetricsReport, fingerprint: str = "",
                    seed: int | None = None) -> str:
    doc = {
        "metrics": {name: getattr(report, name) for name in METRIC_COLUMNS},
        "counts": {k: report.counts[k] for k in COUNT_NAMES},
        "undefined": list(report.undefined),
        "config_fingerprint": fingerprint,
        "seed": seed,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def metrics_csv(rows, label: str = "label") -> str:
    """rows: iterable of (label, MetricsReport)."""
    lines = [[label, *METRIC_COLUMNS, *COUNT_NAMES]]
    for name, report in rows:
        metrics = (getattr(report, m) for m in METRIC_COLUMNS)
        lines.append([str(name), *("" if v is None else repr(v) for v in metrics),
                      *(str(report.counts[k]) for k in COUNT_NAMES)])
    return "".join(",".join(cells) + "\n" for cells in lines)

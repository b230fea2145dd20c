"""JSON encoding of theorem reports.

A report's side values are floats, so a report holds no complex numbers or
matrices; dictionaries are dumped with sorted keys so identical inputs
produce identical files.
"""

from __future__ import annotations

import json

from .bohr import TheoremReport


def report_to_json(report: TheoremReport) -> dict:
    return {
        "theorem_id": report.theorem_id,
        "r": report.r,
        "mu": report.mu,
        "passed": report.passed,
        "margin": report.margin,
        "side_values": {k: float(v) for k, v in report.side_values.items()},
        "witness": dict(report.witness),
    }


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"

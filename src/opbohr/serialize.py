"""JSON encoding of theorem reports and family specs.

A report's side values are floats, so a report holds no complex numbers or
matrices; dictionaries are dumped with sorted keys so identical inputs
produce identical files.
"""

from __future__ import annotations

import json

from .bohr import TheoremReport
from .generators import FamilySpec


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


def report_from_json(obj) -> TheoremReport:
    return TheoremReport(
        theorem_id=obj["theorem_id"],
        r=obj["r"],
        mu=obj["mu"],
        passed=bool(obj["passed"]),
        margin=float(obj["margin"]),
        side_values=dict(obj["side_values"]),
        witness=dict(obj["witness"]),
    )


def family_spec_to_json(spec: FamilySpec) -> dict:
    return {
        "family_id": spec.family_id,
        "dim": spec.dim,
        "aux_dim": spec.aux_dim,
        "order": spec.order,
        "seed": spec.seed,
        "params": dict(spec.params),
    }


def family_spec_from_json(obj) -> FamilySpec:
    return FamilySpec(
        family_id=obj["family_id"],
        dim=int(obj["dim"]),
        aux_dim=int(obj["aux_dim"]),
        order=int(obj["order"]),
        seed=int(obj["seed"]),
        params=dict(obj.get("params", {})),
    )


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"

"""Compare the reports of two ``opbohr verify`` JSON files, theorem by theorem.

Usage, from the root of a checkout:

    python3 tools/report_diff.py A.json B.json

The reports of A and B must align one to one, in order, on
(theorem_id, r, mu, witness), the witness without its ``order``: a draw
keeps its seed when its truncation order changes. For each theorem id it
prints the report count, the number of reports whose pass flag differs, the
largest |margin_B - margin_A| / scale (the scale of A's side values), the
side-value keys of both whose value differs in some report, with the
largest |b - a| / max(1, |a|), the keys that only B has or only A has, and
the number of reports whose witness order differs. The exit status is 1
when the reports do not align or any pass flag differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _align_key(report) -> tuple:
    witness = {k: v for k, v in report["witness"].items() if k != "order"}
    return (report["theorem_id"], report["r"], report["mu"], json.dumps(witness, sort_keys=True))


def compare(a_reports, b_reports) -> tuple[dict[str, dict], list[str]]:
    """(per theorem id statistics, alignment errors) of two report lists."""
    if len(a_reports) != len(b_reports):
        return {}, [f"report counts differ: {len(a_reports)} vs {len(b_reports)}"]
    errors = [f"report {i} does not align: {_align_key(a)} vs {_align_key(b)}"
              for i, (a, b) in enumerate(zip(a_reports, b_reports))
              if _align_key(a) != _align_key(b)]
    stats: dict[str, dict] = {}
    for a, b in zip(a_reports, b_reports):
        s = stats.setdefault(a["theorem_id"], {"reports": 0, "flags": 0, "orders": 0,
                                               "shift": 0.0, "changed": {}, "added": set(),
                                               "removed": set()})
        s["reports"] += 1
        s["flags"] += a["passed"] != b["passed"]
        s["orders"] += a["witness"].get("order") != b["witness"].get("order")
        scale = a["side_values"].get("scale", 1.0)
        s["shift"] = max(s["shift"], abs(b["margin"] - a["margin"]) / scale)
        sides_a, sides_b = a["side_values"], b["side_values"]
        for key in sides_a.keys() & sides_b.keys():
            if sides_a[key] != sides_b[key]:
                rel = abs(sides_b[key] - sides_a[key]) / max(1.0, abs(sides_a[key]))
                s["changed"][key] = max(s["changed"].get(key, 0.0), rel)
        s["added"] |= sides_b.keys() - sides_a.keys()
        s["removed"] |= sides_a.keys() - sides_b.keys()
    return stats, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the reference report (JSON from opbohr verify)")
    parser.add_argument("b", type=Path, help="the report compared with it")
    args = parser.parse_args(argv)
    a_reports, b_reports = (json.loads(p.read_text())["reports"] for p in (args.a, args.b))
    stats, errors = compare(a_reports, b_reports)
    for error in errors:
        print(f"error: {error}")
    flags = 0
    for theorem_id, s in stats.items():
        flags += s["flags"]
        changed = ", ".join(f"{k} {v:.2g}" for k, v in sorted(s["changed"].items())) or "-"
        print(f"{theorem_id}: {s['reports']} reports, {s['flags']} flag changes, "
              f"max |dmargin|/scale {s['shift']:.3g}; changed {changed}; "
              f"added {', '.join(sorted(s['added'])) or '-'}; "
              f"removed {', '.join(sorted(s['removed'])) or '-'}; "
              f"witness order differs in {s['orders']}")
    return 1 if errors or flags else 0


if __name__ == "__main__":
    sys.exit(main())

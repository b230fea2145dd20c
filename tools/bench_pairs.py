"""Compare two checkouts on one workload with alternating benchmark pairs.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py PARENT CHANGE --workload subordination --seed 1 --pairs 10

Runs ``perfbench/run.py`` (untraced) of the PARENT checkout and of the
CHANGE checkout one after the other, ``--pairs`` times, and alternates which
side runs first: the parent leads the even-numbered pairs, the change the
odd-numbered ones. Both sides run for ``run_seconds`` from the CHANGE
checkout's ``BENCHMARK.json``.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the ratio of the medians (change over parent) and the
number of pairs in which the change reads better, ties counting for neither
side. One run can read far from its code's median on a shared host, so a
metric is read from the pairs, never from one run. The last lines give, per
side, the runs that were not correct and the report digests seen; the
exit status is 1 if any run on either side was not correct, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_record import run_one


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            details, result = run_one(sides[side], args.workload, args.seed, 0, seconds)
            runs[side].append((details, result))
        line = "  ".join(f"{side} wall_s {runs[side][-1][1]['metrics']['wall_s']['value']:.4g}"
                         for side in sides)
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): {line}", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {seconds:g} s runs")
    for metric in bench["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name]["value"] for _, r in runs["parent"]]
        change = [r["metrics"][name]["value"] for _, r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
        ratio = f"{cm / pm:.3f}x" if pm else "n/a"
        print(f"  {name} [{metric['unit']}]: parent {pm:.6g} [{p1:.6g}-{p3:.6g}] -> "
              f"change {cm:.6g} [{c1:.6g}-{c3:.6g}], {ratio}, "
              f"change better in {wins}/{args.pairs}")
    incorrect = 0
    for side in sides:
        failed = sum(not r["correct"] for _, r in runs[side])
        incorrect += failed
        digests = sorted({json.dumps(d["report_digest"]) for d, _ in runs[side]})
        print(f"  {side}: {failed} of {args.pairs} runs not correct; "
              f"report digests {', '.join(digests)}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())

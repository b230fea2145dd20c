"""Record one point of the benchmark trajectory as ``BENCH_<N>.json``.

Usage, from the root of a checkout:

    python3 tools/bench_record.py N
    python3 tools/bench_record.py N --checkout ../other-checkout

Runs the checkout's ``perfbench/run.py`` for each workload named in its
``BENCHMARK.json``, at seeds 1 and 1001 (default and held-out), untraced and
traced: 12 runs of ``run_seconds`` each (from ``BENCHMARK.json``), one
after another. The file is written to the root of the repository that holds
this script. It holds the checkout's commit, the environment line of the
first run, and, for each run, its workload,
seed, trace flag, the last JSON line of ``run.py`` (``correct``,
``attempted``, ``failed``, ``metrics``) and the details line without its
environment. A run whose environment differs from the first keeps its own.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 1001)
TRACES = (0, 1)


def _commit(checkout: Path) -> str:
    out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                         cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(checkout: Path, workload: str, seed: int, trace: int, seconds: float):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    details, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="N in the output name BENCH_<N>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose perfbench is run (default: this repository)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    environment = None
    runs = []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            for trace in TRACES:
                details, result = run_one(checkout, workload, seed, trace, seconds)
                env = details.pop("environment")
                if environment is None:
                    environment = env
                elif env != environment:
                    details["environment"] = env
                runs.append({"workload": workload, "seed": seed, "trace": trace,
                             "result": result, "details": details})
                print(f"{workload} seed {seed} trace {trace}: correct={result['correct']}",
                      file=sys.stderr)
    record = {"number": args.number, "commit": _commit(checkout), "seconds": seconds,
              "environment": environment, "runs": runs}
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

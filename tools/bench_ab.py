"""Compare two checkouts on one workload with an interleaved in-process A/B.

Usage, from the root of a checkout:

    python3 tools/bench_ab.py PARENT CHANGE --workload subordination --seed 1 --rounds 20

Starts one long-lived worker process per side. Each worker imports the
package from its own checkout's ``src/`` and builds the workload's batch with
that checkout's ``perfbench/workloads.py``, with BLAS single-threaded, as
``perfbench/run.py`` does. In every round the two workers run each instance
of the batch in turn, the one right after the other and on the same CPU; the
CPU changes from instance to instance and the side that goes first from round
to round. Each round also times one fresh set-up process per side
(``perfbench/probe.py``: start to first completed check), in alternating
order.

Separate-process pairs (``tools/bench_pairs.py``) also measure where each
process's code happens to lie in memory; here both sides run the same
instance seconds apart on one CPU, so a gap under about 10 % can be read.

It prints, per side, the sum over instances of each instance's best time
over the rounds (the ``wall_s`` of ``perfbench/run.py``) and the ratio
change over parent; the median and quartiles of the per-instance ratios of
best times and the number of instances the change runs faster; the rounds in
which the change's round time is lower; and the median set-up time with the
rounds in which the change's is lower. The last lines give, per side, the
failed checks and whether every round produced the same report digests, and
whether the two sides' digests agree (a change may alter its reports on
purpose, so that is printed, not enforced). The exit status is 1 if a check
failed or a side's digests changed between rounds, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import _quartiles

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env() -> dict:
    return {**os.environ, **{var: "1" for var in BLAS_ENV}}


class Worker:
    """One side: a process that keeps the checkout's batch and runs instances on request."""

    def __init__(self, checkout: Path, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(checkout), workload, str(seed)],
            cwd=checkout, env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.instances = self._reply()["instances"]

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def run(self, index: int, cpu: int) -> dict:
        """{"seconds", "failed", "digest"} of one timed run of instance ``index`` on ``cpu``."""
        self.proc.stdin.write(f"{index} {cpu}\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def probe_setup(checkout: Path, workload: str, seed: int) -> float:
    """Seconds from starting the checkout's ``perfbench/probe.py`` to its "ready" line."""
    tmpdir = tempfile.mkdtemp(prefix="bench-ab-")
    try:
        cmd = [sys.executable, "perfbench/probe.py", workload, str(seed), tmpdir]
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=checkout, env=_env(), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe in {checkout} failed with code {proc.returncode}")
    return elapsed


def serve(checkout: Path, workload: str, seed: int) -> int:
    """Worker side: build the batch, then answer "INDEX CPU" lines until stdin closes."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    tmpdir = tempfile.mkdtemp(prefix="bench-ab-")
    try:
        batch = workloads.build(workload, seed, tmpdir)
        batch[0].first_check()  # lazy set-up finishes before the first timed run
        print(json.dumps({"instances": len(batch)}), flush=True)
        for line in sys.stdin:
            index, cpu = (int(word) for word in line.split())
            os.sched_setaffinity(0, {cpu})
            instance = batch[index]
            start = time.perf_counter()
            raw = instance.execute()
            seconds = time.perf_counter() - start
            outcome = instance.verify(raw)
            print(json.dumps({"seconds": seconds, "failed": outcome.failed,
                              "digest": outcome.digest}), flush=True)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        checkout, workload, seed = argv[1:]
        return serve(Path(checkout), workload, int(seed))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cpus = sorted(os.sched_getaffinity(0))

    workers = {}
    try:
        for side, checkout in sides.items():
            workers[side] = Worker(checkout, args.workload, args.seed)
        count = workers["parent"].instances
        if workers["change"].instances != count:
            raise RuntimeError("the two checkouts build batches of different sizes")
        # runs[side][round][index] and setup[side][round]
        runs = {side: [] for side in sides}
        setup = {side: [] for side in sides}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append([None] * count)
                setup[side].append(probe_setup(sides[side], args.workload, args.seed))
            for i in range(count):
                cpu = cpus[(r + i) % len(cpus)]
                for side in order:
                    runs[side][r][i] = workers[side].run(i, cpu)
            line = "  ".join(f"{side} {sum(x['seconds'] for x in runs[side][r]):.4g} s"
                             for side in sides)
            print(f"round {r + 1}/{args.rounds} ({order[0]} first): {line}", file=sys.stderr)
    finally:
        for worker in workers.values():
            worker.close()

    best = {side: [min(runs[side][r][i]["seconds"] for r in range(args.rounds))
                   for i in range(count)] for side in sides}
    totals = {side: sum(best[side]) for side in sides}
    ratios = [c / p for p, c in zip(best["parent"], best["change"])]
    faster = sum(c < p for p, c in zip(best["parent"], best["change"]))
    round_sums = {side: [sum(x["seconds"] for x in rows) for rows in runs[side]]
                  for side in sides}
    round_wins = sum(c < p for p, c in zip(round_sums["parent"], round_sums["change"]))
    q1, qm, q3 = _quartiles(ratios)
    (p1, pm, p3), (c1, cm, c3) = _quartiles(setup["parent"]), _quartiles(setup["change"])
    setup_wins = sum(c < p for p, c in zip(setup["parent"], setup["change"]))

    print(f"{args.workload} seed {args.seed}: {count} instances, {args.rounds} rounds")
    print(f"  best-time sum [s]: parent {totals['parent']:.6g} -> change "
          f"{totals['change']:.6g}, {totals['change'] / totals['parent']:.3f}x")
    print(f"  per-instance best-time ratio: median {qm:.3f}x [{q1:.3f}-{q3:.3f}], "
          f"change faster on {faster}/{count}")
    print(f"  round time: change lower in {round_wins}/{args.rounds} rounds")
    print(f"  setup [s]: parent {pm:.4g} [{p1:.4g}-{p3:.4g}] -> change {cm:.4g} "
          f"[{c1:.4g}-{c3:.4g}], {cm / pm:.3f}x, change lower in {setup_wins}/{args.rounds}")
    status = 0
    digests = {}
    for side in sides:
        failed = sum(x["failed"] for rows in runs[side] for x in rows)
        seen = {tuple(x["digest"] for x in rows) for rows in runs[side]}
        digests[side] = seen
        steady = len(seen) == 1
        status |= bool(failed) or not steady
        print(f"  {side}: {failed} failed checks; report digests identical in every round: "
              f"{'yes' if steady else 'no'}")
    print(f"  report digests equal between sides: "
          f"{'yes' if digests['parent'] == digests['change'] else 'no'}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())

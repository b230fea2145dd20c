"""opbohr benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload harmonic-grid --seed 1 --seconds 35 --trace 0

The workloads are described in ``workloads.py``. A run repeats the workload's
fixed batch of instances as a closed loop until ``--seconds`` have passed.
BLAS runs single-threaded in every run, so two commits compare under the same
settings.

Timings are best-of-repeats: each instance's latency is the fastest of its
repeats in the run, and the batch wall time is the sum of those. On a shared
host the same work runs up to twice as slow while other tenants are busy, so
the slower repeats measure their load, not this code. The busy spells differ
from CPU to CPU, so successive batches run on each allowed CPU in turn.

``--trace 0`` prints the end-to-end metrics: batch wall time, throughput,
the median of the instances' latencies, the share of checks that pass, peak
memory, and set-up time (the median over several fresh processes, each timed
from its start to its first completed check). The 95th percentile of the
latencies is on the details line only: a batch has 32 to 36 instances, so
fewer than two lie beyond it, and it is too unsteady to compare two commits.
``--trace 1`` alternates untraced and traced batches and prints per-layer
self times and computed counts of the traced ones (see ``tracer.py``), plus
the tracing overhead.

Correctness is checked on every instance: each check's normalized margin is at
least -1e-9, ``opbohr verify`` exits with 0, and the digest of the batch's
reports, and in a traced run its computed counts, are identical on every
repeat. A failed check is counted, not fatal.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details: environment, digest, sample counts and errors.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5


@dataclass
class BatchRun:
    latencies: list[float]
    attempted: int
    failed: int
    digest: str
    errors: list[str]
    spans: tuple[int, int]  # index range in the tracer's spans

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_batch(batch: list, tracer=None) -> BatchRun:
    lo = len(tracer.spans) if tracer else 0
    latencies, outcomes = [], []
    if tracer:
        tracer.install()
    try:
        for instance in batch:
            execute = instance.execute if tracer is None else tracer.wrap(
                "bench.instance", instance.execute)
            start = time.perf_counter()
            raw = execute()
            latencies.append(time.perf_counter() - start)
            outcomes.append(instance.verify(raw))
    finally:
        if tracer:
            tracer.uninstall()
    hi = len(tracer.spans) if tracer else 0
    return BatchRun(
        latencies=latencies,
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        digest=hashlib.sha256("".join(o.digest for o in outcomes).encode()).hexdigest(),
        errors=[e for o in outcomes for e in o.errors],
        spans=(lo, hi),
    )


def probe_setup(name: str, seed: int, tmpdir: str) -> float:
    """Seconds from starting a fresh process to its first completed check."""
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed), tmpdir]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return elapsed


def best_latencies(runs: list[BatchRun]) -> list[float]:
    """Each instance's fastest latency over the repeats of its batch."""
    return [min(times) for times in zip(*(b.latencies for b in runs))]


def _p95(values: list[float]) -> float:
    """95th percentile, interpolated between samples and never beyond the largest."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _blas_threads() -> dict[str, int]:
    """Thread count reported by each loaded OpenBLAS library."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                out[os.path.basename(path)] = int(fn())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return None

    cpu_model = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas_version(numpy), "scipy": blas_version(scipy)},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": _blas_threads(),
    }


def end_to_end(batch: list, plain: list[BatchRun], setup: list[float]) -> dict:
    latencies = best_latencies(plain)
    wall = sum(latencies)
    attempted = sum(b.attempted for b in plain)
    failed = sum(b.failed for b in plain)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": _metric(wall, "s"),
        "checks_per_s": _metric(plain[0].attempted / wall, "1/s"),
        "instances_per_s": _metric(len(batch) / wall, "1/s"),
        "instance_ms_p50": _metric(1e3 * statistics.median(latencies), "ms"),
        "check_pass_ratio": _metric(1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


def per_layer(tracer, plain: list[BatchRun], traced: list[BatchRun]) -> tuple[dict, dict, list]:
    """(metrics, inclusive shares of the traced wall, computed counts of each repeat)."""
    measured, exact = zip(*(tracer.layer_metrics(*b.spans) for b in traced))
    metrics = {}
    for name in measured[0]:
        unit = "bytes" if name.endswith("_bytes") else "s"
        metrics[name] = _metric(min(m[name] for m in measured), unit)
    for name, value in exact[0].items():
        unit = "ratio" if name.endswith(("_ratio", "_per_prepare")) else "count"
        metrics[name] = _metric(value, unit)
    ratio = sum(best_latencies(traced)) / sum(best_latencies(plain))
    metrics["trace.overhead_ratio"] = _metric(ratio, "ratio")
    shares = {}
    for b in traced:
        for name, s in tracer.summary(*b.spans).items():
            shares.setdefault(name, []).append(s["inclusive_s"] / b.wall)
    shares = {name: statistics.median(v) for name, v in sorted(shares.items())}
    return metrics, shares, exact


def run(workloads, tracing, name: str, seed: int, seconds: float, trace: bool,
        tmpdir: str) -> tuple[dict, dict]:
    batch = workloads.build(name, seed, tmpdir)
    batch[0].first_check()  # lazy set-up finishes before the clock starts
    tracer = tracing.Tracer() if trace else None
    probes = 0 if trace else SETUP_PROBES
    setup: list[float] = []
    plain: list[BatchRun] = []
    traced: list[BatchRun] = []
    cpus = sorted(os.sched_getaffinity(0))

    def on_next_cpu(done: list[BatchRun]) -> None:
        os.sched_setaffinity(0, {cpus[len(done) % len(cpus)]})

    start = time.perf_counter()
    while (not plain or (tracer and not traced) or len(setup) < probes
           or time.perf_counter() < start + seconds):
        # set-up probes are spread over the run, between batches
        if len(setup) < probes and time.perf_counter() >= start + len(setup) * seconds / probes:
            setup.append(probe_setup(name, seed, tmpdir))
        elif tracer and len(traced) < len(plain):
            on_next_cpu(traced)
            traced.append(run_batch(batch, tracer))
        else:
            on_next_cpu(plain)
            plain.append(run_batch(batch))
    os.sched_setaffinity(0, cpus)
    runs = plain + traced
    digests = sorted({b.digest for b in runs})
    correct = all(b.failed == 0 for b in runs) and len(digests) == 1
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "batch": {"instances": len(batch), "checks": runs[0].attempted},
        "repeats": {"untraced": len(plain), "traced": len(traced)},
        "latency_samples": len(batch),
        "report_digest": digests[0] if len(digests) == 1 else digests,
        "check_fail_ratio": sum(b.failed for b in runs) / sum(b.attempted for b in runs),
        "errors": sorted({e for b in runs for e in b.errors})[:10],
    }
    if trace:
        metrics, shares, exact = per_layer(tracer, plain, traced)
        counts_repeat = all(e == exact[0] for e in exact)
        correct = correct and counts_repeat
        details["computed_counts_identical"] = counts_repeat
        details["computed"] = sorted(exact[0])
        details["inclusive_share"] = shares
    else:
        metrics = end_to_end(batch, plain, setup)
        details["setup_samples_s"] = setup
        details["instance_ms_p95"] = 1e3 * _p95(best_latencies(plain))
    result = {
        "correct": correct,
        "attempted": sum(b.attempted for b in runs),
        "failed": sum(b.failed for b in runs),
        "metrics": metrics,
    }
    return result, details


def main(argv=None) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads OpenBLAS
    sys.path.insert(0, str(SRC))
    try:
        import opbohr
    except ImportError as exc:
        print(f"error: cannot import opbohr from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(opbohr.__file__).resolve().parent.parent != SRC:
        print(f"error: opbohr was imported from {opbohr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = workloads.WORKLOADS[args.workload][1] if args.seed is None else args.seed
    if seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result, details = run(workloads, tracing, args.workload, seed, args.seconds,
                              bool(args.trace), tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

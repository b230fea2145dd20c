"""Set-up probe: import the package, complete one warm-up check, print "ready".

``run.py`` times this process from its start to the "ready" line; the median
over several probes is the ``setup_s`` metric.

Usage: python3 perfbench/probe.py WORKLOAD SEED TMPDIR
"""

import sys
from pathlib import Path


def main(argv: list[str]) -> None:
    name, seed, tmpdir = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.build(name, int(seed), tmpdir)[0].first_check()
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

"""Test-suite defaults, set before any test module imports numpy.

One BLAS thread: multi-threaded OpenBLAS can make a small matrix product
several times slower on a host with few cores.  A value already in the
environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

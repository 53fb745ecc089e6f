"""Pin OpenBLAS to one thread before any test module loads numpy.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy first loads it, and
the benchmark's tiny runs (perfbench/tests) check that they ran on one
BLAS thread. A variable already set is left alone.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

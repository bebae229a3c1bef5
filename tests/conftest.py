"""Pin the BLAS libraries to one thread before numpy is imported.

Multi-threaded BLAS splits some products into blocks whose partial sums
round differently, so the golden trace digests depend on the thread count.
The benchmark (``perfbench/run.py``) runs single-threaded, and so does the
suite, whatever the number of CPUs.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin the BLAS thread "
        "count; the golden trace digests need one thread"
    )

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

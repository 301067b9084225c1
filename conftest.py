"""Pin BLAS and OpenMP to one thread before NumPy loads, as perfbench/run.py
does, so the acceptance criteria's figures do not depend on the host's
default thread count. A value already set in the environment wins."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

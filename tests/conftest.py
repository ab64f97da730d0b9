"""Test-session set-up.

BLAS runs one thread per call, as in ``perfbench/``: the reconstruction's
frame workers are the parallelism, and a multi-threaded BLAS under two
frame workers oversubscribes the cores. The variables are read when
numpy loads its BLAS, so they are set here, before any test module
imports numpy; values already in the environment are kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

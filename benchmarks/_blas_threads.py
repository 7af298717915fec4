"""Pin BLAS and OpenMP to one thread unless the shell already sets a count.

Import this before numpy: the thread pools size themselves when numpy
loads.  The variables are the ones ``perfbench/common.py::THREAD_ENV`` pins,
so benchmark timings and output digests compare with perfbench runs, and a
2-core host does not pay for BLAS threads spinning against the serving
threads (a 1 ms forward read 40-70 ms that way).
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

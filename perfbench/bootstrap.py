"""Process set-up shared by the benchmark's entry points; import it first.

It gives BLAS and OpenMP one thread before numpy is imported, and puts the
checkout's ``src/`` first on the path so that proxcalc comes from the
sources next to this directory, never from an installed copy.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.dont_write_bytecode = True

import proxcalc  # noqa: E402

if not os.path.abspath(proxcalc.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"proxcalc imported from {proxcalc.__file__}, not {SRC}")

"""Process set-up shared by the benchmark's entry points.

Import this before numpy: it pins the BLAS and OpenMP pools to one thread
and puts the checkout's own ``src`` first on the import path, so the
benchmark always measures the sources next to it, never an installed copy.
"""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingSources(RuntimeError):
    pass


def prepare() -> pathlib.Path:
    """Pin thread pools, check for the sources and put them on sys.path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "grushin_hardy" / "__init__.py").is_file():
        raise MissingSources(f"no grushin_hardy sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return ROOT

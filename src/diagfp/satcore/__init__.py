"""CDCL kernel with a compiled fast path.

The compiled extension (`_ckernel`, Cython) and the pure-Python solver
implement the same algorithm behind the same interface; the extension is
picked at import time unless it is unavailable or ``DIAGFP_PURE_PYTHON`` is
set.
"""

import os

if os.environ.get("DIAGFP_PURE_PYTHON"):
    from .pysolver import MiniSolver
    KERNEL = "python"
else:
    try:
        from ._ckernel import MiniSolver  # type: ignore[no-redef]
        KERNEL = "cython"
    except ImportError:
        from .pysolver import MiniSolver  # type: ignore[no-redef]
        KERNEL = "python"

__all__ = ["MiniSolver", "KERNEL"]

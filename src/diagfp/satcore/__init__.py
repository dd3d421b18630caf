"""CDCL kernel with a compiled fast path.

The compiled extension (`_ckernel`, Cython) and the pure-Python solver
implement the same algorithm behind the same interface, non-decision
variables (``set_decision_var``) included; the extension is picked at import
time unless it is unavailable or ``DIAGFP_PURE_PYTHON`` is set.
``_ckernel.pyx`` is the extension's only source: ``setup.py`` cythonizes it
when the package is built, so building it needs Cython.
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

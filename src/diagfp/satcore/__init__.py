"""CDCL kernel with a compiled fast path.

The compiled extension (`_ckernel`, Cython) and the pure-Python solver
implement the same algorithm behind the same interface, non-decision
variables (``set_decision_var``) included.  The extension is picked at
import time whenever it imports, the pure-Python solver otherwise;
``KERNEL`` names the one picked.  Both make the same search, so their
verdicts, cores, models and counts agree on the same calls.  ``_ckernel.pyx``
is the extension's only source: ``setup.py`` cythonizes it when the package
is built, so building it needs Cython.
"""

try:
    from ._ckernel import MiniSolver
    KERNEL = "cython"
except ImportError:
    from .pysolver import MiniSolver  # type: ignore[no-redef]
    KERNEL = "python"

__all__ = ["MiniSolver", "KERNEL"]

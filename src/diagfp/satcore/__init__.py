"""CDCL kernel: a pure-Python Minisat-style solver with assumption support.

``MiniSolver`` is the one kernel every SAT test solver runs on; its search is
described in :mod:`diagfp.satcore.pysolver`.  ``KERNEL`` names it in
benchmark headers.
"""

from .pysolver import MiniSolver

KERNEL = "python"

__all__ = ["MiniSolver", "KERNEL"]

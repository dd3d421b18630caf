"""Minimal-diagnosis engine over preference-ordered hypothesis spaces."""

from .hypothesis import (BHS, MHS, SHS, SQHS, Hypothesis, Space, bin_hyp,
                         children, leq, min_antichain, multi_hyp, order_key,
                         otimes, seq_hyp, set_hyp)

__version__ = "0.1.0"

__all__ = [
    "BHS", "MHS", "SHS", "SQHS", "Hypothesis", "Space", "bin_hyp", "children",
    "leq", "min_antichain", "multi_hyp", "order_key", "otimes", "seq_hyp",
    "set_hyp", "__version__",
]

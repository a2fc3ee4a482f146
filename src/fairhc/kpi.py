"""Evaluation metrics: price of fairness and Gini coefficient of an allocation."""
from __future__ import annotations

import warnings

import numpy as np

from .errors import ZeroUtilitarianHC


def price_of_fairness(hc_uti: float, hc_fair: float) -> float:
    """Relative hosting capacity lost by enforcing fairness: (uti - fair) / uti.

    A fair solution exceeding the utilitarian reference (solver noise) yields a
    small negative value, reported verbatim with a warning so regressions stay
    visible.
    """
    if hc_uti <= 0:
        raise ZeroUtilitarianHC("utilitarian reference HC must be positive")
    pof = (hc_uti - hc_fair) / hc_uti
    if pof < 0:
        warnings.warn(f"fair HC exceeds utilitarian reference (PoF = {pof:.3e})",
                      stacklevel=2)
    return pof


def gini(allocation) -> float:
    """Normalized mean absolute pairwise difference over all ordered pairs.

    0 is perfect equality; the all-zero vector returns 0 by convention (with a
    warning) since no nonzero reference exists.
    """
    p = np.asarray(allocation, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("allocation must be a non-empty 1-d vector")
    if np.any(p < 0):
        raise ValueError("allocation must be non-negative")
    if not p.any():
        warnings.warn("all-zero allocation: Gini defined as 0", stacklevel=2)
        return 0.0
    n = len(p)
    total = np.abs(p[:, None] - p[None, :]).sum()
    # divide by the sum, not the mean: the mean of subnormal values can underflow to 0
    return float(total / (2.0 * n * p.sum()))

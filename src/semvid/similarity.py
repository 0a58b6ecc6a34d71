"""Similarity kernels between embedded token sets.

Three kernels, all symmetric:

* pooled cosine        cos(sum(X), sum(Y))
* percentile Hausdorff min over both directions of a lower-order statistic
                       of per-point best cosine matches (default l = 50,
                       the median)
* cross sum            sum of all pairwise dot products, which equals the
                       dot product of the pooled sums

These are the single-pair forms, for library callers and tests: no
``semvid`` command imports this module. Ranking scores every concept at
once in :mod:`semvid.concepts` and every video at once in
:mod:`semvid.retrieval`.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .concepts import lower_percentile_index
from .config import DEFAULT_CONFIG
from .embedding import _dot_norms, sum_pool
from .errors import ZeroNormError


def _vectors(value) -> np.ndarray:
    """``value`` as a C-contiguous float64 (n, dim) set of n >= 1 rows,
    each of finite, nonzero norm; anything else raises
    :class:`ZeroNormError`, so that no kernel divides by a zero norm."""
    arr = np.ascontiguousarray(value, dtype=np.float64)
    if not (arr.ndim == 2 and len(arr) and 0.0 < _dot_norms(arr).min() < np.inf):
        raise ZeroNormError("similarity kernels need a non-empty (n, dim) set of rows "
                            "of finite, nonzero norm")
    return arr


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroNormError("cosine undefined for a zero-norm vector")
    return float(np.dot(a, b)) / (na * nb)


def sim_pooled(x, y) -> float:
    """Cosine of the two sum-pooled vectors."""
    xs, ys = _vectors(x), _vectors(y)
    return _cosine(sum_pool(xs), sum_pool(ys))


def sim_hausdorff(x, y, percentile: float = DEFAULT_CONFIG.percentile) -> float:
    """Percentile Hausdorff similarity under cosine point similarity.

    For each point the best cosine match in the other set is taken; the
    directed score is the lower percentile of those maxima, and the result
    is the smaller of the two directions. Singletons reduce to the plain
    cosine of the two points.
    """
    xs, ys = _vectors(x), _vectors(y)
    if xs.shape[0] == 1 and ys.shape[0] == 1:
        return _cosine(xs[0], ys[0])
    best_x, best_y = kernels.directed_max_cosines(xs, ys)
    at_x, at_y = lower_percentile_index(percentile, [len(best_x), len(best_y)])
    return float(min(np.sort(best_x)[at_x], np.sort(best_y)[at_y]))


def sim_crosssum(x, y) -> float:
    """Sum of dot products over all cross pairs.

    With unit-normalized inputs each term is a cosine. Algebraically this
    equals dot(sum(X), sum(Y)); the pairwise form is kept here so that the
    identity stays a meaningful check.
    """
    xs, ys = _vectors(x), _vectors(y)
    return float(np.sum(xs @ ys.T))

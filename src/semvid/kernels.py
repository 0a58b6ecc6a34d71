"""The two numeric kernels of ranking, in numpy.

``marginal_scores`` reduces each row in a fixed order, so a video's score
does not depend on its row and rankings stay bit-identical across runs and
corpus orderings.
"""

from __future__ import annotations

import numpy as np


def directed_max_cosines(x: np.ndarray, y: np.ndarray):
    """``(best_x, best_y)`` with ``best_x[i] = max_j cos(x_i, y_j)`` and
    ``best_y[j] = max_i cos(x_i, y_j)``, for (n, dim) float64 point sets."""
    sims = (x @ y.T) / np.outer(np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1))
    return sims.max(axis=1), sims.max(axis=0)


def marginal_scores(sub: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-video raw relevance: each score row dotted with the concept
    weights, as a fixed-order reduction rather than a BLAS gemv, whose
    summation order can depend on the row's position in the matrix."""
    return (sub * weights).sum(axis=1)

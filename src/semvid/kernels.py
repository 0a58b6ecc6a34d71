"""Row reductions of ranking, in numpy.

Every float64 per-row score of ranking (query-concept relevance, the
marginalization over the top-R concepts, the text channels and the
re-scored nearest words) is a dot product reduced by :func:`row_dots`, so a
score depends only on its own row, never on the rest of the matrix or on
the row's position in it, and rankings stay bit-identical across runs and
corpus orderings.
"""

from __future__ import annotations

import numpy as np


def row_dots(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each row of an (n, dim) matrix with one point ``v``
    of shape (dim,), giving (n,), or with each of an (m, dim) stack, giving
    (n, m).

    Each row is reduced in the same fixed order wherever it sits: a row
    gives the same bits alone, inside a block, shuffled, at any offset or
    alignment, or as a strided view. A BLAS gemv or gemm does not promise
    that, since its summation order can depend on the row's position.
    """
    return np.einsum("ij,...j->i...", rows, v)


def directed_max_cosines(x: np.ndarray, y: np.ndarray):
    """``(best_x, best_y)`` with ``best_x[i] = max_j cos(x_i, y_j)`` and
    ``best_y[j] = max_i cos(x_i, y_j)``, for (n, dim) float64 point sets."""
    sims = row_dots(x, y) / np.outer(np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1))
    return sims.max(axis=1), sims.max(axis=0)


def marginal_scores(sub: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-video raw relevance: each score row dotted with the concept
    weights."""
    return row_dots(sub, weights)

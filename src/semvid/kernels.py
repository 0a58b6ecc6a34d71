"""Hot numeric kernels, compiled with numba when available.

Backend selection: the ``SEMVID_KERNELS`` environment variable may be
``numba``, ``numpy`` or ``auto`` (default). ``auto`` picks numba when the
import succeeds and falls back to pure numpy otherwise. Both paths compute
the same quantities; ``semvid bench --backend both`` times them side by side.

Kernels here are deliberately serial: per-row results must not depend on
scheduling, so scores stay bit-identical across runs and corpus orderings.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import SemvidError

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only on stripped installs
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


_VALID = ("numba", "numpy")


def _initial_backend() -> str:
    flag = os.environ.get("SEMVID_KERNELS", "auto").strip().lower()
    if flag == "numpy":
        return "numpy"
    if flag == "numba":
        if not HAS_NUMBA:
            raise SemvidError("SEMVID_KERNELS=numba but numba is not importable")
        return "numba"
    if flag in ("auto", ""):
        return "numba" if HAS_NUMBA else "numpy"
    raise SemvidError(f"SEMVID_KERNELS must be auto|numba|numpy, got {flag!r}")


_backend = _initial_backend()


def active_backend() -> str:
    return _backend


def set_backend(name: str) -> None:
    """Override the kernel backend for this process (bench and tests)."""
    global _backend
    if name not in _VALID:
        raise SemvidError(f"unknown kernel backend {name!r}")
    if name == "numba" and not HAS_NUMBA:
        raise SemvidError("numba backend requested but numba is not importable")
    _backend = name


@njit(cache=True)
def _directed_max_nb(x, y, xn, yn):
    n, m = x.shape[0], y.shape[0]
    dim = x.shape[1]
    best_x = np.full(n, -2.0)
    best_y = np.full(m, -2.0)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(dim):
                acc += x[i, k] * y[j, k]
            cos = acc / (xn[i] * yn[j])
            if cos > best_x[i]:
                best_x[i] = cos
            if cos > best_y[j]:
                best_y[j] = cos
    return best_x, best_y


def _directed_max_np(x, y, xn, yn):
    sims = (x @ y.T) / np.outer(xn, yn)
    return sims.max(axis=1), sims.max(axis=0)


def directed_max_cosines(x: np.ndarray, y: np.ndarray):
    """Best cosine match per point, both directions.

    Returns ``(best_x, best_y)`` where ``best_x[i] = max_j cos(x_i, y_j)``
    and ``best_y[j] = max_i cos(x_i, y_j)``.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    xn = np.linalg.norm(x, axis=1)
    yn = np.linalg.norm(y, axis=1)
    if _backend == "numba":
        return _directed_max_nb(x, y, xn, yn)
    return _directed_max_np(x, y, xn, yn)


@njit(cache=True)
def _marginal_nb(sub, weights):
    out = np.empty(sub.shape[0])
    for i in range(sub.shape[0]):
        acc = 0.0
        for k in range(weights.shape[0]):
            acc += sub[i, k] * weights[k]
        out[i] = acc
    return out


def marginal_scores(sub: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-video raw relevance: dot of each score row with concept weights.

    Each row is a fixed-order reduction rather than a BLAS gemv, whose
    summation order can depend on the row's position in the matrix.
    """
    sub = np.ascontiguousarray(sub, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if _backend == "numba":
        return _marginal_nb(sub, weights)
    return (sub * weights).sum(axis=1)


def warmup() -> None:
    """Trigger JIT compilation so timed runs measure steady state."""
    if _backend != "numba":
        return
    x = np.ones((2, 3))
    directed_max_cosines(x, x)
    marginal_scores(x, np.ones(3))

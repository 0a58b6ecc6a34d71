"""The numeric kernels of ranking on their own."""

import numpy as np

from semvid import kernels

from oracles import random_set


def test_directed_max_shapes_and_bounds():
    rng = np.random.default_rng(3)
    x, y = random_set(rng, 5, 4), random_set(rng, 3, 4)
    best_x, best_y = kernels.directed_max_cosines(x, y)
    assert best_x.shape == (5,) and best_y.shape == (3,)
    assert np.all(best_x <= 1.0 + 1e-12) and np.all(best_x >= -1.0 - 1e-12)

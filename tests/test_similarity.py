import numpy as np
import pytest

from semvid.concepts import lower_percentile_index
from semvid.errors import ZeroNormError
from semvid.similarity import sim_crosssum, sim_hausdorff, sim_pooled

from oracles import crosssum_oracle, hausdorff_oracle, random_set


def test_pooled_self_similarity():
    x = np.array([[1.0, 0.0, 0.0]])
    assert sim_pooled(x, x) == pytest.approx(1.0)


def test_pooled_orthogonal():
    assert sim_pooled(np.array([[1.0, 0, 0]]), np.array([[0, 1.0, 0]])) == pytest.approx(0.0)


def test_pooled_hand_computed():
    x = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    y = np.array([[1.0, 0, 0]])
    assert sim_pooled(x, y) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_pooled_zero_norm_is_an_error():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])  # vectors cancel
    with pytest.raises(ZeroNormError):
        sim_pooled(x, np.array([[1.0, 0.0]]))


def test_hausdorff_singletons_equal_pooled():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = random_set(rng, 1, 6), random_set(rng, 1, 6)
        assert sim_hausdorff(x, y) == sim_pooled(x, y)


def test_hausdorff_self_at_full_percentile():
    x = random_set(np.random.default_rng(3), 5, 4)
    assert sim_hausdorff(x, x, 100.0) == pytest.approx(1.0, abs=1e-12)


def test_hausdorff_matches_double_loop_oracle():
    rng = np.random.default_rng(4)
    x, y = random_set(rng, 3, 5), random_set(rng, 4, 5)
    assert sim_hausdorff(x, y, 50.0) == pytest.approx(hausdorff_oracle(x, y, 50.0), abs=1e-12)


def test_crosssum_single_pair():
    assert sim_crosssum(np.array([[1.0, 0]]), np.array([[1.0, 0]])) == pytest.approx(1.0)


def test_crosssum_pairwise():
    x = np.array([[1.0, 0], [0, 1.0]])
    y = np.array([[1.0, 0]])
    assert sim_crosssum(x, y) == pytest.approx(1.0, abs=1e-12)  # 1*1 + 0*1


def test_crosssum_equals_pooled_dot():
    rng = np.random.default_rng(5)
    x, y = random_set(rng, 6, 7), random_set(rng, 4, 7)
    pooled_dot = float(np.dot(x.sum(axis=0), y.sum(axis=0)))
    assert sim_crosssum(x, y) == pytest.approx(pooled_dot, abs=1e-10)
    assert sim_crosssum(x, y) == pytest.approx(crosssum_oracle(x, y), abs=1e-10)


def test_kernels_are_symmetric():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = random_set(rng, int(rng.integers(1, 5)), 6)
        y = random_set(rng, int(rng.integers(1, 5)), 6)
        assert sim_pooled(x, y) == pytest.approx(sim_pooled(y, x), abs=1e-12)
        assert sim_hausdorff(x, y) == pytest.approx(sim_hausdorff(y, x), abs=1e-12)
        assert sim_crosssum(x, y) == pytest.approx(sim_crosssum(y, x), abs=1e-10)


def test_outputs_stay_in_range_with_duplicates():
    rng = np.random.default_rng(7)
    x = random_set(rng, 4, 5)
    duplicated = np.vstack([x, x[0], x[0]])
    y = random_set(rng, 3, 5)
    for value in (sim_pooled(duplicated, y), sim_hausdorff(duplicated, y)):
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


def test_pooled_self_is_one_whenever_defined():
    rng = np.random.default_rng(8)
    x = random_set(rng, 5, 6)
    assert sim_pooled(x, x) == pytest.approx(1.0, abs=1e-12)


def test_lower_percentile_is_an_order_statistic():
    values = np.sort([0.4, 0.1, 0.3, 0.2])
    assert values[lower_percentile_index(50.0, len(values))] == 0.2  # ceil(0.5*4)-1 = index 1
    assert values[lower_percentile_index(100.0, len(values))] == 0.4
    assert np.array([0.9])[lower_percentile_index(50.0, 1)] == 0.9
    # one index per size, as the Hausdorff kernel takes them for all concepts
    assert lower_percentile_index(50.0, [4, 4, 1]).tolist() == [1, 1, 0]
    with pytest.raises(ValueError):
        lower_percentile_index(0.0, len(values))

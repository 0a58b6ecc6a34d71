"""Property tests: the pure-Python metrics against numpy and exact routes.

``evaluate`` and its means run without numpy; these check AP and AUC
against numpy oracles bit for bit, and the means against exact rational
means.
"""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from semvid.evaluation import (  # noqa: E402
    GroundTruth,
    _mean,
    average_precision,
    evaluate,
    roc_auc,
)
from semvid.ranked import RankedList  # noqa: E402

from oracles import ap_oracle, rank_sum_auc_oracle  # noqa: E402

_VALUES = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-1e300, 1e300),  # 2000 of them sum to a finite value
    st.floats(-1e-300, 1e-300),  # tiny and subnormal
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1.0, 0.1]),
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _assert_fsum_mean(values):
    """``_mean(values)`` is the exact mean up to the rounding of one fsum
    and one division: a relative error of at most 2u + u**2 (u = 2**-53),
    plus half the smallest subnormal for each rounding below the normal
    range."""
    got = _mean(values)
    exact = sum(map(Fraction, values), Fraction(0)) / len(values)
    u = Fraction(1, 2**53)
    assert abs(Fraction(got) - exact) <= (2 * u + u * u) * abs(exact) + Fraction(1, 2**1074)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2000), st.lists(_VALUES, min_size=1, max_size=64), st.randoms())
def test_mean_is_the_exact_mean_within_one_fsum_and_one_division(n, pool, rng):
    _assert_fsum_mean(rng.choices(pool, k=n))  # drawn value by value, 2000 are slow to generate


# lengths at the edges of numpy's 8- and 128-value pairwise blocks, where a
# blocked summation order changes
@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 1000, 2000])
def test_mean_at_block_edges(n):
    rng = np.random.default_rng(n)
    values = (rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)).tolist()
    _assert_fsum_mean(values)
    _assert_fsum_mean(rng.random(n).tolist())  # the [0, 1] values of AP and AUC


# few distinct scores, so that most lists hold runs of ties
_SCORES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5000001, 0.75, 1.0])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_SCORES, st.sampled_from([0, 1, None])), min_size=2, max_size=60),
)
def test_ap_and_auc_match_numpy_oracle_on_tie_heavy_lists(rows):
    relevance = [label for _, label in rows if label is not None]
    scores = [score for score, label in rows if label is not None]
    hypothesis.assume(0 < sum(relevance) < len(relevance))
    entries = tuple((f"v{i:02d}", score) for i, (score, _) in enumerate(rows))
    truth = GroundTruth(
        labels={("e", f"v{i:02d}"): label for i, (_, label) in enumerate(rows) if label is not None}
    )
    ranked = RankedList(event_id="e", entries=entries)
    ap, auc = average_precision(ranked, truth), roc_auc(ranked, truth)
    assert ap == ap_oracle(relevance)
    assert auc == rank_sum_auc_oracle(scores, relevance)
    (result,) = evaluate([ranked], truth).per_event
    assert (result.ap, result.auc) == (ap, auc)
    assert (result.n_videos, result.n_positives) == (len(relevance), sum(relevance))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=30), min_size=1, max_size=40))
def test_evaluate_means_are_fsum_means(label_lists):
    label_lists = [labels + [0, 1] for labels in label_lists]  # both classes
    runs, labels = [], {}
    for k, event_labels in enumerate(label_lists):
        event = f"e{k}"
        runs.append(RankedList(event, tuple((f"v{i}", 1.0 - i / 64) for i in range(len(event_labels)))))
        labels.update({(event, f"v{i}"): label for i, label in enumerate(event_labels)})
    report = evaluate(runs, GroundTruth(labels=labels))
    n = len(report.per_event)
    assert _bits(report.mean_ap) == _bits(math.fsum(r.ap for r in report.per_event) / n)
    assert _bits(report.mean_auc) == _bits(math.fsum(r.auc for r in report.per_event) / n)


def test_auc_ranks_nan_scores_last_as_numpy_does():
    nan, inf = float("nan"), float("inf")
    scores = [0.5, nan, 0.5, -inf, nan, 0.2, inf, 0.5]
    relevance = [1, 0, 0, 1, 1, 0, 1, 0]
    ranked = RankedList("e", tuple((f"v{i}", s) for i, s in enumerate(scores)))
    truth = GroundTruth(labels={("e", f"v{i}"): label for i, label in enumerate(relevance)})
    assert roc_auc(ranked, truth) == rank_sum_auc_oracle(scores, relevance)

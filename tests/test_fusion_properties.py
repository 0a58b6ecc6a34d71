"""Property tests: the fusion of channel scores.

``fuse`` checks its channels and fuses them elementwise; ``rank_events``
fuses each event's channel columns through it, and its entries carry the
fused column's bits.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import semvid.retrieval as retrieval  # noqa: E402
from semvid.config import RetrievalConfig  # noqa: E402
from semvid.errors import SemvidError  # noqa: E402
from semvid.retrieval import fuse, rank_events  # noqa: E402
from semvid.synth import synth_world  # noqa: E402

from oracles import fuse_oracle  # noqa: E402

_CHANNEL = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-300),  # tiny and subnormal
    st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, 1.0 - 2.0**-53]),
)
_WEIGHT = st.one_of(
    st.floats(1e-6, 100.0),
    st.sampled_from([6.0, 1.0, 0.5, 3.0, 1e-300, 1e300]),
)


@settings(max_examples=400, deadline=None)
@given(_CHANNEL, _CHANNEL, _CHANNEL, _WEIGHT)
def test_scalar_fuse_in_range_and_equal_to_the_oracle(pc, po, pa, w):
    got = fuse(pc, po, pa, w)
    assert isinstance(got, float) and 0.0 <= got <= 1.0
    assert_like_the_oracle(got, pc, po, pa, w)


def assert_like_the_oracle(got, pc, po, pa, w):
    """fuse equals the oracle, which works in logs, over the whole range:
    tiny, subnormal and zero channels included."""
    assert got == pytest.approx(fuse_oracle(pc, po, pa, w), rel=1e-9, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_CHANNEL, _CHANNEL, _CHANNEL), min_size=1, max_size=40),
       _WEIGHT, st.integers(0, 2), _CHANNEL)
def test_array_fuse_in_range_monotone_and_equal_to_the_oracle(rows, w, channel, bump):
    pc, po, pa = (np.array(column) for column in zip(*rows))
    got = fuse(pc, po, pa, w)
    assert got.shape == pc.shape and ((got >= 0.0) & (got <= 1.0)).all()
    for value, a, b, c in zip(got.tolist(), pc.tolist(), po.tolist(), pa.tolist()):
        assert_like_the_oracle(value, a, b, c, w)
    # raising one channel (to the larger of it and ``bump``) never lowers the score
    raised = [pc, po, pa]
    raised[channel] = np.maximum(raised[channel], bump)
    assert (fuse(*raised, w) >= got - 1e-15).all()


@pytest.fixture(scope="module")
def world():
    return synth_world(seed=5, n_events=4, positives_per_event=10, n_videos=60)


@settings(max_examples=40, deadline=None)
@given(_WEIGHT, st.integers(1, 8))
def test_rank_events_fuses_as_the_public_fuse_bit_for_bit(world, w, r):
    calls = []

    def recording(concept, ocr, asr, weight):
        calls.append(((concept, ocr, asr), weight))
        return fuse(concept, ocr, asr, weight)

    config = RetrievalConfig(fusion_weight=w, top_r=r)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(retrieval, "fuse", recording)
        ranked = rank_events(world.queries, world.space, world.repo, world.corpus, config)
    assert len(calls) == len(ranked)
    position = {video: i for i, video in enumerate(world.corpus.ids)}
    for (channels, weight), event in zip(calls, ranked):
        assert weight == w
        public = fuse(*channels, w)
        scores = np.array([score for _, score in event.entries])
        rows = [position[video] for video, _ in event.entries]
        assert scores.tobytes() == public[rows].tobytes()


_OUTSIDE = st.one_of(
    st.floats(allow_nan=False).filter(lambda x: not 0.0 <= x <= 1.0),
    st.just(math.nan),
)


@settings(max_examples=200, deadline=None)
@given(_OUTSIDE, st.integers(0, 2), st.lists(_CHANNEL, min_size=0, max_size=5), st.booleans())
def test_public_fuse_rejects_nan_and_values_outside_the_unit_range(bad, channel, good, as_array):
    values = [0.5, 0.5, 0.5]
    values[channel] = np.array(good + [bad] + good) if as_array else bad
    with pytest.raises(SemvidError, match="outside"):
        fuse(*values, 6.0)

"""What one event costs: a fixed amount of interpreter work, whatever the
size of the corpus or of the concept repository, and a config that is
checked before any of it runs."""

import gc
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from semvid.concepts import ConceptDefinition, ConceptRepository
from semvid.config import DEFAULT_CONFIG, RetrievalConfig
from semvid.errors import SemvidError
from semvid.retrieval import EventQuery, rank_event, rank_events
from semvid.synth import random_space, synth_world
from semvid.videos import Corpus

VOCABULARY = 1200


@pytest.fixture(scope="module")
def space():
    return random_space(np.random.default_rng(17), VOCABULARY, 24)


def world(space, n_videos: int, n_concepts: int, missing_asr: bool = False):
    """A corpus of ``n_videos`` with short transcripts over a repository of
    the first ``n_concepts`` words; the vocabulary stays the same."""
    rng = np.random.default_rng(n_videos * 1000 + n_concepts)
    tokens = space.tokens()
    repo = ConceptRepository(
        [ConceptDefinition(id=f"c{i:04d}", name=tokens[i]) for i in range(n_concepts)], space
    )
    filler = tokens[600:]
    ocr = [" ".join(rng.choice(filler, size=4)) for _ in range(n_videos)]
    asr = [" ".join(rng.choice(filler, size=3)) for _ in range(n_videos)]
    if missing_asr:
        asr[::3] = [""] * len(asr[::3])
    scores = rng.uniform(0.0, 1.0, size=(n_videos, n_concepts))
    corpus = Corpus(repo, [f"v{i:05d}" for i in range(n_videos)], scores, ocr, asr)
    return repo, corpus


def interpreter_events(call):
    """What the interpreter does while ``call()`` runs: the Python and C
    function calls that ``sys.setprofile`` sees, and the calls and lines
    that ``sys.settrace`` sees (a loop or comprehension in Python makes a
    line event per pass, and no call)."""
    calls = lines = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    def trace(frame, event, arg):
        nonlocal lines
        lines += 1
        return trace

    previous = sys.getprofile(), sys.gettrace()
    collecting = gc.isenabled()
    gc.disable()  # a collection could run some finalizer's Python code
    sys.setprofile(profile)
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous[1])
        sys.setprofile(previous[0])
        if collecting:
            gc.enable()
    return calls, lines


QUERIES = (
    EventQuery("title", ("w700", "w701")),
    EventQuery("extras", ("w702",), ocr_terms=("w703", "w704"), asr_terms=("w705",)),
)


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.event_id)
@pytest.mark.parametrize("kernel", ["pooled", "hausdorff"])
@pytest.mark.parametrize("missing_asr", [False, True])
def test_interpreter_work_of_one_event_does_not_grow_with_videos_or_concepts(
    space, query, kernel, missing_asr
):
    # one event costs its array products plus a fixed number of calls:
    # no per-video or per-concept Python work
    config = RetrievalConfig(kernel=kernel)
    counts = {}
    for n_videos, n_concepts in ((200, 100), (800, 100), (200, 400)):
        repo, corpus = world(space, n_videos, n_concepts, missing_asr)
        rank_event(query, space, repo, corpus, config)  # first-call imports and caches
        counts[n_videos, n_concepts] = interpreter_events(
            lambda: rank_event(query, space, repo, corpus, config)
        )
    assert counts[800, 100] == counts[200, 100], counts
    assert counts[200, 400] == counts[200, 100], counts


def test_the_event_cost_worlds_rank_every_video(space):
    repo, corpus = world(space, 200, 100, missing_asr=True)
    ranked = rank_event(QUERIES[1], space, repo, corpus)
    assert sorted(video for video, _ in ranked.entries) == list(corpus.ids)
    assert corpus.n_ocr.all() and not corpus.n_asr.all()  # OCR complete, ASR not


BAD_FIELDS = [
    ("kernel", "bogus", "kernel must be pooled or hausdorff"),
    ("mode", "mean", "mode must be max or avg"),
    ("top_r", 0, "R must be >= 1"),
    ("top_r", -3, "R must be >= 1"),
    ("top_r", 2.0, "R must be an integer"),
    ("fusion_weight", math.nan, "w must be finite and positive, got nan"),
    ("fusion_weight", math.inf, "w must be finite and positive, got inf"),
    ("fusion_weight", 0.0, "w must be finite and positive, got 0.0"),
    ("fusion_weight", -1.0, "w must be finite and positive"),
    ("fusion_weight", "6", "w must be finite and positive"),
    ("percentile", 0.0, r"percentile must be in \(0, 100\], got 0.0"),
    ("percentile", math.nan, r"percentile must be in \(0, 100\], got nan"),
    ("percentile", 100.5, r"percentile must be in \(0, 100\]"),
    ("percentile", -5.0, r"percentile must be in \(0, 100\]"),
    ("percentile", None, r"percentile must be in \(0, 100\]"),
    ("augment_k", -1, "k must be >= 0"),
    ("augment_k", 1.5, "k must be an integer"),
]


@pytest.mark.parametrize("field, value, message", BAD_FIELDS)
def test_retrieval_config_checks_each_field(field, value, message):
    with pytest.raises(SemvidError, match=message):
        RetrievalConfig(**{field: value})
    with pytest.raises(SemvidError, match=message):
        replace(DEFAULT_CONFIG, **{field: value})


@pytest.fixture(scope="module")
def synth():
    return synth_world(seed=1, n_events=2, positives_per_event=10, n_videos=40)


@pytest.mark.parametrize("field, value, message", BAD_FIELDS)
def test_rank_events_with_a_bad_field_raises_a_semvid_error(synth, field, value, message):
    # a library caller gets the range message, not nan scores or a bare
    # ValueError from inside ranking
    w = synth
    with pytest.raises(SemvidError, match=message):
        rank_events(w.queries, w.space, w.repo, w.corpus, RetrievalConfig(**{field: value}))


@pytest.mark.parametrize("field, value", [
    ("top_r", 1), ("top_r", np.int64(3)), ("fusion_weight", 1e-6),
    ("fusion_weight", np.float64(2.5)), ("percentile", 100.0), ("percentile", 1e-9),
    ("augment_k", 0), ("kernel", "hausdorff"),
])
def test_rank_events_takes_every_value_in_range(synth, field, value):
    w = synth
    config = RetrievalConfig(**{field: value})
    for kernel in ("pooled", "hausdorff"):
        ranked = rank_events(w.queries, w.space, w.repo, w.corpus, replace(config, kernel=kernel))
        for event in ranked:
            scores = [score for _, score in event.entries]
            assert all(0.0 <= score <= 1.0 for score in scores)

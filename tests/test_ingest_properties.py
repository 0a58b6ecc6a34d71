"""Property tests: the block and chunk loaders against per-line oracles.

Generated score JSONL files and text tables mix valid entries with blank
lines, malformed lines, NaN/Infinity literals, empty lists, unknown
concepts, duplicates and several faults in one file; generated binary
tables are checked against the whole-buffer oracle. The chunk and block
sizes are shrunk so that files cross their boundaries.
"""

import json
import logging
import re
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from semvid import embedding, videos  # noqa: E402
from semvid.concepts import ConceptDefinition, ConceptRepository  # noqa: E402
from semvid.embedding import EmbeddingSpace, load_embeddings  # noqa: E402
from semvid.errors import ConceptFormatError, EmbeddingFormatError, IngestError  # noqa: E402
from semvid.videos import POOL_MODES, load_corpus  # noqa: E402

from oracles import (  # noqa: E402
    binary_table_oracle,
    normalized_table_oracle,
    pool_oracle,
    score_jsonl_oracle,
    text_table_oracle,
)

VIDEOS = ["v0", "v1", "v2", "v3"]
CONCEPTS = [f"c{i}" for i in range(6)]
REPO = ConceptRepository([ConceptDefinition(id=c, name=c) for c in CONCEPTS])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest")


@contextmanager
def captured_warnings(logger_name):
    """Messages logged at WARNING or above by one logger."""
    messages = []

    class Collect(logging.Handler):
        def emit(self, record):
            messages.append(record.getMessage())

    logger = logging.getLogger(logger_name)
    handler, level = Collect(logging.WARNING), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def line_of(error) -> int:
    return int(re.search(r"line (\d+):", str(error)).group(1))


def bits(matrix):
    return np.ascontiguousarray(matrix).view(np.uint8)


# ----------------------------------------------------------------- scores

SAMPLE = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0, 1, 0.0, -0.0, 1.0, 0.5]),
)
SAMPLES = st.lists(SAMPLE, min_size=1, max_size=17)


def track_line(video, concept, scores) -> str:
    return json.dumps({"video": video, "concept": concept, "scores": scores})


# lines reported and skipped
SKIPPED = [
    "", "   ", "\t",
    "{not json",
    "[1, 2]",
    "null",
    '"text"',
    "{}",
    '{"video": "v0", "concept": "c0"}',
    '{"video": "v0", "concept": "c0", "scores": [0.5]}],[{"video": "v1"}',
    '{"video": "v0", "concept": "c0", "scores": [0.5]} {"x": 1}',
    track_line("v0", "c0", "01"),
    track_line("v0", "c0", ["0.5", True]),
    track_line("v0", "c0", [True]),
    track_line("v0", "c0", [0.5, None]),
    track_line("v0", "c0", [[0.5]]),
    track_line("v0", "c0", {"0.5": 1}),
    track_line("v0", "c0", None),
    track_line("v0", "c0", 0.5),
    track_line("v0", "c0", []),
    track_line(None, "c0", [0.5]),
    track_line("v0", 3, [0.5]),
]
# lines that abort the load
ABORTING = [
    '{"video": "v1", "concept": "c1", "scores": [0.5, NaN]}',
    '{"video": "v1", "concept": "c1", "scores": [Infinity]}',
    '{"video": "v1", "concept": "c1", "scores": [-Infinity, 0.5]}',
    track_line("v1", "c2", [0.2, 1.5]),
    track_line("v1", "c2", [-0.25]),
    track_line("v1", "c2", [2]),
    track_line("v2", "unknown", [0.5]),
]


@st.composite
def score_files(draw):
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(VIDEOS), st.sampled_from(CONCEPTS)), unique=True, max_size=14,
    ))
    lines = [track_line(v, c, draw(SAMPLES)) for v, c in pairs]
    faults = draw(st.lists(
        st.one_of(
            st.sampled_from(SKIPPED),
            st.sampled_from(ABORTING),
            # a second track for a pair (a duplicate when the pair was accepted)
            st.builds(track_line, st.sampled_from(VIDEOS), st.sampled_from(CONCEPTS), SAMPLES),
        ),
        max_size=5,
    ))
    for fault in faults:
        lines.insert(draw(st.integers(0, len(lines))), fault)
    return lines


@given(
    lines=score_files(),
    mode=st.sampled_from(POOL_MODES),
    chunk=st.sampled_from([1, 2, 3, 5, 4096]),
)
@settings(max_examples=200, deadline=None)
def test_score_jsonl_matches_line_oracle(workdir, lines, mode, chunk):
    path = workdir / "scores.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected_warnings = []
    try:
        expected, expected_error = score_jsonl_oracle(path, REPO, mode, expected_warnings), None
    except (IngestError, ConceptFormatError) as exc:
        expected, expected_error = None, exc

    with captured_warnings("semvid.videos") as got_warnings, \
            mock.patch.object(videos, "_CHUNK", chunk):
        try:
            corpus, error = load_corpus(path, REPO, mode=mode), None
        except (IngestError, ConceptFormatError) as exc:
            corpus, error = None, exc

    if expected_error is not None:
        assert type(error) is type(expected_error)
        assert str(error) == str(expected_error)
        # reports past the aborting line may differ: the loader checks
        # sample ranges a chunk at a time
        abort = line_of(error)
        before = [m for m in got_warnings if line_of(m) < abort]
        assert before == expected_warnings
    else:
        assert error is None
        assert got_warnings == expected_warnings
        assert list(corpus.ids) == list(expected)
        rows = np.array(list(expected.values())).reshape(len(expected), len(REPO))
        assert np.array_equal(bits(corpus.S), bits(rows))


@given(
    tracks=st.lists(
        st.lists(
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0])), min_size=1, max_size=17
        ),
        min_size=1, max_size=60,
    ),
    chunk=st.sampled_from([1, 7, 4096]),
)
@settings(max_examples=100, deadline=None)
def test_pooled_tracks_match_pool(workdir, tracks, chunk):
    # tracks of every length from 1 to 17, grouped by length for avg; max
    # keeps the first of equal zeros, as max() does (-0.0 against 0.0)
    repo = ConceptRepository([ConceptDefinition(id=f"c{i}", name=str(i)) for i in range(12)])
    path = workdir / "pooled.jsonl"
    path.write_text("".join(
        track_line(f"v{i // 12}", f"c{i % 12}", samples) + "\n" for i, samples in enumerate(tracks)
    ), encoding="utf-8")
    for mode in POOL_MODES:
        with mock.patch.object(videos, "_CHUNK", chunk):
            corpus = load_corpus(path, repo, mode=mode)
        got = corpus.S.reshape(-1)[: len(tracks)]
        expected = np.array([pool_oracle(t, mode) for t in tracks])
        assert np.array_equal(bits(got), bits(expected)), mode


# ----------------------------------------------------------- text tables

TOKENS = ["a", "b", "c", "d", "e"]
VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.floats(min_value=-1e6, max_value=1e6).map(lambda v: format(v, ".9g")),
    st.sampled_from(["0", "1", "-0.0", "2", "1e-3", "+.5", "5."]),
)
BAD_VALUE = st.sampled_from(["x", "1_0", "١", "0x1", "nan", "inf", "-Infinity", "1e400", "#"])


@st.composite
def text_tables(draw):
    dim = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        token = draw(st.sampled_from(TOKENS))
        if draw(st.integers(0, 5)) == 0:
            values = ["0"] * dim  # zero norm: fails unless a dropped duplicate
        else:
            values = draw(st.lists(VALUE, min_size=dim, max_size=dim))
        rows.append(token + " " + " ".join(values))
    for _ in range(draw(st.integers(0, 3))):
        token = draw(st.sampled_from(TOKENS))
        fault = draw(st.sampled_from(["blank", "count", "bad", "token only"]))
        if fault == "blank":
            line = draw(st.sampled_from(["", "  ", "\t"]))
        elif fault == "count":
            line = token + " " + " ".join(["1"] * draw(st.sampled_from([dim - 1, dim + 1])))
        elif fault == "bad":
            values = ["1"] * dim
            values[draw(st.integers(0, dim - 1))] = draw(BAD_VALUE)
            line = token + " " + " ".join(values)
        else:
            line = token
        rows.insert(draw(st.integers(0, len(rows))), line)
    count = sum(1 for row in rows if row.strip()) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return f"{max(count, 1)} {dim}\n" + "".join(row + "\n" for row in rows)


@given(text=text_tables(), block=st.sampled_from([1, 2, 3, 256]))
@settings(max_examples=200, deadline=None)
def test_text_table_matches_line_oracle(workdir, text, block):
    path = workdir / "table.txt"
    path.write_text(text, encoding="utf-8")
    try:
        expected, expected_error = text_table_oracle(path), None
    except EmbeddingFormatError as exc:
        expected, expected_error = None, exc
    with captured_warnings("semvid.embedding") as got_warnings, \
            mock.patch.object(embedding, "_TEXT_LINES", block), warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. np.loadtxt's "input contained no data"
        try:
            space, error = load_embeddings(path), None
        except EmbeddingFormatError as exc:
            space, error = None, exc
    if expected_error is not None:
        assert str(error) == str(expected_error)
    else:
        assert error is None
        tokens, matrix, dups = expected
        assert space.tokens() == tokens and space.duplicates == dups
        assert np.array_equal(bits(space._matrix), bits(matrix))
        assert got_warnings == (
            [f"embedding file: {dups} duplicate tokens dropped (first kept)"] if dups else []
        )


# ---------------------------------------------------------- binary tables

# multi-byte UTF-8, the empty token and a token with a newline inside
BINARY_TOKENS = ["a", "b", "café", "日本", "", "x\ny", "ß"]
FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


def rarely(draw) -> bool:
    """True about once in twenty draws (hypothesis favours a range's ends)."""
    return draw(st.sampled_from([False] * 19 + [True]))


@st.composite
def binary_tables(draw):
    """(bytes, _READ_BYTES) of a binary table: newline runs, duplicates,
    unit and off-unit rows, a zero-norm duplicate that is dropped, and at
    times a zero or non-finite kept row, a token that is not UTF-8, a count
    other than the entries' or a truncation at any byte."""
    dim = draw(st.integers(1, 4))
    entries = []
    for _ in range(draw(st.integers(1, 10))):
        token = draw(st.sampled_from(BINARY_TOKENS)).encode()
        kind = draw(st.sampled_from(["random", "unit", "scaled"]))
        if rarely(draw):
            values = [draw(st.sampled_from([0.0, float("nan"), float("inf")]))] * dim
        elif kind == "random":
            values = draw(st.lists(FLOAT32, min_size=dim, max_size=dim))
        elif kind == "unit":
            values = [0.0] * dim
            values[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([1.0, -1.0]))
        else:
            values = [draw(st.sampled_from([0.6, 3.0, 1e-30, 1e30]))] * dim
        if rarely(draw):
            token += b"\xff"
        entries.append((token, values))
    if draw(st.booleans()):  # a zero-norm duplicate of a kept token, dropped
        entries.insert(draw(st.integers(1, len(entries))), (entries[0][0], [0.0] * dim))
    count = len(entries) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    data = f"{max(count, 1)} {dim}\n".encode() + b"".join(
        b"\n" * draw(st.integers(0, 3)) + token + b" " + np.asarray(values, "<f4").tobytes()
        for token, values in entries
    )
    if draw(st.sampled_from([False, False, False, True])):
        data = data[: draw(st.integers(0, len(data)))]
    return data, draw(st.one_of(st.integers(1, 40), st.just(1 << 20)))


@given(table=binary_tables())
@settings(max_examples=300, deadline=None)
def test_binary_table_matches_whole_buffer_oracle(workdir, table):
    data, read_bytes = table
    path = workdir / "table.bin"
    path.write_bytes(data)
    try:
        raw_tokens, raw = binary_table_oracle(data, path)
        expected, expected_error = normalized_table_oracle(raw_tokens, raw, raw.shape[1]), None
    except EmbeddingFormatError as exc:
        expected, expected_error = None, exc
    with captured_warnings("semvid.embedding") as got_warnings, \
            mock.patch.object(embedding, "_READ_BYTES", read_bytes), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            space, error = load_embeddings(path, fmt="binary"), None
        except EmbeddingFormatError as exc:
            space, error = None, exc
    if expected_error is not None:
        assert str(error) == str(expected_error)
        return
    assert error is None
    tokens, matrix, dups = expected
    assert space.tokens() == tokens and space.duplicates == dups
    assert np.array_equal(bits(space._matrix), bits(matrix))
    assert got_warnings == (
        [f"embedding file: {dups} duplicate tokens dropped (first kept)"] if dups else []
    )
    # the norms the load kept are those a new space computes for itself
    fresh = EmbeddingSpace(tokens, matrix)
    for name in ("_norms", "_inv_norms"):
        assert np.array_equal(bits(getattr(space, name)), bits(getattr(fresh, name))), name
    assert space._index == fresh._index

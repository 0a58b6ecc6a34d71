"""Property tests: the block and chunk loaders against per-line oracles.

Generated score JSONL files and text tables mix valid entries with blank
lines, malformed lines, NaN/Infinity literals, empty lists, unknown
concepts, duplicates and several faults in one file; score JSONL spells
its valid lines as json.dumps does, which is read in bulk, and in other
ways, which are read line by line. Generated binary tables are checked
against the whole-buffer oracle, and plain pre-pooled CSVs against the
csv.reader route. The chunk and block sizes are shrunk so that files
cross their boundaries.
"""

import itertools
import json
import logging
import re
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from semvid import embedding, videos  # noqa: E402
from semvid.concepts import ConceptDefinition, ConceptRepository, load_concepts  # noqa: E402
from semvid.embedding import EmbeddingSpace, load_embeddings  # noqa: E402
from semvid.errors import ConceptFormatError, EmbeddingFormatError, IngestError  # noqa: E402
from semvid.synth import synth_world, write_world_files  # noqa: E402
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
] + [
    # plain lines whose list is no JSON list of samples
    '{"video": "v0", "concept": "c0", "scores": [%s]}' % scores
    for scores in ["+0.5", ".5", "1.", "01", "0.5,", ", 0.5", "0.5 0.5", "-", "1e", " ", "0.5,,1"]
] + ["x" + track_line("v0", "c0", [0.5])]
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
# an integer sample too long for int(), read as the loader reads every
# integer: as a float, here +inf, which aborts the load
LONG_INTEGER = '{"video": "v1", "concept": "c1", "scores": [0.5, %s]}' % ("9" * 5000)
ABORTING += [LONG_INTEGER, LONG_INTEGER.replace("[0.5, ", "[-")]


# a sample's JSON text: integers, -0 and exponents besides repr's floats
SAMPLE_TEXT = st.one_of(
    SAMPLE.map(repr),
    st.sampled_from(["0", "1", "-0", "1E+0", "1e0", "0.0", "-0.0", "5e-1", "2.5E-1", "0.125e+0"]),
)
# the spellings of a track line: "{video}", "{concept}" and "{scores}" are
# filled in with JSON texts; only the first two are plain
SPELLINGS = [
    '{{"video": {video}, "concept": {concept}, "scores": [{scores}]}}',
    '{{"video":{video},"concept":{concept},"scores":[{scores}]}}',
    '{{"video":\t{video},\t"concept": {concept}, "scores":\t[{scores}]}}',
    '{{"scores": [{scores}], "concept": {concept}, "video": {video}}}',
    '{{"video": "v9", "video": {video}, "concept": {concept}, "scores": [{scores}]}}',
    ' {{"video": {video}, "concept": {concept}, "scores": [{scores}]}} ',
    ' {{"video": {video}, "concept": {concept}, "scores": [{scores}]}}',
]


@st.composite
def spelled_track_line(draw, video, concept, respell):
    """A valid track line for (video, concept), spelled as json.dumps
    spells it unless ``respell``: then more than half the lines are
    spelled another way."""
    spelling = draw(st.sampled_from(SPELLINGS[:2] * 3 + SPELLINGS[2:])) if respell else SPELLINGS[0]
    texts = [json.dumps(video), json.dumps(concept)]
    if respell and draw(st.sampled_from([False] * 3 + [True])):  # ids escaped as \u sequences
        texts = ['"' + "".join(f"\\u{ord(char):04x}" for char in json.loads(text)) + '"'
                 for text in texts]
    separator = draw(st.sampled_from([", ", ", ", ",", " , "]))
    scores = separator.join(draw(st.lists(SAMPLE_TEXT, min_size=1, max_size=17)))
    return spelling.format(video=texts[0], concept=texts[1], scores=scores)


@st.composite
def score_files(draw):
    """The lines of a score JSONL file and its line end."""
    pairs = draw(st.permutations(list(itertools.product(VIDEOS, CONCEPTS))))
    pairs = pairs[: draw(st.integers(0, 14))]
    respell = draw(st.booleans())
    lines = [draw(spelled_track_line(v, c, respell)) for v, c in pairs]
    faults = draw(st.lists(
        st.one_of(
            st.sampled_from(SKIPPED),
            st.sampled_from(ABORTING),
            # a second track for a pair (a duplicate when the pair was accepted)
            st.builds(track_line, st.sampled_from(VIDEOS), st.sampled_from(CONCEPTS), SAMPLES),
        ),
        max_size=5,
    )) if draw(st.booleans()) else []  # half the files have no fault
    for fault in faults:
        lines.insert(draw(st.integers(0, len(lines))), fault)
    return lines, draw(st.sampled_from(["\n", "\n", "\r\n"]))


@given(
    lines=score_files(),
    mode=st.sampled_from(POOL_MODES),
    chunk=st.sampled_from([1, 2, 3, 5, 4096]),
)
@example(lines=([track_line("v0", "c0", [0.5]), LONG_INTEGER], "\n"), mode="max", chunk=4096)
@settings(max_examples=200, deadline=None)
def test_score_jsonl_matches_line_oracle(workdir, lines, mode, chunk):
    lines, end = lines
    path = workdir / "scores.jsonl"
    path.write_bytes((end.join(lines) + end).encode("utf-8"))
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


def plain_score_files(tmp_path):
    """The score JSONL of a tiny cold_ingest workload and of synth world 1,
    each with its concepts file."""
    root = Path(__file__).resolve().parent.parent
    subprocess.run([sys.executable, str(root / "perfbench" / "gen.py"), "--workload",
                    "cold_ingest", "--seed", "1", "--tiny", "--out", str(tmp_path / "tiny")],
                   check=True, capture_output=True)
    write_world_files(synth_world(seed=1), tmp_path / "world")
    return [(tmp_path / name / "scores.jsonl", tmp_path / name / "concepts.json")
            for name in ("tiny", "world")]


def load_or_error(path, repo):
    try:
        return load_corpus(path, repo)
    except (IngestError, ConceptFormatError) as exc:
        return exc


def bulk_routes(path, repo):
    """Whether each chunk of 64 lines the loader read took the bulk route,
    and the load's corpus or error."""
    routes, plain = [], videos._plain_tracks

    def spy(*args):
        tracks = plain(*args)
        routes.append(tracks is not None)
        return tracks

    with mock.patch.object(videos, "_plain_tracks", spy), mock.patch.object(videos, "_CHUNK", 64):
        return routes, load_or_error(path, repo)


def test_plain_chunks_take_the_bulk_route_and_faults_do_not(tmp_path):
    # every chunk of what gen.py and synth write, and of the same lines
    # with compact separators, is read in bulk; a chunk holding a line
    # that is not plain, an unknown concept or a second track for a pair
    # is read again line by line, to the same result as a load that reads
    # every chunk line by line
    for scores, concepts in plain_score_files(tmp_path):
        repo = load_concepts(concepts)
        lines = scores.read_text(encoding="utf-8").splitlines()
        routes, corpus = bulk_routes(scores, repo)
        assert routes == [True] * -(-len(lines) // 64)
        compact = tmp_path / "compact.jsonl"
        compact.write_text("".join(
            json.dumps(json.loads(line), separators=(",", ":")) + "\n" for line in lines
        ), encoding="utf-8")
        routes, got = bulk_routes(compact, repo)
        assert routes == [True] * -(-len(lines) // 64)
        assert got.ids == corpus.ids and np.array_equal(bits(got.S), bits(corpus.S))
        first = json.loads(lines[0])
        fresh = dict(first, video="fresh")
        faults = [
            json.dumps(dict(reversed(fresh.items()))),
            "",
            json.dumps(fresh, separators=(",\t", ": ")),
            " " + json.dumps(fresh),
            json.dumps(fresh) + " ",
            "x" + json.dumps(fresh),
            json.dumps(fresh) + "x",
            json.dumps(dict(fresh, concept="unknown")),
            json.dumps(dict(fresh, video="v\t1")),
            json.dumps(dict(fresh, scores=[])),
            json.dumps(dict(fresh, scores=[0.5, float("nan")])),
            json.dumps(first),  # a second track for the first line's pair
        ]
        for fault, at in itertools.product(faults, (5, 100)):
            path = tmp_path / "fault.jsonl"
            path.write_text("\n".join(lines[:at] + [fault] + lines[at:]) + "\n",
                            encoding="utf-8")
            routes, got = bulk_routes(path, repo)
            assert len(routes) > at // 64
            assert routes == [i != at // 64 for i in range(len(routes))], (fault, at)
            with mock.patch.object(videos, "_plain_tracks", lambda *args: None):
                expected = load_or_error(path, repo)
            if isinstance(expected, Exception):
                assert type(got) is type(expected) and str(got) == str(expected)
            else:
                assert got.ids == expected.ids
                assert np.array_equal(bits(got.S), bits(expected.S))


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


# ----------------------------------------------------------- pre-pooled CSV

UNIT = st.floats(min_value=0.0, max_value=1.0)
CSV_VALUE = st.one_of(
    UNIT.map(repr),
    UNIT.map(lambda x: "%.4f" % x),
    UNIT.map(lambda x: "%.3e" % x),
    st.sampled_from(["0", "1", "-0.0", "0.0", "1.0", "1e-3", "5E-1", "+0.5", ".5", "1e0"]),
)


@st.composite
def plain_csvs(draw):
    """(text, rows per block) of a plain pre-pooled CSV: unquoted ids and
    values, LF line ends, blank lines anywhere, a row count around a
    multiple of the block."""
    width = draw(st.integers(1, 4))
    columns = draw(st.permutations(CONCEPTS))[:width]
    block = draw(st.sampled_from([1, 2, 3, 5]))
    count = max(0, block * draw(st.integers(0, 3)) + draw(st.integers(-1, 1)))
    lines = ["video," + ",".join(columns)]
    for i in range(count):
        lines += [""] * draw(st.integers(0, 1) if draw(st.booleans()) else st.just(0))
        lines.append(f"v{i}," + ",".join(draw(st.lists(CSV_VALUE, min_size=width, max_size=width))))
    end = draw(st.sampled_from(["\n", "", "\n\n"]))
    return "\n".join(lines) + end, block


@given(csv_file=plain_csvs())
@settings(max_examples=200, deadline=None)
def test_plain_csv_loads_as_the_csv_reader_route(workdir, csv_file):
    # the same file read by np.loadtxt a block at a time and, with every
    # block refused as not plain, by csv.reader and float(): the same ids
    # and the same bits of S
    text, block = csv_file
    path = workdir / "pooled.csv"
    path.write_bytes(text.encode("utf-8"))
    width = text.split("\n", 1)[0].count(",")
    plain_blocks, read = [], videos._plain_block

    def plain_block(*args):
        plain_blocks.append(read(*args))
        return plain_blocks[-1]

    with mock.patch.object(videos, "_CSV_PLAIN_VALUES", block * width), \
            mock.patch.object(videos, "_plain_block", plain_block):
        plain = load_corpus(path, REPO)
    with mock.patch.object(videos, "_plain_block", lambda *args: None):
        reader = load_corpus(path, REPO)
    assert None not in plain_blocks
    assert list(plain.ids) == list(reader.ids)
    assert np.array_equal(bits(plain.S), bits(reader.S))


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

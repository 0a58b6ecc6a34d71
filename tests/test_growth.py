"""The one growth rule of every reader (``embedding._grow``).

Each reader fills a matrix that grows in place: the text and binary table
readers (capped by the header's count), both pre-pooled CSV routes, the
score JSONL loader, and the transcript-only rows ``load_corpus`` adds. Each
is loaded at 255, 256, 257 and 513 rows, around the first growth sizes,
and checked bit for bit against its line oracle or the same table loaded
from a file. Two traced-memory bounds check that a piped table is not
copied as it grows and that a JSONL load keeps no per-track list past the
chunk it reads.
"""

import csv
import io
import json
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from semvid import embedding, videos
from semvid.concepts import ConceptDefinition, ConceptRepository
from semvid.embedding import _grow, load_embeddings
from semvid.videos import POOL_MODES, load_corpus

from oracles import score_jsonl_oracle

SIZES = [255, 256, 257, 513]
CONCEPTS = [f"c{i}" for i in range(5)]
REPO = ConceptRepository([ConceptDefinition(id=c, name=c) for c in CONCEPTS])

needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")


def bits(matrix):
    return np.ascontiguousarray(matrix).view(np.uint8)


def through_fifo(path, data: bytes, read):
    """``read(path)`` of ``data`` written into a named pipe at ``path``,
    which reports no size, as process substitution ``<(zcat ...)`` does."""
    os.mkfifo(path)

    def write():
        with open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return read(path)
    finally:
        writer.join(timeout=60)
        assert not writer.is_alive()


@pytest.mark.parametrize("rows, end, cap, grown", [
    (0, 1, None, 256),
    (0, 300, None, 300),
    (10, 3, None, 10),
    (256, 256, None, 256),
    (256, 257, None, 512),
    (300, 301, None, 600),
    (256, 257, 300, 300),
    (256, 400, 300, 400),
    (0, 5, 5, 5),
])
def test_grow_doubles_from_256_within_its_cap(rows, end, cap, grown):
    matrix = np.random.default_rng(rows).random((rows, 3))
    before = matrix.copy()
    _grow(matrix, end, cap)
    assert matrix.shape == (grown, 3)
    assert np.array_equal(bits(matrix[:rows]), bits(before))
    assert not matrix[rows:].any()  # the new rows are zero


# ----------------------------------------------------------------- scores

def score_lines(n, rng):
    """Score JSONL of ``n`` videos, each with tracks for a few concepts."""
    lines = []
    for video in range(n):
        for concept in rng.permutation(CONCEPTS)[: rng.integers(1, 4)]:
            scores = rng.random(rng.integers(1, 4)).tolist()
            lines.append(json.dumps({"video": f"v{video}", "concept": concept, "scores": scores}))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("chunk", [7, 1024])
def test_score_jsonl_at_growth_sizes_matches_line_oracle(tmp_path, n, chunk):
    # two transcript-only videos add zero rows after the scored ones
    path = tmp_path / "scores.jsonl"
    path.write_text(score_lines(n, np.random.default_rng(n)), encoding="utf-8")
    transcripts = tmp_path / "transcripts.jsonl"
    transcripts.write_text("".join(
        json.dumps({"video": video, "ocr": "x"}) + "\n" for video in ("v0", "extra1", "extra2")
    ), encoding="utf-8")
    for mode in POOL_MODES:
        expected = score_jsonl_oracle(path, REPO, mode, [])
        with mock.patch.object(videos, "_CHUNK", chunk):
            corpus = load_corpus(path, REPO, transcripts, mode=mode)
        assert list(corpus.ids) == list(expected) + ["extra1", "extra2"]
        rows = np.vstack(list(expected.values()) + [np.zeros((2, len(REPO)))])
        assert np.array_equal(bits(corpus.S), bits(rows)), mode
        assert corpus.S.flags.owndata  # trimmed, not a view of the grown matrix


def test_score_jsonl_load_keeps_no_track_list_past_its_chunk(tmp_path):
    # four times the tracks into the same matrix (256 videos of 32 or all
    # 128 concepts) must not raise the traced peak: a loader that keeps a
    # row, column or pooled value per track raised it by about 4.5 times
    # the matrix
    repo = ConceptRepository([ConceptDefinition(id=f"c{i}", name=str(i)) for i in range(128)])
    peaks = []
    for per_video in (32, 128):
        path = tmp_path / f"scores{per_video}.jsonl"
        path.write_text("".join(
            json.dumps({"video": f"v{video}", "concept": f"c{concept}", "scores": [0.5, 0.25]})
            + "\n" for video in range(256) for concept in range(per_video)
        ), encoding="utf-8")
        tracemalloc.start()
        try:
            corpus = load_corpus(path, repo)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert corpus.S.shape == (256, 128) and (corpus.S == 0.5).all()
    assert peaks[1] - peaks[0] < corpus.S.nbytes / 4


# ----------------------------------------------------------- pre-pooled CSV

def csv_text(n, rng, quote_all=False):
    """A pre-pooled CSV of ``n`` videos over three concepts, out of the
    repository's order, and the (n, C) matrix it holds."""
    columns = ["c3", "c0", "c4"]
    values = rng.random((n, len(columns)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n",
                        quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
    writer.writerow(["video"] + columns)
    writer.writerows([f"v{i}"] + [repr(float(x)) for x in row] for i, row in enumerate(values))
    S = np.zeros((n, len(REPO)))
    S[:, [REPO.index_of(c) for c in columns]] = values
    return out.getvalue(), S


def load_csv_route(path, rows_per_block):
    """``load_corpus(path, REPO)`` with blocks of ``rows_per_block`` rows in both
    CSV routes, and whether every block took the plain route."""
    results, plain_block = [], videos._plain_block

    def recorded(*args):
        results.append(plain_block(*args))
        return results[-1]

    with mock.patch.object(videos, "_CSV_PLAIN_VALUES", 3 * rows_per_block), \
            mock.patch.object(videos, "_CSV_VALUES", 3 * rows_per_block), \
            mock.patch.object(videos, "_plain_block", recorded):
        corpus = load_corpus(path, REPO)
    return corpus, None not in results


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("rows_per_block", [37, 4096])
@pytest.mark.parametrize("quote_all", [False, True], ids=["plain", "csv-reader"])
def test_prepooled_csv_at_growth_sizes_matches_its_values(tmp_path, n, rows_per_block, quote_all):
    text, S = csv_text(n, np.random.default_rng(n), quote_all)
    path = tmp_path / "pooled.csv"
    path.write_text(text, encoding="utf-8")
    corpus, plain = load_csv_route(path, rows_per_block)
    assert plain is not quote_all
    assert list(corpus.ids) == [f"v{i}" for i in range(n)]
    assert np.array_equal(bits(corpus.S), bits(S))
    assert corpus.S.flags.owndata


@needs_fifo
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("quote_all", [False, True], ids=["plain", "csv-reader"])
def test_prepooled_csv_through_a_pipe_loads_like_the_file(tmp_path, n, quote_all):
    # a pipe has no size, so the plain route doubles without a projected cap
    text, S = csv_text(n, np.random.default_rng(n), quote_all)
    corpus, plain = through_fifo(
        tmp_path / "pooled.csv", text.encode("utf-8"), lambda path: load_csv_route(path, 37)
    )
    assert plain is not quote_all
    assert list(corpus.ids) == [f"v{i}" for i in range(n)]
    assert np.array_equal(bits(corpus.S), bits(S))


# ----------------------------------------------------------- word tables

def table_bytes(n, fmt, rng):
    """A table of ``n`` rows at dim 4 whose last three rows repeat tokens,
    so that the load drops them and trims the matrix."""
    rows = rng.standard_normal((n, 4)) * rng.uniform(0.5, 2.0, (n, 1))
    tokens = [f"w{i % (n - 3)}" for i in range(n)]
    if fmt == "text":
        return f"{n} 4\n".encode() + "".join(
            f"{token} " + " ".join("%.9g" % x for x in row) + "\n" for token, row in zip(tokens, rows)
        ).encode()
    return f"{n} 4\n".encode() + b"".join(
        token.encode() + b" " + row.astype("<f4").tobytes() + b"\n" for token, row in zip(tokens, rows)
    )


@needs_fifo
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("fmt, block", [
    ("text", 7), ("text", 256), ("binary", 100), ("binary", 1 << 20),
])
def test_table_through_a_pipe_at_growth_sizes_loads_like_the_file(tmp_path, monkeypatch, n, fmt,
                                                                  block):
    monkeypatch.setattr(embedding, "_TEXT_LINES" if fmt == "text" else "_READ_BYTES", block)
    data = table_bytes(n, fmt, np.random.default_rng(n))
    path = tmp_path / "table"
    path.write_bytes(data)
    stored = load_embeddings(path, fmt)
    piped = through_fifo(tmp_path / "pipe", data, lambda fifo: load_embeddings(fifo, fmt))
    assert piped.tokens() == stored.tokens() == [f"w{i}" for i in range(n - 3)]
    assert piped.duplicates == stored.duplicates == 3
    assert np.array_equal(bits(piped._matrix), bits(stored._matrix))
    assert np.array_equal(bits(piped._norms), bits(stored._norms))


@needs_fifo
def test_piped_table_grows_without_a_second_copy(tmp_path, monkeypatch):
    # a reader that copied into a new matrix at each growth held the old
    # and the new one at once, 1.56 times the table
    monkeypatch.setattr(embedding, "_READ_BYTES", 1 << 16)
    rows = np.random.default_rng(4).standard_normal((4000, 300))
    data = b"4000 300\n" + b"".join(
        f"w{i} ".encode() + row.astype("<f4").tobytes() + b"\n" for i, row in enumerate(rows)
    )
    tracemalloc.start()
    try:
        space = through_fifo(tmp_path / "pipe", data, lambda fifo: load_embeddings(fifo, "binary"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(space) == 4000
    assert peak < 1.3 * space._matrix.nbytes


def test_a_table_with_duplicates_holds_only_its_kept_rows(tmp_path):
    # the kept rows move up and the matrix is trimmed in place: a space
    # that kept a view of the rows read held the dropped ones too, twice
    # the kept rows here
    rows = np.random.default_rng(6).standard_normal((2000, 300))
    path = tmp_path / "table.bin"
    path.write_bytes(b"2000 300\n" + b"".join(
        f"w{i % 1000} ".encode() + row.astype("<f4").tobytes() + b"\n" for i, row in enumerate(rows)
    ))
    tracemalloc.start()
    try:
        space = load_embeddings(path, "binary")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(space) == 1000 and space.duplicates == 1000
    assert held < 1.3 * space._matrix.nbytes

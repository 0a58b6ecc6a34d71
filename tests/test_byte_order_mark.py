"""Every text reader skips a UTF-8 byte-order mark at the start of its file.

Each test loads one input of synth world 1 twice, once as written and once
with a byte-order mark in front, and the two loads must agree. Before the
readers opened files as ``utf-8-sig``, the mark was read as part of the
first line: a pre-pooled CSV's header named the concept ``'\\ufeffvideo'``,
score JSONL skipped its first track as malformed, and the concept file and
the text table were rejected.
"""

from pathlib import Path

import numpy as np
import pytest

from semvid import cli
from semvid.concepts import load_concepts
from semvid.config import parse_config_file
from semvid.embedding import load_embeddings
from semvid.evaluation import load_truth
from semvid.ranked import read_ranked_tsv
from semvid.retrieval import load_queries
from semvid.stopwords import load_stopwords
from semvid.synth import synth_world, write_world_files
from semvid.videos import load_corpus

BOM = b"\xef\xbb\xbf"


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bom")
    files = write_world_files(synth_world(seed=1), directory)
    files["pooled"] = str(directory / "pooled.csv")
    assert cli.main(["pool", files["scores"], files["concepts"], "--out", files["pooled"]]) == 0
    files["ranked"] = str(directory / "ranked.tsv")
    (directory / "ranked.tsv").write_text(
        "event_id\trank\tvideo_id\tscore\nE1\t1\tv2\t0.750000\nE1\t2\tv1\t0.500000\n",
        encoding="utf-8")
    files["stopwords"] = str(directory / "stop.txt")
    (directory / "stop.txt").write_text("the\nof\n", encoding="utf-8")
    files["config"] = str(directory / "semvid.cfg")
    (directory / "semvid.cfg").write_text("kernel = hausdorff\n", encoding="utf-8")
    files["directory"] = directory
    return files


def marked(world, key):
    """A copy of the world's ``key`` file with a byte-order mark in front."""
    path = world["directory"] / f"bom-{Path(world[key]).name}"  # the suffix picks the reader
    with open(world[key], "rb") as fh:
        path.write_bytes(BOM + fh.read())
    return str(path)


def corpus_columns(corpus):
    return list(corpus.ids), corpus.S.tobytes(), corpus.ocr, corpus.asr


def load(world, key, path):
    """What the reader of ``key`` makes of the file at ``path``."""
    space = load_embeddings(world["embeddings"])
    repo = load_concepts(world["concepts"], space)
    if key == "embeddings":
        space = load_embeddings(path)
        return space.tokens(), space._matrix.tobytes()
    if key == "concepts":
        repo = load_concepts(path, space)
        return repo.ids(), repo._pooled.tobytes(), repo._set_vectors.tobytes()
    if key in ("scores", "pooled"):
        return corpus_columns(load_corpus(path, repo))
    if key == "transcripts":
        return corpus_columns(load_corpus(world["scores"], repo, path))
    if key == "queries":
        return load_queries(path)
    if key == "truth":
        return load_truth(path).labels
    if key == "ranked":
        return read_ranked_tsv(path)
    if key == "stopwords":
        return load_stopwords(path)
    return parse_config_file(path)


@pytest.mark.parametrize("key", [
    "embeddings", "concepts", "scores", "pooled", "transcripts", "queries", "truth", "ranked",
    "stopwords", "config",
])
def test_reader_skips_a_byte_order_mark(world, key):
    expected = load(world, key, world[key])
    assert load(world, key, marked(world, key)) == expected


def test_a_byte_order_mark_is_skipped_only_at_the_start(world):
    # inside a file the same bytes are a character like any other: here a
    # video id of the pre-pooled CSV
    path = world["directory"] / "inner.csv"
    with open(world["pooled"], "rb") as fh:
        header, first, rest = fh.read().split(b"\n", 2)
    path.write_bytes(b"\n".join([header, BOM + first, rest]))
    repo = load_concepts(world["concepts"], load_embeddings(world["embeddings"]))
    corpus = load_corpus(path, repo)
    assert corpus.ids[0] == "\ufeff" + first.split(b",")[0].decode()
    np.testing.assert_array_equal(corpus.S, load_corpus(world["pooled"], repo).S)

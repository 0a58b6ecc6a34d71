import csv
import json
import re

import numpy as np
import pytest

from semvid.concepts import ConceptDefinition, ConceptRepository
from semvid.config import RetrievalConfig
from semvid.embedding import load_embeddings
from semvid.errors import ConceptFormatError, IngestError
from semvid.retrieval import EventQuery, rank_event
from semvid import videos
from semvid.videos import Corpus, load_corpus
from semvid.videos import _json_int


@pytest.fixture
def repo3():
    return ConceptRepository([
        ConceptDefinition(id="c1", name="one"),
        ConceptDefinition(id="c2", name="two"),
        ConceptDefinition(id="c3", name="three"),
    ])


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def pooled(tmp_path, repo, tracks, mode="max"):
    """The corpus ``load_corpus`` reads from score JSONL of the given
    (video, concept, samples) tracks, one line each."""
    path = tmp_path / "tracks.jsonl"
    write_lines(path, [
        json.dumps({"video": video, "concept": concept, "scores": [float(s) for s in samples]})
        for video, concept, samples in tracks
    ])
    return load_corpus(path, repo, mode=mode)


def test_pool_max(tmp_path, repo3):
    S = pooled(tmp_path, repo3, [("v", "c1", [0.2, 0.9, 0.1])], "max").S
    assert S[0, 0] == pytest.approx(0.9)


def test_pool_avg(tmp_path, repo3):
    S = pooled(tmp_path, repo3, [("v", "c1", [0.2, 0.9, 0.1])], "avg").S
    assert S[0, 0] == pytest.approx(0.4)


def test_pool_max_dominates_avg(tmp_path, repo3):
    rng = np.random.default_rng(1)
    tracks = [
        (f"v{i}", "c1", rng.uniform(0, 1, size=int(rng.integers(1, 9)))) for i in range(25)
    ]
    top = pooled(tmp_path, repo3, tracks, "max").S
    mean = pooled(tmp_path, repo3, tracks, "avg").S
    assert (top >= mean).all()


def test_pool_singleton_idempotent(tmp_path, repo3):
    for mode in ("max", "avg"):
        assert pooled(tmp_path, repo3, [("v", "c1", [0.37])], mode).S[0, 0] == pytest.approx(0.37)


def test_pool_max_monotone_in_appends(tmp_path, repo3):
    samples = [0.1, 0.5]
    S = pooled(tmp_path, repo3, [("v1", "c1", samples), ("v2", "c1", samples + [0.3])]).S
    assert S[1, 0] >= S[0, 0]


def test_track_rejects_out_of_range_and_empty(tmp_path, repo3, caplog):
    with pytest.raises(IngestError, match="line 1: score 1.3 outside"):
        pooled(tmp_path, repo3, [("v", "c1", [1.3])])
    with caplog.at_level("WARNING"):
        corpus = pooled(tmp_path, repo3, [("v", "c1", []), ("w", "c1", [0.5])])
    assert corpus.ids == ("w",)
    assert any("line 1: empty score list, skipped" in message for message in caplog.messages)


def test_empty_track_alone_in_its_chunk_is_skipped(tmp_path, repo3, caplog, monkeypatch):
    # the lists of a one-line chunk "[]" join to one flat list of no sample
    monkeypatch.setattr(videos, "_CHUNK", 1)
    with caplog.at_level("WARNING"):
        corpus = pooled(tmp_path, repo3, [("v", "c1", []), ("w", "c1", [0.5])])
    assert corpus.ids == ("w",)
    assert caplog.messages == [f"{tmp_path / 'tracks.jsonl'} line 1: empty score list, skipped"]


def test_build_record_fills_missing_with_zero(tmp_path, repo3):
    corpus = pooled(tmp_path, repo3, [("v1", "c1", [0.5]), ("v1", "c3", [0.2, 0.4])])
    np.testing.assert_allclose(corpus.S, [[0.5, 0.0, 0.4]])


def test_build_record_unknown_concept(tmp_path, repo3):
    with pytest.raises(ConceptFormatError, match="xyz"):
        pooled(tmp_path, repo3, [("v1", "xyz", [0.5])])


def test_build_record_mixed_videos(tmp_path, repo3):
    # the tracks of two videos in one file give each video its own row
    corpus = pooled(tmp_path, repo3, [("v1", "c1", [0.1]), ("v2", "c2", [0.1])])
    assert corpus.ids == ("v1", "v2")
    np.testing.assert_array_equal(corpus.S, [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])


def test_build_record_permutation_invariant(tmp_path, repo3):
    tracks = [("v1", "c1", [0.3]), ("v1", "c2", [0.8]), ("v1", "c3", [0.1])]
    a = pooled(tmp_path, repo3, tracks).S
    b = pooled(tmp_path, repo3, tracks[::-1]).S
    np.testing.assert_array_equal(a, b)


def test_pooling_matrix_matches_cell_oracle(tmp_path):
    # 50 synthetic videos x 20 concepts, max mode, against per-cell max()
    rng = np.random.default_rng(2)
    repo = ConceptRepository([ConceptDefinition(id=f"c{i}", name=str(i)) for i in range(20)])
    expected = np.zeros((50, 20))
    tracks = []
    for v in range(50):
        for c in rng.choice(20, size=int(rng.integers(1, 20)), replace=False):
            samples = rng.uniform(0, 1, size=int(rng.integers(1, 6)))
            tracks.append((f"v{v}", f"c{c}", samples))
            expected[v, c] = max(float(s) for s in samples)
    corpus = pooled(tmp_path, repo, tracks, mode="max")
    assert corpus.ids == tuple(f"v{v}" for v in range(50))
    np.testing.assert_array_equal(corpus.S, expected)


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_load_corpus_rejects_an_unknown_mode_before_reading(tmp_path, repo3, suffix):
    missing = tmp_path / f"absent{suffix}"  # opening it would raise OSError
    with pytest.raises(ValueError, match="pool mode must be max or avg, got 'bogus'"):
        load_corpus(missing, repo3, mode="bogus")


def test_load_corpus_union_semantics(tmp_path, repo3):
    scores = tmp_path / "scores.jsonl"
    write_lines(scores, [
        json.dumps({"video": "v1", "concept": "c1", "scores": [0.5, 0.7]}),
        json.dumps({"video": "v2", "concept": "c2", "scores": [0.9]}),
        json.dumps({"video": "v3", "concept": "c1", "scores": [0.1]}),
    ])
    transcripts = tmp_path / "tr.jsonl"
    write_lines(transcripts, [
        json.dumps({"video": "v1", "ocr": "hello", "asr": "world"}),
        json.dumps({"video": "v2", "ocr": "", "asr": "speech"}),
    ])
    corpus = load_corpus(scores, repo3, transcripts)
    texts = dict(zip(corpus.ids, zip(corpus.ocr, corpus.asr)))
    assert set(texts) == {"v1", "v2", "v3"}
    assert texts["v1"] == ("hello", "world") and texts["v3"] == ("", "")


def test_load_corpus_score_out_of_range_cites_line(tmp_path, repo3):
    scores = tmp_path / "scores.jsonl"
    write_lines(scores, [
        json.dumps({"video": "v1", "concept": "c1", "scores": [0.5]}),
        json.dumps({"video": "v2", "concept": "c1", "scores": [1.3]}),
    ])
    with pytest.raises(IngestError, match="line 2"):
        load_corpus(scores, repo3)


def test_load_corpus_malformed_line_skipped_with_report(tmp_path, repo3, caplog):
    scores = tmp_path / "scores.jsonl"
    write_lines(scores, [
        json.dumps({"video": "v1", "concept": "c1", "scores": [0.5]}),
        "{not json at all",
    ])
    with caplog.at_level("WARNING"):
        corpus = load_corpus(scores, repo3)
    assert len(corpus) == 1
    assert any("line 2" in message for message in caplog.messages)


def test_load_corpus_prepooled_csv_passthrough(tmp_path):
    repo = ConceptRepository([ConceptDefinition(id=f"c{i}", name=str(i)) for i in range(4)])
    csv_path = tmp_path / "pooled.csv"
    rows = ["video,c0,c1,c2,c3"]
    expected = {}
    rng = np.random.default_rng(3)
    for v in range(5):
        values = rng.uniform(0, 1, size=4)
        expected[f"v{v}"] = values
        rows.append(f"v{v}," + ",".join(repr(float(x)) for x in values))
    write_lines(csv_path, rows)
    corpus = load_corpus(csv_path, repo)
    assert corpus.ids == tuple(expected)
    np.testing.assert_array_equal(corpus.S, list(expected.values()))


def test_load_corpus_lookup_total_over_union(tmp_path, repo3):
    scores = tmp_path / "scores.jsonl"
    write_lines(scores, [json.dumps({"video": "a", "concept": "c1", "scores": [0.2]})])
    transcripts = tmp_path / "tr.jsonl"
    write_lines(transcripts, [json.dumps({"video": "b", "asr": "x"})])
    assert load_corpus(scores, repo3, transcripts).ids == ("a", "b")


def test_load_corpus_duplicate_track_rejected_with_line(tmp_path, repo3):
    scores = tmp_path / "scores.jsonl"
    write_lines(scores, [
        json.dumps({"video": "v1", "concept": "c1", "scores": [0.5]}),
        json.dumps({"video": "v1", "concept": "c2", "scores": [0.4]}),
        json.dumps({"video": "v1", "concept": "c1", "scores": [0.7]}),
    ])
    with pytest.raises(IngestError, match=r"line 3: duplicate track for \(v1, c1\)"):
        load_corpus(scores, repo3)


def test_load_corpus_unknown_concept_cites_line(tmp_path, repo3):
    scores = tmp_path / "scores.jsonl"
    write_lines(scores, [
        json.dumps({"video": "v1", "concept": "c1", "scores": [0.5]}),
        json.dumps({"video": "v1", "concept": "xyz", "scores": [0.4]}),
    ])
    with pytest.raises(ConceptFormatError, match="line 2: unknown concept id 'xyz'"):
        load_corpus(scores, repo3)


def test_null_transcript_is_a_missing_channel(tmp_path):
    # "none" is in the vocabulary, so a null read as the text "None" would
    # be embedded and scored instead of counting as a missing channel
    space_path = tmp_path / "space.txt"
    space_path.write_text("3 3\nnone 1 0 0\nq 0.6 0.8 0\nc 0 0 1\n", encoding="utf-8")
    space = load_embeddings(space_path)
    repo = ConceptRepository([ConceptDefinition(id="c1", name="c")], space)
    scores = tmp_path / "pooled.csv"
    write_lines(scores, ["video,c1", "null_ocr,0.5", "empty_ocr,0.5"])
    transcripts = tmp_path / "tr.jsonl"
    write_lines(transcripts, [
        json.dumps({"video": "null_ocr", "ocr": None, "asr": None}),
        json.dumps({"video": "empty_ocr", "ocr": "", "asr": ""}),
    ])
    corpus = load_corpus(scores, repo, transcripts)
    assert corpus.ocr == ("", "") and corpus.asr == ("", "")
    assert corpus.n_ocr.tolist() == [0, 0] and corpus.n_asr.tolist() == [0, 0]

    query = EventQuery(event_id="e", title_terms=("q",))
    ranked = rank_event(query, space, repo, corpus, RetrievalConfig(augment_k=0))
    scores_by_video = dict(ranked.entries)
    assert scores_by_video["null_ocr"] == scores_by_video["empty_ocr"]


def test_missing_transcripts_are_zero_rows_in_read_only_text_columns(tmp_path):
    # text scoring has no special case for a missing channel: it relies on
    # each row of count 0 being zero, which the read-only columns keep
    space_path = tmp_path / "space.txt"
    space_path.write_text("3 3\nnone 1 0 0\nq 0.6 0.8 0\nc 0 0 1\n", encoding="utf-8")
    space = load_embeddings(space_path)
    repo = ConceptRepository([ConceptDefinition(id="c1", name="c")], space)
    scores = tmp_path / "pooled.csv"
    write_lines(scores, ["video,c1", "missing,0.5", "null,0.5", "empty,0.5", "oov,0.5",
                         "present,0.5"])
    transcripts = tmp_path / "tr.jsonl"
    write_lines(transcripts, [
        json.dumps({"video": "null", "ocr": None, "asr": None}),
        json.dumps({"video": "empty", "ocr": "", "asr": ""}),
        json.dumps({"video": "oov", "ocr": "zzz yyy", "asr": "the xxx"}),
        json.dumps({"video": "present", "ocr": "q c", "asr": "q"}),
        json.dumps({"video": "only", "ocr": "c"}),  # transcript-only, no ASR
    ])
    corpus = load_corpus(scores, repo, transcripts)
    assert corpus.ids == ("missing", "null", "empty", "oov", "present", "only")
    assert corpus.n_ocr.tolist() == [0, 0, 0, 0, 2, 1]
    assert corpus.n_asr.tolist() == [0, 0, 0, 0, 1, 0]
    for pooled_rows, counts in ((corpus.P_ocr, corpus.n_ocr), (corpus.P_asr, corpus.n_asr)):
        assert (pooled_rows[counts == 0] == 0.0).all() and pooled_rows[counts > 0].any()
    for column in (corpus.P_ocr, corpus.P_asr, corpus.n_ocr, corpus.n_asr):
        with pytest.raises(ValueError):
            column[0] = 1


@pytest.mark.parametrize("entry, reason", [
    ({"video": "v2", "ocr": 7, "asr": "x"}, "ocr and asr must be strings or null"),
    ({"video": "v2", "ocr": "x", "asr": ["x"]}, "ocr and asr must be strings or null"),
    ({"video": None, "ocr": "x"}, "video id None is not a string"),
    ({"video": 12, "ocr": "x"}, "video id 12 is not a string"),
])
def test_load_transcripts_bad_field_skipped_with_line(tmp_path, repo3, caplog, entry, reason):
    scores = tmp_path / "scores.jsonl"
    write_lines(scores, [json.dumps({"video": "v1", "concept": "c1", "scores": [0.2]})])
    transcripts = tmp_path / "tr.jsonl"
    write_lines(transcripts, [json.dumps({"video": "v1", "asr": "y"}), json.dumps(entry)])
    with caplog.at_level("WARNING"):
        corpus = load_corpus(scores, repo3, transcripts)
    assert corpus.ids == ("v1",)
    assert any(
        f"{transcripts} line 2: malformed, skipped ({reason})" in message
        for message in caplog.messages
    )


# JSON that the decoder rejects with a ValueError other than a
# JSONDecodeError, or with a RecursionError
HUGE_INTEGER = "1" * 5000
DEEP_ARRAY = "[" * 100_000


@pytest.mark.parametrize("line, reason", [
    ('{"video": "v2", "ocr": "x", "asr": "y", "n": %s}' % HUGE_INTEGER, "Exceeds the limit"),
    (DEEP_ARRAY, "maximum recursion depth exceeded"),
])
def test_load_transcripts_line_the_decoder_cannot_read_skipped_with_line(
    tmp_path, repo3, caplog, line, reason
):
    scores = tmp_path / "scores.jsonl"
    write_lines(scores, [json.dumps({"video": "v1", "concept": "c1", "scores": [0.2]})])
    transcripts = tmp_path / "tr.jsonl"
    write_lines(transcripts, [line, json.dumps({"video": "v1", "asr": "y"})])
    with caplog.at_level("WARNING"):
        corpus = load_corpus(scores, repo3, transcripts)
    assert corpus.ids == ("v1",) and corpus.asr == ("y",)
    assert len(caplog.messages) == 1
    assert caplog.messages[0].startswith(f"{transcripts} line 1: malformed, skipped ({reason}")


@pytest.mark.parametrize("chunk", [1, 4096])
def test_load_scores_deeply_nested_line_skipped_with_line(
    tmp_path, repo3, caplog, monkeypatch, chunk
):
    monkeypatch.setattr(videos, "_CHUNK", chunk)
    scores = tmp_path / "scores.jsonl"
    track = json.dumps({"video": "v1", "concept": "c1", "scores": [0.2]})
    write_lines(scores, [track, DEEP_ARRAY, track.replace("c1", "c2")])
    with caplog.at_level("WARNING"):
        corpus = load_corpus(scores, repo3)
    np.testing.assert_array_equal(corpus.S, [[0.2, 0.2, 0.0]])
    assert len(caplog.messages) == 1
    assert caplog.messages[0].startswith(f"{scores} line 2: malformed, skipped (maximum recursion")


def test_load_scores_reads_a_huge_integer_sample_as_a_float(tmp_path, repo3):
    # the decoder reads an integer as a float, so one too long for int()
    # is +inf, a score outside [0, 1], and no malformed line
    scores = tmp_path / "scores.jsonl"
    write_lines(scores, ['{"video": "v1", "concept": "c1", "scores": [0.5, %s]}' % HUGE_INTEGER])
    with pytest.raises(IngestError, match=f"{re.escape(str(scores))} line 1: score inf outside"):
        load_corpus(scores, repo3)


def test_load_scores_non_string_ids_skipped_with_line(tmp_path, repo3, caplog):
    scores = tmp_path / "scores.jsonl"
    write_lines(scores, [
        json.dumps({"video": "v1", "concept": "c1", "scores": [0.2]}),
        json.dumps({"video": None, "concept": "c1", "scores": [0.2]}),
        json.dumps({"video": "v2", "concept": 3, "scores": [0.2]}),
    ])
    with caplog.at_level("WARNING"):
        corpus = load_corpus(scores, repo3)
    assert corpus.ids == ("v1",)
    for lineno in (2, 3):
        assert any(f"line {lineno}: malformed" in message for message in caplog.messages)


# ------------------------------------------------------------------ Corpus

def test_corpus_holds_read_only_columns(repo3):
    scores = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    corpus = Corpus(repo3, ["b", "a"], scores, ocr=["x", ""])
    assert len(corpus) == 2 and corpus.ids == ("b", "a")
    assert corpus.ocr == ("x", "") and corpus.asr == ("", "")
    assert corpus.id_order.tolist() == [1, 0] and corpus.id_column.tolist() == ["b", "a"]
    np.testing.assert_array_equal(corpus.S, scores)
    assert corpus.S is scores  # kept without a copy, and read-only
    with pytest.raises(ValueError):
        scores[0, 0] = 0.9
    assert corpus.P_ocr is None  # a repository without a space: no text columns


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_loaded_corpus_equals_the_corpus_of_its_records(tmp_path, suffix):
    space = load_embeddings_text(tmp_path)
    definitions = [ConceptDefinition(id=c, name=c) for c in ("one", "two", "three")]
    repo = ConceptRepository(definitions, space)
    scores = tmp_path / f"scores{suffix}"
    if suffix == ".csv":
        write_lines(scores, ["video,three,one", "v2,0.5,0.25", "v1,1,0"])
    else:
        write_lines(scores, [
            json.dumps({"video": "v2", "concept": "three", "scores": [0.5, 0.25]}),
            json.dumps({"video": "v1", "concept": "one", "scores": [0]}),
            json.dumps({"video": "v2", "concept": "one", "scores": [0.25]}),
        ])
    transcripts = tmp_path / "tr.jsonl"
    write_lines(transcripts, [
        json.dumps({"video": "v9", "ocr": "two one", "asr": None}),
        json.dumps({"video": "v1", "asr": "three"}),
        json.dumps({"video": "v5", "ocr": "one"}),
    ])
    loaded = load_corpus(scores, repo, transcripts)
    # scored videos first, then transcript-only ones with zero scores
    assert loaded.ids == ("v2", "v1", "v9", "v5")
    assert loaded.ocr == ("", "", "two one", "one") and loaded.asr == ("", "three", "", "")
    assert not loaded.S.flags.writeable and not loaded.S[2:].any()
    scored = {".csv": [[0.25, 0, 0.5], [0, 0, 1]], ".jsonl": [[0.25, 0, 0.5], [0, 0, 0]]}
    np.testing.assert_array_equal(loaded.S[:2], scored[suffix])
    rebuilt = Corpus(repo, loaded.ids, loaded.S, loaded.ocr, loaded.asr)
    for name in ("ids", "S", "ocr", "asr", "P_ocr", "n_ocr", "P_asr", "n_asr", "id_order",
                 "id_column"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(rebuilt, name))


def load_embeddings_text(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("3 3\none 1 0 0\ntwo 0 1 0\nthree 0 0 1\n", encoding="utf-8")
    return load_embeddings(path)


@pytest.mark.parametrize("line", [
    '{"video": "v", "concept": "c", "scores": [1, 0.5]}\n',
    ' \t{"a": 1}\r\n', "", "\n", " \t\r\n", '{"a": 1} x\n', '{"a": 1}}', '{"a"', "[1,]",
    '\x0c{"a": 1}', '{"a": 1}\x0c', "\u00a0{}", "nul", "NaN", "-0", "1e999", "[] []", '"abc',
    '{"a": tru}', "12 ", '{"a": 1} \n \n',
])
def test_score_line_decoder_matches_the_json_decoder(caplog, line):
    # the route that reads every line the bulk route declines: a line is
    # what json.JSONDecoder(parse_int=_json_int) decodes, or is reported
    # with the decoder's own error (a blank line silently)
    repo = ConceptRepository([ConceptDefinition(id="c", name="c")])
    try:
        obj = json.JSONDecoder(parse_int=_json_int).decode(line)
        expected = obj["video"], obj["concept"], obj["scores"]
        reports = []
    except (ValueError, KeyError, TypeError) as exc:
        expected = None
        reports = [f"f line 7: malformed, skipped ({exc})"] if line.strip() else []
    seen = np.zeros((0, 1), dtype=bool)
    with caplog.at_level("WARNING"):
        rows, cols, counts, lines, samples = videos._line_tracks(
            "f", [line], 7, repo, {}, seen, "max"
        )
    assert caplog.messages == reports
    if expected is None:
        assert not counts
    else:
        assert (rows, cols, counts, lines) == ([0], [0], [2], [7])
        assert expected == ("v", "c", samples)


@pytest.mark.parametrize("scores, problem", [
    (np.array([0.1, 0.2]), "shape"),
    (np.array([0.1, 0.2, 0.3, 0.4]), "shape"),
    (np.array([0.1, np.nan, 0.3]), "nan"),
    (np.array([0.1, np.inf, 0.3]), "inf"),
    (np.array([0.1, 1.5, 0.3]), "1.5"),
    (np.array([-0.1, 0.2, 0.3]), "-0.1"),
])
def test_corpus_rejects_invalid_concept_vector_naming_video(repo3, scores, problem):
    # a row of the wrong length makes the whole matrix the wrong shape
    shape = r"shape \(2, \d\), expected \(2, 3\)"
    with pytest.raises(IngestError, match=shape if problem == "shape" else f"'broken'.*{problem}"):
        Corpus(repo3, ["fine", "broken"], [np.zeros(len(scores)), scores])


def test_corpus_rejects_duplicate_video_id(repo3):
    with pytest.raises(IngestError, match="duplicate video id 'twice'"):
        Corpus(repo3, ["once", "twice", "twice"], np.zeros((3, 3)))


@pytest.mark.parametrize("ids, message", [
    ([1, "a"], "video id 1 is not a string"),
    ([3, 1], "video id 3 is not a string"),
    (["a", ["b"]], r"video id \['b'\] is not a string"),
])
def test_corpus_rejects_video_ids_that_are_not_strings(repo3, ids, message):
    with pytest.raises(IngestError, match=message):
        Corpus(repo3, ids, np.zeros((len(ids), 3)))


@pytest.mark.parametrize("ids, ocr, asr, message", [
    ("abc", None, None, "video ids must be one entry per video, got the string 'abc'"),
    (["a", "b", "c"], "xyz", None, "OCR must be one entry per video, got the string 'xyz'"),
    (["a", "b", "c"], None, "xyz", "ASR must be one entry per video, got the string 'xyz'"),
])
def test_corpus_rejects_a_string_as_a_column(repo3, ids, ocr, asr, message):
    # tuple("abc") would be three one-letter videos, and pass the length check
    with pytest.raises(IngestError, match=message):
        Corpus(repo3, ids, np.zeros((3, 3)), ocr=ocr, asr=asr)


@pytest.mark.parametrize("video", ["v\t1", "v1\n", "\rv1"])
def test_video_id_that_breaks_a_ranked_tsv_is_an_input_error(tmp_path, repo3, video):
    # written into ranked.tsv, such an id would split its line or add a
    # column, and eval could not read the file back
    with pytest.raises(IngestError, match="video id .* holds a tab, CR or LF"):
        Corpus(repo3, ["v0", video], np.zeros((2, 3)))
    track = {"video": "v0", "concept": "c1", "scores": [0.2]}
    good = tmp_path / "good.jsonl"
    write_lines(good, [json.dumps(track)])
    scores = tmp_path / "scores.jsonl"
    write_lines(scores, [json.dumps(track), json.dumps(dict(track, video=video))])
    table = tmp_path / "scores.csv"
    with open(table, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["video", "c1"], ["v0", "0.2"], [video, "0.3"]])
    transcripts = tmp_path / "transcripts.jsonl"
    write_lines(transcripts, [json.dumps({"video": "v0", "ocr": "x"}),
                              json.dumps({"video": video, "ocr": "y"})])
    for bad, line, files in (
        (scores, 2, (scores,)), (table, 3, (table,)), (transcripts, 2, (good, transcripts))
    ):
        with pytest.raises(IngestError) as info:
            load_corpus(files[0], repo3, *files[1:])
        assert f"{bad} line {line}: video id {video!r} holds a tab, CR or LF" in str(info.value)


@pytest.mark.parametrize("ocr, asr, message", [
    (["a", 7], None, "video 'v2': OCR transcript is not a string"),
    (None, [None, "b"], "video 'v1': ASR transcript is not a string"),
    (["a"], None, "1 OCR transcripts for 2 videos"),
])
def test_corpus_rejects_transcripts_that_are_not_a_string_per_video(repo3, ocr, asr, message):
    with pytest.raises(IngestError, match=message):
        Corpus(repo3, ["v1", "v2"], np.zeros((2, 3)), ocr, asr)


@pytest.mark.parametrize("scores", ["01", ["0.5", True], [True], {"0.5": 1}, 0.5, [[0.5]]])
def test_scores_that_are_not_a_list_of_numbers_are_skipped_with_line(
    tmp_path, repo3, caplog, scores
):
    # "01" was read character by character and ["0.5", true] element by
    # element with float(), both loading as the score 1.0
    path = tmp_path / "scores.jsonl"
    write_lines(path, [
        json.dumps({"video": "v1", "concept": "c1", "scores": [0.2]}),
        json.dumps({"video": "v2", "concept": "c1", "scores": scores}),
    ])
    with caplog.at_level("WARNING"):
        corpus = load_corpus(path, repo3)
    assert list(corpus.ids) == ["v1"]
    assert f"{path} line 2: malformed, skipped (scores must be a list of numbers)" in caplog.messages


def test_integer_scores_load_and_a_huge_one_is_out_of_range(tmp_path, repo3):
    path = tmp_path / "scores.jsonl"
    write_lines(path, [
        '{"video": "v1", "concept": "c1", "scores": [0, 1, -0]}',
        '{"video": "v1", "concept": "c2", "scores": [-0]}',
    ])
    S = load_corpus(path, repo3, mode="avg").S
    np.testing.assert_array_equal(S, [[1 / 3, 0.0, 0.0]])
    assert not np.signbit(S).any()  # the integer -0 is 0, as int("-0") is
    write_lines(path, ['{"video": "v1", "concept": "c1", "scores": [1' + "0" * 400 + "]}"])
    with pytest.raises(IngestError, match="line 1: score inf outside"):
        load_corpus(path, repo3)


def test_score_range_checked_across_chunks_names_first_line(tmp_path, repo3, monkeypatch):
    monkeypatch.setattr("semvid.videos._CHUNK", 2)
    path = tmp_path / "scores.jsonl"
    write_lines(path, [
        json.dumps({"video": "v1", "concept": "c1", "scores": [0.5]}),
        json.dumps({"video": "v1", "concept": "c2", "scores": [0.5]}),
        json.dumps({"video": "v2", "concept": "c1", "scores": [0.1, 7.0]}),
        json.dumps({"video": "v2", "concept": "c2", "scores": [-1.0]}),
        json.dumps({"video": "v3", "concept": "nope", "scores": [0.5]}),
    ])
    with pytest.raises(IngestError, match=r"line 3: score 7\.0 outside \[0, 1\]"):
        load_corpus(path, repo3)


def write_csv(tmp_path, rows):
    path = tmp_path / "pooled.csv"
    write_lines(path, ["video,c1,c2,c3"] + rows)
    return path


@pytest.mark.parametrize("rows, message", [
    (["a,0.1,0.2,0.3", "b,0.1,0.2"], "line 3: expected 4 fields, got 3"),
    (["a,0.1,0.2,0.3", "", "b,0.1,x,0.3"], "line 4: non-numeric score 'x'"),
    (["a,0.1,0.2,0.3", "b,0.1,1.5,x"], r"line 3: score 1\.5 outside \[0, 1\]"),
    (["a,0.1,0.2,0.3", "b,0.1,nan,0.3"], r"line 3: score nan outside \[0, 1\]"),
    (["a,0.1,0.2,0.3", "a,0.1,0.2,0.3"], "line 3: duplicate video id 'a'"),
    # an earlier row's bad value aborts before a later row's field count
    (["a,0.1,x,0.3", "b,0.1"], "line 2: non-numeric score 'x'"),
    (["a,0.1,2.0,0.3", "a,0.1,0.2,0.3"], r"line 2: score 2\.0 outside \[0, 1\]"),
])
def test_prepooled_csv_errors_cite_line(tmp_path, repo3, rows, message):
    with pytest.raises(IngestError, match=message):
        load_corpus(write_csv(tmp_path, rows), repo3)


def test_prepooled_csv_header_naming_a_concept_twice_is_rejected(tmp_path, repo3):
    # the second column's score would overwrite the first's
    path = tmp_path / "pooled.csv"
    write_lines(path, ["video,c1,c1", "v1,0.2,0.9"])
    with pytest.raises(IngestError, match=re.escape(f"{path} line 1: concept 'c1' named twice")):
        load_corpus(path, repo3)


def test_prepooled_csv_header_naming_an_unknown_concept_cites_line_1(tmp_path, repo3):
    path = tmp_path / "pooled.csv"
    write_lines(path, ["video,c1,nope", "v1,0.2,0.9"])
    with pytest.raises(ConceptFormatError,
                       match=re.escape(f"{path} line 1: unknown concept id 'nope'")):
        load_corpus(path, repo3)


@pytest.mark.parametrize("name", ["pooled.CSV", "pooled.Csv", "pooled.csv"])
def test_score_file_ending_in_csv_in_any_case_is_a_prepooled_matrix(tmp_path, repo3, name):
    path = tmp_path / name
    write_lines(path, ["video,c2", "v1,0.25", "v2,1"])
    corpus = load_corpus(path, repo3)
    assert corpus.ids == ("v1", "v2")
    np.testing.assert_array_equal(corpus.S, [[0, 0.25, 0], [0, 1, 0]])


def test_prepooled_csv_across_blocks(tmp_path, repo3, monkeypatch):
    monkeypatch.setattr("semvid.videos._CSV_VALUES", 6)  # two rows of three
    rows = [f"v{i},{i / 10},0.5,{1 - i / 10}" for i in range(5)]
    corpus = load_corpus(write_csv(tmp_path, rows), repo3)
    assert list(corpus.ids) == [f"v{i}" for i in range(5)]
    np.testing.assert_array_equal(corpus.S, [[i / 10, 0.5, 1 - i / 10] for i in range(5)])
    with pytest.raises(IngestError, match="line 5: non-numeric score ''"):
        load_corpus(write_csv(tmp_path, rows[:3] + ["x,0.1,,0.3"] + rows[3:]), repo3)


# Each case's rows (after the header video,c1,c2,c3), its line end, and the
# error the csv.reader route gives for it, which a load must keep: with
# blocks of two rows, the first block is plain and the fault lies in or
# after the second, unless the fault is in the first.
CSV_ROUTE_CASES = {
    "quoted-id-with-comma": (
        ["a,0.1,0.2,0.3", "b,0.1,0.2,0.3", '"x,y",0.1,0.2,0.3', "c,0.1,0.2"], "\n",
        "line 5: expected 4 fields, got 3"),
    "crlf": (["a,0.1,0.2,0.3", "b,0.1,0.2,0.3", "", "c,0.1,x,0.3"], "\r\n",
             "line 5: non-numeric score 'x'"),
    "quote-after-block-1": (
        ["a,0.1,0.2,0.3", "b,0.1,0.2,0.3", '"c",0.1,0.2,0.3', "d,0.1,0.2,0.3", "", "e,0.1,0.2"],
        "\n", "line 7: expected 4 fields, got 3"),
    "whitespace-line": (["a,0.1,0.2,0.3", " ", "b,0.1,0.2,0.3"], "\n",
                        "line 3: expected 4 fields, got 1"),
    "digit-separator": (["a,0.1,0.2,0.3", "b,0.1,1_0,0.3"], "\n",
                        "line 3: score 10.0 outside [0, 1]"),
    "nan": (["a,0.1,0.2,0.3", "b,0.1,nan,0.3"], "\n", "line 3: score nan outside [0, 1]"),
    "out-of-range-in-block-2": (["a,0.1,0.2,0.3", "b,0.1,0.2,0.3", "", "c,0.1,1.5,0.3"], "\n",
                                "line 5: score 1.5 outside [0, 1]"),
    "duplicate-across-blocks": (
        ["a,0.1,0.2,0.3", "b,0.1,0.2,0.3", "c,0.1,0.2,0.3", "a,0.1,0.2,0.3"], "\n",
        "line 5: duplicate video id 'a'"),
    "tab-in-id": (["a,0.1,0.2,0.3", "b,0.1,0.2,0.3", "c\td,0.1,0.2,0.3"], "\n",
                  "line 4: video id 'c\\td' holds a tab, CR or LF, which a ranked TSV cannot hold"),
    "field-count": (["a,0.1,0.2,0.3", "b,0.1,0.2,0.3", "c,0.1,0.2,0.3,0.4"], "\n",
                    "line 4: expected 4 fields, got 5"),
    # np.loadtxt strips U+001C-U+001F around a number, float() does not
    "information-separator": (["a,0.1,0.2,0.3", "b,0.1,0.2\x1c,0.3"], "\n",
                              "line 3: non-numeric score '0.2\\x1c'"),
}


@pytest.mark.parametrize("case", list(CSV_ROUTE_CASES))
def test_prepooled_csv_faults_keep_their_message_and_line(tmp_path, repo3, monkeypatch, case):
    monkeypatch.setattr("semvid.videos._CSV_PLAIN_VALUES", 6)  # two rows of three
    monkeypatch.setattr("semvid.videos._CSV_VALUES", 6)
    rows, newline, message = CSV_ROUTE_CASES[case]
    path = tmp_path / "pooled.csv"
    path.write_bytes(newline.join(["video,c1,c2,c3", *rows, ""]).encode("utf-8"))
    with pytest.raises(IngestError) as caught:
        load_corpus(path, repo3)
    assert str(caught.value) == f"{path} {message}"


def test_prepooled_csv_reads_plain_blocks_with_loadtxt_and_the_rest_with_csv(
        tmp_path, repo3, monkeypatch):
    # the first block is plain; the quoted id hands the second block and
    # everything after it to csv.reader, which takes its quotes off
    monkeypatch.setattr("semvid.videos._CSV_PLAIN_VALUES", 6)
    calls = []
    loadtxt = np.loadtxt

    def spy(lines, *args, **kwargs):
        calls.append(list(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    path = tmp_path / "pooled.csv"
    write_lines(path, ["video,c2,c1", "a,0.1,0.2", "", "b,-0.0,1", '"x",0.5,0.25', "c,1e-3,0",
                       "d,1,1", '"y,z",0,0'])
    corpus = load_corpus(path, repo3)
    assert calls == [["a,0.1,0.2\n", "b,-0.0,1\n"]]
    assert list(corpus.ids) == ["a", "b", "x", "c", "d", "y,z"]
    expected = [[0.2, 0.1, 0.0], [1.0, -0.0, 0.0], [0.25, 0.5, 0.0], [0.0, 1e-3, 0.0],
                [1.0, 1.0, 0.0], [0.0] * 3]
    assert corpus.S.tobytes() == np.array(expected).tobytes()

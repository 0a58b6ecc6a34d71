import json

import numpy as np
import pytest

from semvid.concepts import ConceptDefinition, ConceptRepository
from semvid.config import RetrievalConfig
from semvid.embedding import load_embeddings
from semvid.errors import ConceptFormatError, IngestError
from semvid.retrieval import EventQuery, rank_event
from semvid.videos import Corpus, ScoreTrack, VideoRecord, build_video_record, load_corpus, pool
from semvid.videos import _decode_json, _json_int


@pytest.fixture
def repo3():
    return ConceptRepository([
        ConceptDefinition(id="c1", name="one"),
        ConceptDefinition(id="c2", name="two"),
        ConceptDefinition(id="c3", name="three"),
    ])


def track(video, concept, samples):
    return ScoreTrack(video_id=video, concept_id=concept, samples=tuple(samples))


def test_pool_max():
    assert pool(track("v", "c", [0.2, 0.9, 0.1]), "max") == pytest.approx(0.9)


def test_pool_avg():
    assert pool(track("v", "c", [0.2, 0.9, 0.1]), "avg") == pytest.approx(0.4)


def test_pool_max_dominates_avg():
    rng = np.random.default_rng(1)
    for _ in range(25):
        t = track("v", "c", rng.uniform(0, 1, size=int(rng.integers(1, 9))))
        assert pool(t, "max") >= pool(t, "avg")


def test_pool_singleton_idempotent():
    for mode in ("max", "avg"):
        assert pool(track("v", "c", [0.37]), mode) == pytest.approx(0.37)


def test_pool_max_monotone_in_appends():
    samples = [0.1, 0.5]
    base = pool(track("v", "c", samples), "max")
    assert pool(track("v", "c", samples + [0.3]), "max") >= base


def test_track_rejects_out_of_range_and_empty():
    with pytest.raises(IngestError):
        track("v", "c", [1.3])
    with pytest.raises(IngestError):
        track("v", "c", [])


def test_build_record_fills_missing_with_zero(repo3):
    record = build_video_record(
        [track("v1", "c1", [0.5]), track("v1", "c3", [0.2, 0.4])], repo3
    )
    np.testing.assert_allclose(record.concept_scores, [0.5, 0.0, 0.4])
    assert record.covered == 2


def test_build_record_unknown_concept(repo3):
    with pytest.raises(Exception, match="xyz"):
        build_video_record([track("v1", "xyz", [0.5])], repo3)


def test_build_record_mixed_videos(repo3):
    with pytest.raises(IngestError, match="mix"):
        build_video_record([track("v1", "c1", [0.1]), track("v2", "c2", [0.1])], repo3)


def test_build_record_permutation_invariant(repo3):
    tracks = [track("v1", "c1", [0.3]), track("v1", "c2", [0.8]), track("v1", "c3", [0.1])]
    a = build_video_record(tracks, repo3)
    b = build_video_record(list(reversed(tracks)), repo3)
    np.testing.assert_array_equal(a.concept_scores, b.concept_scores)


def test_pooling_matrix_matches_cell_oracle():
    # 50 synthetic videos x 20 concepts, max mode, against per-cell max()
    rng = np.random.default_rng(2)
    repo = ConceptRepository([ConceptDefinition(id=f"c{i}", name=str(i)) for i in range(20)])
    expected = np.zeros((50, 20))
    got = np.zeros((50, 20))
    for v in range(50):
        tracks = []
        for c in rng.choice(20, size=int(rng.integers(1, 20)), replace=False):
            samples = rng.uniform(0, 1, size=int(rng.integers(1, 6)))
            tracks.append(track(f"v{v}", f"c{c}", samples))
            expected[v, c] = max(float(s) for s in samples)
        got[v] = build_video_record(tracks, repo, mode="max").concept_scores
    np.testing.assert_allclose(got, expected, atol=0)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    records = {r.video_id: r for r in load_corpus(scores, repo3, transcripts)}
    assert set(records) == {"v1", "v2", "v3"}
    assert records["v1"].ocr_text == "hello"
    assert records["v3"].ocr_text == "" and records["v3"].asr_text == ""


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
        records = load_corpus(scores, repo3)
    assert len(records) == 1
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
    records = {r.video_id: r for r in load_corpus(csv_path, repo)}
    assert len(records) == 5
    for vid, values in expected.items():
        np.testing.assert_array_equal(records[vid].concept_scores, values)


def test_load_corpus_lookup_total_over_union(tmp_path, repo3):
    scores = tmp_path / "scores.jsonl"
    write_lines(scores, [json.dumps({"video": "a", "concept": "c1", "scores": [0.2]})])
    transcripts = tmp_path / "tr.jsonl"
    write_lines(transcripts, [json.dumps({"video": "b", "asr": "x"})])
    records = {r.video_id for r in load_corpus(scores, repo3, transcripts)}
    assert records == {"a", "b"}


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
    repo = ConceptRepository([ConceptDefinition(id="c1", name="c")])
    repo.attach_space(space)
    scores = tmp_path / "pooled.csv"
    write_lines(scores, ["video,c1", "null_ocr,0.5", "empty_ocr,0.5"])
    transcripts = tmp_path / "tr.jsonl"
    write_lines(transcripts, [
        json.dumps({"video": "null_ocr", "ocr": None, "asr": None}),
        json.dumps({"video": "empty_ocr", "ocr": "", "asr": ""}),
    ])
    corpus = load_corpus(scores, repo, transcripts)
    records = {r.video_id: r for r in corpus}
    assert records["null_ocr"].ocr_text == "" and records["null_ocr"].asr_text == ""
    assert corpus.n_ocr.tolist() == [0, 0] and corpus.n_asr.tolist() == [0, 0]

    query = EventQuery(event_id="e", title_terms=("q",))
    ranked = rank_event(query, space, repo, corpus, RetrievalConfig(augment_k=0))
    scores_by_video = dict(ranked.entries)
    assert scores_by_video["null_ocr"] == scores_by_video["empty_ocr"]


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
    assert [r.video_id for r in corpus] == ["v1"]
    assert any(
        f"{transcripts} line 2: malformed, skipped ({reason})" in message
        for message in caplog.messages
    )


def test_load_scores_non_string_ids_skipped_with_line(tmp_path, repo3, caplog):
    scores = tmp_path / "scores.jsonl"
    write_lines(scores, [
        json.dumps({"video": "v1", "concept": "c1", "scores": [0.2]}),
        json.dumps({"video": None, "concept": "c1", "scores": [0.2]}),
        json.dumps({"video": "v2", "concept": 3, "scores": [0.2]}),
    ])
    with caplog.at_level("WARNING"):
        corpus = load_corpus(scores, repo3)
    assert [r.video_id for r in corpus] == ["v1"]
    for lineno in (2, 3):
        assert any(f"line {lineno}: malformed" in message for message in caplog.messages)


# ------------------------------------------------------------------ Corpus

def test_corpus_is_a_read_only_sequence_over_its_columns(repo3):
    records = [
        VideoRecord(video_id="b", concept_scores=np.array([0.1, 0.2, 0.3]), ocr_text="x"),
        VideoRecord(video_id="a", concept_scores=np.array([0.4, 0.5, 0.6])),
    ]
    corpus = Corpus(records, repo3)
    assert len(corpus) == 2
    assert [r.video_id for r in corpus] == ["b", "a"] == list(corpus.ids)
    assert corpus[1].video_id == "a" and list(corpus)[0].ocr_text == "x"
    np.testing.assert_array_equal(corpus.S, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    assert np.shares_memory(corpus[0].concept_scores, corpus.S)
    with pytest.raises(ValueError):
        corpus[0].concept_scores[0] = 0.9
    assert corpus.P_ocr is None  # no space attached, no text columns


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_loaded_corpus_equals_the_corpus_of_its_records(tmp_path, suffix):
    space = load_embeddings_text(tmp_path)
    repo = ConceptRepository([ConceptDefinition(id=c, name=c) for c in ("one", "two", "three")])
    repo.attach_space(space)
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
    assert [r.covered for r in loaded] == ([2, 2, 0, 0] if suffix == ".csv" else [2, 1, 0, 0])
    assert not loaded.S.flags.writeable and not loaded.S[2:].any()
    rebuilt = Corpus(list(loaded), repo)
    for name in ("ids", "S", "P_ocr", "n_ocr", "P_asr", "n_asr", "id_rank"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(rebuilt, name))
    for a, b in zip(loaded, rebuilt):
        assert (a.video_id, a.ocr_text, a.asr_text, a.covered) == (
            b.video_id, b.ocr_text, b.asr_text, b.covered)
        assert np.shares_memory(a.concept_scores, loaded.S)
    assert loaded[-1].video_id == "v5" and [r.video_id for r in loaded[1::2]] == ["v1", "v5"]
    with pytest.raises(IndexError):
        loaded[4]


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
def test_score_line_decoder_matches_the_json_decoder(line):
    def outcome(decode):
        try:
            return repr(decode(line))
        except json.JSONDecodeError as exc:
            return str(exc), exc.pos
    assert outcome(_decode_json) == outcome(json.JSONDecoder(parse_int=_json_int).decode)


@pytest.mark.parametrize("scores, problem", [
    (np.array([0.1, 0.2]), "shape"),
    (np.array([0.1, 0.2, 0.3, 0.4]), "shape"),
    (np.array([0.1, np.nan, 0.3]), "nan"),
    (np.array([0.1, np.inf, 0.3]), "inf"),
    (np.array([0.1, 1.5, 0.3]), "1.5"),
    (np.array([-0.1, 0.2, 0.3]), "-0.1"),
])
def test_corpus_rejects_invalid_concept_vector_naming_video(repo3, scores, problem):
    records = [
        VideoRecord(video_id="fine", concept_scores=np.zeros(3)),
        VideoRecord(video_id="broken", concept_scores=scores),
    ]
    with pytest.raises(IngestError, match=f"'broken'.*{problem}"):
        Corpus(records, repo3)


def test_corpus_rejects_duplicate_video_id(repo3):
    records = [VideoRecord(video_id="twice", concept_scores=np.zeros(3))] * 2
    with pytest.raises(IngestError, match="duplicate video id 'twice'"):
        Corpus(records, repo3)


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


def test_prepooled_csv_across_blocks(tmp_path, repo3, monkeypatch):
    monkeypatch.setattr("semvid.videos._CSV_VALUES", 6)  # two rows of three
    rows = [f"v{i},{i / 10},0.5,{1 - i / 10}" for i in range(5)]
    corpus = load_corpus(write_csv(tmp_path, rows), repo3)
    assert list(corpus.ids) == [f"v{i}" for i in range(5)]
    np.testing.assert_array_equal(corpus.S, [[i / 10, 0.5, 1 - i / 10] for i in range(5)])
    assert {r.covered for r in corpus} == {3}
    with pytest.raises(IngestError, match="line 5: non-numeric score ''"):
        load_corpus(write_csv(tmp_path, rows[:3] + ["x,0.1,,0.3"] + rows[3:]), repo3)

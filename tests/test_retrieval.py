import itertools
import json
import math

import numpy as np
import pytest

import semvid.embedding as embedding
import semvid.retrieval as retrieval
from semvid.concepts import ConceptDefinition, ConceptRepository, rank_concepts
from semvid.embedding import EmbeddingSpace, embed_tokens, load_embeddings, sum_pool
from semvid.config import DEFAULT_CONFIG, RetrievalConfig
from semvid.errors import AllTokensOOV, IngestError, NoScoreableConcepts, SemvidError
from semvid.retrieval import (
    EventQuery,
    fuse,
    load_queries,
    map_concept_raw,
    rank_event,
    rank_events,
)
from semvid.stopwords import DEFAULT_STOPWORDS
from semvid.synth import random_space, synth_world
from semvid.videos import Corpus, load_corpus

from oracles import (
    concept_rank_oracle,
    event_scores_oracle,
    fuse_oracle,
    marginalization_oracle,
    mean_pairwise_cosine_oracle,
    psi_fastpath_oracle,
    scan_oracle,
    score_matching_baseline,
)

FUSE_WORKED_VALUE = 0.7458708749256284  # (0.8^6 * sqrt(0.6*0.4)) ** (1/7)


@pytest.fixture
def axis_space(tmp_path):
    path = tmp_path / "axis.txt"
    path.write_text(
        "7 4\n"
        "q 1 0 0 0\n"
        "t1 0.99 0.1 0 0\n"
        "t2 0.95 0.2 0 0\n"
        "t3 0.9 0.3 0 0\n"
        "t4 0.85 0.4 0 0\n"
        "t5 0.8 0.5 0 0\n"
        "far 0 0 0 1\n",
        encoding="utf-8",
    )
    return load_embeddings(path)


def make_repo(space, names):
    repo = ConceptRepository([ConceptDefinition(id=f"c_{n}", name=n) for n in names], space)
    return repo


def rows_of(corpus, repo, rows):
    """The corpus of the given rows of ``corpus``, in that order."""
    return Corpus(
        repo, [corpus.ids[i] for i in rows], corpus.S[rows],
        [corpus.ocr[i] for i in rows], [corpus.asr[i] for i in rows],
    )


# ------------------------------------------------------- concept channel

def concept_only_scores(space, repo, title, S, r=5):
    """rank_event's score per video id on videos v0, v1, ... with concept
    scores ``S`` and no transcripts, where both text channels are the
    neutral 0.5 and the concept channel alone moves the fused score."""
    corpus = Corpus(repo, [f"v{v}" for v in range(len(S))], S)
    query = EventQuery("e", tuple(title))
    ranked = rank_event(query, space, repo, corpus, RetrievalConfig(top_r=r))
    return dict(ranked.entries)


def test_concept_raw_degenerate_sum(axis_space):
    repo = make_repo(axis_space, ["q"])
    got = concept_only_scores(axis_space, repo, ["q"], [[1.0]], r=1)["v0"]
    assert got == pytest.approx(fuse_oracle(1.0, 0.5, 0.5, 6), abs=1e-9)


def test_concept_raw_annihilated_by_zero_scores(axis_space):
    repo = make_repo(axis_space, ["t1", "t2", "t3"])
    got = concept_only_scores(axis_space, repo, ["q"], np.zeros((1, 3)), r=2)["v0"]
    assert got == pytest.approx(fuse_oracle(0.5, 0.5, 0.5, 6), abs=1e-12)  # 0.5


def test_concept_raw_matches_naive_marginalization_oracle(space50):
    rng = np.random.default_rng(21)
    tokens = space50.tokens()
    defs, sets = [], {}
    for i in range(30):
        picked = [str(t) for t in rng.choice(tokens, size=int(rng.integers(1, 3)), replace=False)]
        defs.append(ConceptDefinition(id=f"c{i:02d}", name=" ".join(picked)))
        sets[f"c{i:02d}"] = [space50.vector(t) for t in picked]
    repo = ConceptRepository(defs, space50)
    order = repo.ids()
    qtokens = [str(t) for t in rng.choice(tokens, size=2, replace=False)]
    qvecs = [space50.vector(t) for t in qtokens]
    S = rng.uniform(0, 1, size=(40, 30))
    got = concept_only_scores(space50, repo, qtokens, S)
    ranked = concept_rank_oracle(qvecs, sets)
    for v, vc in enumerate(S):
        raw = marginalization_oracle(ranked, order, vc, 5)
        expected = fuse_oracle((raw / 5 + 1.0) / 2.0, 0.5, 0.5, 6)
        assert got[f"v{v}"] == pytest.approx(expected, abs=1e-10)


# ------------------------------------------------------------- fast path

def test_fastpath_equals_naive_raw(space50):
    # Appendix A: with singleton concepts, the psi form of the raw concept
    # score equals the marginalization, and fuses to rank_event's score
    rng = np.random.default_rng(22)
    repo = make_repo(space50, [f"w{i}" for i in range(20)])
    sets = {f"c_w{i}": [space50.vector(f"w{i}")] for i in range(20)}
    qvecs = [space50.vector("w30"), space50.vector("w31")]
    ranked = concept_rank_oracle(qvecs, sets)
    selected = [cid for cid, _ in ranked[:5]]
    S = rng.uniform(0, 1, size=(25, 20))
    got = concept_only_scores(space50, repo, ["w30", "w31"], S)
    for v, vc in enumerate(S):
        naive = marginalization_oracle(ranked, repo.ids(), vc, 5)
        fast = psi_fastpath_oracle(qvecs, sets, repo.ids(), vc, selected)
        assert fast == pytest.approx(naive, rel=1e-9, abs=1e-12)
        expected = fuse_oracle((fast / 5 + 1.0) / 2.0, 0.5, 0.5, 6)
        assert got[f"v{v}"] == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------ text channel

def test_text_channel_self_match(axis_space, text_channel):
    score = text_channel(["q"], "q", axis_space, k=0)
    assert score == pytest.approx(1.0, abs=1e-12)


def test_text_channel_empty_transcript_unavailable(axis_space, text_channel):
    # a transcript with no in-vocabulary word is a missing channel: neutral
    assert text_channel(["q"], "", axis_space, k=0) == 0.5
    assert text_channel(["q"], "zzz yyy", axis_space, k=0) == 0.5


def test_text_channel_oov_query_raises(axis_space, text_channel):
    with pytest.raises(AllTokensOOV):
        text_channel(["zzz"], "q", axis_space, k=0)


def test_text_channel_expansion_matches_pairwise_oracle(space50, text_channel):
    terms = ["w0"]
    transcript = "w5 w9 w14"
    got = text_channel(terms, transcript, space50, k=2)

    tokens = space50.tokens()
    vectors = [space50.vector(t) for t in tokens]
    neighbors = scan_oracle(tokens, vectors, space50.vector("w0"), 2, {"w0"})
    expanded = [space50.vector("w0")] + [space50.vector(t) for t, _ in neighbors]
    tset = [space50.vector(t) for t in transcript.split()]
    expected = (mean_pairwise_cosine_oracle(expanded, tset) + 1.0) / 2.0
    assert got == pytest.approx(expected, abs=1e-10)


# ------------------------------------------------------- matching baseline

def test_matching_counts_exact_hits():
    assert score_matching_baseline(["birthday", "party"], "happy birthday to you") == 1.0


def test_matching_disjoint_is_zero():
    assert score_matching_baseline(["a", "b"], "c d e") == 0.0


def test_matching_counts_multiplicity():
    assert score_matching_baseline(["cake"], "cake cake cake") == 3.0


def test_matching_invariant_to_token_order():
    query = ["dog", "park"]
    assert score_matching_baseline(query, "dog park walk") == score_matching_baseline(
        query, "walk park dog"
    )


# ------------------------------------------------------------------ fusion

def test_fuse_fixed_point_at_one():
    for w in (1.0, 6.0, 20.0):
        assert fuse(1.0, 1.0, 1.0, w) == pytest.approx(1.0)


def test_fuse_zero_concept_annihilates():
    assert fuse(0.0, 0.9, 0.9, 6.0) == 0.0


@pytest.mark.parametrize("w", [1e-300, 0.5, 1.0, 6.0, 1e300])
def test_fuse_any_zero_channel_gives_positive_zero(w):
    # no mask: a zero channel's log is -inf, whose exp is 0, and a -0.0
    # channel gives +0.0 too
    for channel in range(3):
        for zero in (0.0, -0.0):
            values = [0.7, 1.0, 0.3]
            values[channel] = zero
            got = fuse(*values, w)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0
            values[channel] = np.array([zero, 0.5])
            column = fuse(*values, w)
            assert column[0] == 0.0 and math.copysign(1.0, column[0]) == 1.0


def test_fuse_worked_value():
    got = fuse(0.8, 0.6, 0.4, 6.0)
    assert got == pytest.approx(FUSE_WORKED_VALUE, abs=1e-6)
    assert got == pytest.approx(fuse_oracle(0.8, 0.6, 0.4, 6.0), abs=1e-12)


@pytest.mark.parametrize("channels, w, expected", [
    ((1e-4, 0.5, 0.5), 100.0, 1.0880e-4),  # pc**w underflows to 0
    ((1.0, 0.75, 5e-324), 1.0, 1.3874e-81),  # po * pa is subnormal
])
def test_fuse_does_not_underflow(channels, w, expected):
    got = fuse(*channels, w)
    assert got == pytest.approx(expected, rel=1e-4)
    assert got == pytest.approx(fuse_oracle(*channels, w), rel=1e-12)


@pytest.mark.parametrize("w", [0.0, -1.0, math.inf, math.nan])
def test_fuse_rejects_a_weight_that_is_not_finite_and_positive(w):
    # in logs, w = 0 and a zero channel would give 0 * -inf = NaN
    with pytest.raises(SemvidError, match="w must be finite and positive"):
        fuse(0.0, 0.5, 0.5, w)


def test_fuse_identity_on_equal_channels():
    rng = np.random.default_rng(30)
    for _ in range(50):
        x = float(rng.uniform(0, 1))
        w = float(rng.uniform(0.5, 12))
        assert fuse(x, x, x, w) == pytest.approx(x, rel=1e-12, abs=1e-12)


def test_fuse_monotone_in_each_channel():
    rng = np.random.default_rng(31)
    for _ in range(200):
        pc, po, pa = rng.uniform(0.01, 0.99, size=3)
        w = float(rng.uniform(0.5, 10))
        base = fuse(pc, po, pa, w)
        assert fuse(min(pc + 0.05, 1.0), po, pa, w) >= base
        assert fuse(pc, min(po + 0.05, 1.0), pa, w) >= base
        assert fuse(pc, po, min(pa + 0.05, 1.0), w) >= base


# -------------------------------------------------------------- rank_event

def small_world():
    return synth_world(seed=5, n_events=2, positives_per_event=20, n_videos=200)


def test_rank_event_singleton_corpus(axis_space):
    repo = make_repo(axis_space, ["t1", "t2"])
    corpus = Corpus(repo, ["only"], [[0.4, 0.2]])
    query = EventQuery(event_id="e", title_terms=("q",))
    ranked = rank_event(query, axis_space, repo, corpus, RetrievalConfig(augment_k=0))
    assert len(ranked.entries) == 1 and ranked.entries[0][0] == "only"


def test_rank_event_tie_rule_id_ascending(axis_space):
    repo = make_repo(axis_space, ["t1", "t2"])
    corpus = Corpus(repo, ["zeta", "alpha"], [[0.4, 0.2], [0.4, 0.2]])
    query = EventQuery(event_id="e", title_terms=("q",))
    ranked = rank_event(query, axis_space, repo, corpus, RetrievalConfig(augment_k=0))
    assert [vid for vid, _ in ranked.entries] == ["alpha", "zeta"]
    assert ranked.entries[0][1] == ranked.entries[1][1]


def test_rank_event_matches_shuffled_recompute_oracle():
    world = small_world()
    query = world.queries[0]
    ranked = rank_event(query, world.space, world.repo, world.corpus)

    rng = np.random.default_rng(17)
    shuffled = rows_of(world.corpus, world.repo, rng.permutation(len(world.corpus)))
    again = rank_event(query, world.space, world.repo, shuffled)
    assert ranked.entries == again.entries  # exact, including score bits


def test_rank_event_scores_are_per_video_pure():
    world = small_world()
    query = world.queries[1]
    full = dict(rank_event(query, world.space, world.repo, world.corpus).entries)
    for row in range(0, len(world.corpus), 37):
        alone = rank_event(query, world.space, world.repo, rows_of(world.corpus, world.repo, [row]))
        assert alone.entries[0][1] == pytest.approx(full[world.corpus.ids[row]], abs=1e-12)


def test_rank_event_output_is_permutation_of_corpus():
    world = small_world()
    ranked = rank_event(world.queries[0], world.space, world.repo, world.corpus)
    assert sorted(v for v, _ in ranked.entries) == sorted(world.corpus.ids)
    scores = [s for _, s in ranked.entries]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_rank_event_rejects_invalid_records(axis_space):
    # a hand-built row is validated when the corpus is built, instead of
    # being scored and ranked last; rank_event takes nothing but a Corpus
    repo = make_repo(axis_space, ["t1"])
    for bad in ([np.nan], [1.5], [-0.5]):
        with pytest.raises(IngestError, match="video 'poison'"):
            Corpus(repo, ["good", "poison"], [[0.9], bad], asr=["t1", "t1"])
    with pytest.raises(IngestError, match="not a matrix of numbers"):
        Corpus(repo, ["good", "poison"], [[0.9], [0.1, 0.2]])
    query = EventQuery(event_id="e", title_terms=("q",))
    with pytest.raises(SemvidError, match="needs a Corpus"):
        rank_event(query, axis_space, repo, [("good", [0.9])], RetrievalConfig(augment_k=0))


def test_zero_scored_extra_concept_leaves_fused_scores_unchanged(axis_space):
    # the added concept is far from the query, so it cannot crack the top R
    query = EventQuery(event_id="e", title_terms=("q",))
    names = ["t1", "t2", "t3", "t4", "t5"]
    rng = np.random.default_rng(40)
    base_scores = [rng.uniform(0, 1, size=5) for _ in range(8)]

    ids = [f"v{i}" for i in range(len(base_scores))]
    repo_a = make_repo(axis_space, names)
    corpus_a = Corpus(repo_a, ids, base_scores)
    repo_b = make_repo(axis_space, names + ["far"])
    corpus_b = Corpus(repo_b, ids, [np.append(s, 0.0) for s in base_scores])
    config = RetrievalConfig(augment_k=0)
    ranked_a = rank_event(query, axis_space, repo_a, corpus_a, config)
    ranked_b = rank_event(query, axis_space, repo_b, corpus_b, config)
    assert ranked_a.entries == ranked_b.entries


# --------------------------------------- columnar corpus at an odd size

ODD_VIDEOS = 261  # not a multiple of any SIMD or BLAS block width


@pytest.fixture(scope="module")
def odd_world(tmp_path_factory):
    """261 videos from files, with empty, all-OOV, null and absent
    transcripts, and the stop word "the" inside the vocabulary."""
    directory = tmp_path_factory.mktemp("odd")
    rng = np.random.default_rng(261)
    base = random_space(rng, 120, 300)
    tokens = base.tokens() + ["the"]
    space = EmbeddingSpace(tokens, np.vstack([base._matrix, base._matrix[7]]))
    defs = []
    for i in range(61):
        picked = rng.choice(120, size=int(rng.integers(1, 4)), replace=False)
        defs.append(ConceptDefinition(id=f"c{i:02d}", name=" ".join(f"w{j}" for j in picked)))
    repo = ConceptRepository(defs, space)

    def text(kind):
        words = [f"w{j}" for j in rng.integers(0, 120, size=int(rng.integers(1, 9)))]
        if kind == 7:
            return ""
        if kind == 8:
            return "zzz qqq"
        if kind == 9:
            return None
        return " ".join(words + (["the", "zzz"] if kind == 0 else []))

    rows, transcripts, lines = {}, {}, ["video," + ",".join(repo.ids())]
    for i in range(ODD_VIDEOS):
        video = f"v{(i * 7919) % 1000:03d}"
        row = rng.uniform(0, 1, size=len(repo)) * (i % 9 != 0)
        rows[video] = [float(x) for x in row]
        lines.append(video + "," + ",".join(repr(x) for x in rows[video]))
        if i % 11 != 5:
            transcripts[video] = (text(i % 10), text((i // 10) % 10))
    (directory / "pooled.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (directory / "tr.jsonl").write_text("".join(
        json.dumps({"video": video, "ocr": ocr, "asr": asr}) + "\n"
        for video, (ocr, asr) in transcripts.items()
    ), encoding="utf-8")
    corpus = load_corpus(directory / "pooled.csv", repo, directory / "tr.jsonl")
    assert len(corpus) == ODD_VIDEOS
    queries = [
        EventQuery(event_id="e0", title_terms=("w1", "w2")),
        EventQuery(event_id="e1", title_terms=("w30",), ocr_terms=("w31",), asr_terms=("w90",)),
        EventQuery(event_id="e2", title_terms=("w55", "zzz", "w56")),
    ]
    vocab = {t: space.vector(t) for t in tokens}
    concept_sets = {c.id: [vocab[t] for t in c.name.split()] for c in defs}
    return space, repo, corpus, queries, vocab, concept_sets, rows, transcripts


def test_rank_event_matches_pairwise_oracle_at_odd_size(odd_world):
    space, repo, corpus, queries, vocab, concept_sets, rows, transcripts = odd_world
    for k, query in itertools.product((0, 2, 5), queries):
        ranked = rank_event(query, space, repo, corpus, RetrievalConfig(augment_k=k))
        keys = [(-score, video) for video, score in ranked.entries]
        assert keys == sorted(keys)
        expected = event_scores_oracle(
            vocab, concept_sets, repo.ids(), rows, transcripts,
            list(query.title_terms), list(query.ocr_terms), list(query.asr_terms),
            augment_k=k, stops=DEFAULT_STOPWORDS,
        )
        got = dict(ranked.entries)
        assert set(got) == set(expected)
        worst = max(abs(got[video] - expected[video]) for video in expected)
        assert worst <= 1e-12, f"event {query.event_id}, k={k}: worst deviation {worst:.3e}"


def test_rank_event_bit_exact_under_shuffle_and_reversal(odd_world):
    # at dim 300 a BLAS gemv changes the last bit of some rows when they move
    space, repo, corpus, queries = odd_world[:4]
    rng = np.random.default_rng(3)
    reorderings = [rows_of(corpus, repo, np.arange(len(corpus))[::-1])] + [
        rows_of(corpus, repo, rng.permutation(len(corpus))) for _ in range(20)
    ]
    for query in queries:
        ranked = rank_event(query, space, repo, corpus)
        for reordered in reorderings:
            assert rank_event(query, space, repo, reordered).entries == ranked.entries


def test_concept_weights_bit_exact_under_concept_order(odd_world):
    space, repo = odd_world[:2]
    reversed_repo = ConceptRepository(repo.concepts[::-1], space)
    rng = np.random.default_rng(4)
    for _ in range(5):
        shuffled = [repo.concepts[i] for i in rng.permutation(len(repo))]
        shuffled_repo = ConceptRepository(shuffled, space)
        for title in (["w1", "w2"], ["w30"], ["w55", "w56", "w57"]):
            query = embed_tokens(space, title)
            for kernel in ("pooled", "hausdorff"):
                ranked = rank_concepts(repo, query, kernel)
                assert rank_concepts(reversed_repo, query, kernel) == ranked
                assert rank_concepts(shuffled_repo, query, kernel) == ranked


def test_rank_event_expands_ocr_and_asr_terms_separately(odd_world, monkeypatch):
    space, repo, corpus, queries = odd_world[:4]
    prepared = []
    real = retrieval._expansions

    def recording(term_lists, space, k):
        results = real(term_lists, space, k)
        prepared.extend(tuple(space._tokens[rows].tolist()) for rows, *_ in results)
        return results

    monkeypatch.setattr(retrieval, "_expansions", recording)
    rank_event(queries[0], space, repo, corpus)
    assert len(prepared) == 1  # equal term lists share one expansion
    prepared.clear()
    rank_event(queries[1], space, repo, corpus)
    assert len(prepared) == 2 and prepared[0] != prepared[1]
    assert prepared[0][:2] == ("w30", "w31") and prepared[1][:2] == ("w30", "w90")


def test_rank_events_takes_only_a_corpus_built_for_its_space(odd_world, monkeypatch):
    space, repo, corpus, queries = odd_world[:4]
    # the transcripts are embedded with the repository's stop list: "the"
    # counts as a transcript word only without one
    no_stops_repo = ConceptRepository(repo.concepts, space, stops=frozenset())
    no_stops = Corpus(no_stops_repo, corpus.ids, corpus.S, corpus.ocr, corpus.asr)
    assert (no_stops.n_ocr >= corpus.n_ocr).all() and (no_stops.n_ocr > corpus.n_ocr).any()
    assert rank_event(queries[0], space, no_stops_repo, no_stops).entries != (
        rank_event(queries[0], space, repo, corpus).entries
    )

    other_space = EmbeddingSpace(space.tokens(), space._matrix)
    other_repo = ConceptRepository(repo.concepts, other_space)
    fewer = ConceptRepository(repo.concepts[:-1], space)
    no_space = ConceptRepository(repo.concepts)
    for wrong in (
        list(zip(corpus.ids, corpus.S)),
        [],
        Corpus(other_repo, corpus.ids, corpus.S),
        Corpus(fewer, corpus.ids, corpus.S[:, :-1]),
        Corpus(no_space, corpus.ids, corpus.S),
    ):
        with pytest.raises(SemvidError, match="needs a Corpus built for this space and 61"):
            rank_events(queries, space, repo, wrong)
    # nor with a repository embedded in another space, whose concept
    # weights would come from that space
    with pytest.raises(SemvidError, match="and a repository embedded in this space"):
        rank_events(queries, space, other_repo, corpus)

    # a corpus is used as it was built
    def no_rebuild(*args, **kwargs):
        raise AssertionError("transcripts pooled again")

    monkeypatch.setattr("semvid.videos.pool_texts", no_rebuild)
    rank_event(queries[0], space, repo, corpus)


def test_rank_events_equal_ranking_each_event_alone(odd_world):
    space, repo, corpus, queries = odd_world[:4]
    queries = queries + [
        # an OCR list repeated from e1, and an ASR list equal to the OCR list
        EventQuery(event_id="e3", title_terms=("w30",), ocr_terms=("w31",), asr_terms=("w31",)),
        EventQuery(event_id="e4", title_terms=("w1", "w2")),  # e0's lists again
        EventQuery(event_id="e5", title_terms=("w7",), ocr_terms=("w8", "w9")),
        EventQuery(event_id="e6", title_terms=("w60", "w61"), asr_terms=("w62", "zzz")),
    ]
    for config in (DEFAULT_CONFIG, RetrievalConfig(kernel="hausdorff", top_r=7, augment_k=2)):
        alone = [rank_event(query, space, repo, corpus, config) for query in queries]
        assert rank_events(queries, space, repo, corpus, config) == alone
        assert rank_events(queries[::-1], space, repo, corpus, config) == alone[::-1]
    assert rank_events([], space, repo, corpus) == []


@pytest.mark.parametrize("tile", [1, 7, 64, None])
def test_a_two_point_event_in_row_tiles_equals_its_batch_ranking(odd_world, monkeypatch, tile):
    # an event with distinct OCR and ASR terms scans two points, in row
    # tiles; the batch of all events scans 16 points as one product a block
    space, repo, corpus, queries = odd_world[:4]
    queries = queries + [
        EventQuery(event_id=f"t{i}", title_terms=(f"w{10 + i}",),
                   ocr_terms=(f"w{40 + i}",), asr_terms=(f"w{70 + i}", f"w{71 + i}"))
        for i in range(6)
    ]
    if tile is not None:
        monkeypatch.setattr(embedding, "_TILE_MADDS", tile * space.dimension * 2)
        monkeypatch.setattr(embedding, "_SCAN_BYTES", 12 * 2 * 50)  # blocks of 50 rows
    batch = rank_events(queries, space, repo, corpus)
    for query, ranked in zip(queries, batch):
        assert rank_event(query, space, repo, corpus) == ranked


def outcome(rank):
    try:
        return rank()
    except SemvidError as exc:
        return type(exc), str(exc)


def test_a_failing_batch_raises_what_the_first_failing_event_raises():
    # north and south cancel: a title of both pools to a zero vector
    rng = np.random.default_rng(41)
    matrix = rng.standard_normal((12, 6))
    matrix[1] = -matrix[0]
    tokens = ["north", "south"] + [f"t{i}" for i in range(10)]
    space = EmbeddingSpace(tokens, matrix.astype(np.float32))
    repo = make_repo(space, ["t1", "t2", "t3"])
    corpus = Corpus(repo, [f"v{i}" for i in range(5)], rng.uniform(0, 1, (5, 3)), asr=["t4 t5"] * 5)
    good = EventQuery(event_id="good", title_terms=("t1", "t6"))
    oov = EventQuery(event_id="oov", title_terms=("zzz", "qqq"))
    flat = EventQuery(event_id="flat", title_terms=("north", "south"))
    for queries, error in (
        ([good, oov, flat], AllTokensOOV),
        ([good, flat, oov], NoScoreableConcepts),
        ([flat, good], NoScoreableConcepts),
    ):
        loop = outcome(lambda: [rank_event(query, space, repo, corpus) for query in queries])
        assert loop[0] is error
        assert outcome(lambda: rank_events(queries, space, repo, corpus)) == loop
    empty = (SemvidError, "corpus is empty")
    no_videos = Corpus(repo, [], np.zeros((0, 3)))
    assert outcome(lambda: rank_events([good], space, repo, no_videos)) == empty
    assert outcome(lambda: rank_event(good, space, repo, no_videos)) == empty
    # the Hausdorff kernel ranks the flat title; its text query is not expanded
    config = RetrievalConfig(kernel="hausdorff")
    queries = [good, flat]
    assert rank_events(queries, space, repo, corpus, config) == [
        rank_event(query, space, repo, corpus, config) for query in queries
    ]


def test_map_concept_raw_bounds():
    assert map_concept_raw(5.0, 5) == 1.0
    assert map_concept_raw(-5.0, 5) == 0.0
    assert map_concept_raw(0.0, 5) == 0.5


# ----------------------------------------------------------------- queries

def test_load_queries(tmp_path):
    path = tmp_path / "queries.json"
    path.write_text(json.dumps([
        {"event": "E1", "title": "Birthday Party", "asr_terms": ["happy song"]},
        {"event": "E2", "title": "changing a vehicle tire"},
    ]), encoding="utf-8")
    queries = load_queries(path)
    assert queries[0].title_terms == ("birthday", "party")
    assert queries[0].asr_terms == ("happy", "song")
    assert queries[1].title_terms == ("changing", "vehicle", "tire")


def test_load_queries_duplicate_event(tmp_path):
    path = tmp_path / "queries.json"
    path.write_text(json.dumps([
        {"event": "E1", "title": "a b"},
        {"event": "E1", "title": "c d"},
    ]), encoding="utf-8")
    with pytest.raises(SemvidError, match="duplicate"):
        load_queries(path)


@pytest.mark.parametrize("entry, field", [
    ({"event": None, "title": "a b"}, "event id"),
    ({"event": 3, "title": "a b"}, "event id"),
    ({"event": "E2", "title": None}, "title"),
    ({"event": "E2", "title": ["a"]}, "title"),
    ({"event": "E2", "title": "a", "ocr_terms": ["b", None]}, "ocr_terms item"),
    ({"event": "E2", "title": "a", "ocr_terms": "b c"}, "ocr_terms must be a list"),
    ({"event": "E2", "title": "a", "asr_terms": [None]}, "asr_terms item"),
    ({"event": "E2", "title": "a", "asr_terms": [1.5]}, "asr_terms item"),
])
def test_load_queries_rejects_non_string_fields_with_file_and_entry(tmp_path, entry, field):
    # a null title used to load as the term "none", which is no stop word
    path = tmp_path / "queries.json"
    path.write_text(json.dumps([{"event": "E1", "title": "a b"}, entry]), encoding="utf-8")
    with pytest.raises(SemvidError) as info:
        load_queries(path)
    message = str(info.value)
    assert str(path) in message and "entry 1" in message and field in message


@pytest.mark.parametrize("event", [3, None])
def test_load_queries_names_file_and_entry_of_an_event_id_that_is_not_a_string(tmp_path, event):
    path = tmp_path / "queries.json"
    path.write_text(json.dumps([{"event": "E1", "title": "a b"}, {"event": event, "title": "c"}]),
                    encoding="utf-8")
    with pytest.raises(SemvidError) as info:
        load_queries(path)
    assert str(info.value) == f"{path} entry 1: event id must be a string, got {event!r}"


@pytest.mark.parametrize("event_id", ["E\t1", "E1\n", "\rE1"])
def test_event_id_that_breaks_a_ranked_tsv_is_rejected(tmp_path, event_id):
    # written into ranked.tsv, such an id would split its line or add a
    # column, and eval could not read the file back
    with pytest.raises(SemvidError, match="event id .* holds a tab, CR or LF"):
        EventQuery(event_id=event_id, title_terms=("a",))
    path = tmp_path / "queries.json"
    path.write_text(json.dumps([{"event": "E0", "title": "a b"}, {"event": event_id, "title": "a b"}]),
                    encoding="utf-8")
    with pytest.raises(SemvidError) as info:
        load_queries(path)
    assert f"{path} entry 1: event id {event_id!r} holds a tab, CR or LF" in str(info.value)


@pytest.mark.parametrize("event_id", [5, None, ("E1",)])
def test_event_id_that_is_not_a_string_is_rejected(event_id):
    # load_queries and Corpus take only string ids; a number would be
    # written into ranked.tsv and read back as text
    with pytest.raises(SemvidError, match="event id must be a string"):
        EventQuery(event_id, ("a",))


def test_rank_events_rejects_an_event_id_given_twice():
    # a ranked TSV with an event twice is one that semvid eval rejects
    world = synth_world(seed=1)
    query = world.queries[0]
    other = EventQuery(query.event_id, ("ev1title0",))
    for queries in ([query, query], [query, world.queries[1], other]):
        with pytest.raises(SemvidError, match=f"duplicate event id '{query.event_id}'"):
            rank_events(queries, world.space, world.repo, world.corpus)


def test_query_requires_nonstop_title():
    with pytest.raises(SemvidError):
        EventQuery(event_id="E1", title_terms=())


def test_query_term_lists_are_stored_as_tuples_of_strings():
    world = synth_world(seed=1)
    space, repo, corpus = world.space, world.repo, world.corpus
    listed = EventQuery("E1", ["ev0title0", "ev0title1"], ocr_terms=["ev0title0"])
    assert listed.title_terms == ("ev0title0", "ev0title1") and listed.ocr_terms == ("ev0title0",)
    as_tuples = EventQuery("E1", ("ev0title0", "ev0title1"), ocr_terms=("ev0title0",))
    assert rank_event(listed, space, repo, corpus) == rank_event(as_tuples, space, repo, corpus)


@pytest.mark.parametrize("fields, message", [
    ({"title_terms": "ev0title0 ev0title1"}, "event 'E1': title_terms must be a sequence"),
    ({"title_terms": ("ev0title0",), "asr_terms": "ev0title1"}, "event 'E1': asr_terms must be"),
    ({"title_terms": ("ev0title0", None)}, "event 'E1': title_terms item must be a string"),
    ({"title_terms": ("ev0title0",), "ocr_terms": (3,)}, "event 'E1': ocr_terms item must be"),
], ids=["title-string", "asr-string", "title-none-item", "ocr-number-item"])
def test_query_rejects_a_term_list_given_as_one_string_or_a_term_that_is_not_one(fields, message):
    # a string would be embedded one character at a time
    with pytest.raises(SemvidError, match=message):
        EventQuery("E1", **fields)


def test_prepare_text_query_rejects_terms_given_as_one_string(space50):
    with pytest.raises(SemvidError, match="text query terms must be a sequence"):
        retrieval.prepare_text_query("w1", space50)
    assert retrieval.prepare_text_query(("w1",), space50).source_tokens[0] == "w1"


@pytest.mark.parametrize("k", [-1, 2.0, "5", None])
def test_prepare_text_query_takes_an_integer_k_of_at_least_zero(space50, k):
    # k = -1 used to mean no expansion, and k = 2.0 failed inside numpy
    with pytest.raises(SemvidError, match="k must be an integer >= 0"):
        retrieval.prepare_text_query(("w1",), space50, k)
    assert len(retrieval.prepare_text_query(("w1",), space50, np.int64(0))) == 1


def test_prepare_text_query_resolves_its_terms_once(monkeypatch):
    world = synth_world(seed=1)
    terms = ("ev0title0", "zzz", "ev0title1")
    expected = retrieval.prepare_text_query(terms, world.space)
    calls = []
    real = embedding._resolve

    def spy(space, tokens):
        calls.append(list(tokens))
        return real(space, tokens)

    monkeypatch.setattr(embedding, "_resolve", spy)
    got = retrieval.prepare_text_query(terms, world.space)
    assert calls == [list(terms)]
    assert got.source_tokens == expected.source_tokens and got.oov == ("zzz",)
    assert got.vectors.tobytes() == expected.vectors.tobytes()
    assert got.source_tokens[:2] == ("ev0title0", "ev0title1") and len(got) == 2 + 5


@pytest.mark.parametrize("k", [0, 5])
def test_query_side_pairs_are_sum_pool_of_the_query_sets_bit_for_bit(k):
    # each (sum, size) pair a text channel is scored with has the bits
    # sum_pool gives the float64 set prepare_text_query builds from the
    # same terms; every table row holds -0.0 in column 0, which a sum from
    # zero makes +0.0
    rng = np.random.default_rng(8)
    matrix = random_space(rng, 80, 12)._matrix.copy()
    matrix[:, 0] = -0.0
    space = EmbeddingSpace([f"w{i}" for i in range(80)], matrix)
    tokens = space.tokens()
    repo = ConceptRepository([ConceptDefinition(id=t, name=t) for t in tokens[:10]], space)

    def terms(n):
        return tuple(tokens[j] for j in rng.choice(80, size=n, replace=False))

    queries = [EventQuery(f"E{i}", terms(1 + i % 3), terms(i % 4), terms(i % 2)) for i in range(8)]
    sides = retrieval._query_sides(queries, space, repo, RetrievalConfig(augment_k=k))
    for query, (_, _, ocr, asr) in zip(queries, sides):
        for extra, (total, size) in ((query.ocr_terms, ocr), (query.asr_terms, asr)):
            expected = retrieval.prepare_text_query(query.title_terms + extra, space, k)
            assert size == len(expected)
            assert total.tobytes() == sum_pool(expected).tobytes()
            assert not np.signbit(total[0])


def test_ranking_defaults_are_those_of_the_default_config():
    import inspect

    from semvid import concepts, similarity

    def default(function, name):
        return inspect.signature(function).parameters[name].default

    assert default(fuse, "w") == DEFAULT_CONFIG.fusion_weight
    assert default(retrieval.prepare_text_query, "k") == DEFAULT_CONFIG.augment_k
    assert default(concepts.rank_concepts, "kernel") == DEFAULT_CONFIG.kernel
    assert default(concepts.rank_concepts, "percentile") == DEFAULT_CONFIG.percentile
    assert default(similarity.sim_hausdorff, "percentile") == DEFAULT_CONFIG.percentile
    assert default(concepts.top_r_columns, "percentile") is inspect.Parameter.empty


def test_load_queries_names_file_and_entry_of_a_stop_word_title(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps([{"event": "E0", "title": "a b"}, {"event": "E1", "title": "the of a"}]),
                    encoding="utf-8")
    with pytest.raises(SemvidError) as info:
        load_queries(path)
    assert str(info.value) == (
        f"{path} entry 1: event 'E1': no title terms after stop-word removal"
    )


def test_text_scores_do_not_depend_on_corpus_size():
    # the first rows of a corpus score the same bits on their own as inside
    # the whole corpus (kernels.row_dots pins the reduction itself), and
    # every score is the affine map of its mean pairwise cosine
    rng = np.random.default_rng(11)
    dim = 300
    pooled = rng.standard_normal((2000, dim))
    counts = rng.integers(0, 4, size=len(pooled))
    pooled[counts == 0] = 0.0  # a missing transcript's row, as every Corpus holds it
    vectors = rng.standard_normal((3, dim))
    query = (sum_pool(vectors), 3)
    got = retrieval._text_scores(query, pooled, counts)
    for rows in (1, 7, 500, 1999):
        head = retrieval._text_scores(query, pooled[:rows], counts[:rows])
        np.testing.assert_array_equal(head, got[:rows])
    mean = pooled @ vectors.sum(axis=0) / np.maximum(3 * counts, 1)
    expected = np.where(counts > 0, np.clip((mean + 1.0) / 2.0, 0.0, 1.0), 0.5)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


def test_text_scores_of_a_missing_transcript_are_exactly_neutral():
    # a missing transcript is a zero row with a count of 0: its cosine is
    # 0 and it scores exactly 0.5, with no fill, next to present rows that
    # score as they would alone
    rng = np.random.default_rng(12)
    pooled = rng.standard_normal((500, 300))
    counts = rng.integers(0, 4, size=len(pooled))
    pooled[counts == 0] = 0.0
    query = (sum_pool(rng.standard_normal((4, 300))), 4)
    missing = counts == 0
    got = retrieval._text_scores(query, pooled, counts)
    assert missing.any() and (got[missing] == 0.5).all()
    present = retrieval._text_scores(query, pooled[~missing], counts[~missing])
    np.testing.assert_array_equal(got[~missing], present)

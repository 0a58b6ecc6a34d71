import json
import math

import numpy as np
import pytest

from semvid.concepts import (
    ConceptDefinition,
    ConceptRepository,
    load_concepts,
    rank_concepts,
    top_r_columns,
)
from semvid.config import DEFAULT_CONFIG
from semvid.embedding import EmbeddingSpace, embed_tokens, sum_pool, tokenize
from semvid.errors import AllTokensOOV, ConceptFormatError, NoScoreableConcepts, ZeroNormError
import semvid.concepts as concepts
from semvid.stopwords import DEFAULT_STOPWORDS
from semvid.synth import random_space, synth_world
from oracles import concept_rank_oracle


def write_concepts(tmp_path, entries):
    path = tmp_path / "concepts.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def test_load_counts_concepts(tmp_path, tiny_space):
    path = write_concepts(tmp_path, [
        {"id": "c1", "name": "a", "kind": "object"},
        {"id": "c2", "name": "b", "kind": "scene", "keywords": ["a"]},
        {"id": "c3", "name": "a b", "kind": "action"},
    ])
    repo = load_concepts(path, tiny_space, stops=frozenset())
    assert len(repo) == 3
    assert repo.scoreable_ids() == ["c1", "c2", "c3"]


def test_load_duplicate_id_named(tmp_path):
    path = write_concepts(tmp_path, [
        {"id": "dog", "name": "a"},
        {"id": "dog", "name": "b"},
    ])
    with pytest.raises(ConceptFormatError, match="dog"):
        load_concepts(path)


def test_load_unknown_kind(tmp_path):
    path = write_concepts(tmp_path, [{"id": "c1", "name": "a", "kind": "sound"}])
    with pytest.raises(ConceptFormatError, match="kind"):
        load_concepts(path)


@pytest.mark.parametrize("text, reason", [
    ('[{"id": "c1", "name": "a", "n": %s}]' % ("1" * 5000), "Exceeds the limit"),
    ("[" * 100_000, "maximum recursion depth exceeded"),
])
def test_load_json_the_decoder_cannot_read_names_the_file(tmp_path, text, reason):
    # an integer too long for int() and nesting too deep are no
    # JSONDecodeError, but are input errors all the same
    path = tmp_path / "concepts.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConceptFormatError, match=f"cannot read concept file .*{reason}"):
        load_concepts(path)


def test_fully_oov_concept_flagged_not_scored(tmp_path, tiny_space):
    path = write_concepts(tmp_path, [
        {"id": "c1", "name": "a"},
        {"id": "ghost", "name": "zzz qqq"},
    ])
    repo = load_concepts(path, tiny_space, stops=frozenset())
    assert len(repo) == 2               # still owns a score column
    assert repo.unscoreable == ("ghost",)
    assert repo.scoreable_ids() == ["c1"]


def test_rank_concepts_self_match_first(tiny_space):
    repo = ConceptRepository([
        ConceptDefinition(id="same", name="a"),
        ConceptDefinition(id="other", name="b"),
    ], tiny_space, stops=frozenset())
    query = embed_tokens(tiny_space, ["a"])[0]
    ranked = rank_concepts(repo, query)
    assert ranked[0].concept_id == "same"
    assert ranked[0].weight == pytest.approx(1.0, abs=1e-9)


def test_rank_concepts_tie_rule_id_ascending(tmp_path):
    # query orthogonal to every concept: all weights 0, order by id
    path = tmp_path / "vecs.txt"
    path.write_text("3 3\nq 0 0 1\nfoo 1 0 0\nbar 0 1 0\n", encoding="utf-8")
    from semvid.embedding import load_embeddings

    space = load_embeddings(path)
    repo = ConceptRepository([
        ConceptDefinition(id="zeta", name="foo"),
        ConceptDefinition(id="alpha", name="bar"),
    ], space)
    ranked = rank_concepts(repo, embed_tokens(space, ["q"])[0])
    assert [w.concept_id for w in ranked] == ["alpha", "zeta"]
    assert all(w.weight == pytest.approx(0.0, abs=1e-12) for w in ranked)


def test_rank_concepts_matches_scan_oracle(space50):
    rng = np.random.default_rng(9)
    tokens = space50.tokens()
    defs = []
    sets = {}
    for i in range(20):
        picked = [str(t) for t in rng.choice(tokens, size=int(rng.integers(1, 4)), replace=False)]
        defs.append(ConceptDefinition(id=f"c{i:02d}", name=" ".join(picked)))
        sets[f"c{i:02d}"] = [space50.vector(t) for t in picked]
    repo = ConceptRepository(defs, space50)
    query_tokens = [str(t) for t in rng.choice(tokens, size=2, replace=False)]
    query = embed_tokens(space50, query_tokens)[0]

    for kernel in ("pooled", "hausdorff"):
        ranked = rank_concepts(repo, query, kernel)
        expected = concept_rank_oracle([space50.vector(t) for t in query_tokens], sets, kernel)
        assert [w.concept_id for w in ranked] == [cid for cid, _ in expected]
        got = np.array([w.weight for w in ranked])
        np.testing.assert_allclose(got, [w for _, w in expected], atol=1e-10)


def test_rank_output_covers_every_scoreable_concept(space50):
    repo = ConceptRepository([
        ConceptDefinition(id=f"c{i}", name=f"w{i}") for i in range(10)
    ], space50)
    ranked = rank_concepts(repo, embed_tokens(space50, ["w20"])[0])
    assert len(ranked) == 10


def test_adding_a_concept_never_changes_existing_weights(space50):
    base = [ConceptDefinition(id=f"c{i}", name=f"w{i}") for i in range(8)]
    base += [
        ConceptDefinition(id="pair", name="w10 w11"),
        ConceptDefinition(id="triple", name="w12 w13 w12"),
    ]
    repo_small = ConceptRepository(base, space50)
    # a weight depends on its concept alone: add a concept, also a longer one
    for extra in ("w30", "w30 w31 w32 w33 w34"):
        repo_big = ConceptRepository(base + [ConceptDefinition(id="extra", name=extra)], space50)
        for kernel in ("pooled", "hausdorff"):
            for title in (["w40", "w41"], ["w12"], ["w40", "w11", "w13", "w2"]):
                query = embed_tokens(space50, title)[0]
                small = {w.concept_id: w.weight for w in rank_concepts(repo_small, query, kernel)}
                big = {w.concept_id: w.weight for w in rank_concepts(repo_big, query, kernel)}
                for cid, weight in small.items():
                    assert big[cid] == weight


def test_hausdorff_rank_concepts_matches_oracle():
    # percentiles 1, 50 and 100; concepts of 1 to 5 words, some repeating a
    # word, and one of 25 words right after a one-word concept; queries of 1
    # to 4 words, some repeating a word. Query words are not concept words:
    # a self-match cosine of 1 rounds either way in its last bit, which
    # would make the id order of such concepts arbitrary.
    space = random_space(np.random.default_rng(31), 60, 300)
    rng = np.random.default_rng(32)
    defs, sets = [], {}
    for i in range(40):
        picked = [f"w{j}" for j in rng.choice(np.arange(30, 60), size=int(rng.integers(1, 6)))]
        if i % 7 == 3:
            picked = picked[:4] + [picked[0]]
        defs.append(ConceptDefinition(id=f"c{i:02d}", name=" ".join(picked)))
        sets[f"c{i:02d}"] = [space.vector(t) for t in picked]
    # its own rng, so that the draws above and below stay as they were
    long_words = [f"w{j}" for j in np.random.default_rng(33).choice(np.arange(30, 60), size=25)]
    after = next(i for i, d in enumerate(defs) if len(d.name.split()) == 1)
    defs.insert(after + 1, ConceptDefinition(id="long", name=" ".join(long_words)))
    sets["long"] = [space.vector(t) for t in long_words]
    assert any(len(set(v.tobytes() for v in vecs)) < len(vecs) for vecs in sets.values())
    assert {len(v) for v in sets.values()} == {1, 2, 3, 4, 5, 25}
    repo = ConceptRepository(defs, space, stops=frozenset())
    for size in (1, 2, 3, 4):
        for trial in range(3):
            title = [f"w{j}" for j in rng.choice(30, size=size)]
            if trial == 2 and size > 1:
                title[-1] = title[0]
            query = embed_tokens(space, title)[0]
            for percentile in (1.0, 50.0, 100.0):
                ranked = rank_concepts(repo, query, "hausdorff", percentile)
                expected = concept_rank_oracle(
                    [space.vector(t) for t in title], sets, "hausdorff", percentile
                )
                assert [w.concept_id for w in ranked] == [cid for cid, _ in expected]
                np.testing.assert_allclose(
                    [w.weight for w in ranked], [w for _, w in expected], rtol=0, atol=1e-12
                )


def test_hausdorff_rank_concepts_equals_sim_hausdorff_bit_for_bit():
    # concepts and queries of two to six words, some repeating a word: the
    # batch table and the per-pair kernel reduce the same dot products with
    # kernels.row_dots, so each weight is the per-pair similarity exactly
    from semvid.similarity import sim_hausdorff

    space = random_space(np.random.default_rng(41), 80, 300)
    rng = np.random.default_rng(42)
    defs, sets = [], {}
    for i in range(50):
        picked = [f"w{j}" for j in rng.choice(np.arange(30, 80), size=int(rng.integers(2, 7)))]
        defs.append(ConceptDefinition(id=f"c{i:02d}", name=" ".join(picked)))
        sets[f"c{i:02d}"] = np.array([space.vector(t) for t in picked], dtype=np.float64)
    repo = ConceptRepository(defs, space, stops=frozenset())
    for trial in range(12):
        title = [f"w{j}" for j in rng.choice(30, size=int(rng.integers(2, 6)))]
        query = embed_tokens(space, title)[0]
        vectors = space._matrix[query].astype(np.float64)
        for percentile in (1.0, 37.0, 50.0, 100.0):
            ranked = rank_concepts(repo, query, "hausdorff", percentile)
            assert len(ranked) == len(sets)
            for w in ranked:
                assert w.weight == sim_hausdorff(sets[w.concept_id], vectors, percentile)
                assert w.weight == sim_hausdorff(vectors, sets[w.concept_id], percentile)
    with pytest.raises(ValueError, match="percentile"):
        rank_concepts(repo, query, "hausdorff", 0.0)


def test_rerank_is_bit_identical(space50):
    definitions = [ConceptDefinition(id=f"c{i}", name=f"w{i}") for i in range(12)]
    repo = ConceptRepository(definitions, space50)
    query = embed_tokens(space50, ["w25"])[0]
    first = rank_concepts(repo, query)
    second = rank_concepts(repo, query)
    assert first == second


def tie_world(tmp_path):
    """Concepts with equal weights (repeated names), orthogonal concepts of
    weight 0, and an out-of-vocabulary concept owning the first score
    column; the repository order is not the id order."""
    from semvid.embedding import load_embeddings

    path = tmp_path / "ties.txt"
    path.write_text("4 3\nq 1 0 0\na 0.8 0.6 0\nb 0.6 0.8 0\no 0 0 1\n", encoding="utf-8")
    space = load_embeddings(path)
    names = {"ghost": "zzz", "m_b": "b", "k_a": "a", "z_a": "a", "c_o": "o", "a_o": "o",
             "b_b": "b", "x_o": "o", "e_a": "a q"}
    definitions = [ConceptDefinition(id=c, name=n) for c, n in names.items()]
    repo = ConceptRepository(definitions, space, stops=frozenset())
    sets = {c: [space.vector(t) for t in n.split()] for c, n in names.items() if c != "ghost"}
    return space, repo, sets


@pytest.mark.parametrize("kernel", ["pooled", "hausdorff"])
def test_top_r_columns_is_the_ranked_prefix_with_ties_straddling_r(tmp_path, kernel):
    space, repo, sets = tie_world(tmp_path)
    query = embed_tokens(space, ["q"])[0]
    ranked = rank_concepts(repo, query, kernel)
    oracle = concept_rank_oracle(list(space._matrix[query].astype(np.float64)), sets, kernel)
    assert [w.concept_id for w in ranked] == [c for c, _ in oracle]
    assert [w.concept_id for w in ranked][:4] == ["e_a", "k_a", "z_a", "b_b"]
    for r in range(1, len(ranked) + 2):
        columns, weights = top_r_columns(repo, query, kernel, r, DEFAULT_CONFIG.percentile)
        prefix = ranked[:r]
        assert [repo.ids()[c] for c in columns] == [w.concept_id for w in prefix]
        assert weights.tolist() == [w.weight for w in prefix]
    with pytest.raises(ValueError, match="R must be"):
        top_r_columns(repo, query, kernel, 0, DEFAULT_CONFIG.percentile)


def test_top_r_columns_orders_signed_zero_weights_by_id(tmp_path, monkeypatch):
    space, repo, _ = tie_world(tmp_path)
    ids = [repo.ids()[c] for c in repo._set_index[0]]  # the kernel's concepts
    weights = np.array([0.0, -0.0, 0.5, -0.0, 0.5, 0.0, -0.25, -0.0])
    assert len(weights) == len(ids)
    monkeypatch.setattr(concepts, "_hausdorff_weights", lambda *args: weights.copy())
    query = embed_tokens(space, ["q"])[0]
    expected = sorted(zip(ids, weights.tolist()), key=lambda pair: (-pair[1], pair[0]))
    ranked = rank_concepts(repo, query, "hausdorff")
    assert [(w.concept_id, w.weight) for w in ranked] == expected
    assert [np.signbit(w.weight) for w in ranked] == [np.signbit(w) for _, w in expected]
    for r in range(1, len(ids) + 1):
        columns, selected = top_r_columns(repo, query, "hausdorff", r, DEFAULT_CONFIG.percentile)
        assert [repo.ids()[c] for c in columns] == [c for c, _ in expected[:r]]
        assert np.signbit(selected).tolist() == [bool(np.signbit(w)) for _, w in expected[:r]]


def test_default_r_matches_reference_configuration():
    assert DEFAULT_CONFIG.top_r == 5


def test_zero_norm_pooled_concept_logged_once_and_skipped_by_pooled_kernel(tmp_path, caplog):
    from semvid.embedding import load_embeddings

    path = tmp_path / "vecs.txt"
    path.write_text("3 3\nnorth 1 0 0\nsouth -1 0 0\nq 0.6 0.8 0\n", encoding="utf-8")
    space = load_embeddings(path)
    with caplog.at_level("WARNING"):
        repo = ConceptRepository([
            ConceptDefinition(id="flat", name="north south"),
            ConceptDefinition(id="north", name="north"),
        ], space)
    assert sum("flat" in message for message in caplog.messages) == 1
    assert repo.scoreable_ids() == ["flat", "north"]

    caplog.clear()
    query = embed_tokens(space, ["q"])[0]
    with caplog.at_level("WARNING"):
        for _ in range(3):
            pooled = rank_concepts(repo, query, "pooled")
    assert caplog.messages == []
    assert [w.concept_id for w in pooled] == ["north"]
    assert pooled[0].weight == pytest.approx(0.6, abs=1e-7)
    assert {w.concept_id for w in rank_concepts(repo, query, "hausdorff")} == {"flat", "north"}


@pytest.mark.parametrize("entry, field", [
    ({"id": None, "name": "a"}, "concept id"),
    ({"id": 7, "name": "a"}, "concept id"),
    ({"id": "c2", "name": None}, "name"),
    ({"id": "c2", "name": ["a"]}, "name"),
    ({"id": "c2", "name": "a", "keywords": ["b", None]}, "keyword"),
    ({"id": "c2", "name": "a", "keywords": [3]}, "keyword"),
    ({"id": "c2", "name": "a", "keywords": "b"}, "keywords must be a list"),
])
def test_load_rejects_non_string_fields_with_file_and_entry(tmp_path, entry, field):
    path = write_concepts(tmp_path, [{"id": "c1", "name": "a"}, entry])
    with pytest.raises(ConceptFormatError) as info:
        load_concepts(path)
    message = str(info.value)
    assert str(path) in message and "entry 1" in message and field in message


@pytest.mark.parametrize("fields, message", [
    ({"id": "c9", "name": "ev0con0", "keywords": "ev0syn0"},
     "concept 'c9' keywords must be a list, got 'ev0syn0'"),
    ({"id": 5, "name": "ev0con0"}, "concept id must be a string, got 5"),
    ({"id": "c9", "name": "ev0con0", "kind": "thing"}, "concept 'c9' has unknown kind 'thing'"),
    ({"id": "c9", "name": None}, "concept 'c9' name must be a string, got None"),
], ids=["keywords-string", "id-number", "unknown-kind", "name-none"])
def test_concept_definition_checks_its_own_fields(tmp_path, fields, message):
    # keywords given as one string used to be embedded one character per
    # token, a number id and an unknown kind were kept, and a null name
    # failed inside tokenize; load_concepts reports the same message with
    # its file and entry
    world = synth_world(seed=1)
    with pytest.raises(ConceptFormatError) as info:
        ConceptRepository([*world.repo.concepts, ConceptDefinition(**fields)], world.space)
    assert str(info.value) == message
    path = write_concepts(tmp_path, [{"id": "c1", "name": "a"}, fields])
    with pytest.raises(ConceptFormatError) as info:
        load_concepts(path, world.space)
    assert str(info.value) == f"{path} entry 1: {message}"


def test_concept_definition_keeps_keywords_as_a_tuple_and_rejects_a_blank_name():
    assert ConceptDefinition("c1", "a", ["b", "c"]).keywords == ("b", "c")
    with pytest.raises(ConceptFormatError, match="concept 'c1' has an empty name"):
        ConceptDefinition("c1", " \t")
    with pytest.raises(ConceptFormatError, match="concept 'c1' keyword must be a string, got None"):
        ConceptDefinition("c1", "a", ("b", None))


def test_pooled_concept_rows_equal_sum_pool_bit_for_bit():
    # the constructor pools each concept's float64 word vectors with
    # sum_pool; every pooled row must have the bits sum_pool gives the
    # float64 copy of the table rows embed_tokens resolves the concept's
    # words to, for any word count
    # (signed zeros too), also next to one concept far longer than the rest
    rng = np.random.default_rng(21)
    space = random_space(rng, 120, 16)
    matrix = space._matrix.copy()
    matrix[3, 0] = matrix[4, 0] = -0.0  # a one-word concept of w3 keeps no -0.0
    space = EmbeddingSpace(space.tokens(), matrix)
    tokens = space.tokens()
    definitions = []
    for i in range(90):
        words = [tokens[j] for j in rng.choice(len(tokens), size=1 + i % 9, replace=False)]
        definitions.append(
            ConceptDefinition(id=f"c{i:02d}", name=words[0], keywords=tuple(words[1:]))
        )
    definitions.append(ConceptDefinition(id="neg", name="w3"))
    words = [tokens[j] for j in rng.choice(len(tokens), size=40, replace=False)]
    definitions.append(ConceptDefinition(id="long", name=words[0], keywords=tuple(words[1:])))
    repo = ConceptRepository(definitions, space, stops=frozenset())
    ids = [repo.ids()[c] for c in repo._pooled_index[0]]  # the pooled rows' concepts
    assert len(ids) == len(definitions)
    by_id = {d.id: d for d in definitions}
    for row, concept_id in enumerate(ids):
        words = [by_id[concept_id].name, *by_id[concept_id].keywords]
        expected = sum_pool(space._matrix[embed_tokens(space, words)[0]].astype(np.float64))
        assert repo._pooled[row].tobytes() == expected.tobytes(), concept_id


@pytest.mark.parametrize("seed", range(6))
def test_top_r_columns_selects_the_ranked_prefix_of_any_weights(tmp_path, monkeypatch, seed):
    # top_r_columns sorts only the concepts that can reach the first r; on
    # weights with many ties, signed zeros and NaN it must still give the
    # prefix of rank_concepts' full sort
    space, repo, _ = tie_world(tmp_path)
    ids = repo._set_index[0]  # the kernel's score columns
    rng = np.random.default_rng(seed)
    weights = rng.choice([0.5, 0.25, 0.0, -0.0, -0.5, np.nan], size=len(ids))
    monkeypatch.setattr(concepts, "_hausdorff_weights", lambda *args: weights.copy())
    query = embed_tokens(space, ["q"])[0]
    ranked = rank_concepts(repo, query, "hausdorff")
    for r in range(1, len(ids) + 2):
        columns, selected = top_r_columns(repo, query, "hausdorff", r, DEFAULT_CONFIG.percentile)
        assert [repo.ids()[c] for c in columns] == [w.concept_id for w in ranked[:r]]
        assert selected.tobytes() == np.array([w.weight for w in ranked[:r]]).tobytes()


@pytest.mark.parametrize("kernel", ["pooled", "hausdorff"])
@pytest.mark.parametrize("nan_ids", [(), ("m_b", "x_o")])
def test_rank_concepts_is_top_r_columns_over_every_r(tmp_path, kernel, nan_ids):
    # rank_concepts is top_r_columns with R = every concept: weight
    # descending, ties by id, NaN weights last, and each top_r_columns(r)
    # its prefix; tie_world's equal weights straddle several r
    space, repo, _ = tie_world(tmp_path)
    index = repo._pooled_index if kernel == "pooled" else repo._set_index
    for concept_id in nan_ids:  # a NaN in the concept's vectors makes its weight NaN
        row = index[0].tolist().index(repo.index_of(concept_id))
        if kernel == "pooled":
            repo._pooled[row] = np.nan
        else:
            repo._set_vectors[repo._set_starts[row]] = np.nan
    query = embed_tokens(space, ["q"])[0]
    ranked = [(w.concept_id, w.weight) for w in rank_concepts(repo, query, kernel)]
    expected = sorted(ranked, key=lambda pair: (
        math.isnan(pair[1]), 0.0 if math.isnan(pair[1]) else -pair[1], pair[0]
    ))
    assert [c for c, _ in ranked] == [c for c, _ in expected]
    assert sorted(c for c, _ in ranked) == sorted(repo.scoreable_ids())
    assert [c for c, w in ranked if math.isnan(w)] == sorted(nan_ids)
    for r in range(1, len(ranked) + 2):
        columns, weights = top_r_columns(repo, query, kernel, r, DEFAULT_CONFIG.percentile)
        assert [repo.ids()[c] for c in columns] == [c for c, _ in ranked[:r]]
        assert weights.tobytes() == np.array([w for _, w in ranked[:r]]).tobytes()


@pytest.mark.parametrize("kernel", ["pooled", "hausdorff"])
def test_rank_concepts_without_scoreable_concepts_raises(tiny_space, kernel):
    query = embed_tokens(tiny_space, tiny_space.tokens()[:1])[0]
    for definitions in ([], [ConceptDefinition(id="ghost", name="zzzqqq")]):
        repo = ConceptRepository(definitions, tiny_space)
        with pytest.raises(NoScoreableConcepts, match="no scoreable concepts"):
            rank_concepts(repo, query, kernel)


@pytest.mark.parametrize("kernel", ["pooled", "hausdorff"])
def test_rank_concepts_names_a_missing_space(tiny_space, kernel):
    # a repository built without a space has every concept scoreable but
    # no kernel matrices: the error names the space, not the concepts
    definitions = [ConceptDefinition(id=t, name=t) for t in tiny_space.tokens()[:3]]
    repo = ConceptRepository(definitions)
    assert repo.unscoreable == () and repo.scoreable_ids() == repo.ids()
    query = embed_tokens(tiny_space, tiny_space.tokens()[:1])[0]
    with pytest.raises(ValueError, match="not embedded in a space"):
        rank_concepts(repo, query, kernel)
    with pytest.raises(ValueError, match="not embedded in a space"):
        top_r_columns(repo, query, kernel, 2, DEFAULT_CONFIG.percentile)


@pytest.mark.parametrize("kernel", ["pooled", "hausdorff"])
def test_rank_concepts_takes_a_query_of_at_least_one_row(tiny_space, kernel):
    # embed_tokens never gives an empty query; a caller's own rows may be
    repo = ConceptRepository([ConceptDefinition(id="a", name="a")], tiny_space)
    for rows in ([], np.array([], dtype=np.intp)):
        with pytest.raises(ZeroNormError, match="at least one table row"):
            rank_concepts(repo, rows, kernel)


def test_repository_matrices_equal_those_built_per_concept(tmp_path, monkeypatch):
    # the constructor resolves every concept to table rows and builds each
    # matrix in one pass; they must be, bit for bit, what stacking each
    # concept's embed_tokens rows give (phrase merges, OOV words, stop
    # words, a fully OOV concept and one whose pooled vector is zero
    # included), and loading the file must not call embed_tokens at all
    rng = np.random.default_rng(8)
    space = random_space(rng, 80, 24)
    tokens = space.tokens()
    matrix = space._matrix.copy()
    matrix[1] = -matrix[0]  # w0 and w1 pool to zero
    tokens[5] = "w3_w4"  # a phrase entry
    space = EmbeddingSpace(tokens, matrix)
    entries = [{"id": f"c{i}", "name": " ".join(rng.choice(tokens[6:], size=1 + i % 5)),
                "keywords": [str(rng.choice(tokens[6:])), "zzz"][: i % 3]} for i in range(40)]
    entries += [{"id": "phrase", "name": "the w3 w4", "keywords": ["w4 w3"]},
                {"id": "ghost", "name": "zzz qqq"},
                {"id": "zero", "name": "w0 w1"}]
    calls = []

    def spy(*args):
        calls.append(args)
        return embed_tokens(*args)

    monkeypatch.setattr(concepts, "embed_tokens", spy)
    monkeypatch.setattr("semvid.embedding.embed_tokens", spy)
    repo = load_concepts(write_concepts(tmp_path, entries), space)
    assert calls == []
    monkeypatch.undo()

    sets = {}
    for entry in entries:
        words = [entry["name"], *entry.get("keywords", ())]
        try:
            rows = embed_tokens(space, tokenize(" ".join(words), DEFAULT_STOPWORDS))[0]
            sets[entry["id"]] = space._matrix[rows].astype(np.float64)
        except AllTokensOOV:
            pass
    assert repo.unscoreable == ("ghost",)
    assert len(sets["phrase"]) == 3  # w3_w4, w4 and w3
    ids = list(sets)
    vectors = np.vstack([sets[c] for c in ids])
    sizes = [len(sets[c]) for c in ids]
    assert repo._set_vectors.tobytes() == vectors.tobytes()
    assert repo._set_norms.tobytes() == np.linalg.norm(vectors, axis=1).tobytes()
    assert repo._set_sizes.tolist() == sizes
    assert repo._set_starts.tolist() == (np.cumsum(sizes) - sizes).tolist()
    assert repo._set_owner.tolist() == np.repeat(np.arange(len(ids)), sizes).tolist()
    assert [repo.ids()[c] for c in repo._set_index[0]] == ids
    pooled = [c for c in ids if c != "zero"]
    assert [repo.ids()[c] for c in repo._pooled_index[0]] == pooled
    expected = np.array([sum_pool(sets[c]) for c in pooled])
    assert repo._pooled.tobytes() == expected.tobytes()
    assert repo._pooled_norms.tobytes() == np.array([np.linalg.norm(v) for v in expected]).tobytes()

"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion;
each test also prints an explicit [acceptance] line on success.
"""

import os
import time

import numpy as np
import pytest

from semvid.bench import run_bench
from semvid.cli import main
from semvid.concepts import ConceptDefinition, ConceptRepository
from semvid.config import DEFAULT_CONFIG
from semvid.embedding import load_embeddings, nearest_words, tokenize
from semvid.evaluation import GroundTruth, average_precision, evaluate, roc_auc
from semvid.retrieval import (
    EventQuery,
    RankedList,
    fuse,
    map_concept_raw,
    rank_event,
    rank_events,
)
from semvid.synth import random_space, synth_world, write_world_files
from semvid.videos import Corpus

from oracles import (
    ap_oracle,
    auc_oracle,
    concept_rank_oracle,
    crosssum_oracle,
    fuse_oracle,
    hausdorff_oracle,
    marginalization_oracle,
    pipeline_oracle,
    psi_fastpath_oracle,
    random_set,
    score_matching_baseline,
)

# Values computed with the independent oracles before the main build.
FUSE_WORKED_VALUE = 0.7458708749256284          # (0.8^6 * sqrt(0.24)) ** (1/7)
SYNTH_SEED = 20240
ORACLE_MAP = 0.9649581800213298                  # pipeline_oracle on SYNTH_SEED
ORACLE_MEAN_AUC = 0.9934567901234568


def _ok(name):
    print(f"[acceptance] {name}: PASS")


def test_appendix_a_equivalence():
    """Appendix-A psi form of the raw concept score == naive marginalization,
    1000 pairs, rel err 1e-9; its fused score == rank_event's on a corpus
    without transcripts, 1e-12."""
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    space = random_space(rng, 300, 16)
    tokens = space.tokens()
    concepts, sets = [], {}
    for i in range(100):
        size = int(rng.integers(1, 4))
        picked = [str(t) for t in rng.choice(tokens, size=size, replace=False)]
        concepts.append(ConceptDefinition(id=f"c{i:03d}", name=" ".join(picked)))
        sets[f"c{i:03d}"] = [space.vector(t) for t in picked]
    repo = ConceptRepository(concepts, space)
    order = repo.ids()

    pairs = 0
    worst = worst_fused = 0.0
    for e in range(20):
        qtokens = [str(t) for t in rng.choice(tokens, size=int(rng.integers(1, 4)), replace=False)]
        qvecs = [space.vector(t) for t in qtokens]
        concept_ranking = concept_rank_oracle(qvecs, sets)
        selected = [cid for cid, _ in concept_ranking[:5]]
        ids = [f"v{v}" for v in range(50)]
        S = rng.uniform(0, 1, size=(50, 100))
        corpus = Corpus(repo, ids, S)
        ranked = dict(rank_event(EventQuery(f"e{e}", tuple(qtokens)), space, repo, corpus).entries)
        for video, vc in zip(ids, S):
            naive = marginalization_oracle(concept_ranking, order, vc, 5)
            fast = psi_fastpath_oracle(qvecs, sets, order, vc, selected)
            worst = max(worst, abs(fast - naive) / max(abs(naive), 1e-30))
            fused = fuse(map_concept_raw(fast, 5), 0.5, 0.5)  # no transcripts: both score 0.5
            worst_fused = max(worst_fused, abs(fused - ranked[video]))
            pairs += 1
    elapsed = time.perf_counter() - started
    assert pairs == 1000
    assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"
    assert worst_fused <= 1e-12, f"worst fused deviation from rank_event {worst_fused:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _ok(
        f"appendix-A equivalence (worst rel dev {worst:.2e}, fused vs rank_event "
        f"{worst_fused:.2e}, {elapsed:.1f}s)"
    )


def test_similarity_oracles():
    """Hausdorff vs double loop; cross sum vs pairwise and pooled dot; 1e-10."""
    from semvid.similarity import sim_crosssum, sim_hausdorff

    rng = np.random.default_rng(43)
    for _ in range(500):
        dim = int(rng.integers(3, 17))
        x = random_set(rng, int(rng.integers(1, 9)), dim)
        y = random_set(rng, int(rng.integers(1, 9)), dim)
        assert sim_hausdorff(x, y, 50.0) == pytest.approx(
            hausdorff_oracle(x, y, 50.0), abs=1e-10
        )
        cross = sim_crosssum(x, y)
        assert cross == pytest.approx(crosssum_oracle(x, y), abs=1e-10)
        assert cross == pytest.approx(float(np.dot(x.sum(0), y.sum(0))), abs=1e-10)
    _ok("similarity oracles (500 random set pairs)")


def test_degenerate_singleton_identity():
    """sim_hausdorff on singletons equals sim_pooled exactly, 200 cases."""
    from semvid.similarity import sim_hausdorff, sim_pooled

    rng = np.random.default_rng(44)
    for _ in range(200):
        dim = int(rng.integers(2, 20))
        x, y = random_set(rng, 1, dim), random_set(rng, 1, dim)
        level = float(rng.uniform(1, 100))
        assert sim_hausdorff(x, y, level) == sim_pooled(x, y)
    _ok("degenerate singleton identity (200 cases, exact)")


def test_metric_oracles():
    """AP and AUC vs brute force on 200 labelings; transform invariance."""
    rng = np.random.default_rng(45)
    for _ in range(200):
        scores = np.round(rng.uniform(0, 1, size=30), 2)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 1, 0
        order = np.argsort(-scores, kind="stable")
        ranked = RankedList(
            event_id="e", entries=tuple((f"v{i:02d}", float(scores[i])) for i in order)
        )
        truth = GroundTruth(labels={("e", f"v{i:02d}"): int(labels[i]) for i in range(30)})
        assert average_precision(ranked, truth) == pytest.approx(
            ap_oracle([int(labels[i]) for i in order]), abs=1e-12
        )
        assert roc_auc(ranked, truth) == pytest.approx(
            auc_oracle(list(scores), list(labels)), abs=1e-12
        )

    for _ in range(50):
        scores = rng.uniform(0.01, 1, size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 1, 0
        order = np.argsort(-scores)
        truth = GroundTruth(labels={("e", f"v{i:02d}"): int(labels[i]) for i in range(30)})
        reference_entries = [(f"v{i:02d}", float(scores[i])) for i in order]
        reference = RankedList(event_id="e", entries=tuple(reference_entries))
        for transform in (lambda v: 2 * v + 1, lambda v: v**3):
            bent = RankedList(
                event_id="e",
                entries=tuple((vid, transform(s)) for vid, s in reference_entries),
            )
            assert average_precision(bent, truth) == pytest.approx(
                average_precision(reference, truth), abs=1e-12
            )
            assert roc_auc(bent, truth) == pytest.approx(
                roc_auc(reference, truth), abs=1e-12
            )
    _ok("metric oracles (200 labelings + 50 transform cases)")


def test_fusion_contract():
    """fuse(x,x,x,w)=x; monotone in each channel; worked value to 1e-6."""
    rng = np.random.default_rng(46)
    for _ in range(100):
        x = float(rng.uniform(0, 1))
        w = float(rng.uniform(0.5, 12))
        assert fuse(x, x, x, w) == pytest.approx(x, rel=1e-12, abs=1e-12)

    for _ in range(500):
        pc, po, pa = (float(v) for v in rng.uniform(0, 1, size=3))
        w = float(rng.uniform(0.5, 12))
        base = fuse(pc, po, pa, w)
        for bumped in (
            (min(pc + 0.1, 1.0), po, pa),
            (pc, min(po + 0.1, 1.0), pa),
            (pc, po, min(pa + 0.1, 1.0)),
        ):
            assert fuse(*bumped, w) >= base - 1e-15

    got = fuse(0.8, 0.6, 0.4, 6.0)
    assert got == pytest.approx(FUSE_WORKED_VALUE, abs=1e-6)
    assert got == pytest.approx(fuse_oracle(0.8, 0.6, 0.4, 6.0), abs=1e-12)
    _ok("fusion contract (identity, monotonicity, worked value)")


@pytest.fixture(scope="module")
def synth():
    return synth_world(seed=SYNTH_SEED)


def test_synthetic_end_to_end(synth):
    """Full default pipeline on the seeded corpus: MAP >= 0.90, AUC >= 0.95,
    agreeing with the precomputed oracle figures."""
    started = time.perf_counter()
    runs = rank_events(synth.queries, synth.space, synth.repo, synth.corpus, DEFAULT_CONFIG)
    report = evaluate(runs, synth.truth)

    assert report.mean_ap >= 0.90, f"MAP {report.mean_ap:.4f}"
    assert report.mean_auc >= 0.95, f"mean AUC {report.mean_auc:.4f}"
    assert report.mean_ap == pytest.approx(ORACLE_MAP, abs=1e-9)
    assert report.mean_auc == pytest.approx(ORACLE_MEAN_AUC, abs=1e-9)

    # independent full recompute with loops and fsum on the same seed
    vocab = {t: synth.space.vector(t) for t in synth.space.tokens()}
    concept_defs = [
        (c.id, tokenize(c.name) + [t for kw in c.keywords for t in tokenize(kw)])
        for c in synth.repo.concepts
    ]
    queries = [(q.event_id, list(q.title_terms)) for q in synth.queries]
    oracle_map, oracle_auc, _ = pipeline_oracle(
        vocab, concept_defs, synth.tracks, synth.transcripts, queries, synth.truth.labels
    )
    assert oracle_map == pytest.approx(ORACLE_MAP, abs=1e-12)
    assert oracle_auc == pytest.approx(ORACLE_MEAN_AUC, abs=1e-12)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _ok(
        f"synthetic end-to-end (MAP {report.mean_ap:.4f}, "
        f"mean AUC {report.mean_auc:.4f}, {elapsed:.1f}s)"
    )


def test_matching_baseline_inferiority(synth, text_channel):
    """Semantic text channel strictly beats exact string matching when the
    transcripts use synonyms."""
    def map_for(scorer):
        aps = []
        for query in synth.queries:
            transcripts = zip(synth.corpus.ids, synth.corpus.asr)
            scored = sorted(
                ((video, scorer(query, asr)) for video, asr in transcripts),
                key=lambda e: (-e[1], e[0]),
            )
            relevance = [synth.truth.labels[(query.event_id, vid)] for vid, _ in scored]
            aps.append(ap_oracle(relevance))
        return float(np.mean(aps))

    semantic = map_for(lambda q, asr: text_channel(q.title_terms, asr, synth.space, 5))
    matching = map_for(lambda q, asr: score_matching_baseline(q.title_terms, asr))
    assert semantic > matching, f"semantic {semantic:.4f} vs matching {matching:.4f}"
    _ok(f"matching baseline inferiority (semantic {semantic:.4f} > matching {matching:.4f})")


def test_scaling_benchmark():
    """time(2n)/time(n) <= 2.5 for 1000 -> 2000 -> 4000 videos, < 2 min."""
    started = time.perf_counter()
    rows = run_bench([1000, 2000, 4000], n_concepts=600, dim=300, repeat=3, seed=7)
    elapsed = time.perf_counter() - started
    ratios = [r.ratio_vs_previous for r in rows if r.ratio_vs_previous is not None]
    assert len(ratios) == 2
    for ratio in ratios:
        assert ratio <= 2.5, f"scaling ratio {ratio:.3f} exceeds 2.5"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _ok(
        "scaling benchmark (ratios "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + f", {elapsed:.1f}s)"
    )


def test_determinism_and_score_independence(tmp_path, synth):
    """Byte-identical rank output across invocations; per-video scores are
    unchanged by corpus order."""
    paths = write_world_files(
        synth_world(seed=13, n_events=2, positives_per_event=8, n_videos=50), tmp_path
    )
    argv = [
        "rank", paths["embeddings"], paths["concepts"], paths["queries"],
        "--scores", paths["scores"], "--transcripts", paths["transcripts"],
    ]
    out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    query = synth.queries[0]
    ranked = rank_event(query, synth.space, synth.repo, synth.corpus)
    corpus = synth.corpus
    order = np.random.default_rng(99).permutation(len(corpus))
    shuffled = Corpus(
        synth.repo, [corpus.ids[i] for i in order], corpus.S[order],
        [corpus.ocr[i] for i in order], [corpus.asr[i] for i in order],
    )
    again = rank_event(query, synth.space, synth.repo, shuffled)
    assert ranked.entries == again.entries
    _ok("determinism and per-video score independence")


GNEWS_PATH = os.environ.get("SEMVID_GNEWS", "")


@pytest.mark.skipif(not GNEWS_PATH, reason="set SEMVID_GNEWS to a word2vec file to enable")
def test_pretrained_analogy_integration():
    """king - man + woman lands near queen in a real pretrained table."""
    fmt = "binary" if GNEWS_PATH.endswith(".bin") else "text"
    space = load_embeddings(GNEWS_PATH, fmt)
    point = space.vector("king") - space.vector("man") + space.vector("woman")
    neighbors = nearest_words(space, point, 5, exclude={"king", "man", "woman"})
    assert "queen" in [t for t, _ in neighbors], neighbors
    _ok("pretrained analogy integration")

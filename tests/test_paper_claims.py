"""The paper's two claims, checked on the synth worlds through the
production ranking pieces:

* fusing the concept, OCR and ASR channels ranks the videos of an event
  better than any one channel alone;
* the concepts selected for a free-text title are found automatically, and
  they are the ones planted for its event.
"""

import re

import pytest

from semvid.config import RetrievalConfig
from semvid.evaluation import evaluate
from semvid.kernels import marginal_scores
from semvid.ranked import RankedList
from semvid.retrieval import _query_sides, _text_scores, fuse, map_concept_raw, rank_events
from semvid.synth import synth_world

WORLDS = (1, 5, 11, 20240)
CHANNELS = ("concept", "ocr", "asr")


def ranked(event_id, corpus, scores) -> RankedList:
    """The corpus sorted by (-score, video id)."""
    order = sorted(range(len(corpus)), key=lambda i: (-scores[i], corpus.ids[i]))
    return RankedList(event_id, tuple((corpus.ids[i], float(scores[i])) for i in order))


def channel_runs(world, config):
    """Every event ranked by each channel alone and by the fused score."""
    corpus = world.corpus
    runs = {name: [] for name in (*CHANNELS, "fused")}
    sides = _query_sides(world.queries, world.space, world.repo, config)
    for query, (columns, weights, ocr, asr) in zip(world.queries, sides):
        raws = marginal_scores(corpus.S[:, columns], weights)
        scores = {
            "concept": map_concept_raw(raws, config.top_r),
            "ocr": _text_scores(ocr, corpus.P_ocr, corpus.n_ocr),
            "asr": _text_scores(asr, corpus.P_asr, corpus.n_asr),
        }
        scores["fused"] = fuse(*scores.values(), config.fusion_weight)
        for name, values in scores.items():
            runs[name].append(ranked(query.event_id, corpus, values.tolist()))
    return runs


@pytest.mark.parametrize("kernel", ["pooled", "hausdorff"])
@pytest.mark.parametrize("seed", WORLDS)
def test_fusion_beats_every_single_channel(seed, kernel):
    # fused MAP 0.939-0.965 against at most 0.929 for one channel
    world = synth_world(seed=seed)
    config = RetrievalConfig(kernel=kernel)
    runs = channel_runs(world, config)
    # the fused runs are the ranking's own
    ranking = rank_events(world.queries, world.space, world.repo, world.corpus, config)
    assert runs["fused"] == ranking
    reports = {name: evaluate(lists, world.truth) for name, lists in runs.items()}
    fused = reports.pop("fused")
    for name, report in reports.items():
        assert fused.mean_ap > report.mean_ap, (name, fused.mean_ap, report.mean_ap)
        assert fused.mean_auc > report.mean_auc, (name, fused.mean_auc, report.mean_auc)


@pytest.mark.parametrize("kernel", ["pooled", "hausdorff"])
@pytest.mark.parametrize("seed", WORLDS)
def test_selected_concepts_are_the_planted_ones(seed, kernel):
    # synth_world plants six concepts e{k}c0 .. e{k}c5 for event E{k}
    world = synth_world(seed=seed)
    config = RetrievalConfig(kernel=kernel)
    sides = _query_sides(world.queries, world.space, world.repo, config)
    for query, (columns, _, _, _) in zip(world.queries, sides):
        event = int(query.event_id[1:])
        selected = [world.repo.concepts[c].id for c in columns.tolist()]
        assert len(selected) == config.top_r
        assert all(re.fullmatch(rf"e{event}c[0-5]", cid) for cid in selected), (query, selected)

import numpy as np
import pytest

from semvid.errors import EvaluationError
from semvid.evaluation import (
    EvaluationReport,
    EventResult,
    GroundTruth,
    average_precision,
    evaluate,
    load_truth,
    roc_auc,
)
from semvid.retrieval import RankedList

from oracles import ap_oracle, auc_oracle


def ranked_from(event, pairs):
    return RankedList(event_id=event, entries=tuple(pairs))


def truth_from(event, labels_by_video):
    return GroundTruth(labels={(event, v): l for v, l in labels_by_video.items()})


def descending(scores):
    return [(f"v{i:02d}", float(s)) for i, s in enumerate(scores)]


def test_ap_perfect_ranking_is_one():
    ranked = ranked_from("e", [("a", 0.9), ("b", 0.8), ("c", 0.2), ("d", 0.1)])
    truth = truth_from("e", {"a": 1, "b": 1, "c": 0, "d": 0})
    assert average_precision(ranked, truth) == pytest.approx(1.0)


def test_ap_single_positive_last():
    n = 6
    entries = [(f"v{i}", 1.0 - i / 10) for i in range(n)]
    truth = truth_from("e", {f"v{i}": int(i == n - 1) for i in range(n)})
    assert average_precision(ranked_from("e", entries), truth) == pytest.approx(1 / n)


def test_ap_matches_bruteforce_oracle():
    rng = np.random.default_rng(50)
    for _ in range(30):
        scores = rng.uniform(0, 1, size=30)
        labels = rng.integers(0, 2, size=30)
        if labels.sum() == 0:
            labels[0] = 1
        order = np.argsort(-scores)
        ranked = ranked_from("e", [(f"v{i:02d}", scores[i]) for i in order])
        truth = truth_from("e", {f"v{i:02d}": int(labels[i]) for i in range(30)})
        assert average_precision(ranked, truth) == pytest.approx(
            ap_oracle([int(labels[i]) for i in order]), abs=1e-12
        )


def test_ap_requires_positives():
    ranked = ranked_from("e", [("a", 0.5)])
    with pytest.raises(EvaluationError):
        average_precision(ranked, truth_from("e", {"a": 0}))


def test_unlabeled_videos_are_excluded():
    ranked = ranked_from("e", [("skipme", 0.95), ("a", 0.9), ("b", 0.1)])
    truth = truth_from("e", {"a": 1, "b": 0})
    assert average_precision(ranked, truth) == pytest.approx(1.0)
    assert roc_auc(ranked, truth) == pytest.approx(1.0)


def test_auc_perfect_separation():
    ranked = ranked_from("e", descending([0.9, 0.8, 0.3, 0.2]))
    truth = truth_from("e", {"v00": 1, "v01": 1, "v02": 0, "v03": 0})
    assert roc_auc(ranked, truth) == pytest.approx(1.0)


def test_auc_all_tied_scores_give_half():
    ranked = ranked_from("e", descending([0.5] * 6))
    truth = truth_from("e", {f"v{i:02d}": int(i < 2) for i in range(6)})
    assert roc_auc(ranked, truth) == pytest.approx(0.5)


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(51)
    for _ in range(30):
        scores = np.round(rng.uniform(0, 1, size=30), 2)  # induce some ties
        labels = rng.integers(0, 2, size=30)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == 30:
            labels[0] = 0
        ranked = ranked_from("e", descending(scores))
        truth = truth_from("e", {f"v{i:02d}": int(labels[i]) for i in range(30)})
        assert roc_auc(ranked, truth) == pytest.approx(
            auc_oracle(list(scores), list(labels)), abs=1e-12
        )


def test_auc_single_class_error():
    ranked = ranked_from("e", descending([0.5, 0.4]))
    with pytest.raises(EvaluationError):
        roc_auc(ranked, truth_from("e", {"v00": 1, "v01": 1}))


def test_metrics_invariant_under_monotone_transforms():
    rng = np.random.default_rng(52)
    for _ in range(20):
        scores = rng.uniform(0.01, 1, size=25)
        labels = rng.integers(0, 2, size=25)
        labels[0], labels[1] = 1, 0
        order = np.argsort(-scores)
        truth = truth_from("e", {f"v{i:02d}": int(labels[i]) for i in range(25)})
        for transform in (lambda x: 2 * x + 1, lambda x: x**3):
            plain = ranked_from("e", [(f"v{i:02d}", scores[i]) for i in order])
            bent = ranked_from("e", [(f"v{i:02d}", transform(scores[i])) for i in order])
            assert average_precision(bent, truth) == pytest.approx(
                average_precision(plain, truth), abs=1e-12
            )
            assert roc_auc(bent, truth) == pytest.approx(roc_auc(plain, truth), abs=1e-12)


def test_auc_reversal_complements():
    rng = np.random.default_rng(53)
    scores = rng.permutation(np.linspace(0.1, 0.9, 20))  # distinct, no ties
    labels = rng.integers(0, 2, size=20)
    labels[0], labels[1] = 1, 0
    truth = truth_from("e", {f"v{i:02d}": int(labels[i]) for i in range(20)})
    forward = ranked_from("e", descending(scores))
    backward = ranked_from("e", descending([-s for s in scores]))
    assert roc_auc(forward, truth) + roc_auc(backward, truth) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_singleton_mean():
    ranked = ranked_from("e", descending([0.9, 0.1]))
    truth = truth_from("e", {"v00": 1, "v01": 0})
    report = evaluate([ranked], truth)
    assert report.mean_ap == pytest.approx(report.per_event[0].ap)


def test_evaluate_mean_of_two_events():
    # APs 0.2 and 0.4 -> MAP 0.3: one positive at rank 5 of 5, and three
    # positives at ranks 2, 5, 10 of 10 ((1/2 + 2/5 + 3/10) / 3 = 0.4)
    r1 = ranked_from("e1", descending([0.9, 0.8, 0.7, 0.6, 0.5]))
    t1 = {("e1", f"v{i:02d}"): int(i == 4) for i in range(5)}
    r2 = ranked_from("e2", descending(np.linspace(0.95, 0.05, 10)))
    t2 = {("e2", f"v{i:02d}"): int(i in (1, 4, 9)) for i in range(10)}
    report = evaluate([r1, r2], GroundTruth(labels={**t1, **t2}))
    assert report.per_event[0].ap == pytest.approx(0.2)
    assert report.per_event[1].ap == pytest.approx(0.4)
    assert report.mean_ap == pytest.approx(0.3)
    assert report.mean_auc == pytest.approx(np.mean([r.auc for r in report.per_event]))


def test_evaluate_many_events_match_oracles():
    rng = np.random.default_rng(54)
    runs, labels = [], {}
    expected_aps, expected_aucs = [], []
    for e in range(10):
        scores = rng.uniform(0, 1, size=20)
        rel = rng.integers(0, 2, size=20)
        rel[0], rel[1] = 1, 0
        order = np.argsort(-scores)
        runs.append(ranked_from(f"e{e}", [(f"v{i:02d}", scores[i]) for i in order]))
        labels.update({(f"e{e}", f"v{i:02d}"): int(rel[i]) for i in range(20)})
        expected_aps.append(ap_oracle([int(rel[i]) for i in order]))
        expected_aucs.append(auc_oracle(list(scores), list(rel)))
    report = evaluate(runs, GroundTruth(labels=labels))
    assert report.mean_ap == pytest.approx(np.mean(expected_aps), abs=1e-12)
    assert report.mean_auc == pytest.approx(np.mean(expected_aucs), abs=1e-12)


def test_evaluate_unknown_event():
    ranked = ranked_from("mystery", descending([0.5]))
    with pytest.raises(EvaluationError, match="mystery"):
        evaluate([ranked], truth_from("e", {"v00": 1}))


def test_load_truth_csv(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("event_id,video_id,label\ne1,v1,1\ne1,v2,0\n", encoding="utf-8")
    truth = load_truth(path)
    assert truth.label("e1", "v1") == 1
    assert truth.label("e1", "v2") == 0
    assert ("e1", "v3") not in truth


def test_load_truth_rejects_bad_label(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("e1,v1,2\n", encoding="utf-8")
    with pytest.raises(EvaluationError, match="label"):
        load_truth(path)


@pytest.mark.parametrize(
    "kind, fields",
    [
        (RankedList, {"event_id": "e", "entries": (("v1", 0.5), ("v2", 0.25))}),
        (GroundTruth, {"labels": {("e", "v1"): 1}}),
        (EventResult, {"event_id": "e", "ap": 0.5, "auc": 0.75, "n_videos": 4, "n_positives": 2}),
        (EvaluationReport, {"per_event": (), "mean_ap": 0.5, "mean_auc": 0.75}),
    ],
)
def test_record_types_build_compare_print_and_stay_frozen(kind, fields):
    record = kind(**fields)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert record == kind(*fields.values())
    assert record != kind(**dict(fields, **{next(iter(fields)): "other"}))
    listed = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{kind.__name__}({listed})"
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_ground_truth_methods():
    truth = GroundTruth(labels={("e2", "v1"): 1, ("e1", "v1"): 0, ("e2", "v3"): 0})
    assert ("e1", "v1") in truth and ("e1", "v3") not in truth
    assert truth.label("e2", "v1") == 1
    assert truth.events() == ["e1", "e2"]

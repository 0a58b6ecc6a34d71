"""Ranking-quality metrics: average precision, ROC AUC, and aggregation.

Only labeled videos count: a video absent from the ground truth is dropped
from that event's evaluation rather than assumed negative. AUC uses the
rank-sum form with average ranks for tied scores; AP follows the ranked
list's order, whose ties are already resolved deterministically.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple

from .errors import EvaluationError, open_utf8
from .ranked import RankedList


class GroundTruth(namedtuple("GroundTruth", "labels")):
    """``labels`` maps (event id, video id) to 1 or 0. Unlisted pairs are
    unjudged. This and the report types are named tuples, which ``semvid
    eval`` builds without importing ``dataclasses``."""

    __slots__ = ()

    def __contains__(self, key) -> bool:
        return key in self.labels

    def label(self, event_id: str, video_id: str) -> int:
        return self.labels[(event_id, video_id)]

    def events(self) -> list[str]:
        return sorted({event for event, _ in self.labels})


_LABELS = {"0": 0, "1": 1}


def load_truth(path) -> GroundTruth:
    """CSV with columns event_id, video_id, label (1 or 0); the header row
    is optional. Lines are counted as ``csv.reader`` records."""
    labels: dict[tuple[str, str], int] = {}
    with open_utf8(path, EvaluationError, csv=True) as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if len(row) != 3:
                if not row:
                    continue
                raise EvaluationError(f"{path} line {lineno}: expected 3 CSV columns")
            event_id, video_id, label = row
            value = _LABELS.get(label.strip())
            if value is None:
                label = label.strip()
                if lineno == 1 and label.lower() == "label":
                    continue
                raise EvaluationError(f"{path} line {lineno}: label must be 0 or 1, got {label!r}")
            key = (event_id.strip(), video_id.strip())
            if key in labels:
                raise EvaluationError(f"{path} line {lineno}: duplicate label for {key}")
            labels[key] = value
    return GroundTruth(labels)


def _labeled(ranked: RankedList, truth: GroundTruth):
    """The labels and scores of the judged videos, in ranked order."""
    event, labels = ranked.event_id, truth.labels
    relevance, scores = [], []
    for vid, score in ranked.entries:
        label = labels.get((event, vid))
        if label is not None:
            relevance.append(label)
            scores.append(score)
    return relevance, scores


def average_precision(ranked: RankedList, truth: GroundTruth) -> float:
    """Mean of precision-at-k over the positions of the positives."""
    return _average_precision(ranked.event_id, _labeled(ranked, truth)[0])


def _average_precision(event_id: str, relevance: list[int]) -> float:
    positives = sum(relevance)
    if positives == 0:
        raise EvaluationError(f"event {event_id!r} has no labeled positives")
    hits = 0
    total = 0.0
    for k, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            total += hits / k
    return total / positives


def _average_ranks(scores: list[float]) -> list[float]:
    """Ascending 1-based ranks; tied values share their mean rank. A NaN
    sorts after every number and ties with nothing, as in numpy."""
    n = len(scores)
    order = sorted([i for i, s in enumerate(scores) if s == s], key=scores.__getitem__)
    if len(order) < n:
        order += [i for i, s in enumerate(scores) if s != s]
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for row in order[i : j + 1]:
            ranks[row] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def roc_auc(ranked: RankedList, truth: GroundTruth) -> float:
    """Rank-sum AUC: probability a random positive outscores a random
    negative, ties counted half."""
    return _roc_auc(ranked.event_id, *_labeled(ranked, truth))


def _roc_auc(event_id: str, relevance: list[int], scores: list[float]) -> float:
    positives = sum(relevance)
    negatives = len(relevance) - positives
    if positives == 0 or negatives == 0:
        raise EvaluationError(
            f"event {event_id!r} needs both classes for AUC "
            f"(got {positives} positive, {negatives} negative)"
        )
    # the ranks are half-integers, so their sum is exact in any order
    rank_sum = sum(rank for rank, rel in zip(_average_ranks(scores), relevance) if rel)
    return (rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)


def _mean(values: list[float]) -> float:
    """The arithmetic mean: the exactly rounded sum (``math.fsum``) divided
    by the count, so it does not depend on the order of the values."""
    return math.fsum(values) / len(values)


class EventResult(namedtuple("EventResult", "event_id ap auc n_videos n_positives")):
    __slots__ = ()


class EvaluationReport(namedtuple("EvaluationReport", "per_event mean_ap mean_auc")):
    """``per_event`` holds one EventResult per ranked event, in run order."""

    __slots__ = ()


def evaluate(runs: list[RankedList], truth: GroundTruth) -> EvaluationReport:
    """Per-event AP and AUC plus their arithmetic means."""
    known = set(truth.events())
    results = []
    for ranked in runs:
        if ranked.event_id not in known:
            raise EvaluationError(f"event {ranked.event_id!r} absent from ground truth")
        relevance, scores = _labeled(ranked, truth)
        results.append(
            EventResult(
                event_id=ranked.event_id,
                ap=_average_precision(ranked.event_id, relevance),
                auc=_roc_auc(ranked.event_id, relevance, scores),
                n_videos=len(relevance),
                n_positives=sum(relevance),
            )
        )
    if not results:
        raise EvaluationError("nothing to evaluate")
    return EvaluationReport(
        per_event=tuple(results),
        mean_ap=_mean([r.ap for r in results]),
        mean_auc=_mean([r.auc for r in results]),
    )


def write_report_tsv(report: EvaluationReport, fh) -> None:
    fh.write("event_id\tap\tauc\tn_videos\tn_positives\n")
    for r in report.per_event:
        fh.write(f"{r.event_id}\t{r.ap:.6f}\t{r.auc:.6f}\t{r.n_videos}\t{r.n_positives}\n")


def format_report_table(report: EvaluationReport) -> str:
    """Human-readable aligned table with the MAP / mean AUC summary."""
    width = max([len("event")] + [len(r.event_id) for r in report.per_event])
    lines = [f"{'event':<{width}}  {'AP':>8}  {'AUC':>8}  {'videos':>6}  {'pos':>4}"]
    for r in report.per_event:
        lines.append(
            f"{r.event_id:<{width}}  {r.ap:>8.4f}  {r.auc:>8.4f}  {r.n_videos:>6}  {r.n_positives:>4}"
        )
    lines.append(f"{'MAP':<{width}}  {report.mean_ap:>8.4f}")
    lines.append(f"{'mean AUC':<{width}}  {'':>8}  {report.mean_auc:>8.4f}")
    return "\n".join(lines) + "\n"

"""Ranked lists and their TSV form; free of numpy, which ``semvid eval`` never loads."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SemvidError, open_utf8


def tsv_id(value, what: str, error=SemvidError):
    """``value``, an event or video id; ``error`` naming it as ``what`` if
    its text holds a tab, CR or LF, which would break its TSV line."""
    text = str(value)
    if "\t" in text or "\r" in text or "\n" in text:
        raise error(f"{what} {value!r} holds a tab, CR or LF, which a ranked TSV cannot hold")
    return value


@dataclass(frozen=True)
class RankedList:
    event_id: str
    entries: tuple[tuple[str, float], ...]  # (video id, fused score), descending


def write_ranked_tsv(ranked_lists, fh) -> None:
    """TSV: event_id, rank, video_id, score (six decimal places)."""
    fh.write("event_id\trank\tvideo_id\tscore\n")
    for ranked in ranked_lists:
        for position, (video_id, score) in enumerate(ranked.entries, start=1):
            fh.write(f"{ranked.event_id}\t{position}\t{video_id}\t{score:.6f}\n")


def read_ranked_tsv(path) -> list[RankedList]:
    """Read the TSV back into RankedLists (entry order is authoritative). A
    score that is not a number, or a video listed twice under one event, is
    an error naming the file and line."""
    per_event: dict[str, dict[str, float]] = {}  # in first-seen order
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if parts == ["event_id", "rank", "video_id", "score"]:
                continue
            if len(parts) != 4:
                raise SemvidError(f"{path} line {lineno}: expected 4 TSV columns")
            event_id, _, video_id, score = parts
            entries = per_event.setdefault(event_id, {})
            if video_id in entries:
                raise SemvidError(
                    f"{path} line {lineno}: video {video_id!r} ranked twice for event {event_id!r}"
                )
            try:
                entries[video_id] = float(score)
            except ValueError:
                raise SemvidError(f"{path} line {lineno}: non-numeric score {score!r}") from None
    return [RankedList(event_id=e, entries=tuple(v.items())) for e, v in per_event.items()]

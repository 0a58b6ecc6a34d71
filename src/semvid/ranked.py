"""Ranked lists and their TSV form; free of numpy, which ``semvid eval`` never loads."""

from __future__ import annotations

from collections import namedtuple

from .errors import SemvidError, open_utf8


def tsv_id(value, what: str, error=SemvidError):
    """``value``, an event or video id; ``error`` naming it as ``what`` if
    its text holds a tab, CR or LF, which would break its TSV line."""
    text = str(value)
    if "\t" in text or "\r" in text or "\n" in text:
        raise error(f"{what} {value!r} holds a tab, CR or LF, which a ranked TSV cannot hold")
    return value


class RankedList(namedtuple("RankedList", "event_id entries")):
    """One event's ranking: ``entries`` holds (video id, fused score)
    pairs, descending. A named tuple, since ``dataclasses`` would cost
    ``semvid eval`` its import of ``inspect``."""

    __slots__ = ()


_HEADER = "event_id\trank\tvideo_id\tscore"


def write_ranked_tsv(ranked_lists, fh) -> None:
    """TSV: event_id, rank, video_id, score (six decimal places)."""
    fh.write(_HEADER + "\n")
    for ranked in ranked_lists:
        for position, (video_id, score) in enumerate(ranked.entries, start=1):
            fh.write(f"{ranked.event_id}\t{position}\t{video_id}\t{score:.6f}\n")


def read_ranked_tsv(path) -> list[RankedList]:
    """Read the TSV back into RankedLists (entry order is authoritative). A
    score that is not a number, or a video listed twice under one event, is
    an error naming the file and line. A header row is skipped wherever it
    stands; an event whose lines are split into runs is one RankedList."""
    per_event: dict[str, dict[str, float]] = {}  # in first-seen order
    event_id = entries = None  # the event of the last line, and its entries
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split("\t")  # the score keeps the line's "\n"
            if len(parts) != 4:
                if line == "\n":
                    continue
                raise SemvidError(f"{path} line {lineno}: expected 4 TSV columns")
            event, _, video_id, score = parts
            if event == "event_id" and line.rstrip("\n") == _HEADER:
                continue
            if event != event_id:
                event_id, entries = event, per_event.setdefault(event, {})
            if video_id in entries:
                raise SemvidError(
                    f"{path} line {lineno}: video {video_id!r} ranked twice for event {event_id!r}"
                )
            try:
                entries[video_id] = float(score)
            except ValueError:
                score = score.rstrip("\n")
                raise SemvidError(f"{path} line {lineno}: non-numeric score {score!r}") from None
    return [RankedList(e, tuple(v.items())) for e, v in per_event.items()]

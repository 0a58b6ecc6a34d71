"""Video evidence ingestion: pooling detector score tracks into records.

Per-frame (objects, scenes) and per-chunk (actions) detector probabilities
arrive already sampled; this module reduces each concept's track to one
video-level probability, attaches OCR/ASR transcripts, and holds the corpus
as columns (:class:`Corpus`) with every transcript embedded once. Detector
execution, frame sampling and transcript extraction all live upstream.
"""

from __future__ import annotations

import csv
import json
import logging
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .concepts import ConceptRepository
from .embedding import EmbeddingSpace, pool_texts
from .errors import ConceptFormatError, IngestError

log = logging.getLogger(__name__)

POOL_MODES = ("max", "avg")


@dataclass(frozen=True)
class ScoreTrack:
    """One concept's sampled detector probabilities for one video."""

    video_id: str
    concept_id: str
    samples: tuple[float, ...]

    def __post_init__(self):
        if len(self.samples) == 0:
            raise IngestError(f"empty score track for ({self.video_id}, {self.concept_id})")
        for s in self.samples:
            if not 0.0 <= s <= 1.0:
                raise IngestError(
                    f"score {s} outside [0, 1] in track ({self.video_id}, {self.concept_id})"
                )


@dataclass(frozen=True)
class VideoRecord:
    """Video-level evidence: concept probability vector plus transcripts.

    ``concept_scores`` is aligned to the repository's concept order; concepts
    without a track are zero. ``covered`` counts concepts that had one.
    """

    video_id: str
    concept_scores: np.ndarray
    ocr_text: str = ""
    asr_text: str = ""
    covered: int = 0


def pool(track: ScoreTrack, mode: str = "max") -> float:
    """Reduce a track to one probability: max or arithmetic mean."""
    if mode == "max":
        return float(max(track.samples))
    if mode == "avg":
        return float(np.mean(np.asarray(track.samples, dtype=np.float64)))
    raise ValueError(f"pool mode must be max or avg, got {mode!r}")


def build_video_record(
    tracks: list[ScoreTrack],
    repo: ConceptRepository,
    mode: str = "max",
    ocr_text: str = "",
    asr_text: str = "",
) -> VideoRecord:
    """Assemble one video's record from its score tracks."""
    if not tracks:
        raise IngestError("build_video_record needs at least one track")
    video_ids = {t.video_id for t in tracks}
    if len(video_ids) != 1:
        raise IngestError(f"tracks mix video ids: {sorted(video_ids)}")
    scores = np.zeros(len(repo), dtype=np.float64)
    seen = set()
    for track in tracks:
        if track.concept_id in seen:
            raise IngestError(
                f"duplicate track for concept {track.concept_id!r} in video {track.video_id!r}"
            )
        seen.add(track.concept_id)
        scores[repo.index_of(track.concept_id)] = pool(track, mode)
    covered = len(seen)
    if covered < len(repo):
        log.debug("video %s: %d/%d concepts covered", tracks[0].video_id, covered, len(repo))
    return VideoRecord(
        video_id=tracks[0].video_id,
        concept_scores=scores,
        ocr_text=ocr_text,
        asr_text=asr_text,
        covered=covered,
    )


def _skip_malformed(path, lineno, reason) -> None:
    log.warning("%s line %d: malformed, skipped (%s)", path, lineno, reason)


def _load_score_jsonl(path, repo, mode):
    """Score JSONL: one {"video", "concept", "scores"} object per line.

    Malformed lines, including a video or concept id that is not a string,
    are reported with their line number and skipped; scores outside [0, 1]
    and a second track for the same (video, concept) abort the load.
    """
    per_video: dict[str, list[ScoreTrack]] = {}
    seen: dict[str, bytearray] = {}  # video -> a flag per concept column
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                video, concept = obj["video"], obj["concept"]
                samples = tuple(float(s) for s in obj["scores"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                _skip_malformed(path, lineno, exc)
                continue
            if not isinstance(video, str) or not isinstance(concept, str):
                _skip_malformed(path, lineno, "video and concept ids must be strings")
                continue
            for s in samples:
                if not 0.0 <= s <= 1.0:
                    raise IngestError(f"{path} line {lineno}: score {s} outside [0, 1]")
            if not samples:
                log.warning("%s line %d: empty score list, skipped", path, lineno)
                continue
            track = ScoreTrack(video_id=video, concept_id=concept, samples=samples)
            flags = seen.setdefault(video, bytearray(len(repo)))
            try:
                column = repo.index_of(concept)
            except ConceptFormatError as exc:
                raise ConceptFormatError(f"{path} line {lineno}: {exc}") from None
            if flags[column]:
                raise IngestError(
                    f"{path} line {lineno}: duplicate track for ({video}, {concept})"
                )
            flags[column] = 1
            per_video.setdefault(video, []).append(track)
    records = {}
    for video, tracks in per_video.items():
        records[video] = build_video_record(tracks, repo, mode)
    return records


def _load_score_csv(path, repo):
    """Pre-pooled CSV: header of concept ids, one row per video."""
    records = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty pre-pooled CSV")
        columns = header[1:] if header and header[0] == "video" else header
        col_idx = [repo.index_of(c) for c in columns]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns) + 1:
                raise IngestError(
                    f"{path} line {lineno}: expected {len(columns) + 1} fields, got {len(row)}"
                )
            video = row[0]
            if video in records:
                raise IngestError(f"{path} line {lineno}: duplicate video id {video!r}")
            scores = np.zeros(len(repo), dtype=np.float64)
            for idx, raw in zip(col_idx, row[1:]):
                try:
                    value = float(raw)
                except ValueError:
                    raise IngestError(f"{path} line {lineno}: non-numeric score {raw!r}")
                if not 0.0 <= value <= 1.0:
                    raise IngestError(f"{path} line {lineno}: score {value} outside [0, 1]")
                scores[idx] = value
            records[video] = VideoRecord(
                video_id=video, concept_scores=scores, covered=len(columns)
            )
    return records


def _load_transcripts(path):
    """Transcript JSONL: one {"video", "ocr"?, "asr"?} object per line.

    A missing or null ``ocr``/``asr`` is a missing channel. A video id that
    is not a string, or an ``ocr``/``asr`` that is neither a string nor
    null, makes the line malformed: it is reported and skipped.
    """
    transcripts = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                video = obj["video"]
                texts = (obj.get("ocr"), obj.get("asr"))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                _skip_malformed(path, lineno, exc)
                continue
            if not isinstance(video, str):
                _skip_malformed(path, lineno, f"video id {video!r} is not a string")
                continue
            if any(text is not None and not isinstance(text, str) for text in texts):
                _skip_malformed(path, lineno, "ocr and asr must be strings or null")
                continue
            if video in transcripts:
                raise IngestError(f"{path} line {lineno}: duplicate transcript for {video!r}")
            transcripts[video] = tuple("" if text is None else text for text in texts)
    return transcripts


class Corpus(Sequence):
    """The corpus as columns: a read-only sequence of :class:`VideoRecord`.

    Built once, it holds what every event's scoring needs:

    * ``ids``: the video ids, in record order;
    * ``S``: the (n, C) read-only matrix of concept probabilities, in the
      repository's concept order; each record's ``concept_scores`` is a
      row view of it;
    * ``P_ocr``, ``P_asr``: (n, dim) sums of each transcript's word vectors;
    * ``n_ocr``, ``n_asr``: the number of vectors in each sum, where 0 marks
      a missing channel (empty or fully out-of-vocabulary transcript).

    The transcripts are embedded with ``space`` and ``stops``, by default
    those the repository's concept embeddings were built with. Without a
    space the text columns are None.

    Records are validated: a concept vector of the wrong length, with a
    value that is not finite or lies outside [0, 1], a transcript that is
    not a string, or a repeated video id raises :class:`IngestError`
    naming the video.
    """

    def __init__(
        self,
        records,
        repo: ConceptRepository,
        space: EmbeddingSpace | None = None,
        stops: frozenset[str] | None = None,
    ):
        self.space = repo.space if space is None else space
        self.stops = repo.stops if stops is None else stops
        records = tuple(records)
        n_concepts = len(repo)
        seen: set[str] = set()
        rows = []
        for rec in records:
            video = rec.video_id
            if video in seen:
                raise IngestError(f"duplicate video id {video!r}")
            seen.add(video)
            row = np.asarray(rec.concept_scores, dtype=np.float64)
            if row.shape != (n_concepts,):
                raise IngestError(
                    f"video {video!r}: concept vector has shape {row.shape}, "
                    f"expected ({n_concepts},)"
                )
            if not isinstance(rec.ocr_text, str) or not isinstance(rec.asr_text, str):
                raise IngestError(f"video {video!r}: transcripts must be strings")
            rows.append(row)
        S = np.array(rows, dtype=np.float64).reshape(len(records), n_concepts)
        valid = (S >= 0.0) & (S <= 1.0)  # False for NaN and both infinities too
        if not valid.all():
            i, j = np.argwhere(~valid)[0]
            raise IngestError(
                f"video {records[i].video_id!r}: concept score {S[i, j]} is not "
                f"a probability in [0, 1]"
            )
        S.flags.writeable = False
        self.S = S
        self._records = tuple(replace(rec, concept_scores=S[i]) for i, rec in enumerate(records))
        self.ids = tuple(rec.video_id for rec in records)
        # each id's position in sorted order: the integer tie-break key of a ranking
        n = len(records)
        self.id_rank = np.empty(n, dtype=np.intp)
        self.id_rank[sorted(range(n), key=self.ids.__getitem__)] = np.arange(n)

        self.P_ocr = self.P_asr = self.n_ocr = self.n_asr = None
        if self.space is not None:
            ocr = [rec.ocr_text for rec in records]
            asr = [rec.asr_text for rec in records]
            self.P_ocr, self.n_ocr = pool_texts(self.space, ocr, self.stops)
            self.P_asr, self.n_asr = pool_texts(self.space, asr, self.stops)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        return self._records[index]


def load_corpus(
    score_path,
    repo: ConceptRepository,
    transcript_path=None,
    mode: str = "max",
) -> Corpus:
    """Build one record per video appearing in either input file.

    ``score_path`` ending in ``.csv`` is treated as a pre-pooled matrix and
    bypasses pooling; anything else is score JSONL. Videos present only in
    the transcript file get an all-zero concept vector. Transcripts are
    embedded once here, with the space and stop words of the repository.
    """
    if str(score_path).endswith(".csv"):
        records = _load_score_csv(score_path, repo)
    else:
        records = _load_score_jsonl(score_path, repo, mode)
    transcripts = _load_transcripts(transcript_path) if transcript_path else {}

    merged = []
    for video, record in records.items():
        ocr, asr = transcripts.pop(video, ("", ""))
        merged.append(replace(record, ocr_text=ocr, asr_text=asr))
    for video, (ocr, asr) in transcripts.items():
        merged.append(
            VideoRecord(
                video_id=video,
                concept_scores=np.zeros(len(repo), dtype=np.float64),
                ocr_text=ocr,
                asr_text=asr,
                covered=0,
            )
        )
    log.info("corpus: %d videos (%d transcript-only)", len(merged), len(transcripts))
    return Corpus(merged, repo)

"""Video evidence ingestion: pooling detector score tracks into a corpus.

Per-frame (objects, scenes) and per-chunk (actions) detector probabilities
arrive already sampled; this module reduces each concept's track to one
video-level probability (its max or its mean), attaches OCR/ASR
transcripts, and holds the corpus as columns (:class:`Corpus`) with every
transcript embedded once. Detector execution, frame sampling and
transcript extraction all live upstream.
"""

from __future__ import annotations

import csv
import json
import logging
from itertools import islice

import numpy as np

from .concepts import ConceptRepository
from .embedding import pool_texts
from .errors import ConceptFormatError, IngestError, open_utf8

log = logging.getLogger(__name__)

POOL_MODES = ("max", "avg")


def _skip_malformed(path, lineno, reason) -> None:
    log.warning("%s line %d: malformed, skipped (%s)", path, lineno, reason)


# Score lines read between two conversions of their samples to an array.
# 4096 lines loaded at the same speed but peaked about 1 MB higher in RSS
# on a 60k-line file.
_CHUNK = 1024
# CSV values held as strings before their rows are converted to numbers:
# each is a Python str of ~60 bytes, so a block stays near 120 KB, and
# larger blocks convert no faster per value.
_CSV_VALUES = 1 << 11


def _json_int(text: str) -> float:
    """A JSON integer literal as a float, as a float literal would give it:
    too large for a float is +-inf, and -0 is 0.0 (as int("-0") gives)."""
    return float(text) + 0.0


# json.loads with integers read as floats, and the C scanner it wraps
_decoder = json.JSONDecoder(parse_int=_json_int)
_scan_json = _decoder.scan_once
_FLOAT = frozenset([float])


def _decode_json(line: str):
    """``json.JSONDecoder.decode`` of one score line. A line that is one
    JSON value and its newline is read by the C scanner alone, without the
    decoder's pure-Python wrapper; any other line goes through the decoder,
    for its whitespace rule and its errors."""
    try:
        obj, end = _scan_json(line, 0)
    except StopIteration:
        return _decoder.decode(line)
    if end == len(line) or line[end:] == "\n":
        return obj
    return _decoder.decode(line)


def _pool_chunk(path, samples, counts, lines, mode):
    """Pool a chunk of tracks stored back to back in ``samples``.

    ``counts`` holds each track's sample count (>= 1) and ``lines`` its line.
    The whole chunk is range-checked with one mask first; a sample outside
    [0, 1] (NaN included) aborts, naming the line of the first.
    """
    samples = np.array(samples, dtype=np.float64)
    counts = np.array(counts, dtype=np.intp)
    ends = np.cumsum(counts)
    starts = ends - counts
    outside = ~((samples >= 0.0) & (samples <= 1.0))
    if outside.any():
        first = int(np.argmax(outside))
        line = lines[int(np.searchsorted(ends, first, side="right"))]
        raise IngestError(f"{path} line {line}: score {float(samples[first])} outside [0, 1]")
    if mode == "max":
        pooled = np.maximum.reduceat(samples, starts)
        # max() returns the first of equal maxima; only a zero maximum can
        # differ from it in its bits (0.0 against -0.0)
        zero = np.flatnonzero(pooled == 0.0)
        pooled[zero] = samples[starts[zero]]
        return pooled
    # the mean of each track's own row, grouped by length: the value
    # np.mean gives the track alone, which np.add.reduceat / n is not (the
    # lengths come from bincount, as the first np.unique imports numpy.ma)
    pooled = np.empty(len(counts))
    for length in np.flatnonzero(np.bincount(counts)):
        group = np.flatnonzero(counts == length)
        pooled[group] = samples[starts[group, None] + np.arange(length)].mean(axis=1)
    return pooled


def _load_score_jsonl(path, repo, mode):
    """Score JSONL: one {"video", "concept", "scores"} object per line.

    Malformed lines are reported with their line number and skipped: a line
    that is not a JSON object with the three keys, a video or concept id that
    is not a string, and a ``scores`` that is not a list of JSON numbers
    (booleans and strings are not numbers). An empty score list is reported
    and skipped. A score outside [0, 1], an unknown concept id and a second
    track for the same (video, concept) abort the load at the first such
    line.

    Accepted tracks are kept as flat columns: row, column and sample count
    per line, the samples back to back. Every ``_CHUNK`` lines the samples
    are range-checked and pooled as arrays (:func:`_pool_chunk`), and the
    pooled values are scattered into one (videos x concepts) matrix at the
    end. Returns the video ids, in the order of their first accepted track,
    and that matrix with a row per video.
    """
    video_rows: dict[str, int] = {}
    seen: list[bytearray] = []  # per video row, a flag per concept column
    rows, cols = [], []  # per accepted track
    pooled = []  # per chunk, an array over its tracks
    lineno = 0
    with open_utf8(path, IngestError) as fh:
        for chunk in iter(lambda: list(islice(fh, _CHUNK)), []):
            samples, counts, lines = [], [], []
            for line in chunk:
                lineno += 1
                try:
                    obj = _decode_json(line)
                    video, concept, scores = obj["video"], obj["concept"], obj["scores"]
                except (ValueError, KeyError, TypeError) as exc:
                    if line.strip():
                        _skip_malformed(path, lineno, exc)
                    continue
                if type(scores) is not list or not _FLOAT.issuperset(map(type, scores)):
                    _skip_malformed(path, lineno, "scores must be a list of numbers")
                    continue
                if not isinstance(video, str) or not isinstance(concept, str):
                    _skip_malformed(path, lineno, "video and concept ids must be strings")
                    continue
                if not scores:
                    log.warning("%s line %d: empty score list, skipped", path, lineno)
                    continue
                samples += scores
                counts.append(len(scores))
                lines.append(lineno)
                try:
                    column = repo.index_of(concept)
                except ConceptFormatError as exc:
                    _pool_chunk(path, samples, counts, lines, mode)  # earlier lines abort first
                    raise ConceptFormatError(f"{path} line {lineno}: {exc}") from None
                row = video_rows.setdefault(video, len(video_rows))
                if row == len(seen):
                    seen.append(bytearray(len(repo)))
                if seen[row][column]:
                    _pool_chunk(path, samples, counts, lines, mode)
                    raise IngestError(
                        f"{path} line {lineno}: duplicate track for ({video}, {concept})"
                    )
                seen[row][column] = 1
                rows.append(row)
                cols.append(column)
            if counts:
                pooled.append(_pool_chunk(path, samples, counts, lines, mode))
    S = np.zeros((len(video_rows), len(repo)), dtype=np.float64)
    if pooled:
        S[rows, cols] = np.concatenate(pooled)
    return list(video_rows), S


def _csv_scores(path, block, width):
    """The (len(block), width) float64 scores of pre-pooled CSV rows, given
    as (line number, fields), converted in one ``np.array`` call. The first
    non-numeric value, or score outside [0, 1], in file order aborts with
    its line; values are parsed by ``float()``."""
    try:
        values = np.array([fields[1:] for _, fields in block], dtype=np.float64)
    except ValueError:
        for lineno, fields in block:
            for raw in fields[1:]:
                try:
                    value = float(raw)
                except ValueError:
                    raise IngestError(f"{path} line {lineno}: non-numeric score {raw!r}") from None
                if not 0.0 <= value <= 1.0:
                    raise IngestError(f"{path} line {lineno}: score {value} outside [0, 1]")
        raise
    values = values.reshape(len(block), width)
    outside = ~((values >= 0.0) & (values <= 1.0))
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise IngestError(
            f"{path} line {block[i][0]}: score {float(values[i, j])} outside [0, 1]"
        )
    return values


def _load_score_csv(path, repo):
    """Pre-pooled CSV: header of concept ids, one row per video.

    Rows are converted to numbers a block of about ``_CSV_VALUES`` values
    at a time (:func:`_csv_scores`). A row with the wrong field count, a
    repeated video id, a non-numeric value or a score outside [0, 1] aborts
    the load at the first such line. Returns the video ids in file order
    and the (videos x concepts) matrix.
    """
    with open_utf8(path, IngestError, csv=True) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty pre-pooled CSV")
        columns = header[1:] if header and header[0] == "video" else header
        col_idx = [repo.index_of(c) for c in columns]
        block_rows = max(1, _CSV_VALUES // max(1, len(columns)))
        ids: dict[str, None] = {}
        blocks, block = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns) + 1:
                _csv_scores(path, block, len(columns))  # earlier rows abort first
                raise IngestError(
                    f"{path} line {lineno}: expected {len(columns) + 1} fields, got {len(row)}"
                )
            video = row[0]
            if video in ids:
                _csv_scores(path, block, len(columns))
                raise IngestError(f"{path} line {lineno}: duplicate video id {video!r}")
            ids[video] = None
            block.append((lineno, row))
            if len(block) == block_rows:
                blocks.append(_csv_scores(path, block, len(columns)))
                block = []
        blocks.append(_csv_scores(path, block, len(columns)))
    S = np.zeros((len(ids), len(repo)), dtype=np.float64)
    S[:, col_idx] = np.concatenate(blocks)
    return list(ids), S


def _load_transcripts(path):
    """Transcript JSONL: one {"video", "ocr"?, "asr"?} object per line.

    A missing or null ``ocr``/``asr`` is a missing channel. A video id that
    is not a string, or an ``ocr``/``asr`` that is neither a string nor
    null, makes the line malformed: it is reported and skipped.
    """
    transcripts = {}
    with open_utf8(path, IngestError) as fh:
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


class Corpus:
    """The corpus as columns, built once with what every event's scoring
    needs:

    * ``ids``: the video ids;
    * ``S``: the (n, C) read-only matrix of concept probabilities, in the
      repository's concept order;
    * ``ocr``, ``asr``: the transcripts, "" where a video has none;
    * ``P_ocr``, ``P_asr``: (n, dim) sums of each transcript's word vectors;
    * ``n_ocr``, ``n_asr``: the number of vectors in each sum, where 0 marks
      a missing channel (empty or fully out-of-vocabulary transcript);
    * ``id_rank``: each id's position in sorted order, the tie-break key of
      a ranking.

    The transcripts are embedded with the space and stop words the
    repository's concept embeddings were built with; without a space the
    text columns are None. A float64 ``S`` is kept without a copy and made
    read-only. A repeated video id, a matrix or transcript column of the
    wrong shape, a score that is NaN or lies outside [0, 1], or a transcript
    that is not a string raises :class:`IngestError`, naming the video where
    there is one.
    """

    def __init__(self, repo: ConceptRepository, ids, S, ocr=None, asr=None):
        self.ids = ids = tuple(ids)
        n = len(ids)
        seen = set()
        for video in ids:
            if video in seen:
                raise IngestError(f"duplicate video id {video!r}")
            seen.add(video)
        try:
            S = np.asarray(S, dtype=np.float64)
        except (TypeError, ValueError) as exc:  # ragged rows, or a value that is no number
            raise IngestError(f"concept scores are not a matrix of numbers: {exc}") from None
        if S.shape != (n, len(repo)):
            raise IngestError(
                f"concept scores have shape {S.shape}, expected ({n}, {len(repo)})"
            )
        valid = (S >= 0.0) & (S <= 1.0)  # False for NaN and both infinities too
        if not valid.all():
            i, j = np.argwhere(~valid)[0]
            raise IngestError(
                f"video {ids[i]!r}: concept score {S[i, j]} is not a probability in [0, 1]"
            )
        S.flags.writeable = False
        self.S = S
        self.ocr = ("",) * n if ocr is None else tuple(ocr)
        self.asr = ("",) * n if asr is None else tuple(asr)
        for name, texts in (("OCR", self.ocr), ("ASR", self.asr)):
            if len(texts) != n:
                raise IngestError(f"{len(texts)} {name} transcripts for {n} videos")
            for video, text in zip(ids, texts):
                if not isinstance(text, str):
                    raise IngestError(f"video {video!r}: {name} transcript is not a string")
        self.id_rank = np.empty(n, dtype=np.intp)
        self.id_rank[sorted(range(n), key=ids.__getitem__)] = np.arange(n)

        self.space = repo.space
        self.P_ocr = self.P_asr = self.n_ocr = self.n_asr = None
        if self.space is not None:
            self.P_ocr, self.n_ocr = pool_texts(self.space, self.ocr, repo.stops)
            self.P_asr, self.n_asr = pool_texts(self.space, self.asr, repo.stops)

    def __len__(self) -> int:
        return len(self.ids)


def load_corpus(
    score_path,
    repo: ConceptRepository,
    transcript_path=None,
    mode: str = "max",
) -> Corpus:
    """The corpus of every video appearing in either input file.

    ``score_path`` ending in ``.csv`` is treated as a pre-pooled matrix and
    bypasses pooling; anything else is score JSONL, whose tracks are pooled
    by ``mode`` (max or avg). Videos present only in the transcript file
    get an all-zero concept vector, after the scored ones. Transcripts are
    embedded once, with the space and stop words of the repository.
    """
    if mode not in POOL_MODES:
        raise ValueError(f"pool mode must be max or avg, got {mode!r}")
    if str(score_path).endswith(".csv"):
        ids, S = _load_score_csv(score_path, repo)
    else:
        ids, S = _load_score_jsonl(score_path, repo, mode)
    transcripts = _load_transcripts(transcript_path) if transcript_path else {}

    texts = [transcripts.pop(video, ("", "")) for video in ids]
    if transcripts:  # transcript-only videos, after the scored ones
        ids += transcripts
        S = np.vstack([S, np.zeros((len(transcripts), len(repo)))])
        texts += transcripts.values()
    log.info("corpus: %d videos (%d transcript-only)", len(ids), len(transcripts))
    return Corpus(repo, ids, S, [ocr for ocr, _ in texts], [asr for _, asr in texts])

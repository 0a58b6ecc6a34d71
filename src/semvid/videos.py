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
import os
from itertools import chain, islice

import numpy as np

from .concepts import ConceptRepository
from .config import DEFAULT_CONFIG
from .embedding import pool_texts
from .errors import ConceptFormatError, IngestError, checked_sequence, open_utf8
from .ranked import tsv_id

log = logging.getLogger(__name__)

POOL_MODES = ("max", "avg")


def _skip_malformed(path, lineno, reason) -> None:
    log.warning("%s line %d: malformed, skipped (%s)", path, lineno, reason)


# Score lines read between two conversions of their samples to an array.
# 4096 lines loaded at the same speed but peaked about 1 MB higher in RSS
# on a 60k-line file.
_CHUNK = 1024
# Values per block of a pre-pooled CSV. A plain block (see _plain_block)
# holds its lines as text, about 7 bytes a value, and is parsed by one
# np.loadtxt: a 32000 x 600 file loaded in 1.77 / 1.68 / 1.57 s (best of 4)
# with blocks of 4096 / 8192 / 16384 values, but 16384-value blocks raised
# the peak RSS of a vocab_scan ranking by about 0.15 MB, and 8192 did not.
# A block of the csv.reader route holds each value as a Python str of ~60
# bytes, so it stays near 120 KB, and is converted by one np.array (larger
# blocks convert no faster per value).
_CSV_PLAIN_VALUES = 1 << 13
_CSV_VALUES = 1 << 11

# The characters that make a block of CSV lines not plain: a quote and a
# CR, which csv.reader reads otherwise than a split at the commas; NUL,
# which csv.reader rejects before Python 3.11; and U+001C-U+001F, which
# np.loadtxt strips around a number and float() does not (of all code
# points, the only ones loadtxt reads where float() fails or differs).
# Each is looked for with `in`: a regex character class took 40 times as
# long, 0.7 s of a 32000 x 600 file.
_NOT_PLAIN = '"\r\x00\x1c\x1d\x1e\x1f'


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
    and skipped. A score outside [0, 1], an unknown concept id, a second
    track for the same (video, concept) and a video id that holds a tab, CR
    or LF (see :func:`~semvid.ranked.tsv_id`) abort the load at the first
    such line.

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
                    row = video_rows.setdefault(video, len(video_rows))
                    if row == len(seen):  # the first line of a video
                        seen.append(bytearray(len(repo)))
                        tsv_id(video, "video id", IngestError)
                    if seen[row][column]:
                        raise IngestError(f"duplicate track for ({video}, {concept})")
                except (ConceptFormatError, IngestError) as exc:
                    _pool_chunk(path, samples, counts, lines, mode)  # earlier lines abort first
                    raise type(exc)(f"{path} line {lineno}: {exc}") from None
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


def _plain_block(lines, width, ids):
    """The ids and (rows, width) float64 scores of a block of pre-pooled CSV
    lines, parsed by one ``np.loadtxt``, or None.

    A block is plain when it holds no character of ``_NOT_PLAIN`` and each
    of its lines is blank or holds ``width`` commas: its records are then
    its lines, and their fields what a split at the commas gives, as
    ``csv.reader`` reads them. None when the block is not plain, and when
    an id holds a tab or repeats one of ``ids`` or of the block, or a value
    is one loadtxt does not read or lies outside [0, 1]: the ``csv.reader``
    route reads such a block again and reports its first fault."""
    text = "".join(lines)
    if any(char in text for char in _NOT_PLAIN):
        return None
    records = [line for line in lines if line != "\n"]  # csv.reader skips a blank line
    if any(line.count(",") != width for line in records):
        return None
    names = [line[: line.index(",")] for line in records]
    if (any("\t" in name for name in names) or len(set(names)) < len(names)
            or not ids.keys().isdisjoint(names)):
        return None
    if not records:
        return names, np.empty((0, width))
    try:
        values = np.loadtxt(records, delimiter=",", usecols=range(1, width + 1),
                            dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if not ((values >= 0.0) & (values <= 1.0)).all():
        return None
    return names, values


def _put_rows(S, start, values, columns, expected=None) -> None:
    """Write ``values`` into the rows of ``S`` from ``start`` on, at
    ``columns``. ``S`` is first grown in place when it is too short, as
    :func:`~semvid.embedding._grown` grows a table: to twice its rows, at
    least 256, but to no more than the ``expected`` number of rows when
    one is given, and to at least the rows needed. The new rows are zero.
    No view of ``S`` may exist while it grows."""
    end = start + len(values)
    if end > len(S):
        grown = max(2 * len(S), 256)
        rows = max(end, grown if expected is None else min(grown, expected))
        S.resize((rows, S.shape[1]), refcheck=False)
    S[start:end, columns] = values


def _load_score_csv(path, repo):
    """Pre-pooled CSV: header of concept ids, one row per video.

    A header that names a concept twice aborts the load at line 1; a row
    with the wrong field count, a repeated video id or one that holds a
    tab, CR or LF, a non-numeric value or a score outside [0, 1] aborts it
    at the first such record, numbered as ``csv.reader`` counts records.

    The rows are read a block of about ``_CSV_PLAIN_VALUES`` values at a
    time, and a plain block is parsed by one ``np.loadtxt``
    (:func:`_plain_block`). From the first block that is not plain or
    does not load, ``csv.reader`` reads the rest of the file, from that
    block's first record, and converts a block of about ``_CSV_VALUES``
    values at a time (:func:`_csv_scores`). Both routes parse a number with
    Python's own ``PyOS_string_to_double``; loadtxt rejects a digit
    separator (``1_0``) and non-ASCII digits, which only the second route
    reads. Each block is written into its rows of one matrix, grown in
    place. Returns the video ids in file order and the (videos x concepts)
    matrix.
    """
    with open_utf8(path, IngestError, csv=True) as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise IngestError(f"{path}: empty pre-pooled CSV")
        columns = header[1:] if header and header[0] == "video" else header
        col_idx = [repo.index_of(c) for c in columns]
        if len(set(columns)) != len(columns):
            repeated = next(c for i, c in enumerate(columns) if c in columns[:i])
            raise IngestError(f"{path} line 1: concept {repeated!r} named twice in the header")
        width = len(columns)
        if col_idx == list(range(width)):
            col_idx = slice(0, width)  # a slice writes a block faster than a list
        S = np.zeros((0, len(repo)))
        ids: dict[str, None] = {}
        first, rest = 2, []  # the number of the next record, and lines to read again
        # the rows of the plain lines so far, scaled to the file's size,
        # are the rows S is expected to need (a pipe has no size)
        size, read = os.fstat(fh.fileno()).st_size, 0
        block_lines = max(1, _CSV_PLAIN_VALUES // max(1, width))
        for lines in iter(lambda: list(islice(fh, block_lines)), []) if width else ():
            block = _plain_block(lines, width, ids)
            if block is None:
                rest = lines
                break
            names, values = block
            read += sum(map(len, lines))
            expected = (len(ids) + len(names)) * size // read + 1 if size else None
            _put_rows(S, len(ids), values, col_idx, expected)
            ids.update(dict.fromkeys(names))
            first += len(lines)

        block_rows = max(1, _CSV_VALUES // max(1, width))
        block = []
        for lineno, row in enumerate(csv.reader(chain(rest, fh)), start=first):
            if not row:
                continue
            try:
                if len(row) != width + 1:
                    raise IngestError(f"expected {width + 1} fields, got {len(row)}")
                video = tsv_id(row[0], "video id", IngestError)
                if video in ids:
                    raise IngestError(f"duplicate video id {video!r}")
            except IngestError as exc:
                _csv_scores(path, block, width)  # earlier rows abort first
                raise IngestError(f"{path} line {lineno}: {exc}") from None
            ids[video] = None
            block.append((lineno, row))
            if len(block) == block_rows:
                _put_rows(S, len(ids) - len(block), _csv_scores(path, block, width), col_idx)
                block = []
        _put_rows(S, len(ids) - len(block), _csv_scores(path, block, width), col_idx)
    S.resize((len(ids), len(repo)), refcheck=False)
    return list(ids), S


def _load_transcripts(path):
    """Transcript JSONL: one {"video", "ocr"?, "asr"?} object per line.

    A missing or null ``ocr``/``asr`` is a missing channel. A video id that
    is not a string, or an ``ocr``/``asr`` that is neither a string nor
    null, makes the line malformed: it is reported and skipped. A second
    transcript for a video, and a video id that holds a tab, CR or LF, abort
    the load.
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
            tsv_id(video, f"{path} line {lineno}: video id", IngestError)
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
      a missing channel (empty or fully out-of-vocabulary transcript), whose
      row is zero, so that it scores the neutral 0.5 with no special case;
    * ``id_column``: the ids as a 1-D object array, to take a ranking's ids
      in one fancy index;
    * ``id_order``: the video positions in sorted id order, the tie-break
      order of a ranking.

    The transcripts are embedded with the space and stop words the
    repository's concept embeddings were built with; without a space the
    text columns are None. A float64 ``S`` is kept without a copy, and it
    and the four text columns are read-only. A video id that is not a
    string, holds a tab, CR or LF (see :func:`~semvid.ranked.tsv_id`) or
    is repeated, a column given as one string, a matrix or transcript
    column of the wrong shape, a score that is NaN or lies outside [0, 1],
    or a transcript that is not a string raises :class:`IngestError`,
    naming the video where there is one.
    """

    def __init__(self, repo: ConceptRepository, ids, S, ocr=None, asr=None):
        for name, column in (("video ids", ids), ("OCR", ocr), ("ASR", asr)):
            checked_sequence(column, f"{name} must be one entry per video", IngestError)
        self.ids = ids = tuple(ids)
        n = len(ids)
        seen = set()
        for video in ids:
            if not isinstance(video, str):
                raise IngestError(f"video id {video!r} is not a string")
            tsv_id(video, "video id", IngestError)
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
        self.id_column = np.array(ids, dtype=object)
        self.id_order = np.array(sorted(range(n), key=ids.__getitem__), dtype=np.intp)

        self.space = repo.space
        self.P_ocr = self.P_asr = self.n_ocr = self.n_asr = None
        if self.space is not None:
            self.P_ocr, self.n_ocr = pool_texts(self.space, self.ocr, repo.stops)
            self.P_asr, self.n_asr = pool_texts(self.space, self.asr, repo.stops)
            for column in (self.P_ocr, self.n_ocr, self.P_asr, self.n_asr):
                column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)


def load_corpus(
    score_path,
    repo: ConceptRepository,
    transcript_path=None,
    mode: str = DEFAULT_CONFIG.mode,
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
        S.resize((len(ids), len(repo)), refcheck=False)  # zero rows added in place
        texts += transcripts.values()
    log.info("corpus: %d videos (%d transcript-only)", len(ids), len(transcripts))
    return Corpus(repo, ids, S, [ocr for ocr, _ in texts], [asr for _, asr in texts])

"""Independent brute-force oracles for the test suite.

Everything here recomputes results with plain loops, math.fsum and sorted()
so that the production paths (vectorized numpy, order statistics, rank
sums) are checked against a second route.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
from decimal import Decimal

import numpy as np

from semvid.embedding import tokenize
from semvid.errors import (
    ConceptFormatError,
    EmbeddingFormatError,
    EvaluationError,
    IngestError,
    SemvidError,
    open_utf8,
)
from semvid.evaluation import GroundTruth
from semvid.ranked import RankedList


def cosine_oracle(x, y) -> float:
    dot = math.fsum(float(a) * float(b) for a, b in zip(x, y))
    nx = math.sqrt(math.fsum(float(a) * float(a) for a in x))
    ny = math.sqrt(math.fsum(float(b) * float(b) for b in y))
    return dot / (nx * ny)


def sum_pool_oracle(vectors) -> list[float]:
    dim = len(vectors[0])
    return [math.fsum(float(v[d]) for v in vectors) for d in range(dim)]


def in_order_pool_oracle(vectors, sizes) -> np.ndarray:
    """Each set's rows (the next ``sizes[i]`` rows of ``vectors``) added one
    at a time, in order, to a float64 accumulator that starts at +0.0: the
    order in which a word set must be pooled for its bits to depend on its
    own rows alone. An empty set pools to zeros."""
    vectors = np.asarray(vectors)
    pooled = np.zeros((len(sizes), vectors.shape[1]))
    at = 0
    for i, size in enumerate(sizes):
        total = np.zeros(vectors.shape[1])
        for row in vectors[at : at + size]:
            total = total + row.astype(np.float64)
        pooled[i] = total
        at += size
    return pooled


def pooled_sim_oracle(xs, ys) -> float:
    return cosine_oracle(sum_pool_oracle(xs), sum_pool_oracle(ys))


def percentile_oracle(values, percentile) -> float:
    ordered = sorted(float(v) for v in values)
    index = math.ceil(percentile / 100.0 * len(ordered)) - 1
    return ordered[max(index, 0)]


def hausdorff_oracle(xs, ys, percentile=50.0) -> float:
    best_per_x = []
    for x in xs:
        best_per_x.append(max(cosine_oracle(x, y) for y in ys))
    best_per_y = []
    for y in ys:
        best_per_y.append(max(cosine_oracle(x, y) for x in xs))
    return min(
        percentile_oracle(best_per_x, percentile),
        percentile_oracle(best_per_y, percentile),
    )


def crosssum_oracle(xs, ys) -> float:
    terms = []
    for x in xs:
        for y in ys:
            terms.append(math.fsum(float(a) * float(b) for a, b in zip(x, y)))
    return math.fsum(terms)


def mean_pairwise_cosine_oracle(xs, ys) -> float:
    """Mean of pairwise dot products; inputs are unit vectors, so each term
    is the pair's cosine."""
    terms = []
    for x in xs:
        for y in ys:
            terms.append(math.fsum(float(a) * float(b) for a, b in zip(x, y)))
    return math.fsum(terms) / len(terms)


def scan_oracle(tokens, vectors, point, k, exclude=frozenset()):
    """Exhaustive nearest-word scan: per-token cosine, sorted with the
    lexicographic tie rule."""
    scored = [
        (token, cosine_oracle(vec, point))
        for token, vec in zip(tokens, vectors)
        if token not in exclude
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[: min(k, len(scored))]


def concept_rank_oracle(query_vectors, concept_sets, kernel="pooled", percentile=50.0):
    """(concept id, weight) sorted desc, ties by id; full scan."""
    weighted = []
    for concept_id, vectors in concept_sets.items():
        if kernel == "pooled":
            weight = pooled_sim_oracle(query_vectors, vectors)
        else:
            weight = hausdorff_oracle(query_vectors, vectors, percentile)
        weighted.append((concept_id, weight))
    weighted.sort(key=lambda pair: (-pair[1], pair[0]))
    return weighted


def marginalization_oracle(ranked, concept_order, vc, r):
    """Full-sum form of the concept channel: every concept contributes, but
    weights outside the top R are zeroed first. ``ranked`` is the event's
    :func:`concept_rank_oracle` ranking."""
    kept = {cid for cid, _ in ranked[:r]}
    weights = {cid: (w if cid in kept else 0.0) for cid, w in ranked}
    return math.fsum(
        weights.get(cid, 0.0) * float(vc[i]) for i, cid in enumerate(concept_order)
    )


def psi_fastpath_oracle(query_vectors, concept_sets, concept_order, vc, selected) -> float:
    """Appendix-A form of the pooled concept channel's raw score: the video
    collapsed into one vector psi, the sum over the selected concepts of
    each one's unit pooled vector times the video's probability for it,
    dotted with the query's unit pooled vector."""
    def unit(vector):
        norm = math.sqrt(math.fsum(v * v for v in vector))
        return [v / norm for v in vector]

    terms = [
        [float(vc[concept_order.index(cid)]) * v for v in unit(sum_pool_oracle(concept_sets[cid]))]
        for cid in selected
    ]
    psi = [math.fsum(term[d] for term in terms) for d in range(len(terms[0]))]
    return math.fsum(q * p for q, p in zip(unit(sum_pool_oracle(query_vectors)), psi))


def score_matching_baseline(query_terms, transcript: str) -> float:
    """Exact string matching: the count of transcript tokens equal to any
    query token, with no semantics. The comparison baseline of the
    semantic text channel."""
    wanted = set(query_terms)
    return float(sum(1 for token in tokenize(transcript) if token in wanted))


def fuse_oracle(pc, po, pa, w) -> float:
    if pc == 0.0 or po == 0.0 or pa == 0.0:
        return 0.0
    return math.exp((w * math.log(pc) + 0.5 * math.log(po) + 0.5 * math.log(pa)) / (w + 1.0))


def ap_oracle(relevance_in_rank_order) -> float:
    positives = sum(relevance_in_rank_order)
    if positives == 0:
        raise ValueError("no positives")
    total = 0.0
    hits = 0
    for k, rel in enumerate(relevance_in_rank_order, start=1):
        if rel:
            hits += 1
            total += hits / k
    return total / positives


def auc_oracle(scores, labels) -> float:
    """Pairwise comparison count: wins plus half-ties over P*N."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    if not pos or not neg:
        raise ValueError("need both classes")
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def random_set(rng: np.random.Generator, n: int, dim: int, unit: bool = True) -> np.ndarray:
    vectors = rng.standard_normal((n, dim))
    if unit:
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors


def pipeline_oracle(
    vocab: dict[str, np.ndarray],
    concept_defs: list[tuple[str, list[str]]],  # (concept id, resolved tokens) in order
    video_tracks: dict[str, dict[str, list[float]]],  # video -> concept -> samples
    transcripts: dict[str, tuple[str, str]],
    queries: list[tuple[str, list[str]]],  # (event id, title tokens)
    labels: dict[tuple[str, str], int],
    r: int = 5,
    w: float = 6.0,
    augment_k: int = 5,
):
    """Recompute the whole retrieval run with loops and fsum only.

    Returns (map, mean auc, per-event ap dict). Detector pooling is max;
    kernel is pooled cosine; text channels use the mean pairwise cosine of
    the expanded query set against the transcript set; fusion is the
    weighted geometric mean. Mirrors the default configuration without
    touching any production scoring code.
    """
    tokens = sorted(vocab)
    vectors = [vocab[t] for t in tokens]
    concept_sets = {
        cid: [vocab[t] for t in toks if t in vocab]
        for cid, toks in concept_defs
        if any(t in vocab for t in toks)
    }
    concept_order = [cid for cid, _ in concept_defs]

    aps, aucs = {}, {}
    for event_id, title in queries:
        query_vectors = [vocab[t] for t in title if t in vocab]
        expanded = list(query_vectors)
        if augment_k > 0:
            point = sum_pool_oracle(query_vectors)
            for token, _ in scan_oracle(tokens, vectors, point, augment_k, set(title)):
                expanded.append(vocab[token])

        ranked = concept_rank_oracle(query_vectors, concept_sets)
        scored = []
        for video_id in sorted(video_tracks):
            vc = [0.0] * len(concept_order)
            for cid, samples in video_tracks[video_id].items():
                vc[concept_order.index(cid)] = max(samples)
            raw = marginalization_oracle(ranked, concept_order, vc, r)
            pc = (raw / r + 1.0) / 2.0

            def text_factor(text: str) -> float:
                words = [tok for tok in text.split() if tok in vocab]
                if not words:
                    return 0.5
                tset = [vocab[tok] for tok in words]
                return (mean_pairwise_cosine_oracle(expanded, tset) + 1.0) / 2.0

            ocr, asr = transcripts[video_id]
            fused = fuse_oracle(pc, text_factor(ocr), text_factor(asr), w)
            scored.append((video_id, fused))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))

        relevance = [labels[(event_id, vid)] for vid, _ in scored]
        aps[event_id] = ap_oracle(relevance)
        aucs[event_id] = auc_oracle([s for _, s in scored], relevance)

    mean_ap = math.fsum(aps.values()) / len(aps)
    mean_auc = math.fsum(aucs.values()) / len(aucs)
    return mean_ap, mean_auc, aps


def event_scores_oracle(
    vocab: dict[str, np.ndarray],
    concept_sets: dict[str, list],  # scoreable concept id -> its word vectors
    concept_order: list[str],  # every concept id, in score-column order
    rows: dict[str, list[float]],  # video -> concept probabilities
    transcripts: dict[str, tuple],  # video -> (ocr, asr); a None text is missing
    title: list[str],
    ocr_terms: list[str],
    asr_terms: list[str],
    r: int = 5,
    w: float = 6.0,
    augment_k: int = 5,
    stops=frozenset(),
) -> dict[str, float]:
    """Fused score of every video for one event along the pairwise route:
    pooled-kernel concept weights by full scan, the concept channel as an
    fsum over the top R, each text channel as the mean pairwise cosine of
    its expanded query set against the transcript's in-vocabulary words
    (no phrase entries), and the exp/log geometric mean."""
    tokens = sorted(vocab)
    vectors = [vocab[t] for t in tokens]

    def expanded(terms):
        base = [t for t in terms if t in vocab]
        out = [vocab[t] for t in base]
        if augment_k > 0:
            point = sum_pool_oracle(out)
            for token, _ in scan_oracle(tokens, vectors, point, augment_k, set(terms) | set(base)):
                out.append(vocab[token])
        return out

    query_vectors = [vocab[t] for t in title if t in vocab]
    selected = concept_rank_oracle(query_vectors, concept_sets)[:r]
    ocr_query = expanded(title + ocr_terms)
    asr_query = expanded(title + asr_terms)

    def text_factor(query, text) -> float:
        words = [t for t in re.findall(r"[a-z0-9]+", (text or "").lower())
                 if t not in stops and t in vocab]
        if not words:
            return 0.5
        mean = mean_pairwise_cosine_oracle(query, [vocab[t] for t in words])
        return min(max((mean + 1.0) / 2.0, 0.0), 1.0)

    out = {}
    for video, row in rows.items():
        raw = math.fsum(weight * row[concept_order.index(cid)] for cid, weight in selected)
        pc = min(max((raw / r + 1.0) / 2.0, 0.0), 1.0)
        ocr, asr = transcripts.get(video, (None, None))
        out[video] = fuse_oracle(pc, text_factor(ocr_query, ocr), text_factor(asr_query, asr), w)
    return out


def _json_integer(text: str) -> float:
    """A JSON integer literal as the score loader documents it: a float, the
    nearest to its exact value, +-inf out of float range, and 0.0 for -0 (an
    integer has no negative zero). ``Decimal`` reads a literal of any length,
    where ``int`` stops at 4300 digits."""
    value = float(Decimal(text))
    return value if value else 0.0


def pool_oracle(samples, mode: str) -> float:
    """One track's video-level probability: its max or its arithmetic mean."""
    if mode == "max":
        return float(max(samples))
    return float(np.mean(np.asarray(samples, dtype=np.float64)))


def score_jsonl_oracle(path, repo, mode, warnings: list) -> dict:
    """Score JSONL read one line and one track at a time, each track pooled
    by :func:`pool_oracle`.

    Returns {video: concept score row}, videos in the order of their first
    accepted track. Each skipped line appends its report to ``warnings``;
    an aborting line raises the loader's error.
    """
    tracks: dict[str, list] = {}
    seen: dict[str, set] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line, parse_int=_json_integer)
                video, concept, scores = obj["video"], obj["concept"], obj["scores"]
            except (ValueError, KeyError, TypeError) as exc:
                warnings.append(f"{path} line {lineno}: malformed, skipped ({exc})")
                continue
            if not isinstance(scores, list) or any(not isinstance(s, float) for s in scores):
                warnings.append(
                    f"{path} line {lineno}: malformed, skipped (scores must be a list of numbers)"
                )
                continue
            if not isinstance(video, str) or not isinstance(concept, str):
                warnings.append(
                    f"{path} line {lineno}: malformed, skipped "
                    "(video and concept ids must be strings)"
                )
                continue
            samples = tuple(scores)
            for s in samples:
                if not 0.0 <= s <= 1.0:
                    raise IngestError(f"{path} line {lineno}: score {s} outside [0, 1]")
            if not samples:
                warnings.append(f"{path} line {lineno}: empty score list, skipped")
                continue
            try:
                column = repo.index_of(concept)
            except ConceptFormatError as exc:
                raise ConceptFormatError(f"{path} line {lineno}: {exc}") from None
            if concept in seen.setdefault(video, set()):
                raise IngestError(
                    f"{path} line {lineno}: duplicate track for ({video}, {concept})"
                )
            seen[video].add(concept)
            tracks.setdefault(video, []).append((column, samples))
    rows = {}
    for video, video_tracks in tracks.items():
        row = np.zeros(len(repo), dtype=np.float64)
        for column, samples in video_tracks:
            row[column] = pool_oracle(samples, mode)
        rows[video] = row
    return rows


def _table_number(text: str) -> float:
    """A table value as float() reads it, except that np.loadtxt, which
    the loader parses with, reads no digit separators or non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number for np.loadtxt: {text!r}")
    return float(text)


def text_table_oracle(path):
    """A word2vec text table read one line and one value at a time.

    Returns (tokens, float32 matrix, duplicates): the first row of each
    token, divided by its own np.linalg.norm in float64 and rounded to
    float32 once unless already within 1e-6 of unit length. Raises the
    loader's error for the first bad row, then for a wrong row count, then
    for the first kept row of zero or non-finite norm.
    """
    with open(path, encoding="utf-8") as fh:
        count, dim = (int(part) for part in fh.readline().split())
        tokens, rows = [], []
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise EmbeddingFormatError(
                    f"dimension mismatch at row {lineno}: expected {dim} values, got {len(parts) - 1}"
                )
            try:
                values = [_table_number(p) for p in parts[1:]]
            except ValueError:
                raise EmbeddingFormatError(f"non-numeric value at row {lineno}") from None
            tokens.append(parts[0])
            rows.append(np.array(values, dtype=np.float64))
    if len(tokens) != count:
        raise EmbeddingFormatError(f"header declared {count} entries, file has {len(tokens)}")
    return normalized_table_oracle(tokens, rows, dim)


def normalized_table_oracle(tokens, rows, dim: int):
    """The first row of each token, divided by its own np.linalg.norm in
    float64 and rounded to float32 once unless already within 1e-6 of unit
    length: (tokens, float32 matrix, duplicates). Raises the loaders' error
    for the first kept row of zero or non-finite norm."""
    first: dict[str, int] = {}
    for i, token in enumerate(tokens):
        first.setdefault(token, i)
    matrix = np.empty((len(first), dim), dtype=np.float32)
    for j, (token, i) in enumerate(first.items()):
        row = np.asarray(rows[i], dtype=np.float64)
        norm = float(np.linalg.norm(row))
        if not math.isfinite(norm) or norm == 0.0:
            what = "zero-norm" if norm == 0.0 else "non-finite"
            raise EmbeddingFormatError(f"{what} vector for token {token!r}")
        matrix[j] = row if abs(norm - 1.0) <= 1e-6 else row / norm
    return list(first), matrix, len(tokens) - len(first)


def binary_table_oracle(data: bytes, path=None):
    """A binary table read from one buffer holding the whole file.

    Returns (tokens, float32 matrix) before dedupe and normalization: the
    token and packed little-endian float32 vector of each entry, newlines
    before a token skipped. Raises the reader's error for a header without
    a newline, then for the first entry without its token or its vector, or
    whose token is not UTF-8 (naming ``path``).
    """
    end = data.find(b"\n")
    if end < 0:
        raise EmbeddingFormatError("unexpected end of file in header")
    count, dim = (int(part) for part in data[:end].split())
    pos = end + 1
    tokens, rows = [], []
    for row in range(1, count + 1):
        while data[pos : pos + 1] == b"\n":
            pos += 1
        gap = data.find(b" ", pos)
        if gap < 0:
            raise EmbeddingFormatError(f"unexpected end of file at row {row}")
        token = data[pos:gap]
        pos = gap + 1
        if pos + 4 * dim > len(data):
            raise EmbeddingFormatError(
                f"dimension mismatch at row {row}: expected {dim} float32 values"
            )
        try:
            tokens.append(token.decode("utf-8"))
        except UnicodeDecodeError:
            raise EmbeddingFormatError(f"{path} row {row}: not valid UTF-8") from None
        rows.append(np.frombuffer(data, dtype="<f4", count=dim, offset=pos))
        pos += 4 * dim
    return tokens, np.array(rows, dtype=np.float32).reshape(count, dim)


def save_embeddings_oracle(tokens, matrix, path, fmt: str) -> None:
    """A table written one row at a time: the header ``V M``, then per row
    its token and each value as ``format(v, ".9g")`` (text) or its token, a
    space, ``struct.pack`` of the little-endian float32 values and a newline
    (binary)."""
    count, dim = matrix.shape
    if fmt == "text":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{count} {dim}\n")
            for token, row in zip(tokens, matrix):
                fh.write(token + " " + " ".join(format(float(v), ".9g") for v in row) + "\n")
    else:
        with open(path, "wb") as fh:
            fh.write(f"{count} {dim}\n".encode("utf-8"))
            for token, row in zip(tokens, matrix):
                fh.write(token.encode("utf-8") + b" ")
                fh.write(struct.pack(f"<{dim}f", *row))
                fh.write(b"\n")


def rank_sum_auc_oracle(scores, labels) -> float:
    """Rank-sum AUC on numpy arrays: stable argsort ranks, tied scores
    sharing their mean rank, and the positives' rank sum."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    positives = int(labels.sum())
    negatives = len(labels) - positives
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)


def ranked_tsv_oracle(path) -> list[RankedList]:
    """``read_ranked_tsv`` line by line: each line stripped, split and
    compared with the header, and its event's entries looked up anew."""
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


def truth_csv_oracle(path) -> GroundTruth:
    """``load_truth`` record by record: every field stripped first, then
    the header, the label and the repeated pair checked in turn."""
    labels: dict[tuple[str, str], int] = {}
    with open_utf8(path, EvaluationError, csv=True) as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 3:
                raise EvaluationError(f"{path} line {lineno}: expected 3 CSV columns")
            event_id, video_id, label = (field.strip() for field in row)
            if lineno == 1 and label.lower() == "label":
                continue
            if label not in ("0", "1"):
                raise EvaluationError(f"{path} line {lineno}: label must be 0 or 1, got {label!r}")
            key = (event_id, video_id)
            if key in labels:
                raise EvaluationError(f"{path} line {lineno}: duplicate label for {key}")
            labels[key] = int(label)
    return GroundTruth(labels=labels)

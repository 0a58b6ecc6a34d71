"""Output check: recompute semvid's results by a second route.

Scores are recomputed from the generator's own arrays (``vectors.npy``,
``pooled.npy``) and the JSON input files with plain loops and ``math.fsum``,
following the route of ``tests/oracles.py::pipeline_oracle`` (pooled or
percentile-Hausdorff concept ranking, top-R marginalization, nearest-word
query expansion, mean pairwise text cosine, weighted geometric fusion). Only
the nearest-word scan uses numpy, as a float32 prefilter whose candidates are
then rescored exactly. Nothing here imports semvid.

Generated tokens all contain a digit and no underscore, so no stop word and
no bigram phrase entry can match them; tokenization is a plain regex split.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

# semvid's defaults: top-R concepts, fusion emphasis, expansion size, percentile
R, W, K, PERCENTILE = 5, 6.0, 5, 50.0

# A batch score is printed with six decimals; a single-event score is exact
# up to the summation order of the two routes.
TSV_TOL = 5e-7 + 1e-9
EXACT_TOL = 1e-9

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _dot(x, y) -> float:
    return math.fsum(a * b for a, b in zip(x, y))


def _pool(vectors) -> list[float]:
    return [math.fsum(column) for column in zip(*vectors)]


def _lower_percentile(values, percentile) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile / 100.0 * len(ordered)) - 1, 0)]


def fuse(pc, po, pa, w=W) -> float:
    if pc == 0.0 or po == 0.0 or pa == 0.0:
        return 0.0
    return math.exp((w * math.log(pc) + 0.5 * math.log(po) + 0.5 * math.log(pa)) / (w + 1.0))


class Oracle:
    """Second-route scorer for one generated input directory."""

    def __init__(self, data_dir):
        data_dir = Path(data_dir)
        manifest = json.loads((data_dir / "manifest.json").read_text())
        self.kernel = manifest["spec"]["kernel"]
        self.matrix = np.load(data_dir / "vectors.npy")
        self.index = {t: i for i, t in enumerate(manifest["tokens"])}
        self.tokens = manifest["tokens"]
        pooled = np.load(data_dir / "pooled.npy")
        self.pooled = {vid: pooled[i].tolist() for i, vid in enumerate(manifest["video_ids"])}
        files = manifest["files"]
        concepts = json.loads((data_dir / files["concepts"]).read_text())
        for vid in manifest["transcript_only"]:
            self.pooled[vid] = [0.0] * len(concepts)
        self.concepts = []  # (position, id, in-vocabulary tokens)
        for pos, c in enumerate(concepts):
            toks = tokenize(c["name"]) + [t for kw in c.get("keywords", ()) for t in tokenize(kw)]
            toks = [t for t in toks if t in self.index]
            if toks:
                self.concepts.append((pos, c["id"], toks))
        self.transcripts = {}
        with open(data_dir / files["transcripts"], encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                self.transcripts[obj["video"]] = (obj["ocr"], obj["asr"])
        self.events = {}
        for name in ("queries", "single"):
            for entry in json.loads((data_dir / files[name]).read_text()):
                self.events[entry["event"]] = entry
        self._vec, self._norm, self._prepared = {}, {}, {}
        self._concept_pooled = None

    def vec(self, token) -> list[float]:
        if token not in self._vec:
            self._vec[token] = self.matrix[self.index[token]].tolist()
        return self._vec[token]

    def norm(self, token) -> float:
        if token not in self._norm:
            v = self.vec(token)
            self._norm[token] = math.sqrt(_dot(v, v))
        return self._norm[token]

    def _cosine_tokens(self, a, b) -> float:
        return _dot(self.vec(a), self.vec(b)) / (self.norm(a) * self.norm(b))

    def _concept_weights(self, title):
        """Top-R (position, weight) pairs for the title's resolved tokens."""
        query = [t for t in title if t in self.index]
        weighted = []
        if self.kernel == "pooled":
            if self._concept_pooled is None:
                self._concept_pooled = {}
                for pos, cid, toks in self.concepts:
                    p = _pool([self.vec(t) for t in toks])
                    self._concept_pooled[cid] = (p, math.sqrt(_dot(p, p)))
            q = _pool([self.vec(t) for t in query])
            nq = math.sqrt(_dot(q, q))
            for pos, cid, _ in self.concepts:
                p, npool = self._concept_pooled[cid]
                weighted.append((cid, pos, _dot(q, p) / (nq * npool)))
        else:
            for pos, cid, toks in self.concepts:
                cos = [[self._cosine_tokens(x, y) for y in toks] for x in query]
                best_x = [max(row) for row in cos]
                best_y = [max(col) for col in zip(*cos)]
                weight = min(_lower_percentile(best_x, PERCENTILE),
                             _lower_percentile(best_y, PERCENTILE))
                weighted.append((cid, pos, weight))
        weighted.sort(key=lambda e: (-e[2], e[0]))
        return [(pos, w) for _, pos, w in weighted[:R]]

    def _nearest(self, point, exclude):
        """Top-K tokens by cosine to ``point``, ties by token; excluded removed."""
        npoint = math.sqrt(_dot(point, point))
        approx = self.matrix @ np.asarray(point, dtype=np.float32)
        m = min(K + len(exclude) + 1, approx.shape[0])
        threshold = np.partition(approx, -m)[-m] - 1e-3 * npoint  # far above float32 error
        scored = []
        for i in np.nonzero(approx >= threshold)[0]:
            token = self.tokens[i]
            if token not in exclude:
                scored.append((token, _dot(self.vec(token), point) / (self.norm(token) * npoint)))
        scored.sort(key=lambda e: (-e[1], e[0]))
        return [t for t, _ in scored[:K]]

    def _text_query(self, terms):
        """The channel's query tokens: resolved terms plus their expansion."""
        key = tuple(terms)
        if key not in self._prepared:
            base = [t for t in terms if t in self.index]
            point = _pool([self.vec(t) for t in base])
            self._prepared[key] = base + self._nearest(point, set(terms) | set(base))
        return self._prepared[key]

    def _text_score(self, query, transcript):
        words = [t for t in tokenize(transcript) if t in self.index]
        if not words:
            return 0.5  # channel unavailable: neutral factor
        terms = [_dot(self.vec(q), self.vec(t)) for q in query for t in words]
        mean = math.fsum(terms) / len(terms)
        return min(max((mean + 1.0) / 2.0, 0.0), 1.0)

    def scores(self, event_id, video_ids) -> dict[str, float]:
        """Fused score of each given video for one event."""
        entry = self.events[event_id]
        title = tokenize(entry["title"])
        extra = {k: [t for term in entry.get(k, ()) for t in tokenize(term)]
                 for k in ("ocr_terms", "asr_terms")}
        selected = self._concept_weights(title)
        ocr_query = self._text_query(title + extra["ocr_terms"])
        asr_query = self._text_query(title + extra["asr_terms"])
        out = {}
        for vid in video_ids:
            row = self.pooled[vid]
            raw = math.fsum(w * row[pos] for pos, w in selected)
            ocr, asr = self.transcripts.get(vid, ("", ""))
            out[vid] = fuse((raw / R + 1.0) / 2.0,
                            self._text_score(ocr_query, ocr), self._text_score(asr_query, asr))
        return out


def check_ranking(entries, corpus_ids, exact: bool) -> str | None:
    """A ranked list must hold every corpus video once, sorted by
    (-score, id); printed scores (``exact`` False) need only not increase."""
    ids = [vid for vid, _ in entries]
    if len(ids) != len(corpus_ids) or set(ids) != set(corpus_ids):
        return f"not a permutation of the corpus ({len(ids)} entries, {len(set(ids))} distinct)"
    if exact:
        keys = [(-score, vid) for vid, score in entries]
        if any(a > b for a, b in zip(keys, keys[1:])):
            return "not sorted by (-score, id)"
    elif any(a[1] < b[1] for a, b in zip(entries, entries[1:])):
        return "scores increase down the list"
    return None


def check_scores(oracle, event_id, entries, sample, tol) -> str | None:
    got = dict(entries)
    want = oracle.scores(event_id, sample)
    for vid in sample:
        if abs(got[vid] - want[vid]) > tol:
            return f"video {vid}: score {got[vid]!r}, recomputed {want[vid]!r}"
    return None


def read_tsv(path) -> dict[str, list[tuple[str, float]]]:
    """ranked.tsv -> event id -> [(video, score)] in file order; ranks must
    run 1, 2, ... per event."""
    runs: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n").split("\t") != ["event_id", "rank", "video_id", "score"]:
            raise ValueError(f"{path}: bad header")
        for line in fh:
            event_id, rank, vid, score = line.rstrip("\n").split("\t")
            entries = runs.setdefault(event_id, [])
            if int(rank) != len(entries) + 1:
                raise ValueError(f"{path}: event {event_id} rank {rank} out of sequence")
            entries.append((vid, float(score)))
    return runs


def read_truth(path) -> dict[tuple[str, str], int]:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return {(e, v): int(label) for e, v, label in (ln.strip().split(",") for ln in fh)}


def average_precision(entries, event_id, truth) -> float:
    hits, precisions, k = 0, [], 0
    for vid, _ in entries:
        label = truth.get((event_id, vid))
        if label is None:
            continue
        k += 1
        if label:
            hits += 1
            precisions.append(hits / k)
    return math.fsum(precisions) / hits


def read_report(path) -> dict[str, float]:
    """report.tsv from ``semvid eval`` -> event id -> AP."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return {parts[0]: float(parts[1]) for parts in (ln.split("\t") for ln in fh if ln.strip())}

"""Event-to-video scoring: channel scores, fusion, and ranking.

The concept channel marginalizes query-concept relevance against the
video's concept probabilities, keeping only the R most relevant concepts.
OCR and ASR channels compare the (optionally expanded) query word set with
the transcript word set by their mean pairwise cosine. Channels are fused
by a weighted geometric mean that emphasizes the concept channel.

Scoring takes the corpus only as the columns of a
:class:`~semvid.videos.Corpus`, whose transcripts were embedded when it was
built: the concept channel is one product of the selected score columns
with the concept weights, and a text channel is one product of the pooled
transcript vectors with the pooled query, by the identity
mean pairwise cosine = dot(sum Q, sum T) / (|Q| |T|). Each per-row dot
product is a fixed-order reduction, so every video's fused score depends
only on the query, the repository and that video's own row, never on the
rest of the corpus or on the video's position in it.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import kernels
from .concepts import ConceptRepository, top_r_columns
from .config import DEFAULT_CONFIG, RetrievalConfig
from .embedding import (
    EmbeddedSet,
    EmbeddingSpace,
    embed_tokens,
    nearest_words_many,
    sum_pool,
    tokenize,
)
from .errors import SemvidError, open_utf8
from .ranked import RankedList, read_ranked_tsv, write_ranked_tsv  # the TSV helpers are re-exported
from .stopwords import DEFAULT_STOPWORDS
from .videos import Corpus

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EventQuery:
    """Free-text event query: title terms plus optional per-channel extras."""

    event_id: str
    title_terms: tuple[str, ...]
    ocr_terms: tuple[str, ...] = ()
    asr_terms: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.title_terms:
            raise SemvidError(f"event {self.event_id!r}: no title terms after stop-word removal")


@dataclass(frozen=True)
class ChannelScores:
    """Per-channel scores in [0, 1]; None marks an unavailable channel.

    A field may also be an array holding one score per video.
    """

    concept: float | None
    ocr: float | None
    asr: float | None


def load_queries(path, stops=DEFAULT_STOPWORDS) -> list[EventQuery]:
    """Read a JSON array of {"event", "title", "ocr_terms"?, "asr_terms"?}.

    The event id and title are strings and the term fields lists of
    strings; anything else (a null, a number) is rejected with the file and
    the entry's index in the array rather than read as text.
    """
    try:
        with open_utf8(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SemvidError(f"cannot read query file {path}: {exc}")
    if not isinstance(raw, list):
        raise SemvidError("query file must be a JSON array")

    queries = []
    seen = set()
    for index, entry in enumerate(raw):
        where = f"{path} entry {index}"
        if not isinstance(entry, dict) or "event" not in entry or "title" not in entry:
            raise SemvidError(f"{where}: query entry missing event/title: {entry!r}")
        event_id = _string(entry["event"], f"{where}: event id")
        if event_id in seen:
            raise SemvidError(f"{where}: duplicate event id {event_id!r}")
        seen.add(event_id)

        def _terms(key):
            terms = entry.get(key, [])
            if not isinstance(terms, list):
                raise SemvidError(f"{where}: {key} must be a list of strings, got {terms!r}")
            out = []
            for term in terms:
                out.extend(tokenize(_string(term, f"{where}: {key} item"), stops))
            return tuple(out)

        queries.append(
            EventQuery(
                event_id=event_id,
                title_terms=tuple(tokenize(_string(entry["title"], f"{where}: title"), stops)),
                ocr_terms=_terms("ocr_terms"),
                asr_terms=_terms("asr_terms"),
            )
        )
    return queries


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise SemvidError(f"{what} must be a string, got {value!r}")
    return value


def map_cosine(value: float) -> float:
    """Affine map from [-1, 1] to [0, 1]."""
    return (value + 1.0) / 2.0


def map_concept_raw(raw, r: int):
    """Affine map of the concept channel's raw sum (bounded by R) to [0, 1],
    clipped so that rounding in the cosine weights cannot leave the range.
    Works elementwise on arrays."""
    return np.clip((raw / r + 1.0) / 2.0, 0.0, 1.0)


def prepare_text_query(terms, space: EmbeddingSpace, k: int = 5) -> EmbeddedSet:
    """One term list's query set: the one-list case of
    :func:`prepare_text_queries`."""
    return prepare_text_queries([(tuple(terms), k)], space)[0]


def prepare_text_queries(term_lists, space: EmbeddingSpace) -> list[EmbeddedSet]:
    """Embed the channel query terms of each (terms, k) pair,
    expanded with the k nearest vocabulary words to their pooled point (the
    query's own tokens are excluded). The expansions of all pairs are found
    in one table scan (:func:`~semvid.embedding.nearest_words_many`)."""
    bases = [embed_tokens(space, list(terms)) for terms, _ in term_lists]
    expand, points = [], []
    for i, ((terms, k), base) in enumerate(zip(term_lists, bases)):
        if k > 0:
            point = sum_pool(base)
            norm = float(np.linalg.norm(point))
            if norm == 0.0 or not np.isfinite(norm):
                log.warning("text query %s pools to zero norm, skipping augmentation", list(terms))
                continue
            expand.append(i)
            points.append(point)
    found = nearest_words_many(
        space,
        points,
        [term_lists[i][1] for i in expand],
        [set(term_lists[i][0]) | set(bases[i].source_tokens) for i in expand],
    )
    for i, neighbors in zip(expand, found):
        if neighbors:
            base = bases[i]
            extra = np.vstack([space.vector(token) for token, _ in neighbors])
            bases[i] = EmbeddedSet(
                vectors=np.vstack([base.vectors, extra]),
                source_tokens=base.source_tokens + tuple(t for t, _ in neighbors),
                oov=base.oov,
                merges=base.merges,
            )
    return bases


# Bytes of float64 product per block of a text-channel reduction, small
# enough to stay in a core's L2 cache: at 8000 x 300 (one BLAS thread) one
# call took 3.0 ms and blocks of 256-320 rows 2.4 ms.
_TEXT_BLOCK_BYTES = 768 * 1024


def _text_scores(query_set: EmbeddedSet, pooled: np.ndarray, counts: np.ndarray):
    """Text-channel score in [0, 1] of every pooled transcript row, the
    affine map of its mean pairwise cosine with the query set; rows with a
    count of 0 (channel missing) get the neutral 0.5."""
    present = counts > 0
    q_sum = sum_pool(query_set)
    # a fixed-order reduction per row, never a BLAS gemv, so that a score
    # does not depend on the video's row or on the corpus size; the rows are
    # reduced a block at a time, which keeps the product in cache and gives
    # each row the same sum (a corpus of one block makes one call)
    rows = max(1, _TEXT_BLOCK_BYTES // (8 * pooled.shape[1]))
    cross = np.empty(len(pooled))
    for start in range(0, len(pooled), rows):
        block = pooled[start : start + rows]
        np.sum(block * q_sum, axis=1, out=cross[start : start + len(block)])
    cross = np.divide(cross, len(query_set) * counts, out=np.zeros_like(cross), where=present)
    return np.where(present, np.clip(map_cosine(cross), 0.0, 1.0), 0.5)


def fuse(channels: ChannelScores, w: float = 6.0):
    """Weighted geometric mean with emphasis on the concept channel:
    (pc^w * sqrt(po * pa)) ** (1 / (w + 1)).

    An unavailable channel (None) contributes the neutral factor 0.5 (zero
    cosine evidence under the affine map). Channels may be arrays, fused
    elementwise; scalar channels give a float.
    """
    pc, po, pa = (
        np.asarray(0.5 if value is None else value, dtype=np.float64)
        for value in (channels.concept, channels.ocr, channels.asr)
    )
    for value in (pc, po, pa):
        outside = ~((value >= 0.0) & (value <= 1.0))
        if outside.any():
            raise SemvidError(f"channel score {value[outside].flat[0]} outside [0, 1]")
    fused = np.clip((pc**w * np.sqrt(po * pa)) ** (1.0 / (w + 1.0)), 0.0, 1.0)
    fused = np.where((pc == 0.0) | (po == 0.0) | (pa == 0.0), 0.0, fused)
    return float(fused) if fused.ndim == 0 else fused


def _query_sides(queries, space: EmbeddingSpace, repo: ConceptRepository, config):
    """The query side of every event, in event order: the score columns and
    weights of its top-R concepts, and its OCR and ASR query sets.

    Titles are embedded and concepts selected event by event, so the first
    event that cannot be ranked raises what it raises alone. The OCR and
    ASR term lists (the title terms plus each channel's extra terms) are
    then expanded by ``config.augment_k`` words together, each distinct list
    once, in one table scan.
    """
    concepts, terms = [], {}
    for query in queries:
        title = embed_tokens(space, list(query.title_terms))
        concepts.append(top_r_columns(repo, title, config.kernel, config.top_r, config.percentile))
        for extra in (query.ocr_terms, query.asr_terms):
            terms.setdefault(query.title_terms + extra)
    prepared = dict(
        zip(terms, prepare_text_queries([(t, config.augment_k) for t in terms], space))
    )
    return [
        (columns, weights,
         prepared[query.title_terms + query.ocr_terms],
         prepared[query.title_terms + query.asr_terms])
        for query, (columns, weights) in zip(queries, concepts)
    ]


def rank_event(
    query: EventQuery,
    space: EmbeddingSpace,
    repo: ConceptRepository,
    corpus: Corpus,
    config: RetrievalConfig = DEFAULT_CONFIG,
) -> RankedList:
    """Score every corpus video against one event and sort: the one-event
    case of :func:`rank_events`."""
    return rank_events([query], space, repo, corpus, config)[0]


def rank_events(
    queries,
    space: EmbeddingSpace,
    repo: ConceptRepository,
    corpus: Corpus,
    config: RetrievalConfig = DEFAULT_CONFIG,
) -> list[RankedList]:
    """Score every corpus video against each event and sort, in event order.

    ``corpus`` is a :class:`~semvid.videos.Corpus` built with a repository
    of ``len(repo)`` concepts attached to ``space``; anything else raises
    :class:`SemvidError`. The query side of every event is computed first
    (see :func:`_query_sides`): all text-query expansions, OCR and ASR of
    every event, share one float32 scan of the table. Each event's channels
    are then scored for all videos at once, fused, and sorted by
    (-score, video id). The result equals ranking each event on its own.
    """
    if not (
        isinstance(corpus, Corpus) and corpus.space is space and corpus.S.shape[1] == len(repo)
    ):
        raise SemvidError(
            f"rank_events needs a Corpus built for this space and {len(repo)} concepts, "
            f"got {type(corpus).__name__}"
        )
    queries = list(queries)
    if not queries:
        return []
    if not len(corpus):
        raise SemvidError("corpus is empty")
    ranked = []
    for query, (columns, weights, ocr, asr) in zip(
        queries, _query_sides(queries, space, repo, config)
    ):
        raws = kernels.marginal_scores(corpus.S[:, columns], weights)
        channels = ChannelScores(  # a missing text channel scores the neutral 0.5
            concept=map_concept_raw(raws, config.top_r),
            ocr=_text_scores(ocr, corpus.P_ocr, corpus.n_ocr),
            asr=_text_scores(asr, corpus.P_asr, corpus.n_asr),
        )
        fused = fuse(channels, config.fusion_weight)
        order = np.lexsort((corpus.id_rank, -fused))
        ids = corpus.ids
        entries = tuple(zip([ids[i] for i in order], fused[order].tolist()))
        ranked.append(RankedList(event_id=query.event_id, entries=entries))
    return ranked


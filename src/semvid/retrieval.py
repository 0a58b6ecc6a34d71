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
mean pairwise cosine = dot(sum Q, sum T) / (|Q| |T|). Both products are
:func:`~semvid.kernels.row_dots` reductions, so every video's fused score
depends only on the query, the repository and that video's own row, never
on the rest of the corpus or on the video's position in it.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from .concepts import ConceptRepository, top_r_columns
from .config import DEFAULT_CONFIG, RetrievalConfig
from .embedding import EmbeddingSpace, _nearest_rows, _norm, embed_tokens, sum_pool, tokenize
from .errors import SemvidError, checked_sequence, checked_string, read_json_array
from .ranked import RankedList, read_ranked_tsv, tsv_id, write_ranked_tsv  # TSV helpers re-exported
from .stopwords import DEFAULT_STOPWORDS
from .videos import Corpus

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EventQuery:
    """Free-text event query: title terms plus optional per-channel extras,
    each a tuple of strings (a list given as one string is an error)."""

    event_id: str
    title_terms: tuple[str, ...]
    ocr_terms: tuple[str, ...] = ()
    asr_terms: tuple[str, ...] = ()

    def __post_init__(self):
        tsv_id(checked_string(self.event_id, "event id"), "event id")
        for name in ("title_terms", "ocr_terms", "asr_terms"):
            what = f"event {self.event_id!r}: {name}"
            terms = checked_sequence(getattr(self, name), f"{what} must be a sequence")
            object.__setattr__(self, name, tuple(checked_string(t, f"{what} item") for t in terms))
        if not self.title_terms:
            raise SemvidError(f"event {self.event_id!r}: no title terms after stop-word removal")


def load_queries(path, stops=DEFAULT_STOPWORDS) -> list[EventQuery]:
    """Read a JSON array of {"event", "title", "ocr_terms"?, "asr_terms"?}.

    The event id and title are strings and the term fields lists of
    strings; anything else (a null, a number), and a title of stop words
    only, is rejected with the file and the entry's index in the array
    rather than read as text.
    """
    queries = []
    seen = set()
    for index, entry in enumerate(read_json_array(path, "query file")):
        where = f"{path} entry {index}"
        if not isinstance(entry, dict) or "event" not in entry or "title" not in entry:
            raise SemvidError(f"{where}: query entry missing event/title: {entry!r}")

        def _terms(key):
            terms = entry.get(key, [])
            if not isinstance(terms, list):
                raise SemvidError(f"{where}: {key} must be a list of strings, got {terms!r}")
            out = []
            for term in terms:
                out.extend(tokenize(checked_string(term, f"{where}: {key} item"), stops))
            return tuple(out)

        title = tuple(tokenize(checked_string(entry["title"], f"{where}: title"), stops))
        ocr_terms, asr_terms = _terms("ocr_terms"), _terms("asr_terms")
        try:
            query = EventQuery(entry["event"], title, ocr_terms, asr_terms)
        except SemvidError as exc:
            raise SemvidError(f"{where}: {exc}") from None
        if query.event_id in seen:
            raise SemvidError(f"{where}: duplicate event id {query.event_id!r}")
        seen.add(query.event_id)
        queries.append(query)
    return queries


def map_concept_raw(raw, r: int):
    """Affine map of the concept channel's raw sum (bounded by R) to [0, 1],
    clipped so that rounding in the cosine weights cannot leave the range.
    Works elementwise on arrays."""
    return np.clip((raw / r + 1.0) / 2.0, 0.0, 1.0)


def prepare_text_query(terms, space: EmbeddingSpace, k: int = DEFAULT_CONFIG.augment_k):
    """Resolve the channel query terms as
    :func:`~semvid.embedding.embed_tokens` does, expanded with the k
    nearest vocabulary words to their pooled point (the query's own tokens
    are excluded); see :func:`_expansions`. Returns ``(rows, tokens, oov,
    merges)``, whose tokens are the resolved ones followed by the
    neighbours, one per row. ``k`` is an integer >= 0."""
    terms = list(checked_sequence(terms, "text query terms must be a sequence"))
    if not isinstance(k, numbers.Integral) or k < 0:
        raise SemvidError(f"k must be an integer >= 0, got {k!r}")
    [(rows, resolved, oov, merges)] = _expansions([terms], space, k)
    return rows, resolved + space._tokens[rows[len(resolved) :]].tolist(), oov, merges


def _expansions(term_lists, space: EmbeddingSpace, k: int):
    """The resolution :func:`~semvid.embedding.embed_tokens` gives each
    term list, (rows, resolved tokens, OOV words, merges), whose rows are
    then those of the query set: the resolved tokens' rows, then those of
    the k nearest other words to their pooled point, nearest first. The
    terms and the resolved tokens are not neighbours. All lists share one
    table scan (:func:`~semvid.embedding._nearest_rows`)."""
    matrix, index = space._matrix, space._index
    resolutions = [embed_tokens(space, list(terms)) for terms in term_lists]
    found = [rows for rows, *_ in resolutions]
    expand, points, norms = [], [], []
    for i, rows in enumerate(found if k > 0 else ()):
        point = sum_pool(matrix[rows])
        norm = _norm(point)
        if norm == 0.0:
            log.warning("text query %s pools to zero norm, skipping augmentation",
                        list(term_lists[i]))
            continue
        expand.append(i)
        points.append(point)
        norms.append(norm)
    excluded = [{index[t] for t in term_lists[i] if t in index}.union(found[i]) for i in expand]
    near = _nearest_rows(space, points, norms, k, excluded)
    for i, (rows, _) in zip(expand, near):
        found[i] += rows.tolist()  # the resolution's own list
    return resolutions


def _text_scores(query, pooled: np.ndarray, counts: np.ndarray):
    """Text-channel score in [0, 1] of every pooled transcript row, the
    affine map (c + 1) / 2 of its mean pairwise cosine c with the query
    set, given as the (sum, size) pair of its vectors. A row with a count
    of 0 (channel missing) is zero, as every :class:`~semvid.videos.Corpus`
    holds it, so its cosine is 0 and it scores the neutral 0.5."""
    total, size = query
    cross = kernels.row_dots(pooled, total) / (size * np.maximum(counts, 1))
    return ((cross + 1.0) / 2.0).clip(0.0, 1.0)


def fuse(concept, ocr, asr, w: float = DEFAULT_CONFIG.fusion_weight):
    """Weighted geometric mean with emphasis on the concept channel,
    (pc^w * sqrt(po * pa)) ** (1 / (w + 1)), computed in logs:
    exp((w log pc + (log po + log pa) / 2) / (w + 1)).

    No product is formed, so nothing underflows; a channel of 0 has log
    -inf and fuses to 0, and no log is positive, so the result lies in
    [0, 1]. Channels may be arrays, fused elementwise; scalar channels give
    a float. ``w`` is finite and positive, as :class:`RetrievalConfig`
    requires: at w = 0 a zero channel's 0 * -inf would fuse to NaN.
    """
    if not (np.isfinite(w) and w > 0):
        raise SemvidError(f"w must be finite and positive, got {w}")
    channels = [np.asarray(value, dtype=np.float64) for value in (concept, ocr, asr)]
    for value in channels:
        outside = ~((value >= 0.0) & (value <= 1.0))
        if outside.any():
            raise SemvidError(f"channel score {value[outside].flat[0]} outside [0, 1]")
    with np.errstate(divide="ignore"):
        pc, po, pa = (np.log(value) for value in channels)
    return np.exp((w * pc + 0.5 * (po + pa)) / (w + 1.0))


def _query_sides(queries, space: EmbeddingSpace, repo: ConceptRepository, config):
    """The query side of every event, in event order: the score columns and
    weights of its top-R concepts, and its OCR and ASR query sets, each as
    the (sum, size) pair of its vectors.

    Titles are embedded and concepts selected event by event, so the first
    event that cannot be ranked raises what it raises alone. The OCR and
    ASR term lists (the title terms plus each channel's extra terms) are
    then expanded by ``config.augment_k`` words together, each distinct list
    once, in one table scan.
    """
    concepts, terms = [], {}
    for query in queries:
        title = embed_tokens(space, list(query.title_terms))[0]
        concepts.append(top_r_columns(repo, title, config.kernel, config.top_r, config.percentile))
        for extra in (query.ocr_terms, query.asr_terms):
            terms.setdefault(query.title_terms + extra)
    matrix = space._matrix
    prepared = {  # each query set as its (sum, size) pair
        t: (sum_pool(matrix[rows]), len(rows))
        for t, (rows, *_) in zip(terms, _expansions(list(terms), space, config.augment_k))
    }
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

    ``repo`` is embedded in ``space``, and ``corpus`` is a
    :class:`~semvid.videos.Corpus` built with a repository of ``len(repo)``
    concepts embedded in ``space``; anything else raises
    :class:`SemvidError`. The query side of every event is computed first
    (see :func:`_query_sides`): all text-query expansions, OCR and ASR of
    every event, share one float32 scan of the table. Each event's channels
    are then scored for all videos at once, fused, and sorted by
    (-score, video id). The result equals ranking each event on its own.
    An event id given twice raises :class:`SemvidError`, as
    :func:`load_queries` does: a ranked TSV holds each event once.
    """
    if not (isinstance(corpus, Corpus) and corpus.space is space and repo.space is space
            and corpus.S.shape[1] == len(repo)):
        raise SemvidError(
            f"rank_events needs a Corpus built for this space and {len(repo)} concepts, "
            f"and a repository embedded in this space; got a {type(corpus).__name__}"
        )
    queries = list(queries)
    if not queries:
        return []
    seen = set()
    for query in queries:
        if query.event_id in seen:
            raise SemvidError(f"duplicate event id {query.event_id!r}")
        seen.add(query.event_id)
    if not len(corpus):
        raise SemvidError("corpus is empty")
    ids = corpus.id_column
    ranked = []
    for query, (columns, weights, ocr, asr) in zip(
        queries, _query_sides(queries, space, repo, config)
    ):
        raws = kernels.marginal_scores(corpus.S[:, columns], weights)
        fused = fuse(
            map_concept_raw(raws, config.top_r),
            _text_scores(ocr, corpus.P_ocr, corpus.n_ocr),  # a missing transcript scores 0.5
            _text_scores(asr, corpus.P_asr, corpus.n_asr),
            config.fusion_weight,
        )
        # by score descending, ties (NaN included) by id: a stable sort in id order
        order = corpus.id_order[(-fused[corpus.id_order]).argsort(kind="stable")]
        entries = tuple(zip(ids[order].tolist(), fused[order].tolist()))
        ranked.append(RankedList(event_id=query.event_id, entries=entries))
    return ranked

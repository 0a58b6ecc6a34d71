"""Concept vocabulary: definitions, embeddings, and relevance ranking.

A concept is a nameable visual meaning (object, scene or action) backed by
a detector upstream. Here it is just a name plus optional keywords; the
name and keywords are tokenized into one list and embedded together.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .config import DEFAULT_CONFIG
from .embedding import (
    EmbeddedSet,
    EmbeddingSpace,
    _dot_norms,
    _norm,
    _resolve,
    sum_pool,
    tokenize,
)
# not called here: bound so that perfbench's tracer, which wraps
# semvid.concepts.embed_tokens, still finds it
from .embedding import embed_tokens  # noqa: F401
from .errors import ConceptFormatError, NoScoreableConcepts, checked_string, open_utf8
from .kernels import row_dots
from .stopwords import DEFAULT_STOPWORDS

log = logging.getLogger(__name__)

# Bytes of float64 word vectors per block in which a repository gathers its
# concepts' rows from the table and takes their norms.
_BLOCK_BYTES = 1 << 18

KINDS = ("object", "scene", "action")


@dataclass(frozen=True)
class ConceptDefinition:
    """A concept. The id and name are strings, the name not blank, ``kind``
    one of :data:`KINDS` and ``keywords`` a list or tuple of strings, kept
    as a tuple; anything else raises :class:`ConceptFormatError`."""

    id: str
    name: str
    keywords: tuple[str, ...] = ()
    kind: str = "object"

    def __post_init__(self):
        cid = checked_string(self.id, "concept id", ConceptFormatError)
        name = checked_string(self.name, f"concept {cid!r} name", ConceptFormatError)
        if not name.strip():
            raise ConceptFormatError(f"concept {cid!r} has an empty name")
        if self.kind not in KINDS:
            raise ConceptFormatError(f"concept {cid!r} has unknown kind {self.kind!r}")
        if not isinstance(self.keywords, (list, tuple)):
            raise ConceptFormatError(f"concept {cid!r} keywords must be a list, got {self.keywords!r}")
        what = f"concept {cid!r} keyword"
        keywords = tuple(checked_string(k, what, ConceptFormatError) for k in self.keywords)
        object.__setattr__(self, "keywords", keywords)


@dataclass(frozen=True)
class WeightedConcept:
    concept_id: str
    weight: float


class ConceptRepository:
    """Ordered concept list, embedded in ``space`` when one is given.

    Concepts whose tokens all fall outside the vocabulary are kept in the
    list (they still own a score column) but flagged unscoreable and skipped
    by ranking. A repository without a space only maps concept ids to score
    columns, which is all ingest and ``semvid pool`` need; it cannot rank.
    ``space`` and ``stops`` keep what the embeddings were built with, so
    that a corpus can embed its transcripts the same way.
    """

    def __init__(self, concepts: list[ConceptDefinition], space: EmbeddingSpace | None = None,
                 stops=DEFAULT_STOPWORDS):
        """Given a ``space``, embed every concept's tokens and precompute the
        matrices the two kernels rank against: the pooled concept vectors
        with their norms, and all concepts' word vectors stacked with their
        norms."""
        self.concepts = list(concepts)
        self._order = {c.id: i for i, c in enumerate(self.concepts)}
        if len(self._order) != len(self.concepts):
            raise ConceptFormatError("duplicate concept ids")
        self.space, self.stops = space, stops
        # each kernel's scoreable concepts as (score columns, sorted-id ranks)
        self._pooled_index = self._set_index = _id_columns(self, ())
        self.unscoreable: tuple[str, ...] = ()
        if space is None:
            return
        ids, sets, excluded = [], [], []  # sets: each scoreable concept's table rows
        for concept in self.concepts:
            tokens = tokenize(concept.name, stops)
            for keyword in concept.keywords:
                tokens.extend(tokenize(keyword, stops))
            rows = _resolve(space, tokens)[0]  # resolved as embed_tokens resolves them
            if rows:
                ids.append(concept.id)
                sets.append(rows)
            else:
                excluded.append(concept.id)
        self.unscoreable = tuple(excluded)
        if excluded:
            log.warning(
                "%d of %d concepts fully out of vocabulary, excluded from scoring: %s",
                len(excluded), len(self.concepts), excluded,
            )
        sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
        rows = np.fromiter(chain.from_iterable(sets), dtype=np.intp, count=int(sizes.sum()))
        # the word vectors and their norms, a block of rows at a time: a
        # float32 gather of all rows, and norm's squares of all of them,
        # left about 0.8 MB more in use after a 300-concept load
        vectors, norms = np.empty((len(rows), space.dimension)), np.empty(len(rows))
        step = max(1, _BLOCK_BYTES // (8 * space.dimension))
        for start in range(0, len(rows), step):
            block = vectors[start : start + step]
            block[...] = space._matrix[rows[start : start + step]]
            norms[start : start + step] = np.linalg.norm(block, axis=1)  # each row's own

        # pooled kernel: each concept's sum, by one sum_pool call, and the
        # norms of those sums
        pooled = sum_pool(vectors, sizes)
        pooled_norms = _dot_norms(pooled)
        keep = pooled_norms != 0.0
        skipped = [c for c, kept in zip(ids, keep) if not kept]
        if skipped:
            log.warning(
                "%d concepts have a zero-norm pooled vector, skipped by the pooled kernel: %s",
                len(skipped), skipped,
            )
        self._pooled_index = _id_columns(self, [c for c, kept in zip(ids, keep) if kept])
        self._pooled, self._pooled_norms = pooled[keep], pooled_norms[keep]

        # Hausdorff kernel: every concept's word vectors (each a unit row of
        # the space) stacked in concept order with their norms, each
        # concept's first row and word count, and the concept of each row
        self._set_index = _id_columns(self, ids)
        self._set_vectors, self._set_norms = vectors, norms
        self._set_starts, self._set_sizes = np.cumsum(sizes) - sizes, sizes
        self._set_owner = np.repeat(np.arange(len(sizes)), sizes)

    def __len__(self) -> int:
        return len(self.concepts)

    def index_of(self, concept_id: str) -> int:
        try:
            return self._order[concept_id]
        except KeyError:
            raise ConceptFormatError(f"unknown concept id {concept_id!r}")

    def ids(self) -> list[str]:
        return [c.id for c in self.concepts]

    def scoreable_ids(self) -> list[str]:
        unscoreable = set(self.unscoreable)
        return [c.id for c in self.concepts if c.id not in unscoreable]


def _id_columns(repo: ConceptRepository, ids):
    """The score column of each of ``ids`` and its position in sorted id
    order (the integer tie-break key of a concept ranking)."""
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return np.array([repo._order[c] for c in ids], dtype=np.intp), ranks


def lower_percentile_index(percentile: float, sizes):
    """Index ceil(l/100 * n) - 1 (at least 0) of the lower percentile l in
    an ascending sort of n values, for each n in ``sizes``: the value with l
    percent of the entries at or below it, with no interpolation."""
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    return np.maximum(np.ceil(percentile / 100.0 * np.asarray(sizes)).astype(np.intp) - 1, 0)


def load_concepts(path, space: EmbeddingSpace | None = None, stops=DEFAULT_STOPWORDS) -> ConceptRepository:
    """Read a concept repository from a JSON array of
    {"id", "name", "keywords"?, "kind"} objects.

    Each entry is checked as a :class:`ConceptDefinition`; a bad field or a
    repeated id is rejected with the file and the entry's index in the array.
    """
    try:
        with open_utf8(path, ConceptFormatError) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConceptFormatError(f"cannot read concept file {path}: {exc}")
    if not isinstance(raw, list):
        raise ConceptFormatError("concept file must be a JSON array")

    concepts = []
    seen = set()
    for index, entry in enumerate(raw):
        where = f"{path} entry {index}"
        if not isinstance(entry, dict) or "id" not in entry or "name" not in entry:
            raise ConceptFormatError(f"{where}: concept entry missing id/name: {entry!r}")
        try:
            concept = ConceptDefinition(
                **{key: entry[key] for key in ("id", "name", "keywords", "kind") if key in entry}
            )
        except ConceptFormatError as exc:
            raise ConceptFormatError(f"{where}: {exc}") from None
        if concept.id in seen:
            raise ConceptFormatError(f"{where}: duplicate concept id {concept.id!r}")
        seen.add(concept.id)
        concepts.append(concept)

    return ConceptRepository(concepts, space, stops)


def _hausdorff_weights(repo: ConceptRepository, query: EmbeddedSet, percentile: float):
    """Percentile Hausdorff similarity of the query to every concept of
    ``repo._set_index``, all concepts at once.

    One (T, q) table holds the cosine of every concept word (T rows over
    all concepts) with every query word. A row's maximum is that concept
    word's best match; a segment maximum over a concept's rows is each
    query word's best match in that concept. Each direction takes its lower
    percentile from a sort; the concept direction sorts all concept words'
    best matches at once, by value and then stably by concept, so that each
    concept's values lie sorted in its own segment. The weight is the
    smaller of the two.
    """
    Q = query.vectors
    from_query_index = lower_percentile_index(percentile, len(Q))
    q_norms = np.linalg.norm(Q, axis=1)
    cos = row_dots(repo._set_vectors, Q) / np.outer(repo._set_norms, q_norms)

    per_query = np.maximum.reduceat(cos, repo._set_starts, axis=0)
    per_query.sort(axis=1)
    from_query = per_query[:, from_query_index]

    best = cos.max(axis=1)
    order = best.argsort()  # two sorts: np.lexsort((best, owner)) took twice as long
    best = best[order[repo._set_owner[order].argsort(kind="stable")]]
    from_concept = best[repo._set_starts + lower_percentile_index(percentile, repo._set_sizes)]
    return np.minimum(from_query, from_concept)


def _weights(repo: ConceptRepository, query: EmbeddedSet, kernel: str, percentile: float):
    """The score columns of the kernel's scoreable concepts, their
    positions in sorted id order, and their weights."""
    if repo.space is None:
        raise ValueError("the concept repository is not embedded in a space, so it cannot rank")
    if kernel == "pooled":
        pooled = sum_pool(query)
        norm = _norm(pooled)
        if norm == 0.0:
            raise NoScoreableConcepts("query has a zero-norm pooled vector")
        columns, ranks = repo._pooled_index
        if len(columns):
            weights = row_dots(repo._pooled, pooled) / (norm * repo._pooled_norms)
    elif kernel == "hausdorff":
        columns, ranks = repo._set_index
        if len(columns):
            weights = _hausdorff_weights(repo, query, percentile)
    else:
        raise ValueError(f"kernel must be pooled or hausdorff, got {kernel!r}")
    if not len(columns):
        raise NoScoreableConcepts("repository has no scoreable concepts")
    return columns, ranks, weights


def rank_concepts(
    repo: ConceptRepository,
    query: EmbeddedSet,
    kernel: str = DEFAULT_CONFIG.kernel,
    percentile: float = DEFAULT_CONFIG.percentile,
) -> list[WeightedConcept]:
    """Weight every scoreable concept by its similarity to the query.

    Sorted by weight descending, ties by id ascending, NaN weights last:
    :func:`top_r_columns` with R the number of concepts, each score column
    named by its concept id. Both kernels rank against matrices built by
    the :class:`ConceptRepository` constructor. The pooled kernel is one row
    reduction against the pooled concept matrix, and leaves out concepts
    whose pooled vector has zero norm. The Hausdorff kernel scores every
    concept at once (see :func:`_hausdorff_weights`), bit for bit equal to
    :func:`semvid.similarity.sim_hausdorff` per concept when the concept
    and the query each have two or more words; every word vector of a
    space has unit norm, so it leaves no concept out. Every dot product is a
    :func:`~semvid.kernels.row_dots` reduction over one concept row, so a
    weight depends only on the query and that concept.
    """
    # R >= 1 even for an empty repository, which raises NoScoreableConcepts
    columns, weights = top_r_columns(repo, query, kernel, max(len(repo), 1), percentile)
    return [
        WeightedConcept(repo.concepts[c].id, w) for c, w in zip(columns.tolist(), weights.tolist())
    ]


def top_r_columns(
    repo: ConceptRepository,
    query: EmbeddedSet,
    kernel: str,
    r: int,
    percentile: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Score columns and weights of the ``r`` most relevant concepts, as
    arrays, with no per-concept objects; concepts outside them count as zero
    weight downstream. Sorted by weight descending, ties by id ascending,
    NaN weights last. Only the concepts that tie with the r-th weight or
    beat it are sorted."""
    if r < 1:
        raise ValueError("R must be >= 1")
    columns, ranks, weights = _weights(repo, query, kernel, percentile)
    negated = -weights
    last = min(r, len(weights)) - 1
    kth = np.partition(negated, last)[last]
    # NaN weights sort last; a NaN r-th weight keeps every concept
    near = np.flatnonzero(~(negated > kth))
    top = near[np.lexsort((ranks[near], negated[near]))[:r]]
    return columns[top], weights[top]

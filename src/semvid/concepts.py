"""Concept vocabulary: definitions, embeddings, and relevance ranking.

A concept is a nameable visual meaning (object, scene or action) backed by
a detector upstream. Here it is just a name plus optional keywords; the
name and keywords are tokenized into one list and embedded together.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddedSet, EmbeddingSpace, embed_tokens, sum_pool, tokenize
from .errors import AllTokensOOV, ConceptFormatError, NoScoreableConcepts, ZeroNormError
from .similarity import sim_hausdorff
from .stopwords import DEFAULT_STOPWORDS

log = logging.getLogger(__name__)

KINDS = ("object", "scene", "action")


@dataclass(frozen=True)
class ConceptDefinition:
    id: str
    name: str
    keywords: tuple[str, ...] = ()
    kind: str = "object"


@dataclass(frozen=True)
class WeightedConcept:
    concept_id: str
    weight: float


class ConceptRepository:
    """Ordered concept list with cached embeddings.

    Concepts whose tokens all fall outside the vocabulary are kept in the
    list (they still own a score column) but flagged unscoreable and skipped
    by ranking. Immutable once embeddings are attached; ``space`` and
    ``stops`` keep what the embeddings were built with, so that a corpus can
    embed its transcripts the same way.
    """

    def __init__(self, concepts: list[ConceptDefinition]):
        self.concepts = list(concepts)
        self._order = {c.id: i for i, c in enumerate(self.concepts)}
        if len(self._order) != len(self.concepts):
            raise ConceptFormatError("duplicate concept ids")
        self._embedded: dict[str, EmbeddedSet] = {}
        self.unscoreable: tuple[str, ...] = ()
        self.space: EmbeddingSpace | None = None
        self.stops: frozenset[str] = DEFAULT_STOPWORDS
        # pooled-kernel columns: ids, summed vectors and their norms
        self._pooled_ids: tuple[str, ...] = ()
        self._pooled = np.zeros((0, 0))
        self._pooled_norms = np.zeros(0)

    def __len__(self) -> int:
        return len(self.concepts)

    def index_of(self, concept_id: str) -> int:
        try:
            return self._order[concept_id]
        except KeyError:
            raise ConceptFormatError(f"unknown concept id {concept_id!r}")

    def ids(self) -> list[str]:
        return [c.id for c in self.concepts]

    def embedded_set(self, concept_id: str) -> EmbeddedSet | None:
        return self._embedded.get(concept_id)

    def attach_space(self, space: EmbeddingSpace, stops=DEFAULT_STOPWORDS) -> None:
        """Precompute every concept's embedded token set and the pooled
        concept matrix the pooled kernel ranks against."""
        excluded = []
        for concept in self.concepts:
            tokens = tokenize(concept.name, stops)
            for keyword in concept.keywords:
                tokens.extend(tokenize(keyword, stops))
            try:
                self._embedded[concept.id] = embed_tokens(space, tokens)
            except AllTokensOOV:
                excluded.append(concept.id)
        self.unscoreable = tuple(excluded)
        self.space, self.stops = space, stops
        if excluded:
            log.warning(
                "%d of %d concepts fully out of vocabulary, excluded from scoring: %s",
                len(excluded), len(self.concepts), excluded,
            )

        ids, pooled, norms, degenerate = [], [], [], []
        for concept_id in self.scoreable_ids():
            vector = sum_pool(self._embedded[concept_id])
            norm = float(np.linalg.norm(vector))
            if norm == 0.0:
                degenerate.append(concept_id)
                continue
            ids.append(concept_id)
            pooled.append(vector)
            norms.append(norm)
        if degenerate:
            log.warning(
                "%d concepts have a zero-norm pooled vector, skipped by the pooled kernel: %s",
                len(degenerate), degenerate,
            )
        self._pooled_ids = tuple(ids)
        self._pooled = np.vstack(pooled) if pooled else np.zeros((0, space.dimension))
        self._pooled_norms = np.array(norms, dtype=np.float64)

    def scoreable_ids(self) -> list[str]:
        return [c.id for c in self.concepts if c.id in self._embedded]


def load_concepts(path, space: EmbeddingSpace | None = None, stops=DEFAULT_STOPWORDS) -> ConceptRepository:
    """Read a concept repository from a JSON array of
    {"id", "name", "keywords"?, "kind"} objects."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConceptFormatError(f"cannot read concept file {path}: {exc}")
    if not isinstance(raw, list):
        raise ConceptFormatError("concept file must be a JSON array")

    concepts = []
    seen = set()
    for entry in raw:
        if not isinstance(entry, dict) or "id" not in entry or "name" not in entry:
            raise ConceptFormatError(f"concept entry missing id/name: {entry!r}")
        cid = str(entry["id"])
        if cid in seen:
            raise ConceptFormatError(f"duplicate concept id {cid!r}")
        seen.add(cid)
        name = str(entry["name"])
        if not name.strip():
            raise ConceptFormatError(f"concept {cid!r} has an empty name")
        kind = entry.get("kind", "object")
        if kind not in KINDS:
            raise ConceptFormatError(f"concept {cid!r} has unknown kind {kind!r}")
        keywords = tuple(str(k) for k in entry.get("keywords", ()))
        concepts.append(ConceptDefinition(id=cid, name=name, keywords=keywords, kind=kind))

    repo = ConceptRepository(concepts)
    if space is not None:
        repo.attach_space(space, stops)
    return repo


def rank_concepts(
    repo: ConceptRepository,
    query: EmbeddedSet,
    kernel: str = "pooled",
    percentile: float = 50.0,
) -> list[WeightedConcept]:
    """Weight every scoreable concept by its similarity to the query.

    Sorted by weight descending, ties by id ascending; deterministic for
    identical inputs. The pooled kernel is one row reduction against the
    pooled concept matrix built by ``attach_space``, which leaves out
    concepts whose pooled vector has zero norm.
    """
    if kernel == "pooled":
        pooled = sum_pool(query)
        norm = float(np.linalg.norm(pooled))
        if norm == 0.0:
            raise NoScoreableConcepts("query has a zero-norm pooled vector")
        weighted = []
        if repo._pooled_ids:
            # a fixed-order reduction per row, never a BLAS gemv, so that a
            # weight does not depend on the concept's row or the row count
            weights = (repo._pooled * pooled).sum(axis=1) / (norm * repo._pooled_norms)
            weighted = [WeightedConcept(c, w) for c, w in zip(repo._pooled_ids, weights.tolist())]
    elif kernel == "hausdorff":
        weighted = []
        for concept_id in repo.scoreable_ids():
            cset = repo.embedded_set(concept_id)
            try:
                weighted.append(
                    WeightedConcept(concept_id, sim_hausdorff(query, cset, percentile))
                )
            except ZeroNormError:
                log.warning("concept %r has a zero-norm vector set, skipped", concept_id)
    else:
        raise ValueError(f"kernel must be pooled or hausdorff, got {kernel!r}")
    if not weighted:
        raise NoScoreableConcepts("repository has no scoreable concepts")
    weighted.sort(key=lambda w: (-w.weight, w.concept_id))
    return weighted


def top_r(ranked: list[WeightedConcept], r: int) -> list[WeightedConcept]:
    """Prefix of the ranked list; concepts outside it count as zero weight
    downstream."""
    if r < 1:
        raise ValueError("R must be >= 1")
    return ranked[: min(r, len(ranked))]

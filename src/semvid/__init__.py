"""semvid: zero-shot video event retrieval in a word-vector space.

Free-text event queries, concept vocabularies and multimodal video
evidence (pooled concept-detector scores, OCR text, ASR text) are embedded
into one distributional-semantic space; videos are ranked by fused channel
similarities without any training exemplars.

The public names below are imported on first use (PEP 562), so that
``import semvid`` and a command that needs no numpy do not load it.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "concepts": (
            "ConceptDefinition", "ConceptRepository", "WeightedConcept", "load_concepts",
            "rank_concepts",
        ),
        "config": ("DEFAULT_CONFIG", "RetrievalConfig"),
        "embedding": (
            "EmbeddingSpace", "embed_tokens", "load_embeddings", "nearest_words", "pool_texts",
            "save_embeddings", "sum_pool", "tokenize",
        ),
        "errors": (
            "AllTokensOOV", "ConceptFormatError", "EmbeddingFormatError", "EvaluationError",
            "IngestError", "NoScoreableConcepts", "SemvidError", "ZeroNormError",
        ),
        "evaluation": (
            "EvaluationReport", "GroundTruth", "average_precision", "evaluate", "load_truth",
            "roc_auc",
        ),
        "ranked": ("RankedList",),
        "retrieval": (
            "EventQuery", "fuse", "load_queries", "rank_event", "rank_events",
        ),
        "similarity": ("sim_crosssum", "sim_hausdorff", "sim_pooled"),
        "stopwords": ("DEFAULT_STOPWORDS", "load_stopwords"),
        "videos": ("Corpus", "load_corpus"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

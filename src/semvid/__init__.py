"""semvid: zero-shot video event retrieval in a word-vector space.

Free-text event queries, concept vocabularies and multimodal video
evidence (pooled concept-detector scores, OCR text, ASR text) are embedded
into one distributional-semantic space; videos are ranked by fused channel
similarities without any training exemplars.
"""

from .concepts import (
    ConceptDefinition,
    ConceptRepository,
    WeightedConcept,
    load_concepts,
    rank_concepts,
    top_r,
)
from .config import DEFAULT_CONFIG, RetrievalConfig
from .embedding import (
    EmbeddedSet,
    EmbeddingSpace,
    embed_tokens,
    load_embeddings,
    nearest_words,
    pool_texts,
    save_embeddings,
    sum_pool,
    tokenize,
)
from .errors import (
    AllTokensOOV,
    ConceptFormatError,
    EmbeddingFormatError,
    EvaluationError,
    IngestError,
    NoScoreableConcepts,
    SemvidError,
    ZeroNormError,
)
from .evaluation import (
    EvaluationReport,
    GroundTruth,
    average_precision,
    evaluate,
    load_truth,
    roc_auc,
)
from .retrieval import (
    ChannelScores,
    EventQuery,
    RankedList,
    embed_video_fastpath,
    fuse,
    load_queries,
    rank_event,
    rank_events,
    score_concept_channel,
    score_matching_baseline,
    score_text_channel,
)
from .similarity import sim_crosssum, sim_hausdorff, sim_pooled
from .stopwords import DEFAULT_STOPWORDS, load_stopwords
from .videos import Corpus, ScoreTrack, VideoRecord, build_video_record, load_corpus, pool

__version__ = "0.1.0"

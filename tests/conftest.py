import numpy as np
import pytest

import semvid.retrieval as retrieval
from semvid.embedding import load_embeddings, pool_texts, sum_pool
from semvid.stopwords import DEFAULT_STOPWORDS
from semvid.synth import random_space


@pytest.fixture
def tiny_space(tmp_path):
    """Two-word table: a=(1,0,0) as-is, b=(0,2,0) normalized at load."""
    path = tmp_path / "tiny.txt"
    path.write_text("2 3\na 1 0 0\nb 0 2 0\n", encoding="utf-8")
    return load_embeddings(path)


@pytest.fixture
def space50():
    return random_space(np.random.default_rng(1234), 50, 8)


@pytest.fixture
def text_channel():
    """The OCR/ASR channel score of one transcript for a term list, made of
    the pieces ``rank_events`` scores a channel with: the expanded query
    set as its (sum, size) pair, the pooled transcript and the channel
    reduction. A transcript with no in-vocabulary word scores the neutral
    0.5; a query with none raises AllTokensOOV."""
    def score(terms, transcript, space, k=5, stops=DEFAULT_STOPWORDS):
        rows = retrieval.prepare_text_query(terms, space, k)[0]
        pooled, counts = pool_texts(space, [transcript], stops)
        pair = (sum_pool(space._matrix[rows]), len(rows))
        return float(retrieval._text_scores(pair, pooled, counts)[0])

    return score

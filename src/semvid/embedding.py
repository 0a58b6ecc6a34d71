"""Word-vector table: loading, token embedding, pooling, nearest-word search.

The table maps each vocabulary token to a dense vector of fixed dimension.
Vectors are brought to unit L2 norm at load time (entries already within
1e-6 of unit length are kept bit-for-bit, which makes save/load a fixpoint).
Rows are stored as float32, the word2vec convention; all similarity math
downstream runs in float64.

An ``EmbeddingSpace`` is immutable after loading: lookups and scans are
read-only and safe to call from multiple threads.
"""

from __future__ import annotations

import logging
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import AllTokensOOV, EmbeddingFormatError, ZeroNormError
from .stopwords import DEFAULT_STOPWORDS

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Stored norms may drift from 1.0 by float32 rounding; anything inside this
# band is treated as already normalized.
_UNIT_TOL = 1e-6


@dataclass(frozen=True)
class EmbeddedSet:
    """An ordered bag of word vectors plus the tokens that produced them.

    ``oov`` lists input tokens that resolved to nothing and ``merges`` counts
    adjacent bigrams folded into a single phrase entry, so that
    ``len(set) + len(oov) + merges == len(input tokens)``.
    """

    vectors: np.ndarray  # (n, dim) float64
    source_tokens: tuple[str, ...]
    oov: tuple[str, ...] = ()
    merges: int = 0

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def pooled(self) -> np.ndarray:
        """Component-wise sum of the member vectors (not renormalized)."""
        return sum_pool(self)


class EmbeddingSpace:
    """Immutable token -> unit-vector table with exhaustive k-NN search."""

    def __init__(self, tokens: list[str], matrix: np.ndarray, duplicates: int = 0):
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise EmbeddingFormatError("token list and matrix row count disagree")
        self.dimension = int(matrix.shape[1])
        self._tokens = np.asarray(tokens, dtype=object)
        self._matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        self._norms = np.linalg.norm(self._matrix.astype(np.float64), axis=1)
        self._index = {t: i for i, t in enumerate(tokens)}
        self.duplicates = duplicates

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def tokens(self) -> list[str]:
        return list(self._tokens)

    def get(self, token: str) -> np.ndarray | None:
        """Vector for ``token`` as float64, or None when out of vocabulary."""
        row = self._index.get(token)
        if row is None:
            return None
        return self._matrix[row].astype(np.float64)

    def vector(self, token: str) -> np.ndarray:
        vec = self.get(token)
        if vec is None:
            raise KeyError(f"token {token!r} not in vocabulary")
        return vec


def _normalize_rows(tokens, rows):
    """Unit-normalize parsed rows; reject zero norms, keep near-unit rows."""
    matrix = np.empty((len(rows), rows[0].shape[0]), dtype=np.float32)
    for i, row in enumerate(rows):
        norm = float(np.linalg.norm(row))
        if not np.isfinite(norm) or norm == 0.0:
            raise EmbeddingFormatError(f"zero-norm vector for token {tokens[i]!r}")
        if abs(norm - 1.0) > _UNIT_TOL:
            row = row / norm
        matrix[i] = row.astype(np.float32)
    return matrix


def _parse_header(line: str):
    parts = line.split()
    if len(parts) != 2:
        raise EmbeddingFormatError(f"malformed header {line.strip()!r}, expected 'V M'")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise EmbeddingFormatError(f"malformed header {line.strip()!r}, expected two integers")
    if count <= 0 or dim <= 0:
        raise EmbeddingFormatError(f"header counts must be positive, got {count} {dim}")
    return count, dim


def _dedupe(tokens, rows):
    seen = {}
    out_tokens, out_rows, dups = [], [], 0
    for token, row in zip(tokens, rows):
        if token in seen:
            dups += 1
            continue
        seen[token] = True
        out_tokens.append(token)
        out_rows.append(row)
    if dups:
        log.warning("embedding file: %d duplicate tokens dropped (first kept)", dups)
    return out_tokens, out_rows, dups


def load_embeddings(path, fmt: str = "text") -> EmbeddingSpace:
    """Load a word-vector table.

    Text: header line ``V M`` then V lines ``token f_1 .. f_M``.
    Binary: ASCII header line, then per entry the token, a space, M packed
    little-endian float32 values and an optional newline.
    """
    if fmt == "text":
        tokens, rows = _read_text(path)
    elif fmt == "binary":
        tokens, rows = _read_binary(path)
    else:
        raise EmbeddingFormatError(f"unknown embedding format {fmt!r}")
    tokens, rows, dups = _dedupe(tokens, rows)
    return EmbeddingSpace(tokens, _normalize_rows(tokens, rows), duplicates=dups)


def _read_text(path):
    with open(path, encoding="utf-8") as fh:
        count, dim = _parse_header(fh.readline())
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
                values = np.array([float(p) for p in parts[1:]], dtype=np.float64)
            except ValueError:
                raise EmbeddingFormatError(f"non-numeric value at row {lineno}")
            tokens.append(parts[0])
            rows.append(values)
    if len(tokens) != count:
        raise EmbeddingFormatError(f"header declared {count} entries, file has {len(tokens)}")
    return tokens, rows


def _read_binary(path):
    with open(path, "rb") as fh:
        header = b""
        while not header.endswith(b"\n"):
            byte = fh.read(1)
            if not byte:
                raise EmbeddingFormatError("unexpected end of file in header")
            header += byte
        count, dim = _parse_header(header.decode("utf-8"))
        width = 4 * dim
        tokens, rows = [], []
        for row in range(count):
            token = b""
            while True:
                byte = fh.read(1)
                if not byte:
                    raise EmbeddingFormatError(f"unexpected end of file at row {row + 1}")
                if byte == b" ":
                    break
                if byte == b"\n" and not token:
                    continue  # writer convention: newline after each vector
                token += byte
            packed = fh.read(width)
            if len(packed) != width:
                raise EmbeddingFormatError(
                    f"dimension mismatch at row {row + 1}: expected {dim} float32 values"
                )
            values = np.frombuffer(packed, dtype="<f4").astype(np.float64)
            tokens.append(token.decode("utf-8"))
            rows.append(values)
    return tokens, rows


def save_embeddings(space: EmbeddingSpace, path, fmt: str = "text") -> None:
    """Write the table back out; text mode uses 9 significant digits, which
    round-trips the stored float32 values exactly."""
    tokens = space.tokens()
    if fmt == "text":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{len(space)} {space.dimension}\n")
            for i, token in enumerate(tokens):
                row = space._matrix[i]
                fh.write(token + " " + " ".join(format(float(v), ".9g") for v in row) + "\n")
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(f"{len(space)} {space.dimension}\n".encode("utf-8"))
            for i, token in enumerate(tokens):
                fh.write(token.encode("utf-8") + b" ")
                fh.write(struct.pack(f"<{space.dimension}f", *space._matrix[i]))
                fh.write(b"\n")
    else:
        raise EmbeddingFormatError(f"unknown embedding format {fmt!r}")


def tokenize(text: str, stops: frozenset[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop stop words.

    Pure string processing; phrase lookup against the vocabulary happens in
    :func:`embed_tokens`, which needs the table.
    """
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in stops]


def _resolve(space: EmbeddingSpace, tokens: list[str]):
    """Greedy left-to-right resolution of tokens to table rows.

    Returns (rows, resolved tokens, oov tokens, merges); see embed_tokens.
    """
    index = space._index
    rows: list[int] = []
    resolved: list[str] = []
    oov: list[str] = []
    merges = 0
    i = 0
    while i < len(tokens):
        if i + 1 < len(tokens):
            joined = tokens[i] + "_" + tokens[i + 1]
            row = index.get(joined)
            if row is not None:
                rows.append(row)
                resolved.append(joined)
                merges += 1
                i += 2
                continue
        row = index.get(tokens[i])
        if row is None:
            oov.append(tokens[i])
        else:
            rows.append(row)
            resolved.append(tokens[i])
        i += 1
    return rows, resolved, oov, merges


def embed_tokens(space: EmbeddingSpace, tokens: list[str]) -> EmbeddedSet:
    """Resolve tokens against the table, folding adjacent bigrams first.

    A greedy left-to-right pass tries the underscore-joined form of each
    adjacent pair (GoogleNews-style phrase entries) and falls back to the
    single token. Unresolvable tokens are skipped and reported on the
    returned set; when nothing resolves, raises :class:`AllTokensOOV`.
    """
    rows, resolved, oov, merges = _resolve(space, tokens)
    if not rows:
        raise AllTokensOOV(tokens)
    if oov:
        log.debug("embed_tokens: %d tokens out of vocabulary: %s", len(oov), oov)
    return EmbeddedSet(
        vectors=space._matrix[rows].astype(np.float64),
        source_tokens=tuple(resolved),
        oov=tuple(oov),
        merges=merges,
    )


def pool_texts(space: EmbeddingSpace, texts, stops: frozenset[str] = DEFAULT_STOPWORDS):
    """Sum-pool each text's word vectors, resolved as by :func:`embed_tokens`.

    Returns ``(pooled, counts)``: a (len(texts), dim) float64 matrix whose row
    i is the sum of text i's resolved vectors, and the number of vectors in
    that sum. A count of 0 marks a text that is empty or fully out of
    vocabulary; its row is zero. Each row is summed in token order, so it
    depends on its own text only.
    """
    pooled = np.zeros((len(texts), space.dimension), dtype=np.float64)
    counts = np.zeros(len(texts), dtype=np.int64)
    for i, text in enumerate(texts):
        rows = _resolve(space, tokenize(text, stops))[0]
        if rows:
            counts[i] = len(rows)
            np.add.reduce(space._matrix[rows], axis=0, dtype=np.float64, out=pooled[i])
    return pooled, counts


def sum_pool(embedded: EmbeddedSet | np.ndarray) -> np.ndarray:
    """Component-wise sum of a vector set; the result is not renormalized."""
    vectors = embedded.vectors if isinstance(embedded, EmbeddedSet) else np.asarray(embedded)
    if vectors.shape[0] == 0:
        raise ZeroNormError("cannot pool an empty vector set")
    return vectors.sum(axis=0, dtype=np.float64)


def nearest_words(
    space: EmbeddingSpace,
    point: np.ndarray,
    k: int,
    exclude: frozenset[str] | set[str] = frozenset(),
) -> list[tuple[str, float]]:
    """Top-k vocabulary tokens by cosine to ``point``, descending.

    Exhaustive scan; ties break lexicographically. Excluded tokens are
    removed before selection.
    """
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (space.dimension,):
        raise ZeroNormError(f"point dimension {point.shape} != ({space.dimension},)")
    if k < 1:
        raise ValueError("k must be >= 1")
    norm = float(np.linalg.norm(point))
    if norm == 0.0:
        raise ZeroNormError("cannot search neighbors of a zero-norm point")

    # Scan in float64; cast the float32 rows in blocks to bound memory.
    sims = np.empty(len(space), dtype=np.float64)
    block = 1 << 18
    for start in range(0, len(space), block):
        stop = min(start + block, len(space))
        sims[start:stop] = space._matrix[start:stop].astype(np.float64) @ point
    sims /= space._norms * norm
    if exclude:
        keep = np.array([t not in exclude for t in space._tokens], dtype=bool)
        sims = sims[keep]
        tokens = space._tokens[keep]
    else:
        tokens = space._tokens
    order = np.lexsort((tokens, -sims))[: min(k, sims.shape[0])]
    return [(str(tokens[i]), float(sims[i])) for i in order]

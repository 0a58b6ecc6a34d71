"""Word-vector table: loading, token embedding, pooling, nearest-word search.

The table maps each vocabulary token to a dense vector of fixed dimension.
Vectors are brought to unit L2 norm at load time and when a space is built
in code (entries already within 1e-6 of unit length are kept bit-for-bit,
which makes save/load a fixpoint); a zero-norm vector is rejected.
Rows are stored as float32, the word2vec convention; all similarity math
downstream runs in float64.

An ``EmbeddingSpace`` is immutable after loading: lookups and scans are
read-only and safe to call from multiple threads.
"""

from __future__ import annotations

import logging
import math
import os
import re
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AllTokensOOV, EmbeddingFormatError, ZeroNormError, checked_sequence, open_utf8
from .kernels import row_dots
from .stopwords import DEFAULT_STOPWORDS

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Stored norms may drift from 1.0 by float32 rounding; anything inside this
# band is treated as already normalized.
_UNIT_TOL = 1e-6

# Unit roundoff of float32 (see _nearest_rows).
_U32 = 2.0**-24

# Bytes of candidate scores per block of the nearest-word scan: a block has
# fewer rows the more points share the scan, so its temporaries keep this
# size at any vocabulary size (21k rows for one point). At 100k x 300, 37
# points scan about 7% slower than with 1 MiB blocks; with 1 MiB blocks, a
# 25-event ranking over a 5000-word table often peaked 1 MB higher in RSS.
_SCAN_BYTES = 1 << 18

# Multiply-adds per row tile of a scan block's float32 product, and the
# point counts whose product runs in such tiles: OpenBLAS takes its
# small-matrix path for a product of under 10**6 multiply-adds, which is
# faster for a few points. At 16000 x 300 (OpenBLAS 0.3.31, one thread),
# a product took 579 / 1129 / 1514 / 1126 / 1223 / 1374 / 2915 us for
# 1 / 2 / 3 / 4 / 8 / 16 / 37 points as one call and 623 / 562 / 768 /
# 591 / 924 / 1312 / 2846 us in tiles; one point is a gemv, slower in
# tiles, and the gain fades beyond 8 points.
_TILE_MADDS = 1 << 19
_TILED_POINTS = range(2, 9)

# Lines per np.loadtxt call of the text reader. At dim 300, 256 lines parse
# as fast as 1024 and hold a quarter of the text and float64 rows: the
# 3000-word perfbench table loads at a 38 MB peak against 48 MB.
_TEXT_LINES = 256

# Bytes per read of the binary reader, which copies each chunk's vectors
# into the matrix, and about the size of the blocks in which the binary load
# dedupes and normalizes the matrix in place: the load holds one copy of the
# table and temporaries of a few times this size.
_READ_BYTES = 1 << 20

# Bytes of float64 sums per block of sets that one sum_pool call pools
# together (54 sets at dim 300): a step of the block gathers one row per
# set, so its temporaries stay this size however many sets there are.
# 32000 sets of 2-22 rows pool in 221 ms with these blocks, 197 ms with
# 256 KiB and 311 ms with 64 KiB blocks, but 256 KiB blocks raised the peak
# RSS of a vocab_scan ranking by about 0.2 MB.
_POOL_BYTES = 1 << 17


def _dot_norms(block: np.ndarray) -> np.ndarray:
    """L2 norm of each row of a float64 block. Each is the BLAS dot of the
    row with itself, the value ``np.linalg.norm`` gives for the row alone.
    A norm that overflows is inf, which the loaders reject, without a
    warning."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.matmul(block[:, None, :], block[:, :, None])[:, 0, 0])


def _norm(vector: np.ndarray) -> float:
    """``np.linalg.norm`` of a float64 vector, bit for bit, without its
    Python wrapper: the square root of the vector's dot with itself."""
    return math.sqrt(vector.dot(vector))


@dataclass(frozen=True)
class EmbeddedSet:
    """An ordered bag of word vectors plus the tokens that produced them.

    ``oov`` lists input tokens that resolved to nothing and ``merges`` counts
    adjacent bigrams folded into a single phrase entry, so that
    ``len(set) + len(oov) + merges == len(input tokens)``.

    ``vectors`` must be a non-empty 2-D array whose every row has a finite,
    nonzero norm, as every set of table rows has; anything else raises
    :class:`ZeroNormError`, so that no kernel divides by a zero norm.
    """

    vectors: np.ndarray  # (n, dim) float64
    source_tokens: tuple[str, ...]
    oov: tuple[str, ...] = ()
    merges: int = 0

    def __post_init__(self):
        vectors = self.vectors
        if not (isinstance(vectors, np.ndarray) and vectors.ndim == 2 and len(vectors)
                and 0.0 < _dot_norms(vectors.astype(np.float64, copy=False)).min() < np.inf):
            raise ZeroNormError("an embedded set needs rows of finite, nonzero norm")

    def __len__(self) -> int:
        return self.vectors.shape[0]


class EmbeddingSpace:
    """Immutable token -> unit-vector table with exhaustive k-NN search."""

    def __init__(self, tokens: list[str], matrix: np.ndarray):
        """A space over a float32 copy of ``matrix``, one row per token, with
        its rows unit-normalized as the loaders normalize a table's rows: a
        row within 1e-6 of unit length is kept bit for bit, another is
        divided by its norm. A matrix without rows or columns, a token given
        twice (the loaders keep a token's first row and count the rest in
        ``duplicates``) and a row of zero or non-finite norm are each an
        :class:`EmbeddingFormatError`, and so are tokens given as one string
        and a matrix that is ragged or not numeric."""
        checked_sequence(tokens, "tokens must be a sequence", EmbeddingFormatError)
        try:
            matrix = np.array(matrix, dtype=np.float32, order="C")
        except (TypeError, ValueError) as exc:  # ragged rows, or a value that is no number
            raise EmbeddingFormatError(f"matrix is not a matrix of numbers: {exc}") from None
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise EmbeddingFormatError("token list and matrix row count disagree")
        if matrix.shape[1] == 0:
            raise EmbeddingFormatError("vector dimension must be positive, got 0")
        if matrix.shape[0] == 0:  # as a loader's header count must be
            raise EmbeddingFormatError("a table needs at least one token")
        index = dict(zip(tokens, range(len(tokens))))
        if len(index) < len(tokens):
            first: dict[str, int] = {}
            for row, token in enumerate(tokens):
                if first.setdefault(token, row) != row:
                    raise EmbeddingFormatError(
                        f"token {token!r} repeated at rows {first[token]} and {row}"
                    )
        self._setup(tokens, matrix, _normalize_rows(matrix), index, 0)

    @classmethod
    def _loaded(cls, tokens, matrix, norms, index, duplicates):
        """A space from a loader: a C-contiguous float32 matrix of unit
        rows, the float64 norm of each of its rows and the token -> row
        dict, taken as they are instead of computed again."""
        space = cls.__new__(cls)
        space._setup(tokens, matrix, norms, index, duplicates)
        return space

    def _setup(self, tokens, matrix, norms, index, duplicates):
        """Take the parts of a space; reject its first row whose norm is
        zero, or not finite (a NaN or infinite value, or a norm that
        overflows)."""
        bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
        if len(bad):
            what = "zero-norm" if norms[bad[0]] == 0.0 else "non-finite"
            raise EmbeddingFormatError(f"{what} vector for token {tokens[bad[0]]!r}")
        self.dimension = int(matrix.shape[1])
        self._tokens = np.asarray(tokens, dtype=object)
        self._matrix = matrix
        self._norms = norms
        self._inv_norms = 1.0 / norms
        self._index = index
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


def _normalize_block(block: np.ndarray, out: np.ndarray, norms: np.ndarray, exact: bool):
    """Unit-normalize a float64 block of rows into the float32 ``out``, and
    write the float64 norm of each row of ``out`` into ``norms``.

    The block takes its norms in one pass (see :func:`_dot_norms`); a row off
    unit length is divided by its norm in float64 and rounded to float32
    once, a near-unit row is kept bit-for-bit. When the block is ``exact``,
    the float64 copy of ``out`` itself, a kept row and its norm are already
    those of the stored row, so a block without rescaled rows is not
    written back. A row whose norm is zero or not finite keeps such a norm,
    for :class:`EmbeddingSpace` to reject; if written, it is written as
    zeros.
    """
    norms[...] = _dot_norms(block)
    bad = ~np.isfinite(norms) | (norms == 0.0)
    off = ~bad & (np.abs(norms - 1.0) > _UNIT_TOL)
    if off.any():
        block /= np.where(off, norms, 1.0)[:, None]  # a division by 1.0 changes nothing
    elif exact:
        return
    bad_norms = norms[bad]
    block[bad] = 0.0  # no float32 overflow in the cast below
    out[...] = block  # in an exact block, a kept row rounds back to itself
    np.copyto(block, out)
    norms[...] = _dot_norms(block)
    norms[bad] = bad_norms


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Unit-normalize a float32 matrix in place, as an exact block (see
    :func:`_normalize_block`) of about ``_READ_BYTES`` of float64 at a
    time, and return the float64 norms of its stored rows."""
    norms = np.empty(len(matrix), dtype=np.float64)
    step = max(1, _READ_BYTES // (8 * matrix.shape[1]))
    for start in range(0, len(matrix), step):
        part = matrix[start : start + step]
        _normalize_block(part.astype(np.float64), part, norms[start : start + step], True)
    return norms


def _grow(matrix: np.ndarray, end: int, cap: int | None = None) -> None:
    """Give ``matrix`` room for ``end`` rows, in place: when it has fewer,
    it grows to twice its rows, at least 256, at most ``cap`` when one is
    given, and never fewer than ``end``. The new rows are zero. The matrix
    must own its data, and no view of it may exist while it grows:
    ``ndarray.resize`` may move it without checking for one."""
    if end > len(matrix):
        rows = max(2 * len(matrix), 256)
        if cap is not None:
            rows = min(rows, cap)
        matrix.resize((max(rows, end), *matrix.shape[1:]), refcheck=False)


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


def _dedupe(tokens, matrix, norms):
    """Keep the first row of every token: the kept rows move up in place,
    in increasing order, a block of about ``_READ_BYTES`` at a time, and
    the matrix is trimmed to them in place. Returns the kept tokens, rows
    and row norms, the token -> row dict and the number of rows dropped."""
    # built back to front, so that a token's first row is the one that stays
    index = dict(zip(reversed(tokens), range(len(tokens) - 1, -1, -1)))
    dups = len(tokens) - len(index)
    if dups:
        log.warning("embedding file: %d duplicate tokens dropped (first kept)", dups)
        keep = np.fromiter(index.values(), dtype=np.intp, count=len(index))
        keep.sort()
        # keep[i] >= i: a block reads only rows at or after the rows it writes
        step = max(1, _READ_BYTES // (4 * matrix.shape[1]))
        for start in range(0, len(keep), step):
            rows = keep[start : start + step]
            matrix[start : start + len(rows)] = matrix[rows]
        matrix.resize((len(keep), matrix.shape[1]), refcheck=False)
        norms = norms[keep]
        tokens = list(map(tokens.__getitem__, keep.tolist()))
        index.update(zip(tokens, range(len(tokens))))
    return tokens, matrix, norms, index, dups


def load_embeddings(path, fmt: str = "text") -> EmbeddingSpace:
    """Load a word-vector table.

    Text: header line ``V M`` then V lines ``token f_1 .. f_M``.
    Binary: ASCII header line, then per entry the token, a space, M packed
    little-endian float32 values and an optional newline.

    Both readers normalize each chunk of rows into the matrix as they read
    it; then the first row of each token is kept (:func:`_dedupe`), and the
    first kept row of zero or non-finite norm fails the load. A zero norm
    in a dropped duplicate does not fail.
    """
    if fmt == "text":
        read = _read_text
    elif fmt == "binary":
        read = _read_binary
    else:
        raise EmbeddingFormatError(f"unknown embedding format {fmt!r}")
    return EmbeddingSpace._loaded(*_dedupe(*read(path)))


def _parse_values(lines, dim: int):
    """The (len(lines), dim) float64 array of lines of whitespace-separated
    numbers, parsed by one ``np.loadtxt``; None when a line is empty, holds
    another number of values, or a value loadtxt does not parse."""
    if not lines:
        return np.empty((0, dim))
    if "" in lines:
        return None
    try:
        values = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(lines), dim) else None


def _row_error(lines, lineno: int, dim: int) -> EmbeddingFormatError:
    """The error for the first bad row of a block whose parse failed;
    ``lineno`` is the row number of the line before the block."""
    for row, line in enumerate(lines, start=lineno + 1):
        parts = line.split()
        if parts and len(parts) != dim + 1:
            return EmbeddingFormatError(
                f"dimension mismatch at row {row}: expected {dim} values, got {len(parts) - 1}"
            )
        if parts and _parse_values([line.split(None, 1)[1]], dim) is None:
            return EmbeddingFormatError(f"non-numeric value at row {row}")
    return EmbeddingFormatError(f"unparseable rows {lineno + 1}-{lineno + len(lines)}")


def _text_row(line: int) -> str:
    """A text table's line number as its reader counts rows."""
    return f"row {line - 1}" if line > 1 else "header"


def _read_text(path):
    """Tokens, unit float32 matrix and float64 row norms of every row of a
    text table, duplicates included (see :func:`load_embeddings`).

    Each line is split once into its token and its values, and each block
    of ``_TEXT_LINES`` lines is parsed by one ``np.loadtxt`` in float64 and
    normalized straight into the float32 matrix, so the table never exists
    in float64. A bad file fails at, in this order: the first row with a
    value count other than the header's ``M`` or a value that does not
    parse (named by row, blank lines counted), a row count other than ``V``.
    """
    with open_utf8(path, EmbeddingFormatError, label=_text_row) as fh:
        count, dim = _parse_header(fh.readline())
        # a row takes at least 2 * dim + 1 characters, so a count larger
        # than the file can hold allocates no more than the file could fill;
        # a pipe reports no size and grows the matrix as its rows arrive
        capacity = min(count, os.fstat(fh.fileno()).st_size // (2 * dim + 1))
        matrix = np.empty((capacity, dim), dtype=np.float32)
        tokens: list[str] = []  # those of the first count rows
        norms = []  # per block, the norms of its stored rows
        rows = 0  # rows read, those after the first count included
        lineno = 0
        for lines in iter(lambda: list(islice(fh, _TEXT_LINES)), []):
            names, texts = [], []
            for line in lines:
                parts = line.split(None, 1)
                if parts:
                    names.append(parts[0])
                    texts.append(parts[1] if len(parts) == 2 else "")
            values = _parse_values(texts, dim)
            if values is None:
                raise _row_error(lines, lineno, dim)
            lineno += len(lines)
            rows += len(names)
            start, end = len(tokens), min(rows, count)
            _grow(matrix, end, count)
            tokens += names[: end - start]
            norms.append(np.empty(end - start))
            _normalize_block(values[: end - start], matrix[start:end], norms[-1], False)
    if rows != count:
        raise EmbeddingFormatError(f"header declared {count} entries, file has {rows}")
    return tokens, matrix, np.concatenate(norms)


# Between the tokens of a chunk's joined entry heads (see _read_binary).
_HEAD_SEP = re.compile(" \n*")


def _entry_pattern(width: int):
    """A regex over a buffer of binary entries. Each match of a complete
    entry is its head, the run of newlines before it, its token up to the
    first space and that space, plus ``width`` vector bytes; findall gives
    the head. Then at most one match takes the bytes after the last
    complete entry, and gives b"".

    A token cannot start with a newline, so that the first alternative
    fails in time linear in the bytes it reads; it fails only where the
    buffer ends before the space or before the vector does, and the rest is
    then that truncated tail."""
    return re.compile(rb"(\n*(?:[^ \n][^ ]*)? ).{%d}|.+" % width, re.S)


def _read_binary(path):
    """Tokens, unit float32 matrix and float64 row norms of every row of a
    binary table, duplicates included (see :func:`load_embeddings`), read
    ``_READ_BYTES`` at a time after the header.

    Each chunk, after the truncated tail of the one before, is split into
    the heads of its complete entries by one regex ``findall``
    (:func:`_entry_pattern`), and their lengths place the vectors. The
    heads are decoded together, and the vectors are copied into a
    preallocated matrix by one fancy index into the chunk and normalized
    there, so that the load holds the table once. Rows after the header's
    count are not read. A bad file fails at its first entry whose token is
    not UTF-8, or that ends before its token's space ("unexpected end of
    file") or its vector ("dimension mismatch")."""
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n"):
            raise EmbeddingFormatError("unexpected end of file in header")
        try:
            count, dim = _parse_header(header.decode("utf-8"))
        except UnicodeDecodeError:
            raise EmbeddingFormatError(f"malformed header {header!r}, not UTF-8") from None
        width = 4 * dim
        if width >= 1 << 31:  # a regex repeat spans under 2**32 - 1 bytes
            raise EmbeddingFormatError(f"header dimension {dim} is too large")
        entries = _entry_pattern(width)
        # an entry takes at least width + 1 bytes, so a count the file cannot
        # hold fails at its first missing row without allocating for it; a
        # pipe reports no size and grows the matrix as its rows arrive
        size = os.fstat(fh.fileno()).st_size - len(header)
        matrix = np.empty((min(count, max(size, 0) // (width + 1)), dim), dtype="<f4")
        tokens: list[str] = []
        norms = []  # per chunk, the norms of its rows
        buf, tail = bytearray(_READ_BYTES), b""  # buf: the tail, then a chunk
        while len(tokens) < count:
            if len(buf) < len(tail) + _READ_BYTES:
                buf = bytearray(len(tail) + _READ_BYTES)
            buf[: len(tail)] = tail
            got = fh.readinto(memoryview(buf)[len(tail) : len(tail) + _READ_BYTES])
            if not got:
                row = len(tokens) + 1
                if b" " in tail.lstrip(b"\n"):
                    raise EmbeddingFormatError(
                        f"dimension mismatch at row {row}: expected {dim} float32 values"
                    )
                raise EmbeddingFormatError(f"unexpected end of file at row {row}")
            filled = len(tail) + got
            heads = entries.findall(buf, 0, filled)
            if heads and not heads[-1]:
                heads.pop()
            # the entries lie back to back from the start of buf
            ends = np.cumsum(np.fromiter(map(len, heads), np.intp, len(heads)) + width)
            tail = buf[int(ends[-1]) if heads else 0 : filled]
            del heads[count - len(tokens) :]
            if not heads:
                continue
            rows, end = len(tokens), len(tokens) + len(heads)
            joined = b"".join(heads)  # each head ends at its token's space
            try:
                tokens += _HEAD_SEP.split(joined.decode("utf-8").lstrip("\n")[:-1])
            except UnicodeDecodeError as exc:
                row = rows + joined.count(b" ", 0, exc.start) + 1
                raise EmbeddingFormatError(f"{path} row {row}: not valid UTF-8") from None
            _grow(matrix, end, count)
            windows = sliding_window_view(np.frombuffer(buf, np.uint8, filled), width)
            matrix[rows:end].view(np.uint8)[...] = windows[ends[: len(heads)] - width]
            norms.append(_normalize_rows(matrix[rows:end]))
    return tokens, matrix.astype(np.float32, copy=False), np.concatenate(norms)


def save_embeddings(space: EmbeddingSpace, path, fmt: str = "text") -> None:
    """Write the table back out; text mode uses 9 significant digits, which
    round-trips the stored float32 values exactly. Each block of about
    ``_READ_BYTES`` of vectors is formatted and written at once."""
    if fmt not in ("text", "binary"):
        raise EmbeddingFormatError(f"unknown embedding format {fmt!r}")
    tokens, dim = space.tokens(), space.dimension
    header = f"{len(space)} {dim}\n"
    width = 4 * dim  # bytes of a packed vector
    step = max(1, _READ_BYTES // width)
    blocks = ((tokens[start : start + step], space._matrix[start : start + step])
              for start in range(0, len(space), step))
    if fmt == "text":
        values = " ".join(["%.9g"] * dim)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header)
            for names, rows in blocks:
                fh.write("".join([f"{token} {values % tuple(row)}\n"
                                  for token, row in zip(names, rows.tolist())]))
    else:
        with open(path, "wb") as fh:
            fh.write(header.encode("utf-8"))
            for names, rows in blocks:
                vectors = rows.astype("<f4", copy=False).tobytes()
                fh.write(b"".join([b"%s %s\n" % (token.encode("utf-8"), vectors[at : at + width])
                                   for at, token in zip(range(0, len(vectors), width), names)]))


def tokenize(text: str, stops: frozenset[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop stop words.

    Pure string processing; phrase lookup against the vocabulary happens in
    :func:`embed_tokens`, which needs the table. ``stops`` is a collection
    of words: one string would match its substrings.
    """
    checked_sequence(stops, "stops must be a collection of words")
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


def _resolve_some(space: EmbeddingSpace, tokens: list[str]):
    """:func:`_resolve`, raising :class:`AllTokensOOV` when nothing
    resolves."""
    rows, resolved, oov, merges = _resolve(space, tokens)
    if not rows:
        raise AllTokensOOV(tokens)
    if oov:
        log.debug("embed_tokens: %d tokens out of vocabulary: %s", len(oov), oov)
    return rows, resolved, oov, merges


def embed_tokens(space: EmbeddingSpace, tokens: list[str]) -> EmbeddedSet:
    """Resolve tokens against the table, folding adjacent bigrams first.

    A greedy left-to-right pass tries the underscore-joined form of each
    adjacent pair (GoogleNews-style phrase entries) and falls back to the
    single token. Unresolvable tokens are skipped and reported on the
    returned set; when nothing resolves, raises :class:`AllTokensOOV`.
    """
    checked_sequence(tokens, "tokens must be a sequence")
    rows, resolved, oov, merges = _resolve_some(space, tokens)
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
    depends on its own text only; all texts are pooled by one
    :func:`sum_pool` call over their table rows.
    """
    checked_sequence(texts, "texts must be a sequence")
    sets = [_resolve(space, tokenize(text, stops))[0] for text in texts]
    counts = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    rows = np.fromiter(chain.from_iterable(sets), dtype=np.intp, count=int(counts.sum()))
    return sum_pool(space._matrix, counts, rows), counts


def sum_pool(vectors: EmbeddedSet | np.ndarray, sizes=None, rows=None) -> np.ndarray:
    """Component-wise float64 sum of word sets, not renormalized: every word
    set (concept, transcript, query) is pooled here.

    Given one set (an :class:`EmbeddedSet` or a 2-D array of its rows),
    returns its (dim,) sum; an empty set raises :class:`ZeroNormError`.
    Given ``sizes``, pools many sets in one call and returns a
    (len(sizes), dim) matrix: set i is the next ``sizes[i]`` rows of
    ``vectors`` or, when ``rows`` is given, of ``vectors[rows]``, which is
    never gathered whole; the sum of an empty set is zero.

    Each set is summed in order from +0.0 in float64: its first row plus
    0.0, then each next row added, so float32 table rows and their float64
    copies give the same bits, and no set's sum depends on another's. One
    set is summed so by numpy's ``sum(axis=0)`` of its rows in C order.
    Many sets are pooled a block of ``_POOL_BYTES`` of sums at a time, one
    row position of every set of the block per step, so that a step
    gathers one row per set and each set gets the bits it gets alone.
    """
    if sizes is None:
        vectors = vectors.vectors if isinstance(vectors, EmbeddedSet) else vectors
        vectors = np.ascontiguousarray(vectors)  # numpy sums a column-major set's rows pairwise
        if vectors.shape[0] == 0:
            raise ZeroNormError("cannot pool an empty vector set")
        return vectors.sum(axis=0, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    # the row of an empty set is never written: a 32000-video corpus with
    # no transcripts kept its two zero matrices (154 MB) out of memory
    # this way, and writing them made them resident
    pooled = np.zeros((len(sizes), vectors.shape[1]))
    step = max(1, _POOL_BYTES // (8 * vectors.shape[1]))
    for first in range(0, len(sizes), step):
        # the block's nonempty sets, longest first, so that the sets a
        # position reaches are the first ones, summed in place
        order = first + np.argsort(-sizes[first : first + step], kind="stable")
        order = order[sizes[order] > 0]
        if not len(order):
            continue
        at, left = starts[order], sizes[order]
        total = np.zeros((len(order), vectors.shape[1]))
        for position in range(int(left[0])):
            live = int(np.count_nonzero(left > position))
            index = at[:live] + position
            total[:live] += vectors[index if rows is None else rows[index]]
        pooled[order] = total
    return pooled


def nearest_words(
    space: EmbeddingSpace,
    point: np.ndarray,
    k: int,
    exclude: frozenset[str] | set[str] = frozenset(),
) -> list[tuple[str, float]]:
    """Top-k vocabulary tokens by cosine to ``point``, descending, leaving
    out the tokens of ``exclude`` (a collection, not one string): the
    one-point search of :func:`_nearest_rows`. ``k`` is an integer >= 1."""
    point = np.ascontiguousarray(point, dtype=np.float64)
    if point.shape != (space.dimension,):
        raise ZeroNormError(f"point dimension {point.shape} != ({space.dimension},)")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    checked_sequence(exclude, "exclude must be a collection of tokens", ValueError)
    norm = _norm(point)
    if norm == 0.0 or not np.isfinite(norm):
        raise ZeroNormError("cannot search neighbors of a zero-norm or non-finite point")
    index = space._index
    excluded = {index[t] for t in exclude if t in index}
    [(rows, sims)] = _nearest_rows(space, [point], [norm], k, [excluded])
    return list(zip(space._tokens[rows].tolist(), sims.tolist()))


def _nearest_rows(space: EmbeddingSpace, points, norms, k: int, excluded):
    """For each float64 point of norm ``norms[i]`` (nonzero and finite), the
    rows of its top ``k`` >= 1 table rows by cosine, best first, leaving out
    the set of rows ``excluded[i]``, and their float64 cosines. A point with
    fewer than k rows left gets all of them, none when every row is
    excluded.

    Exhaustive and exact: each result is that of scoring every row in
    float64 and sorting by (-cosine, token), so ties break
    lexicographically.

    The table is scanned once for all points, in float32: with q the unit
    point rounded to float32, c32_i = fl32(m_i . q) / |m_i|. Against the
    float64 cosine c64_i of the same row, |c32_i - c64_i| <= delta =
    gamma_{d+2} = (d+2)u / (1 - (d+2)u) with u = 2**-24 and d the
    dimension: the float32 dot product of length d errs by at most
    gamma_d |m_i| |q| in any summation order (a GEMM over all points is
    one), rounding q costs one u, and the float64 steps (the norms, the
    division, c64 itself) stay far below one more u. Dividing by |m_i|
    puts this on the cosine scale by Cauchy-Schwarz. Every row of a space
    has unit norm up to float32 rounding (see :class:`EmbeddingSpace`), so
    no product overflows, and products that underflow lose far less than
    one more u.

    The scan does not know the excluded rows. With e of them, a row in the
    top k of the rows left has at most k - 1 + e rows ahead of it (the
    k - 1 kept ones and the e excluded ones), so it is in the top k' =
    k + e of the whole table, and the scan looks for that top k'. Let K be
    the k'-th largest c32 of the table. At least k' rows have c32 >= K, so
    c64 >= K - delta; a row with c32 < K - 2 delta has c64 < K - delta,
    strictly below k' other rows, and cannot be in the top k' whatever its
    token. The scan runs in row blocks of ``_SCAN_BYTES`` of scores, and
    drops a block's rows with c32 < F - 2 delta, F being the largest
    k'-th largest c32 of this block and the blocks before it, or -2 while
    that is lower (every cosine is at least -1 - delta). F never exceeds
    K, so a dropped row has c32 < K - 2 delta too (with fewer than k' rows
    in the table, F stays -2 and every row stays). Points scanned together
    share the largest k', which only keeps more rows. After the last
    block, the rows of earlier blocks are cut at its F as well. The
    excluded rows are then dropped from the candidates, and only the rows
    left are re-scored in float64 and sorted. Each float64 cosine is a
    :func:`~semvid.kernels.row_dots` reduction over its own row, so it does
    not depend on the row's position in the table, and equal rows score
    equal.
    """
    n = space.dimension + 2
    delta = n * _U32 / (1.0 - n * _U32)  # gamma_{d+2}
    units = [(point / norm).astype(np.float32) for point, norm in zip(points, norms)]
    drops = [np.fromiter(rows, dtype=np.intp, count=len(rows)) for rows in excluded]
    scan = k + max(map(len, drops), default=0)
    results = []
    for (rows, _), point, norm, drop in zip(
        _scan_candidates(space, units, scan, delta), points, norms, drops
    ):
        # a cell per candidate and excluded row, few for a query's own words;
        # np.isin took five times as long on 12 candidates
        rows = rows[(rows[:, None] != drop).all(axis=1)]
        sims = row_dots(space._matrix[rows].astype(np.float64), point)
        sims /= space._norms[rows] * norm
        order = np.lexsort((space._tokens[rows], -sims))[:k]
        results.append((rows[order], sims[order]))
    return results


def _products(rows: np.ndarray, units: np.ndarray, tile: int) -> np.ndarray:
    """The float32 ``rows @ units``, one product per tile of ``tile`` rows."""
    out = np.empty((len(rows), units.shape[1]), dtype=np.float32)
    for at in range(0, len(rows), tile):
        np.matmul(rows[at : at + tile], units, out=out[at : at + tile])
    return out


def _scan_candidates(space: EmbeddingSpace, units, k: int, delta: float):
    """Per float32 unit point, the rows of the table with a float32 cosine
    within ``2 delta`` of F, the largest k-th score of a block (or -2), in
    row order, and those cosines (see :func:`_nearest_rows`). Each
    block is a (rows x dim) @ (dim x points) float32 product, in row tiles
    of ``_TILE_MADDS`` multiply-adds for ``_TILED_POINTS`` points; the
    tiles change only the order of the float32 sums, which the bound
    allows."""
    m = len(units)
    if not m:
        return []
    units = np.ascontiguousarray(np.array(units).T)  # gemv speed for one point
    block = max(1, _SCAN_BYTES // (12 * m))  # float32 products and float64 cosines
    tile = max(1, _TILE_MADDS // (space.dimension * m)) if m in _TILED_POINTS else block
    # per point, the largest block k-th score so far, or -2: below every
    # cosine (at least -1 - delta), so that while it holds every row is kept
    floor = np.full(m, -2.0)
    blocks = []  # per block: where each point's candidates start, their rows and cosines
    for start in range(0, len(space), block):
        stop = min(start + block, len(space))
        width = stop - start
        # float32 products times float64 inverse norms: float64 cosines
        cos32 = _products(space._matrix[start:stop], units, tile).astype(np.float64)
        cos32 *= space._inv_norms[start:stop, None]
        if width > k:
            floor = np.maximum(floor, np.partition(cos32, width - k, axis=0)[width - k])
        # the flat indices of the transposed mask list each point's
        # candidates together, in row order (np.nonzero of the 2-D mask
        # gives the same, several times slower)
        point, row = np.divmod(np.flatnonzero((cos32 >= floor - 2.0 * delta).T), width)
        firsts = point.searchsorted(np.arange(m + 1)).tolist()
        blocks.append((firsts, row + start, cos32[row, point]))
    cuts = (floor - 2.0 * delta).tolist()  # the last F cuts earlier blocks too
    found = []
    for i, cut in enumerate(cuts):
        rows = np.concatenate([part[at[i] : at[i + 1]] for at, part, _ in blocks])
        scores = np.concatenate([part[at[i] : at[i + 1]] for at, _, part in blocks])
        keep = scores >= cut
        found.append((rows[keep], scores[keep]))
    return found

import ast
import os
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import semvid
import semvid.embedding as embedding
from semvid.embedding import (
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
from semvid.errors import AllTokensOOV, EmbeddingFormatError, SemvidError, ZeroNormError
from semvid.synth import random_space

from oracles import (
    binary_table_oracle,
    cosine_oracle,
    save_embeddings_oracle,
    scan_oracle,
    sum_pool_oracle,
)


# ---------------------------------------------------------------- loading

def test_load_normalizes_vectors(tiny_space):
    np.testing.assert_allclose(tiny_space.vector("a"), [1, 0, 0], atol=1e-7)
    np.testing.assert_allclose(tiny_space.vector("b"), [0, 1, 0], atol=1e-7)
    assert tiny_space.dimension == 3
    assert len(tiny_space) == 2


def test_load_dimension_mismatch_names_row(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 3\na 1 0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="row 1"):
        load_embeddings(path)


def test_load_malformed_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("three columns here\na 1 0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="header"):
        load_embeddings(path)


def test_load_zero_norm_vector_names_token(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\ngood 1 0\ndead 0 0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="dead"):
        load_embeddings(path)


def test_load_duplicates_keep_first_and_count(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("3 2\na 1 0\na 0 1\nb 0 1\n", encoding="utf-8")
    space = load_embeddings(path)
    assert space.duplicates == 1
    np.testing.assert_allclose(space.vector("a"), [1, 0], atol=1e-7)


def test_text_roundtrip_bit_for_bit(tmp_path):
    # oracle: write a raw random table, load it, save it at 9 significant
    # digits, reload; stored float32 rows must come back identical
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((10, 5))
    src = tmp_path / "src.txt"
    with open(src, "w") as fh:
        fh.write("10 5\n")
        for i in range(10):
            fh.write(f"t{i} " + " ".join(repr(float(v)) for v in raw[i]) + "\n")
    first = load_embeddings(src)
    out = tmp_path / "out.txt"
    save_embeddings(first, out)
    second = load_embeddings(out)
    assert first.tokens() == second.tokens()
    np.testing.assert_array_equal(first._matrix, second._matrix)


def test_binary_roundtrip_exact(tmp_path):
    space = random_space(np.random.default_rng(3), 12, 6)
    path = tmp_path / "vecs.bin"
    save_embeddings(space, path, fmt="binary")
    loaded = load_embeddings(path, fmt="binary")
    assert loaded.tokens() == space.tokens()
    np.testing.assert_array_equal(loaded._matrix, space._matrix)


@pytest.mark.parametrize("fmt", ["text", "binary"])
@pytest.mark.parametrize("block_rows", [1, 3, None])
def test_save_writes_the_bytes_of_a_row_at_a_time_writer(tmp_path, monkeypatch, fmt, block_rows):
    # unit rows are kept as given: -0.0, subnormals, the smallest normal
    # float32 and values 9 digits do not round
    dim = 5
    rng = np.random.default_rng(41)
    matrix = rng.standard_normal((11, dim)).astype(np.float32)
    matrix[1] = [-0.0, 0.0, 0.6, -0.8, -0.0]
    matrix[2] = [1e-45, -1e-45, 1e-40, np.finfo(np.float32).tiny, 1.0]
    matrix[3] = np.float32(1) / np.float32(3) * np.arange(1, dim + 1, dtype=np.float32)
    tokens = [f"w{i}" for i in range(11)]
    tokens[4], tokens[5], tokens[6] = "naïve", "日本語_語", "emoji\U0001f600"
    space = EmbeddingSpace(tokens, matrix)
    assert space._matrix[1:3].tobytes() == matrix[1:3].tobytes()
    if block_rows is not None:  # blocks of block_rows rows: 11 rows end mid-block
        monkeypatch.setattr(embedding, "_READ_BYTES", 4 * dim * block_rows)
    save_embeddings(space, tmp_path / "bulk", fmt)
    save_embeddings_oracle(tokens, space._matrix, tmp_path / "rows", fmt)
    assert (tmp_path / "bulk").read_bytes() == (tmp_path / "rows").read_bytes()


def test_save_of_a_loaded_table_at_dim_300_writes_the_oracle_bytes(tmp_path):
    space = random_space(np.random.default_rng(42), 1000, 300)  # 1000 rows: 2 blocks
    for fmt in ("text", "binary"):
        save_embeddings(space, tmp_path / f"bulk.{fmt}", fmt)
        save_embeddings_oracle(space.tokens(), space._matrix, tmp_path / f"rows.{fmt}", fmt)
        assert (tmp_path / f"bulk.{fmt}").read_bytes() == (tmp_path / f"rows.{fmt}").read_bytes()
        loaded = load_embeddings(tmp_path / f"bulk.{fmt}", fmt)
        np.testing.assert_array_equal(loaded._matrix, space._matrix)
    with pytest.raises(EmbeddingFormatError, match="unknown embedding format"):
        save_embeddings(space, tmp_path / "x", "csv")


def test_space_rejects_a_repeated_token():
    matrix = np.array([[1, 0], [0.6, 0.8], [0, 1], [0.8, 0.6]], dtype=np.float32)
    with pytest.raises(EmbeddingFormatError, match=r"token 'a' repeated at rows 0 and 2"):
        EmbeddingSpace(["a", "b", "a", "c"], matrix)
    with pytest.raises(EmbeddingFormatError, match=r"token 'b' repeated at rows 1 and 2"):
        EmbeddingSpace(["a", "b", "b", "b"], matrix)
    space = EmbeddingSpace(["a", "b", "c", "d"], matrix)
    assert [t for t, _ in nearest_words(space, [1, 0], 4)] == ["a", "d", "b", "c"]


@pytest.mark.parametrize("read_bytes", [64, None])
def test_space_built_in_code_equals_the_same_rows_loaded(tmp_path, monkeypatch, read_bytes):
    # near-unit rows, off-unit rows and rows of norm 1e-30 and 1e30: a space
    # normalizes a copy of its matrix as the binary loader normalizes the
    # rows it reads, in blocks of any size
    rng = np.random.default_rng(43)
    dim = 6
    matrix = rng.standard_normal((40, dim)) * 10.0 ** rng.uniform(-3, 3, size=(40, 1))
    matrix[::3] /= np.linalg.norm(matrix[::3], axis=1, keepdims=True)
    matrix[1] *= 1e-30 / np.linalg.norm(matrix[1])
    matrix[2] *= 1e30 / np.linalg.norm(matrix[2])
    matrix = matrix.astype(np.float32)
    given = matrix.copy()
    tokens = [f"w{i}" for i in range(40)]
    path = tmp_path / "vecs.bin"
    write_binary(path, dim, list(zip(tokens, matrix)))
    if read_bytes is not None:
        monkeypatch.setattr(embedding, "_READ_BYTES", read_bytes)
    built, loaded = EmbeddingSpace(tokens, matrix), load_embeddings(path, fmt="binary")
    assert built.tokens() == loaded.tokens() == tokens
    for name in ("_matrix", "_norms", "_inv_norms"):
        assert getattr(built, name).tobytes() == getattr(loaded, name).tobytes(), name
    assert matrix.tobytes() == given.tobytes()  # the space normalized a copy
    assert built._matrix[::3].tobytes() == matrix[::3].tobytes()
    np.testing.assert_allclose(built._norms, 1.0, rtol=0, atol=1e-6)
    for value, what in ((0.0, "zero-norm"), (np.nan, "non-finite"), (np.inf, "non-finite")):
        rows = matrix.copy()
        rows[5] = value
        with pytest.raises(EmbeddingFormatError, match=f"{what} vector for token 'w5'"):
            EmbeddingSpace(tokens, rows)


@pytest.mark.parametrize("matrix", [
    [[1.0, 0.0], [0.0]], [["a", "b"], ["c", "d"]], [[1.0, {}], [0, 1]],
], ids=["ragged", "strings", "object"])
def test_space_rejects_a_matrix_that_is_ragged_or_not_numeric(matrix):
    with pytest.raises(EmbeddingFormatError, match="not a matrix of numbers"):
        EmbeddingSpace(["a", "b"], matrix)


def test_space_takes_a_nested_list_matrix_as_its_array():
    rows = [[3.0, 4.0], [0.0, 2.0]]
    space = EmbeddingSpace(["a", "b"], rows)
    assert space._matrix.tobytes() == EmbeddingSpace(["a", "b"], np.array(rows))._matrix.tobytes()
    assert space.tokens() == ["a", "b"]


def test_space_names_a_nested_list_none_as_not_finite():
    # a None becomes NaN in the float32 copy: not a number, not a zero norm
    with pytest.raises(EmbeddingFormatError, match="non-finite vector for token 'a'"):
        EmbeddingSpace(["a", "b"], [[1, None], [0, 1]])


def test_space_rejects_tokens_given_as_one_string():
    with pytest.raises(EmbeddingFormatError, match="tokens must be a sequence"):
        EmbeddingSpace("ab", np.eye(2))


def test_space_without_columns_is_rejected():
    with pytest.raises(EmbeddingFormatError, match="dimension must be positive, got 0"):
        EmbeddingSpace(["a", "b"], np.zeros((2, 0)))
    with pytest.raises(EmbeddingFormatError, match="at least one token"):
        EmbeddingSpace([], np.zeros((0, 3)))  # nor rows, as a loaded header count


def write_binary(path, dim, entries, count=None, newline=b"\n"):
    """A binary table by hand: header, then token, space, packed float32
    values and ``newline`` per entry."""
    with open(path, "wb") as fh:
        fh.write(f"{len(entries) if count is None else count} {dim}\n".encode())
        for token, values in entries:
            fh.write(token.encode() + b" " + np.asarray(values, dtype="<f4").tobytes() + newline)


def test_binary_truncated_in_header(tmp_path):
    path = tmp_path / "vecs.bin"
    path.write_bytes(b"3 4")
    with pytest.raises(EmbeddingFormatError, match="end of file in header"):
        load_embeddings(path, fmt="binary")


def test_binary_truncated_in_token(tmp_path):
    path = tmp_path / "vecs.bin"
    write_binary(path, 2, [("a", [1, 0]), ("b", [0, 1])], count=3)
    path.write_bytes(path.read_bytes() + b"trunc")
    with pytest.raises(EmbeddingFormatError, match="end of file at row 3"):
        load_embeddings(path, fmt="binary")


def test_binary_truncated_in_vector(tmp_path):
    path = tmp_path / "vecs.bin"
    write_binary(path, 3, [("a", [1, 0, 0]), ("b", [0, 1, 0])])
    path.write_bytes(path.read_bytes()[:-6])  # newline and 5 bytes of b's vector
    with pytest.raises(EmbeddingFormatError, match="dimension mismatch at row 2"):
        load_embeddings(path, fmt="binary")


def test_binary_dimension_beyond_any_row_is_rejected(tmp_path):
    path = tmp_path / "vecs.bin"
    path.write_bytes(b"1 600000000\na ")
    with pytest.raises(EmbeddingFormatError, match="header dimension 600000000 is too large"):
        load_embeddings(path, fmt="binary")


def test_binary_count_beyond_file_fails_at_first_missing_row(tmp_path):
    path = tmp_path / "vecs.bin"
    write_binary(path, 2, [("a", [1, 0])], count=10**12)
    with pytest.raises(EmbeddingFormatError, match="row 2"):
        load_embeddings(path, fmt="binary")


def test_binary_newline_convention_dedupe_and_zero_norm(tmp_path):
    entries = [("a", [3, 4]), ("b", [0, 1]), ("a", [1, 0]), ("c", [0.6, 0.8])]
    for newline in (b"", b"\n", b"\n\n"):
        path = tmp_path / "vecs.bin"
        write_binary(path, 2, entries, newline=newline)
        space = load_embeddings(path, fmt="binary")
        assert space.tokens() == ["a", "b", "c"] and space.duplicates == 1
        np.testing.assert_array_equal(space._matrix[0], np.float32([0.6, 0.8]))
    write_binary(path, 2, [("a", [1, 0]), ("dead", [0, 0])])
    with pytest.raises(EmbeddingFormatError, match="dead"):
        load_embeddings(path, fmt="binary")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_binary_row_that_is_not_finite_is_named(tmp_path, value):
    path = tmp_path / "vecs.bin"
    write_binary(path, 2, [("a", [1, 0]), ("odd", [value, 1]), ("zero", [0, 0])])
    with pytest.raises(EmbeddingFormatError, match="non-finite vector for token 'odd'"):
        load_embeddings(path, fmt="binary")


def _binary_bytes(dim, entries, count=None, newline=b"\n") -> bytes:
    header = f"{len(entries) if count is None else count} {dim}\n".encode()
    return header + b"".join(
        token.encode() + b" " + np.asarray(values, dtype="<f4").tobytes() + newline
        for token, values in entries
    )


def _whole_buffer_read(path):
    """The whole-buffer oracle's rows, normalized as one block."""
    tokens, matrix = binary_table_oracle(path.read_bytes(), path)
    return tokens, matrix, embedding._normalize_rows(matrix)


def _read_both(path):
    """(tokens, matrix shape, matrix bytes, norm bytes) or the error
    message, from the reader and from the whole-buffer oracle."""
    results = []
    for read in (embedding._read_binary, _whole_buffer_read):
        try:
            tokens, matrix, norms = read(path)
        except EmbeddingFormatError as exc:
            results.append(str(exc))
        else:
            assert matrix.dtype == np.float32 and matrix.flags.c_contiguous
            results.append((tokens, matrix.shape, matrix.tobytes(), norms.tobytes()))
    return results


# tokens of 1-9 bytes, multi-byte UTF-8 among them, so that with chunks of
# 1-64 bytes every kind of boundary falls inside a token, a vector, a
# newline run and the header
_ENTRIES = [
    (token, np.random.default_rng(i).standard_normal(3))
    for i, token in enumerate(["a", "bb", "cafe\u0301", "dd", "\u65e5\u672c", "e", "ffffffff", "a", "g"])
]


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 8, 13, 16, 31, 64])
def test_binary_reader_matches_whole_buffer_oracle_at_any_chunk(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(embedding, "_READ_BYTES", chunk)
    path = tmp_path / "vecs.bin"
    full = _binary_bytes(3, _ENTRIES)
    cases = [_binary_bytes(3, _ENTRIES, newline=nl) for nl in (b"", b"\n", b"\n\n\n")] + [
        full + b"trailing bytes after the last entry",
        b"3 4",  # header without its newline
        b"9 3\n",  # no entries at all
        full[: full.index("\u65e5".encode()) + 2],  # inside the fifth token
        full[: full.index(b"ffffffff") + 8],  # a token without its space
        _binary_bytes(3, _ENTRIES, count=10) + b"tr",  # inside the tenth token
        full[:-7],  # inside the last vector
        _binary_bytes(3, _ENTRIES[:2], count=10**12),  # a count beyond the file
        full.replace(b"dd", b"d\xff"),  # a token that is not UTF-8
        full.replace("\u65e5".encode(), "\u65e5".encode()[:2]),  # a cut UTF-8 character
    ]
    outcomes = []
    for data in cases:
        path.write_bytes(data)
        reader, oracle = _read_both(path)
        assert reader == oracle, data
        outcomes.append(reader if isinstance(reader, str) else len(reader[0]))
    assert outcomes == [9, 9, 9, 9] + [
        "unexpected end of file in header",
        "unexpected end of file at row 1",
        "unexpected end of file at row 5",
        "unexpected end of file at row 7",
        "unexpected end of file at row 10",
        "dimension mismatch at row 9: expected 3 float32 values",
        "unexpected end of file at row 3",
        f"{path} row 4: not valid UTF-8",
        f"{path} row 5: not valid UTF-8",
    ]


def test_binary_reader_errors_name_row_and_kind(tmp_path, monkeypatch):
    monkeypatch.setattr(embedding, "_READ_BYTES", 4)
    path = tmp_path / "vecs.bin"
    full = _binary_bytes(3, _ENTRIES)
    for data, message in (
        (b"3 4", "unexpected end of file in header"),
        (full[: full.index(b"ffffffff") + 8], "unexpected end of file at row 7"),
        (full[:-7], "dimension mismatch at row 9: expected 3 float32 values"),
    ):
        path.write_bytes(data)
        with pytest.raises(EmbeddingFormatError, match=message):
            load_embeddings(path, fmt="binary")


def test_binary_reader_holds_about_one_copy_of_the_table(tmp_path, monkeypatch):
    # the whole load, dedupe, normalization and space included, with no,
    # one and ten duplicate tokens: the kept rows move up in place
    monkeypatch.setattr(embedding, "_READ_BYTES", 1 << 16)
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((4000, 300))
    path = tmp_path / "vecs.bin"
    for names in (range(4000), [i if i != 3000 else 5 for i in range(4000)],
                  [i % 3990 for i in range(4000)]):
        path.write_bytes(_binary_bytes(300, [(f"w{i}", row) for i, row in zip(names, rows)]))
        tracemalloc.start()
        try:
            space = load_embeddings(path, fmt="binary")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(space) == len(set(names)) == 4000 - space.duplicates
        assert peak < 1.2 * 4000 * 300 * 4  # the whole-buffer reader took 2x


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("chunk", [5, 1 << 20])
def test_binary_table_through_a_pipe_loads_like_the_file(tmp_path, monkeypatch, chunk):
    # 600 rows grow the matrix from nothing past its first two sizes
    monkeypatch.setattr(embedding, "_READ_BYTES", chunk)
    rng = np.random.default_rng(5)
    entries = [(f"w{i % 590}", rng.standard_normal(4)) for i in range(600)]
    data = _binary_bytes(4, entries)
    path = tmp_path / "vecs.bin"
    path.write_bytes(data)
    piped, stored = _load_through_pipe(data, "binary"), load_embeddings(path, fmt="binary")
    assert piped.tokens() == stored.tokens() and len(piped) == 590
    assert piped.duplicates == stored.duplicates == 10
    np.testing.assert_array_equal(piped._matrix, stored._matrix)
    with pytest.raises(EmbeddingFormatError, match="dimension mismatch at row 600"):
        _load_through_pipe(data[:-3], "binary")
    with pytest.raises(EmbeddingFormatError, match="unexpected end of file at row 3"):
        _load_through_pipe(_binary_bytes(4, entries[:2], count=10**12), "binary")


def test_load_normalizes_like_one_row_at_a_time(tmp_path):
    # oracle: each row divided by its own np.linalg.norm in float64 and
    # rounded to float32 once; near-unit rows are stored as read
    rng = np.random.default_rng(17)
    scale = rng.uniform(0.01, 50, size=(2600, 1))
    raw = (rng.standard_normal((2600, 7)) * scale).astype(np.float32)
    raw[::5] /= np.linalg.norm(raw[::5].astype(np.float64), axis=1, keepdims=True)
    expected = np.empty_like(raw)
    for i, row in enumerate(raw.astype(np.float64)):
        norm = float(np.linalg.norm(row))
        expected[i] = row if abs(norm - 1.0) <= 1e-6 else row / norm
    binary, text = tmp_path / "vecs.bin", tmp_path / "vecs.txt"
    write_binary(binary, 7, [(f"t{i}", row) for i, row in enumerate(raw)])
    text.write_text("2600 7\n" + "".join(
        f"t{i} " + " ".join(repr(float(v)) for v in row) + "\n" for i, row in enumerate(raw)
    ), encoding="utf-8")
    for path, fmt in ((binary, "binary"), (text, "text")):
        np.testing.assert_array_equal(load_embeddings(path, fmt=fmt)._matrix, expected)


def test_all_stored_vectors_unit_norm(space50):
    norms = np.linalg.norm(space50._matrix.astype(np.float64), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)


def test_absent_token_is_explicit(tiny_space):
    assert tiny_space.get("zzz") is None
    with pytest.raises(KeyError):
        tiny_space.vector("zzz")


# --------------------------------------------------------------- tokenize

def test_tokenize_removes_stop_words():
    assert tokenize("Grooming an Animal", frozenset({"an"})) == ["grooming", "animal"]


def test_tokenize_rejects_stop_words_given_as_one_string():
    # "bird sea" as a stop set would drop the substrings "a", "bird", "sea"
    with pytest.raises(SemvidError, match="stops must be a collection of words"):
        tokenize("a bird at sea", stops="bird sea")
    assert tokenize("a bird at sea", stops={"bird", "sea"}) == ["a", "at"]


def test_tokenize_splits_on_delimiters():
    assert tokenize("birthday-party!!", frozenset()) == ["birthday", "party"]


def test_tokenize_empty_string():
    assert tokenize("", frozenset()) == []


# ------------------------------------------------------------ embed_tokens

def test_embed_tokens_direct_lookup(tiny_space):
    embedded = embed_tokens(tiny_space, ["a", "b"])
    np.testing.assert_allclose(embedded.vectors, [[1, 0, 0], [0, 1, 0]], atol=1e-7)
    assert embedded.source_tokens == ("a", "b")


def test_embed_tokens_skips_and_reports_oov(tiny_space):
    embedded = embed_tokens(tiny_space, ["a", "zzz"])
    assert len(embedded) == 1
    assert embedded.oov == ("zzz",)


def test_embed_tokens_all_oov_raises(tiny_space):
    with pytest.raises(AllTokensOOV):
        embed_tokens(tiny_space, ["zzz"])


def test_embed_tokens_and_pool_texts_reject_one_string(tiny_space):
    # a loop over the string would resolve its characters
    with pytest.raises(SemvidError, match="tokens must be a sequence"):
        embed_tokens(tiny_space, "ab")
    with pytest.raises(SemvidError, match="texts must be a sequence"):
        pool_texts(tiny_space, "ab")
    assert pool_texts(tiny_space, ["b", ""])[1].tolist() == [1, 0]


def test_embed_tokens_phrase_pass(tmp_path):
    path = tmp_path / "phrases.txt"
    path.write_text("3 2\nnew 1 0\nnew_york 0 1\ncity 1 1\n", encoding="utf-8")
    space = load_embeddings(path)
    embedded = embed_tokens(space, ["new", "york", "city"])
    assert embedded.source_tokens == ("new_york", "city")
    assert embedded.merges == 1
    assert embedded.oov == ()


def test_embed_tokens_conservation(space50):
    # output + oov + merges == input tokens, with and without phrase hits
    rng = np.random.default_rng(0)
    tokens = [str(t) for t in rng.choice(space50.tokens(), size=12)] + ["nope", "nada"]
    embedded = embed_tokens(space50, tokens)
    assert len(embedded) + len(embedded.oov) + embedded.merges == len(tokens)


@pytest.mark.parametrize("vectors", [
    np.zeros((0, 3)),
    np.ones(3),
    [[1.0, 0.0, 0.0]],
    np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]),
    np.array([[np.inf, 0.0, 0.0]]),
])
def test_embedded_set_takes_only_rows_of_finite_nonzero_norm(vectors):
    # a hand-built set with a zero row made the Hausdorff kernel divide 0 by
    # 0 and weigh concepts NaN
    with pytest.raises(ZeroNormError):
        EmbeddedSet(vectors, ())


# --------------------------------------------------------------- sum_pool

def test_sum_pool_definition():
    pooled = sum_pool(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    np.testing.assert_array_equal(pooled, [1, 1, 0])


def test_sum_pool_singleton_identity():
    np.testing.assert_array_equal(sum_pool(np.array([[0.0, 1.0, 0.0]])), [0, 1, 0])


def test_sum_pool_matches_accumulation_oracle():
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((5, 3))
    np.testing.assert_allclose(sum_pool(vectors), sum_pool_oracle(vectors), atol=1e-12)


def test_sum_pool_permutation_invariant():
    rng = np.random.default_rng(12)
    vectors = rng.standard_normal((7, 4))
    shuffled = vectors[rng.permutation(7)]
    np.testing.assert_allclose(sum_pool(vectors), sum_pool(shuffled), atol=1e-12)


def test_sum_pool_adds_the_rows_in_order_from_zero_whatever_their_layout():
    # numpy sums a column-major array over axis 0 pairwise, which differs
    # from adding the rows in order in the last bits
    rng = np.random.default_rng(13)
    vectors = rng.standard_normal((40, 300))
    in_order = np.zeros(300)
    for row in vectors:
        in_order += row
    column_major = np.asfortranarray(vectors)
    strided = np.zeros((80, 300))
    strided[::2] = vectors
    for layout in (vectors, column_major, EmbeddedSet(column_major, ()), strided[::2]):
        assert sum_pool(layout).tobytes() == in_order.tobytes()


def test_sum_pool_empty_set_error():
    with pytest.raises(ZeroNormError):
        sum_pool(np.empty((0, 3)))


def test_pool_texts_rows_are_sum_pool_of_their_words_bit_for_bit():
    # a transcript row has the bits sum_pool gives the float64 set of its
    # words, as a concept or a query of the same words gets them; every
    # table row holds -0.0 in column 0, which a sum from zero makes +0.0
    rng = np.random.default_rng(5)
    matrix = random_space(rng, 60, 12)._matrix.copy()
    matrix[:, 0] = -0.0
    space = EmbeddingSpace([f"w{i}" for i in range(60)], matrix)
    assert np.signbit(space._matrix[:, 0]).all()
    tokens = space.tokens()
    texts = [" ".join(tokens[j] for j in rng.choice(60, size=n)) for n in range(1, 30)]
    texts += ["w7", "", "zzz w3 zzz"]
    pooled, counts = pool_texts(space, texts, frozenset())
    for row, text, count in zip(pooled, texts, counts):
        words = tokenize(text, frozenset())
        expected = sum_pool(embed_tokens(space, words)) if count else np.zeros(12)
        assert row.tobytes() == expected.tobytes(), text
    assert counts[-3:].tolist() == [1, 0, 1]
    assert not np.signbit(pooled[:, 0]).any()


def _pool_sites(tree: ast.AST):
    """(enclosing function or None, line, text) of every sum over axis 0:
    ``.sum`` or ``np.sum`` given axis 0, and ``np.add.reduce``, whose axis
    is 0 unless given."""
    owner = {}
    for node in ast.walk(tree):  # outer functions first, so inner ones win
        if isinstance(node, ast.FunctionDef):
            owner.update((inner, node.name) for inner in ast.walk(node))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if ast.unparse(func) in ("np.add.reduce", "numpy.add.reduce"):
            position, default = 1, 0
        elif func.attr == "sum":
            # np.sum(x, axis) takes the axis second, x.sum(axis) first
            module_call = isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
            position, default = (1 if module_call else 0), None
        else:
            continue
        given = [kw.value for kw in node.keywords if kw.arg == "axis"]
        given += node.args[position : position + 1]
        axes = [] if given else [default]
        for axis in given:
            try:
                axes.append(ast.literal_eval(axis))
            except ValueError:
                pass
        if 0 in axes:
            yield owner.get(node), node.lineno, ast.unparse(node)


def test_word_sets_are_summed_only_by_sum_pool():
    # a concept, a transcript and a query are each pooled by sum_pool, so
    # they add the same float64 rows in the same order from zero; a second
    # sum elsewhere would need that order proved again
    package = Path(semvid.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(path.name, owner) for owner, _, _ in _pool_sites(tree)]
    assert found == [("embedding.py", "sum_pool")]


def test_pool_site_finder_sees_each_form():
    source = (
        "a.sum(axis=0)\n"
        "a.astype(float).sum(0)\n"
        "np.sum(a, axis=0)\n"
        "np.sum(a, 0, dtype=float)\n"
        "np.add.reduce(a, axis=0, out=b)\n"
        "np.add.reduce(a)\n"
        "np.add.reduce(a, out=b)\n"
        "def f():\n"
        "    def g():\n"
        "        return a.sum(axis=0)\n"
        "    return numpy.add.reduce(a, 0)\n"
        "a.sum(axis=1)\n"
        "a.sum()\n"
        "np.sum(a)\n"
        "np.sum(a, axis)\n"
        "np.add.reduce(a, 1)\n"
        "np.add.reduceat(a, s, axis=0)\n"
        "sum(a)\n"
    )
    found = sorted((line, owner) for owner, line, _ in _pool_sites(ast.parse(source)))
    assert found == [(line, None) for line in range(1, 8)] + [(10, "g"), (11, "f")]


# ------------------------------------------------------------ nearest_words

def test_nearest_words_self(tiny_space):
    (token, sim), = nearest_words(tiny_space, tiny_space.vector("a"), 1)
    assert token == "a"
    assert sim == pytest.approx(1.0, abs=1e-9)


def test_nearest_words_saturates_to_vocabulary(space50):
    result = nearest_words(space50, space50.vector("w3"), 1000)
    assert sorted(t for t, _ in result) == sorted(space50.tokens())
    sims = [s for _, s in result]
    assert sims == sorted(sims, reverse=True)


def test_nearest_words_matches_scan_oracle(space50):
    rng = np.random.default_rng(5)
    point = rng.standard_normal(8)
    got = nearest_words(space50, point, 5)
    vectors = [space50.vector(t) for t in space50.tokens()]
    expected = scan_oracle(space50.tokens(), vectors, point, 5)
    assert [t for t, _ in got] == [t for t, _ in expected]
    np.testing.assert_allclose([s for _, s in got], [s for _, s in expected], atol=1e-10)


def test_nearest_words_exclusion(space50):
    point = space50.vector("w7")
    result = nearest_words(space50, point, len(space50), exclude={"w7", "w9"})
    tokens = {t for t, _ in result}
    assert "w7" not in tokens and "w9" not in tokens
    assert len(result) == len(space50) - 2


def oracle_neighbors(space, point, k, exclude=frozenset()):
    return scan_oracle(space.tokens(), list(space._matrix), point, k, exclude)


def assert_same_neighbors(got, expected):
    assert [t for t, _ in got] == [t for t, _ in expected]
    np.testing.assert_allclose([s for _, s in got], [s for _, s in expected], rtol=0, atol=1e-12)


def test_nearest_words_duplicate_rows_tie_lexicographically():
    rng = np.random.default_rng(21)
    matrix = rng.standard_normal((40, 300)).astype(np.float32)
    tokens = [f"w{i:02d}" for i in range(40)]
    for row, name in ((3, "zeta"), (31, "alpha"), (17, "mid")):  # copies of row 9
        matrix[row], tokens[row] = matrix[9], name
    space = EmbeddingSpace(tokens, matrix)
    for k in (1, 2, 3, 4, 6):
        got = nearest_words(space, matrix[9].astype(np.float64), k)
        assert_same_neighbors(got, oracle_neighbors(space, matrix[9], k))
    got = nearest_words(space, matrix[9].astype(np.float64), 4)
    assert [t for t, _ in got] == ["alpha", "mid", "w09", "zeta"]
    assert len({s for _, s in got}) == 1


def test_nearest_words_last_bit_neighbors_around_kth():
    # eleven copies of one row, each a few float32 ulps apart in one
    # component: their cosines to the point lie far inside the float32
    # error bound, so only the float64 re-score can order them
    rng = np.random.default_rng(22)
    dim = 300
    base = rng.standard_normal(dim)
    base = (base / np.linalg.norm(base)).astype(np.float32)
    point = base + 0.9 * rng.standard_normal(dim) / np.sqrt(dim)
    cluster = np.repeat(base[None, :], 11, axis=0)
    cluster[:, 5] = base[5] + np.arange(-5, 6) * np.spacing(base[5])
    others = rng.standard_normal((200, dim)).astype(np.float32)
    order = rng.permutation(211)
    tokens = [f"t{i:03d}" for i in order]
    space = EmbeddingSpace(tokens, np.vstack([cluster, others]))
    assert space._matrix[:11].tobytes() == cluster.tobytes()  # near-unit rows are kept
    cosines = [cosine_oracle(row, point) for row in cluster]
    gamma = (dim + 2) * 2.0**-24 / (1 - (dim + 2) * 2.0**-24)
    assert 0 < max(cosines) - min(cosines) < gamma
    assert len(set(cosines)) == 11
    for k in range(1, 13):
        assert_same_neighbors(nearest_words(space, point, k), oracle_neighbors(space, point, k))


def test_nearest_words_excluded_tokens_inside_the_true_top_k(space50):
    rng = np.random.default_rng(23)
    for _ in range(20):
        point = rng.standard_normal(8)
        top = [t for t, _ in oracle_neighbors(space50, point, 6)]
        exclude = {top[0], top[3], top[5], "not-a-token"}
        for k in (1, 3, 6):
            got = nearest_words(space50, point, k, exclude)
            assert_same_neighbors(got, oracle_neighbors(space50, point, k, exclude))


def test_nearest_words_k_at_least_the_kept_rows(space50):
    point = np.random.default_rng(24).standard_normal(8)
    exclude = {f"w{i}" for i in range(0, 50, 7)}
    for k in (42, 43, 500):
        got = nearest_words(space50, point, k, exclude)
        assert len(got) == 50 - len(exclude)
        assert_same_neighbors(got, oracle_neighbors(space50, point, k, exclude))


# ------------------------------------- many points in one scan: _nearest_rows
# (the tests named nearest_words_many check this many-point search)

def blocked(monkeypatch, rows, points):
    """Scan blocks of ``rows`` table rows for a call with ``points`` points."""
    monkeypatch.setattr(embedding, "_SCAN_BYTES", 12 * points * rows)


def nearest_rows(space, points, k, excludes):
    """:func:`_nearest_rows` for float64 points, each excluding the rows of
    a set of tokens, with each result's rows read back as (token, cosine)
    pairs."""
    points = [np.asarray(point, dtype=np.float64) for point in points]
    norms = [embedding._norm(point) for point in points]
    index = space._index
    excluded = [{index[t] for t in exclude if t in index} for exclude in excludes]
    return [
        list(zip(space._tokens[rows].tolist(), sims.tolist()))
        for rows, sims in embedding._nearest_rows(space, points, norms, k, excluded)
    ]


def assert_rows_match_oracle(space, points, k, excludes):
    got = nearest_rows(space, points, k, excludes)
    assert len(got) == len(points)
    for result, point, exclude in zip(got, points, excludes):
        assert_same_neighbors(result, oracle_neighbors(space, point, k, exclude))
        assert result == nearest_words(space, point, k, exclude)


def tie_table():
    """40 random rows at dim 300 with copies of row 9 at rows 3, 17, 31
    and 39, so equal cosines fall in different blocks of a few rows."""
    rng = np.random.default_rng(31)
    matrix = rng.standard_normal((40, 300)).astype(np.float32)
    tokens = [f"w{i:02d}" for i in range(40)]
    for row, name in ((3, "zeta"), (17, "mid"), (31, "alpha"), (39, "omega")):
        matrix[row], tokens[row] = matrix[9], name
    return EmbeddingSpace(tokens, matrix), matrix


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 7, 16, 1000])
def test_nearest_words_many_matches_scan_oracle_at_every_block_size(monkeypatch, rows):
    space, matrix = tie_table()
    rng = np.random.default_rng(rows)
    points = [matrix[9].astype(np.float64), rng.standard_normal(300), matrix[[2, 9]].sum(axis=0)]
    points.append(points[0] * 1e-3)  # a repeated direction at another scale
    blocked(monkeypatch, rows, len(points))
    for k in (1, 2, 3, 4, 5, 6, 7, 9, 10):
        assert_rows_match_oracle(space, points, k, [set()] * 4)
    # the five copies tie exactly and break lexicographically across blocks
    top = nearest_rows(space, points[:1], 5, [set()])[0]
    assert [t for t, _ in top] == ["alpha", "mid", "omega", "w09", "zeta"]
    assert len({s for _, s in top}) == 1


@pytest.mark.parametrize("rows", [1, 2, 4, 9])
def test_nearest_words_many_exclusions_inside_the_true_top_k(monkeypatch, space50, rows):
    rng = np.random.default_rng(32)
    points = [rng.standard_normal(8) for _ in range(6)]
    excludes = []
    for point in points:
        top = [t for t, _ in oracle_neighbors(space50, point, 8)]
        excludes.append({top[0], top[2], top[7], "not-a-token"})
    excludes[5] = set()  # points with and without exclusions share the scan
    blocked(monkeypatch, rows, len(points))
    for k in (1, 2, 3, 5, 6, 8, 13):
        assert_rows_match_oracle(space50, points, k, excludes)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_nearest_words_many_with_the_table_top_rows_excluded(monkeypatch, space50, rows):
    # the scan looks for the top k + e rows of the whole table, e the most
    # rows a point excludes, and drops each point's excluded rows
    # afterwards; here the excluded rows are exactly the table's top e, the
    # case where every one of them is a candidate
    rng = np.random.default_rng(34)
    points = [rng.standard_normal(8) for _ in range(3)]
    excludes = [
        {t for t, _ in oracle_neighbors(space50, point, e)} for point, e in zip(points, (1, 4, 9))
    ]
    blocked(monkeypatch, rows, len(points))
    for k in (1, 41, 46, 49):  # 50 - e: every row a point keeps
        assert_rows_match_oracle(space50, points, k, excludes)
    for point, exclude in zip(points, excludes):  # alone, each with its own k + e
        blocked(monkeypatch, rows, 1)
        assert_rows_match_oracle(space50, [point], 50 - len(exclude), [exclude])
        assert_rows_match_oracle(space50, [point], 1, [exclude])


def test_nearest_words_many_k_at_least_the_kept_rows(monkeypatch, space50):
    rng = np.random.default_rng(33)
    points = [rng.standard_normal(8) for _ in range(4)]
    exclude = {f"w{i}" for i in range(0, 50, 7)}
    blocked(monkeypatch, 3, 4)
    # 42 rows are kept: k smaller and larger than a block, one short of,
    # equal to and beyond the kept rows
    for k, kept in ((4, 4), (5, 5), (41, 41), (42, 42), (43, 42), (500, 42)):
        assert_rows_match_oracle(space50, points, k, [exclude] * 4)
        found = nearest_rows(space50, points, k, [exclude] * 4)
        assert [len(result) for result in found] == [kept] * 4
    assert nearest_rows(space50, [], 5, []) == []
    # every row excluded: nothing is left, next to a point that keeps rows
    everything = set(space50.tokens())
    for k in (3, 60):
        found = nearest_rows(space50, points[:2], k, [everything, exclude])
        assert found == [[], nearest_words(space50, points[1], k, exclude)]
        assert nearest_rows(space50, points[:2], k, [everything] * 2) == [[], []]


def test_nearest_words_rejects_a_bad_point_or_k(space50):
    good = space50.vector("w1")
    for point in (np.zeros(8), np.full(8, np.inf), np.full(8, np.nan)):
        with pytest.raises(ZeroNormError):
            nearest_words(space50, point, 3)
    with pytest.raises(ZeroNormError, match="dimension"):
        nearest_words(space50, np.ones(7), 3)
    for k in (0, -1, 2.0, "3", None):
        with pytest.raises(ValueError, match="k must be an integer"):
            nearest_words(space50, good, k)
    assert len(nearest_words(space50, good, np.int64(2))) == 2


def test_nearest_words_takes_exclude_as_tokens_not_characters():
    # a string is a collection of its characters: excluding "king" that way
    # would drop "k", "i", "n" and "g" and leave "king" itself on top
    tokens = ["king", "k", "i", "n", "g"]
    space = EmbeddingSpace(tokens, np.eye(5) + 0.1)
    with pytest.raises(ValueError, match="exclude must be a collection of tokens"):
        nearest_words(space, space.vector("king"), 2, exclude="king")
    found = nearest_words(space, space.vector("king"), 4, exclude={"king"})
    assert sorted(t for t, _ in found) == ["g", "i", "k", "n"]


def tiled(monkeypatch, rows, points, dim=300):
    """Scan tiles of ``rows`` table rows for a call with ``points`` points,
    whatever the point count."""
    monkeypatch.setattr(embedding, "_TILE_MADDS", rows * dim * points)
    monkeypatch.setattr(embedding, "_TILED_POINTS", range(1, points + 1))


def test_scan_tiles_only_a_few_points():
    assert 1 not in embedding._TILED_POINTS  # one point is a gemv, faster whole
    assert 2 in embedding._TILED_POINTS and 25 not in embedding._TILED_POINTS


@pytest.mark.parametrize("tile", [1, 2, 7, 64])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 17, 40])
def test_nearest_words_many_in_row_tiles_matches_oracle(monkeypatch, m, tile):
    # tie_table's copies of row 9 (rows 3, 9, 17, 31, 39) fall in different
    # tiles and blocks of 13 rows, and the excluded rows 5 and 22 in others
    space, matrix = tie_table()
    rng = np.random.default_rng(100 * m + tile)
    points = [matrix[9].astype(np.float64), matrix[25].astype(np.float64)]
    points += [rng.standard_normal(300) for _ in range(m)]
    points = points[:m]
    ks = (1, 2, 4, 5, 6, 9)
    excludes = [(set(), {"w05", "w22"}, {"zeta", "w25", "w12"})[i % 3] for i in range(m)]
    alone = {
        k: [nearest_words(space, point, k, exclude) for point, exclude in zip(points, excludes)]
        for k in ks
    }
    blocked(monkeypatch, 13, m)
    tiled(monkeypatch, tile, m)
    for k in ks:
        got = nearest_rows(space, points, k, excludes)
        assert got == alone[k]
        for result, point, exclude in zip(got, points, excludes):
            assert_same_neighbors(result, oracle_neighbors(space, point, k, exclude))
    top = nearest_words(space, points[0], 5)
    assert [t for t, _ in top] == ["alpha", "mid", "omega", "w09", "zeta"]


@pytest.mark.parametrize("tile", [1, 7, None])
def test_scan_cosines_keep_the_float64_norm_scaling(monkeypatch, tile):
    # the bound covers float32 products divided by float64 norms; a float32
    # rounding of the quotient would add an error it does not cover
    space, matrix = tie_table()
    units = [(matrix[i] / np.linalg.norm(matrix[i])).astype(np.float32) for i in (2, 9)]
    if tile is not None:
        tiled(monkeypatch, tile, 2)
    found = embedding._scan_candidates(space, units, 3, 1.0)  # every row
    for (rows, cos), unit in zip(found, units):
        np.testing.assert_array_equal(rows, np.arange(40))
        assert cos.dtype == np.float64 and np.any(cos != cos.astype(np.float32))
        products = np.array([np.dot(row, unit) for row in space._matrix], dtype=np.float32)
        np.testing.assert_allclose(cos, products * space._inv_norms, rtol=0, atol=1e-5)


def test_nearest_words_zero_point_error(space50):
    with pytest.raises(ZeroNormError):
        nearest_words(space50, np.zeros(8), 3)


def test_self_cosine_for_every_token(space50):
    for token in space50.tokens():
        vec = space50.vector(token)
        assert cosine_oracle(vec, vec) == pytest.approx(1.0, abs=1e-9)
        best, sim = nearest_words(space50, vec, 1)[0]
        assert best == token and sim == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("value", ["1_0", "١", "0x1", "#"])
def test_text_value_outside_loadtxt_syntax_is_non_numeric(tmp_path, value):
    # float() reads "1_0" and Arabic-Indic digits; np.loadtxt does not
    path = tmp_path / "bad.txt"
    path.write_text(f"2 2\na 1 0\n\nb 0 {value}\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="non-numeric value at row 3"):
        load_embeddings(path)


def test_text_token_only_line_is_a_dimension_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\nlonely\nb 0 1\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmbeddingFormatError, match="row 1: expected 2 values, got 0"):
            load_embeddings(path)


def test_text_errors_in_file_order_across_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr("semvid.embedding._TEXT_LINES", 2)
    path = tmp_path / "bad.txt"
    # a zero-norm row in the first block, a bad row in the third
    path.write_text("5 2\nz 0 0\na 1 0\nb 0 1\nc 1 1\nd 1 x\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="non-numeric value at row 5"):
        load_embeddings(path)
    # then the row count, then the zero norm
    path.write_text("6 2\nz 0 0\na 1 0\nb 0 1\nc 1 1\nd 1 2\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="header declared 6 entries, file has 5"):
        load_embeddings(path)
    path.write_text("5 2\na 1 0\nb 0 1\nc 1 1\nz 0 0\nd 1 2\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="zero-norm vector for token 'z'"):
        load_embeddings(path)


def test_text_zero_norm_of_dropped_duplicate_loads(tmp_path, monkeypatch):
    monkeypatch.setattr("semvid.embedding._TEXT_LINES", 2)
    path = tmp_path / "dup.txt"
    path.write_text("4 2\na 3 4\nb 0 1\na 0 0\nc 1 0\n", encoding="utf-8")
    space = load_embeddings(path)
    assert space.tokens() == ["a", "b", "c"] and space.duplicates == 1
    np.testing.assert_array_equal(space._matrix, np.float32([[0.6, 0.8], [0, 1], [1, 0]]))


def test_text_count_beyond_file_fails_without_allocating_it(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(f"{10**12} 300\na " + " ".join(["1"] * 300) + "\n", encoding="utf-8")
    message = f"header declared {10**12} entries, file has 1"
    with pytest.raises(EmbeddingFormatError, match=message):
        load_embeddings(path)


def _load_through_pipe(data, fmt: str = "text") -> EmbeddingSpace:
    # a pipe reports st_size 0, as process substitution <(zcat ...) does
    read_fd, write_fd = os.pipe()

    def write():
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return load_embeddings(f"/dev/fd/{read_fd}", fmt)
    finally:
        writer.join()
        os.close(read_fd)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_text_table_through_a_pipe_loads_like_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr("semvid.embedding._TEXT_LINES", 2)
    text = "6 2\na 3 4\nb 0 1\na 0 0\nc 1 0\nd 0 2\ne 5 0\n"
    path = tmp_path / "vecs.txt"
    path.write_text(text, encoding="utf-8")
    piped, stored = _load_through_pipe(text), load_embeddings(path)
    assert piped.tokens() == stored.tokens() == ["a", "b", "c", "d", "e"]
    assert piped.duplicates == stored.duplicates == 1
    np.testing.assert_array_equal(piped._matrix, stored._matrix)
    with pytest.raises(EmbeddingFormatError, match="zero-norm vector for token 'z'"):
        _load_through_pipe("3 2\na 1 0\nb 0 1\nz 0 0\n")
    with pytest.raises(EmbeddingFormatError, match="header declared 2 entries, file has 3"):
        _load_through_pipe("2 2\na 1 0\nb 0 1\nc 1 1\n")


def test_text_row_with_overflowing_norm_is_rejected_without_warnings(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("2 2\na 1 0\nhuge 1e200 1e200\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmbeddingFormatError, match="non-finite vector for token 'huge'"):
            load_embeddings(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_text_row_that_is_not_finite_is_named(tmp_path, value):
    # the row is zeroed before its float32 cast, but its norm is kept
    path = tmp_path / "vecs.txt"
    path.write_text(f"3 2\na 1 0\nodd {value} 1\nzero 0 0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="non-finite vector for token 'odd'"):
        load_embeddings(path)


def test_text_table_that_is_not_utf8_names_its_row(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"3 2\na 1 0\n\nb\xff 0 1\n")
    with pytest.raises(EmbeddingFormatError, match=r"bad.txt row 3: not valid UTF-8$"):
        load_embeddings(path)
    path.write_bytes(b"3\xff 2\na 1 0\n")
    with pytest.raises(EmbeddingFormatError, match=r"bad.txt header: not valid UTF-8$"):
        load_embeddings(path)
    path.write_bytes(b"1\xff 2\na " + bytes(8))
    with pytest.raises(EmbeddingFormatError, match=r"malformed header .*not UTF-8"):
        load_embeddings(path, fmt="binary")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_table_through_a_pipe_that_is_not_utf8_names_the_file(tmp_path):
    # a pipe cannot be read again to find the line; the binary reader
    # counts its rows itself
    with pytest.raises(EmbeddingFormatError, match=r"^/dev/fd/\d+: not valid UTF-8$"):
        _load_through_pipe(b"3 2\na 1 0\n\nb\xff 0 1\n")
    data = _binary_bytes(2, [("a", [1, 0]), ("b", [0, 1])]).replace(b"\nb ", b"\nb\xff ")
    with pytest.raises(EmbeddingFormatError, match=r"^/dev/fd/\d+ row 2: not valid UTF-8$"):
        _load_through_pipe(data, "binary")

"""Exception hierarchy shared by all semvid modules, and the guard that
turns an input file that is not UTF-8 into one of them."""

import os
import stat


class SemvidError(Exception):
    """Base class for all errors raised by this package."""


class EmbeddingFormatError(SemvidError):
    """Embedding file is malformed (bad header, row, or zero-norm vector)."""


class AllTokensOOV(SemvidError):
    """No token of a text could be resolved in the embedding vocabulary."""

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        super().__init__(f"all tokens out of vocabulary: {list(self.tokens)}")


class ZeroNormError(SemvidError):
    """A vector that must be normalized has zero L2 norm."""


class ConceptFormatError(SemvidError):
    """Concept repository file violates its schema."""


class NoScoreableConcepts(SemvidError):
    """Every concept in the repository is excluded from scoring."""


class IngestError(SemvidError):
    """Corpus score/transcript input violates its contract."""


class EvaluationError(SemvidError):
    """Ground truth does not support the requested metric."""


def checked_string(value, what: str, error=SemvidError) -> str:
    """``value`` if it is a string, else ``error`` saying that ``what``
    must be one: an input file's null or number is never read as text."""
    if not isinstance(value, str):
        raise error(f"{what} must be a string, got {value!r}")
    return value


def checked_sequence(value, what: str, error=SemvidError):
    """``value`` unless it is one string, which a loop would read as its
    characters: then ``error`` saying ``what`` it must be instead."""
    if isinstance(value, str):
        raise error(f"{what}, got the string {value!r}")
    return value


def _line_label(line: int) -> str:
    return f"line {line}"


class open_utf8:
    """``open(path, encoding="utf-8")`` for reading an input file, with
    ``newline=""`` for a ``csv`` file. A byte that is not UTF-8 raises
    ``error`` naming the file, in place of a ``UnicodeDecodeError``. When
    the file is a regular file, which can be read again, the message also
    names its first line with such a byte, counted as the reader counts
    lines (``csv.reader`` records for a ``csv`` file); ``label`` words that
    line number."""

    def __init__(self, path, error=SemvidError, csv=False, label=_line_label):
        self.path, self.error, self.csv, self.label = path, error, csv, label
        self.newline = "" if csv else None

    def __enter__(self):
        self.fh = open(self.path, encoding="utf-8", newline=self.newline)
        return self.fh

    def __exit__(self, kind, exc, traceback):
        self.fh.close()
        if isinstance(exc, UnicodeDecodeError):
            line = self._first_bad_line()
            where = self.path if line is None else f"{self.path} {self.label(line)}"
            raise self.error(f"{where}: not valid UTF-8") from None
        return False

    def _first_bad_line(self):
        """The number of the first line holding a byte that is not UTF-8,
        or None when the file cannot be read again (a pipe) or has none."""
        import csv
        import re

        escaped = re.compile("[\udc80-\udcff]")  # what surrogateescape makes of a bad byte
        try:
            if not stat.S_ISREG(os.stat(self.path).st_mode):
                return None
            with open(self.path, encoding="utf-8", errors="surrogateescape",
                      newline=self.newline) as fh:
                rows = csv.reader(fh) if self.csv else fh
                for line, row in enumerate(rows, start=1):
                    if escaped.search("".join(row)):
                        return line
        except (OSError, csv.Error):
            pass
        return None

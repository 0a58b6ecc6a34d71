"""Retrieval defaults and the key = value config file.

Precedence, lowest to highest: built-in defaults, config file, explicit
command-line flags.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from .errors import SemvidError, open_utf8

# file/flag key -> (RetrievalConfig field, conversion of the file or flag value)
_FIELDS = {
    "kernel": ("kernel", str),
    "mode": ("mode", str),
    "R": ("top_r", int),
    "w": ("fusion_weight", float),
    "k": ("augment_k", int),
    "percentile": ("percentile", float),
}

@dataclass(frozen=True)
class RetrievalConfig:
    """Retrieval settings. Each field is range-checked when the config is
    made, so that a value out of range raises :class:`SemvidError` here
    rather than failing, or silently scoring ``nan``, inside ranking."""

    kernel: str = "pooled"        # pooled | hausdorff
    mode: str = "max"             # max | avg pooling of detector tracks
    top_r: int = 5                # concepts kept when marginalizing
    fusion_weight: float = 6.0    # geometric-mean emphasis on the concept channel
    augment_k: int = 5            # nearest words added to the text-channel query
    percentile: float = 50.0      # order statistic for the Hausdorff kernel

    def __post_init__(self):
        if self.kernel not in ("pooled", "hausdorff"):
            raise SemvidError(f"kernel must be pooled or hausdorff, got {self.kernel!r}")
        if self.mode not in ("max", "avg"):
            raise SemvidError(f"mode must be max or avg, got {self.mode!r}")
        if not isinstance(self.top_r, numbers.Integral):
            raise SemvidError(f"R must be an integer, got {self.top_r!r}")
        if self.top_r < 1:
            raise SemvidError("R must be >= 1")
        w = self.fusion_weight
        if not (isinstance(w, numbers.Real) and math.isfinite(w) and w > 0):
            raise SemvidError(f"w must be finite and positive, got {w}")
        percentile = self.percentile  # NaN fails the range test too
        if not (isinstance(percentile, numbers.Real) and 0.0 < percentile <= 100.0):
            raise SemvidError(f"percentile must be in (0, 100], got {percentile}")
        if not isinstance(self.augment_k, numbers.Integral):
            raise SemvidError(f"k must be an integer, got {self.augment_k!r}")
        if self.augment_k < 0:
            raise SemvidError("k must be >= 0")


DEFAULT_CONFIG = RetrievalConfig()


def parse_config_file(path) -> dict:
    """Read ``key = value`` pairs; '#' starts a comment."""
    values = {}
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SemvidError(f"{path} line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _FIELDS:
                raise SemvidError(f"{path} line {lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def build_config(file_values: dict | None = None, **flag_values) -> RetrievalConfig:
    """Merge defaults, config-file values and flags into one config."""
    merged: dict = {}
    if file_values:
        merged.update(file_values)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value

    fields = {}
    try:
        for key, (name, convert) in _FIELDS.items():
            if key in merged:
                fields[name] = convert(merged[key])
    except ValueError as exc:
        raise SemvidError(f"bad config value: {exc}")
    return replace(DEFAULT_CONFIG, **fields)  # RetrievalConfig checks every field

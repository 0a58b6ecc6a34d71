"""Retrieval defaults and the key = value config file.

Precedence, lowest to highest: built-in defaults, config file, explicit
command-line flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import SemvidError, open_utf8

# File/flag keys understood by the config layer.
CONFIG_KEYS = ("kernel", "mode", "R", "w", "k", "percentile")


@dataclass(frozen=True)
class RetrievalConfig:
    kernel: str = "pooled"        # pooled | hausdorff
    mode: str = "max"             # max | avg pooling of detector tracks
    top_r: int = 5                # concepts kept when marginalizing
    fusion_weight: float = 6.0    # geometric-mean emphasis on the concept channel
    augment_k: int = 5            # nearest words added to the text-channel query
    percentile: float = 50.0      # order statistic for the Hausdorff kernel


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
            if key not in CONFIG_KEYS:
                raise SemvidError(f"{path} line {lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def build_config(file_values: dict | None = None, **flag_values) -> RetrievalConfig:
    """Merge defaults, config-file values and flags into one config."""
    config = DEFAULT_CONFIG
    merged: dict = {}
    if file_values:
        merged.update(file_values)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value

    try:
        if "kernel" in merged:
            config = replace(config, kernel=str(merged["kernel"]))
        if "mode" in merged:
            config = replace(config, mode=str(merged["mode"]))
        if "R" in merged:
            config = replace(config, top_r=int(merged["R"]))
        if "w" in merged:
            config = replace(config, fusion_weight=float(merged["w"]))
        if "k" in merged:
            config = replace(config, augment_k=int(merged["k"]))
        if "percentile" in merged:
            config = replace(config, percentile=float(merged["percentile"]))
    except ValueError as exc:
        raise SemvidError(f"bad config value: {exc}")

    if config.kernel not in ("pooled", "hausdorff"):
        raise SemvidError(f"kernel must be pooled or hausdorff, got {config.kernel!r}")
    if config.mode not in ("max", "avg"):
        raise SemvidError(f"mode must be max or avg, got {config.mode!r}")
    if config.top_r < 1:
        raise SemvidError("R must be >= 1")
    if not (math.isfinite(config.fusion_weight) and config.fusion_weight > 0):
        raise SemvidError(f"w must be finite and positive, got {config.fusion_weight}")
    if not 0.0 < config.percentile <= 100.0:  # NaN fails too
        raise SemvidError(f"percentile must be in (0, 100], got {config.percentile}")
    if config.augment_k < 0:
        raise SemvidError("k must be >= 0")
    return config

"""Scaling benchmark: time event ranking over synthetic corpora.

Ranking cost should grow about linearly with the corpus, so the headline
figure is the ratio of wall times between consecutive (doubled) sizes.
Synthesized data is seeded; timings are reported as min and median over
the repeats, with the ratio taken on the min. Each repeat is a round that
ranks every size once, in turn, so no size is timed right after itself
with its columns still in cache, and a slow stretch of the run (a
collector pass) costs one round rather than every repeat of one size.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .errors import SemvidError
from .retrieval import rank_event
from .synth import bench_setup


@dataclass(frozen=True)
class BenchRow:
    n_videos: int
    min_seconds: float
    median_seconds: float
    ratio_vs_previous: float | None


def run_bench(
    sizes: list[int],
    n_concepts: int = 600,
    dim: int = 300,
    repeat: int = 3,
    seed: int = 7,
) -> list[BenchRow]:
    """Time rank_event at each corpus size, with the default configuration.

    Each corpus is built into its columns once, before any timing, so the
    figures measure ranking rather than ingest; the first corpus is ranked
    once, untimed, to warm up.
    """
    if not sizes or any(n < 1 for n in sizes):
        raise SemvidError("need at least one corpus size, each >= 1")
    for name, value, least in (
        ("repeat", repeat, 1), ("concepts", n_concepts, 1), ("dim", dim, 1), ("seed", seed, 0)
    ):
        if value < least:
            raise SemvidError(f"bench {name} must be >= {least}, got {value}")

    setups = [(n, bench_setup(seed, n, n_concepts, dim)) for n in sizes]
    space, repo, corpus, query = setups[0][1]
    rank_event(query, space, repo, corpus)  # untimed warm-up

    times: list[list[float]] = [[] for _ in setups]
    for _ in range(repeat):  # one round ranks every size once, in turn
        for (_, (space, repo, corpus, query)), taken in zip(setups, times):
            start = time.perf_counter()
            rank_event(query, space, repo, corpus)
            taken.append(time.perf_counter() - start)

    rows: list[BenchRow] = []
    for (n, _), taken in zip(setups, times):
        ratio = min(taken) / rows[-1].min_seconds if rows else None
        rows.append(BenchRow(n, min(taken), statistics.median(taken), ratio))
    return rows


def format_bench_table(rows: list[BenchRow], seed: int) -> str:
    lines = [
        f"# synthetic corpora seeded with {seed}",
        f"{'videos':>8} {'min_s':>10} {'median_s':>10} {'t(2n)/t(n)':>11}",
    ]
    for row in rows:
        ratio = "-" if row.ratio_vs_previous is None else f"{row.ratio_vs_previous:.3f}"
        lines.append(
            f"{row.n_videos:>8} {row.min_seconds:>10.4f} "
            f"{row.median_seconds:>10.4f} {ratio:>11}"
        )
    return "\n".join(lines) + "\n"

"""Scaling benchmark: time event ranking over synthetic corpora.

Ranking cost should grow about linearly with the corpus, so the headline
figure is the ratio of wall times between consecutive (doubled) sizes.
Synthesized data is seeded; timings are reported as min and median over
the repeats, with the ratio taken on the min.
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

    rows: list[BenchRow] = []
    prev_min: float | None = None
    for n, (space, repo, corpus, query) in setups:
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            rank_event(query, space, repo, corpus)
            times.append(time.perf_counter() - start)
        lo = min(times)
        ratio = None if prev_min is None else lo / prev_min
        rows.append(
            BenchRow(n_videos=n, min_seconds=lo, median_seconds=statistics.median(times),
                     ratio_vs_previous=ratio)
        )
        prev_min = lo
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

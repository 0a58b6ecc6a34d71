"""semvid benchmark: seeded workloads, checked outputs, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus_scan --seed 1 --seconds 15 --trace 0

Workloads are defined in ``gen.py``; README.md in this directory explains the
metrics. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run on the same inputs. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

The program is driven only through its public entry points: the
``python -m semvid.cli rank`` and ``eval`` subprocesses (the batch path) and
the library loaders plus ``rank_event`` (single events against a loaded
corpus). One client runs a closed loop: the next request starts when the
previous one has returned.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"

# One BLAS thread: an idle OpenBLAS worker spins on the second core, which on
# a 2-core host slows the measured thread and adds noise. Set before numpy
# loads; inherited by the subprocesses.
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

# A run repeats rounds of every measurement until --seconds are used up, so
# that each metric samples the whole run. On a shared host a core's speed
# switches between two levels about 40% apart, for a second or so at a time,
# and about 1% of calls take two to three times as long as the rest. A sample
# shorter than a second lands on one level, so a best-of or a median over a
# few samples jumps between the levels. The time metrics are therefore
# interquartile means (the mean of the middle half) of samples spread over the
# run: they move with the share of time spent at each level, and ignore the
# rare slow call. Set-up reports the median over the rounds of a round's
# mean set-up time; a round repeats the set-up until SETUP_MIN_S have passed,
# so that each sample spans more than one level.
MIN_ROUNDS = 4
EVAL_PER_ROUND = 3
SLICE_S = 1.0  # single-event timing after each eval run, at most one pass
MIN_PASSES = 2  # timed calls per single event, at least
SETUP_MIN_S = 1.0
CHECK_EVENTS = 2  # batch and single events each whose scores are recomputed
CHECK_VIDEOS = 16  # sampled videos per checked event, plus the top two
CACHE_KEEP = 2  # generated input sets kept per workload


def middle_mean(values) -> float:
    """Interquartile mean: the mean of the middle half of the values."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Run:
    """Operation accounting for one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, problem: str | None, what: str) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{what}: {problem}")


def _load_program():
    """Import semvid from this checkout's src/, or stop before any result."""
    if not (SRC / "semvid" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'semvid'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import semvid

    if Path(semvid.__file__).resolve().parent != (SRC / "semvid").resolve():
        sys.exit(f"error: semvid imported from {semvid.__file__}, not from {SRC}")
    return semvid


def inputs(workload: str, seed: int, tiny: bool) -> Path:
    """Generated inputs for (workload, seed, sizes), made in a separate
    process on first use and cached under .perfbench_cache/inputs."""
    spec = gen.sizes(workload, tiny)
    key = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:10]
    out = CACHE / "inputs" / f"{workload}-s{seed}-{key}"
    if not (out / "manifest.json").is_file():
        out.parent.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
                "--out", str(out)] + (["--tiny"] if tiny else [])
        subprocess.run(argv, check=True, cwd=ROOT)
        entries = sorted(out.parent.glob(f"{workload}-s*"), key=lambda p: p.stat().st_mtime)
        for old in entries[:-CACHE_KEEP]:
            shutil.rmtree(old, ignore_errors=True)
    return out


def child(argv, work: Path, tag: str):
    """Run ``python -m semvid.cli ...`` through spawn.py; returns
    (wall s, peak RSS MB, exit code). Output goes to work/<tag>.out|err."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, str(HERE / "spawn.py"), str(work / f"{tag}.out"),
               str(work / f"{tag}.err"), sys.executable, "-m", "semvid.cli"] + argv
    done = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    return result["wall_s"], result["peak_rss_mb"], result["code"]


def environment(semvid, workload, seed, spec) -> list[str]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    sizes = {k: v for k, v in spec.items() if k not in ("binary", "kernel", "scores")}
    return [
        f"python {platform.python_version()} | numpy {np.__version__} | BLAS {blas} | "
        f"BLAS threads {os.environ[BLAS_VARS[0]]} | nproc {NPROC} | semvid {getattr(semvid, '__version__', '?')}",
        f"git {sha} | workload {workload} | seed {seed} | kernel {spec['kernel']} | "
        f"embeddings {'binary' if spec['binary'] else 'text'} | scores {spec['scores']}",
        f"sizes {json.dumps(sizes, sort_keys=True)}",
        "inputs are read from the OS page cache (generated just before or cached), "
        "so setup_s measures parsing, not a disk",
    ]


class Bench:
    def __init__(self, semvid, data: Path, work: Path, seed: int):
        self.semvid, self.data, self.work = semvid, data, work
        manifest = json.loads((data / "manifest.json").read_text())
        self.manifest, self.spec = manifest, manifest["spec"]
        self.files = {k: str(data / v) for k, v in manifest["files"].items()}
        self.corpus_ids = manifest["video_ids"] + manifest["transcript_only"]
        self.batch_ids = [e["event"] for e in json.loads(Path(self.files["queries"]).read_text())]
        self.fmt = "binary" if self.spec["binary"] else "text"
        self.config = semvid.RetrievalConfig(kernel=self.spec["kernel"])
        self.rng = random.Random(seed)
        self.oracle = oracle.Oracle(data)
        self.run = Run()

    def rank_argv(self, out: str) -> list[str]:
        f = self.files
        argv = ["rank", f["embeddings"], f["concepts"], f["queries"], "--scores", f["scores"],
                "--transcripts", f["transcripts"], "--out", out, "--kernel", self.spec["kernel"]]
        return argv + (["--binary"] if self.spec["binary"] else [])

    def eval_argv(self, ranked: str) -> list[str]:
        return ["eval", ranked, self.files["truth"], "--out", str(self.work / "report.tsv")]

    def setup(self):
        """The four library loads: the time until a first query can be answered."""
        s, f = self.semvid, self.files
        start = perf_counter()
        space = s.load_embeddings(f["embeddings"], self.fmt)
        repo = s.load_concepts(f["concepts"], space)
        corpus = s.load_corpus(f["scores"], repo, f["transcripts"])
        singles = s.load_queries(f["single"])
        return perf_counter() - start, (space, repo, corpus, singles)

    def _sample(self, ids):
        return self.rng.sample(ids, min(CHECK_EVENTS, len(ids)))

    def _videos(self, entries):
        top = [vid for vid, _ in entries[:2]]
        rest = [v for v in self.corpus_ids if v not in top]
        return top + self.rng.sample(rest, min(CHECK_VIDEOS, len(rest)))

    def check_batch(self, ranked: Path, code: int) -> None:
        """One operation per batch event."""
        if code != 0:
            for event in self.batch_ids:
                self.run.op(f"semvid rank exited {code}", f"batch {event}")
            return
        try:
            runs = oracle.read_tsv(ranked)
        except (OSError, ValueError) as exc:
            runs, problem = {}, str(exc)
        else:
            problem = None if list(runs) == self.batch_ids else "events differ from the query file"
        checked = set(self._sample(self.batch_ids))
        for event in self.batch_ids:
            entries = runs.get(event)
            bad = problem or ("missing" if entries is None else
                              oracle.check_ranking(entries, self.corpus_ids, exact=False))
            if not bad and event in checked:
                bad = oracle.check_scores(self.oracle, event, entries, self._videos(entries),
                                          oracle.TSV_TOL)
            self.run.op(bad, f"batch {event}")

    def check_eval(self, ranked: Path, code: int, stdout: str) -> float:
        """One operation; returns MAP from the eval report."""
        problem, mean_ap = None, 0.0
        if code != 0:
            problem = f"semvid eval exited {code}"
        else:
            try:
                report = oracle.read_report(self.work / "report.tsv")
                truth = oracle.read_truth(self.files["truth"])
                runs = oracle.read_tsv(ranked)
                mean_ap = math.fsum(report.values()) / len(report)
                for event, entries in runs.items():
                    ap = oracle.average_precision(entries, event, truth)
                    if abs(report[event] - ap) > oracle.TSV_TOL:
                        problem = f"event {event}: eval AP {report[event]}, recomputed {ap}"
                printed = [ln.split()[1] for ln in stdout.splitlines() if ln.startswith("MAP")]
                if not printed or abs(float(printed[0]) - mean_ap) > 5e-5 + 1e-9:
                    problem = problem or f"printed MAP {printed} disagrees with report {mean_ap}"
            except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                problem = f"unreadable eval output: {exc!r}"
        self.run.op(problem, "eval")
        return mean_ap

    def single(self, loaded, query):
        """Time one rank_event; returns (seconds, ranked list or None)."""
        space, repo, corpus, _ = loaded
        start = perf_counter()
        try:
            ranked = self.semvid.rank_event(query, space, repo, corpus, self.config)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.run.op(repr(exc), f"single {query.event_id}")
            return perf_counter() - start, None
        return perf_counter() - start, ranked

    def check_single(self, ranked, checked) -> None:
        entries = list(ranked.entries)
        bad = oracle.check_ranking(entries, self.corpus_ids, exact=True)
        if not bad and ranked.event_id in checked:
            checked.discard(ranked.event_id)  # recompute each sampled event once
            bad = oracle.check_scores(self.oracle, ranked.event_id, entries,
                                      self._videos(entries), oracle.EXACT_TOL)
        self.run.op(bad, f"single {ranked.event_id}")

    # --- untraced run: end-to-end metrics ---------------------------------

    def timed(self, seconds: float) -> dict:
        """Rounds of: set-ups, one batch CLI run, then EVAL_PER_ROUND times an
        eval CLI run followed by SLICE_S of single events, taken in turn
        where the last slice stopped. A new round starts while it is expected
        to end within --seconds, and until there are MIN_ROUNDS and every
        single event has been timed MIN_PASSES times."""
        setup_times, batch, evals, lengths = [], [], [], []
        ranked = self.work / "ranked.tsv"
        checked, latency, turn = None, None, 0
        start = perf_counter()
        while len(lengths) < MIN_ROUNDS or min(map(len, latency.values())) < MIN_PASSES or \
                perf_counter() - start + statistics.median(lengths) <= seconds:
            began = perf_counter()
            spent = []
            while sum(spent) < SETUP_MIN_S:
                loaded = None
                gc.collect()
                elapsed, loaded = self.setup()
                spent.append(elapsed)
            setup_times.append(statistics.fmean(spent))
            batch.append(child(self.rank_argv(str(ranked)), self.work, "rank"))
            singles = loaded[3]
            if checked is None:
                checked = {q.event_id for q in self._sample(singles)}
                latency = {q.event_id: [] for q in singles}
                self.single(loaded, singles[0])  # warm-up, not counted
            for _ in range(EVAL_PER_ROUND):
                evals.append(child(self.eval_argv(str(ranked)), self.work, "eval"))
                slice_end = perf_counter() + SLICE_S
                for _ in singles:  # closed loop, one client
                    query = singles[turn % len(singles)]
                    turn += 1
                    elapsed, ranked_list = self.single(loaded, query)
                    latency[query.event_id].append(elapsed)
                    if ranked_list is not None:
                        self.check_single(ranked_list, checked)
                    if perf_counter() >= slice_end:
                        break
            lengths.append(perf_counter() - began)
        self.check_batch(ranked, next((code for *_, code in batch if code), 0))
        mean_ap = self.check_eval(ranked, next((code for *_, code in evals if code), 0),
                                  (self.work / "eval.out").read_text())

        ordered = sorted(middle_mean(t) for t in latency.values())
        p90_index = math.ceil(0.9 * len(ordered)) - 1
        timed_calls = sum(map(len, latency.values()))
        self.samples = (len(ordered), timed_calls, len(ordered) - 1 - p90_index)
        return {
            "setup_s": (statistics.median(setup_times), "s"),
            "total_s": (middle_mean(b[0] for b in batch), "s"),
            "event_p50_ms": (1e3 * statistics.median(ordered), "ms"),
            "event_p90_ms": (1e3 * ordered[p90_index], "ms"),
            "eval_s": (middle_mean(e[0] for e in evals), "s"),
            "peak_rss_mb": (statistics.median(b[1] for b in batch), "MB"),
            "mean_ap": (mean_ap, "ratio"),
        }

    # --- traced run: per-layer metrics ------------------------------------

    def traced(self) -> dict:
        from semvid import cli

        quiet = io.StringIO()

        def untraced_rank():
            with contextlib.redirect_stdout(quiet):
                start = perf_counter()
                cli.main(self.rank_argv(str(self.work / "untraced.tsv")))
                return perf_counter() - start

        # the traced rank runs between two untraced ones, so that heap growth
        # and cache warm-up of the first in-process run do not bias the ratio
        untraced = [untraced_rank()]
        tracer = Tracer()
        tracer.install()
        ranked = self.work / "ranked.tsv"
        try:
            tracer.phase("rank")
            with contextlib.redirect_stdout(quiet):
                start = perf_counter()
                rank_code = cli.main(self.rank_argv(str(ranked)))
                traced = perf_counter() - start
            tracer.uninstall()
            untraced.append(untraced_rank())
            tracer.install()
            tracer.phase("eval")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                eval_code = cli.main(self.eval_argv(str(ranked)))
            tracer.phase("setup")
            _, loaded = self.setup()
            tracer.phase("single")
            singles = loaded[3]
            results = [self.single(loaded, q)[1] for q in singles]
        finally:
            tracer.uninstall()
        CACHE.mkdir(exist_ok=True)
        tracer.dump(CACHE / f"trace-{self.data.name}.json")

        self.check_batch(ranked, rank_code)
        self.check_eval(ranked, eval_code, out.getvalue())
        checked = {q.event_id for q in self._sample(singles)}
        for ranked_list in results:
            if ranked_list is not None:
                self.check_single(ranked_list, checked)
        self.absent, self.n_traced = tracer.absent, len(singles)
        return self.layers(tracer, traced / statistics.fmean(untraced), len(singles))

    def layers(self, tracer, overhead, n_events) -> dict:
        spans = tracer.spans

        def phase(label):
            return [s for s in spans if s.phase == label]

        rank = summarize(spans, [s for s in phase("rank") if s.parent == 0])
        evals = summarize(spans, [s for s in phase("eval") if s.parent == 0])
        events = [s for s in phase("single") if s.name == "retrieval.rank_event"]
        single = summarize(spans, events)
        self.event_s = statistics.fmean(s.duration for s in events) if events else math.nan
        self.single_summary = single
        setup = summarize(spans, [s for s in phase("setup") if s.parent == 0])
        self.setup_summary = setup

        def total(table, name):
            return table.get(name, [0, 0.0])[1]

        def per_event(name, field):
            return single.get(name, [0, 0.0, 0.0])[field] / max(n_events, 1)

        def median_ms(name):
            durations = single.get(name, [0, 0.0, 0.0, []])[3]
            return 1e3 * statistics.median(durations) if durations else 0.0

        load_corpus = total(rank, "videos.load_corpus")
        return {
            "embedding.load_s": (total(rank, "embedding.load_embeddings"), "s"),
            "embedding.nearest_words_calls": (per_event("embedding.nearest_words", 0), "count"),
            "embedding.nearest_words_ms": (median_ms("embedding.nearest_words"), "ms"),
            "embedding.embed_tokens_calls": (per_event("embedding.embed_tokens", 0), "count"),
            "embedding.embed_tokens_s": (per_event("embedding.embed_tokens", 1), "s"),
            "concepts.load_s": (total(rank, "concepts.load_concepts"), "s"),
            "concepts.rank_concepts_ms": (median_ms("concepts.rank_concepts"), "ms"),
            "similarity.sim_crosssum_calls": (per_event("similarity.sim_crosssum", 0), "count"),
            "similarity.sim_crosssum_s": (per_event("similarity.sim_crosssum", 1), "s"),
            "similarity.sim_hausdorff_calls": (per_event("similarity.sim_hausdorff", 0), "count"),
            "similarity.sim_hausdorff_s": (per_event("similarity.sim_hausdorff", 1), "s"),
            "similarity.sim_pooled_calls": (per_event("similarity.sim_pooled", 0), "count"),
            "kernels.marginal_scores_s": (per_event("kernels.marginal_scores", 1), "s"),
            "kernels.directed_max_cosines_calls": (per_event("kernels.directed_max_cosines", 0), "count"),
            "kernels.directed_max_cosines_s": (per_event("kernels.directed_max_cosines", 1), "s"),
            "videos.load_corpus_s": (load_corpus, "s"),
            "videos.score_lines_per_s": (
                self.manifest["score_lines"] / load_corpus if load_corpus else 0.0, "1/s"),
            "retrieval.prepare_text_query_ms": (median_ms("retrieval.prepare_text_query"), "ms"),
            "retrieval.fuse_calls": (per_event("retrieval.fuse", 0), "count"),
            "retrieval.fuse_s": (per_event("retrieval.fuse", 1), "s"),
            "retrieval.rank_event_self_s": (per_event("retrieval.rank_event", 2), "s"),
            "retrieval.write_ranked_tsv_s": (total(rank, "retrieval.write_ranked_tsv"), "s"),
            "retrieval.read_ranked_tsv_s": (total(evals, "retrieval.read_ranked_tsv"), "s"),
            "retrieval.load_queries_s": (total(rank, "retrieval.load_queries"), "s"),
            "evaluation.load_truth_s": (total(evals, "evaluation.load_truth"), "s"),
            "evaluation.evaluate_s": (total(evals, "evaluation.evaluate"), "s"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }

    def shares(self) -> list[str]:
        """Self-time shares of a single event, and of set-up, by traced function."""
        lines = [f"single event (traced mean {1e3 * self.event_s:.2f} ms), self-time share:"]
        for name, (calls, _, own, _) in sorted(self.single_summary.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"  {name:<36} {100 * own / (self.event_s * self.n_traced):6.2f} %"
                         f"  ({calls / self.n_traced:g} calls/event)")
        setup_total = sum(v[2] for v in self.setup_summary.values()) or math.nan
        lines.append(f"set-up (traced {setup_total:.3f} s), share:")
        for name, (_, _, own, _) in sorted(self.setup_summary.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"  {name:<36} {100 * own / setup_total:6.2f} %")
        return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes, same code path")
    args = parser.parse_args(argv)

    semvid = _load_program()
    data = inputs(args.workload, args.seed, args.tiny)
    work = CACHE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(semvid, data, work, args.seed)
        for line in environment(semvid, args.workload, args.seed, bench.spec):
            print("#", line)
        if args.trace:
            metrics = bench.traced()
            for line in bench.shares():
                print(line)
            if bench.absent:
                print("absent (reported as 0):", ", ".join(bench.absent))
        else:
            metrics = bench.timed(args.seconds)
            events, calls, beyond = bench.samples
            print(f"single events: {events} events, {calls} timed rank_event calls; "
                  f"latency = interquartile mean of an event's calls; {beyond} events beyond p90; "
                  "one client, closed loop")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run = bench.run
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:14.6f} {unit}")
    print(f"{'error_ratio':<36} {len(run.failures) / run.attempted:14.6f} "
          f"({len(run.failures)} failed of {run.attempted} operations)")
    for problem in run.failures[:10]:
        print("FAILED", problem)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

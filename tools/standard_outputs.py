"""Write the standard output set of this checkout into a directory.

Usage: python3 tools/standard_outputs.py OUTDIR

The set is what a change that must keep every output byte-identical is
checked against: run the script from two checkouts into two directories
and compare them with ``diff -r``. It holds, for each perfbench workload
(corpus_scan, vocab_scan, cold_ingest) at seeds 1 and 101 and each synth
world (seeds 1, 5 and 11):

* ``rank`` outputs (``ranked.tsv``) with both kernels: for a workload, of
  the batch and the single queries, and of the single queries expanded by
  25 words (``-k``); for a world, in both pool modes, at the fusion
  weights 1 and 100 (``-w``) and at the expansions 0 and 25 (``-k``), and
  with the Hausdorff kernel alone at the percentile 75 (``--percentile``),
  so that fusion, query expansion and the Hausdorff percentile are
  compared away from their defaults too (the percentiles 25 and 50 both
  take the smaller of two values, and every title and concept of a world
  has one or two words, so 25 would rank as 50 does);
* the ``eval`` report of every ranking whose events have judgements, and
  the table ``eval`` prints, the only place its MAP and mean AUC appear;
* ``relevance`` for the first query's title with both kernels, with no
  kernel or percentile flag (the defaults), and with the Hausdorff kernel
  at the percentile 75;
* the ``pool`` CSV in both modes;
* for a world, ``rank`` outputs with both kernels from its own max-pooled
  CSV: once from the file as ``pool`` wrote it, which ``semvid`` parses
  with ``np.loadtxt``, and once from a copy with CRLF line ends and every
  field quoted, which takes its ``csv.reader`` route.

That is 243 files.

Inputs are generated into a temporary directory, the workloads by
``perfbench/gen.py --out``; nothing under ``perfbench/`` is written. Every
command runs as ``python -m semvid.cli`` against this checkout's ``src``.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("corpus_scan", "vocab_scan", "cold_ingest")
WORKLOAD_SEEDS = (1, 101)
WORLD_SEEDS = (1, 5, 11)
KERNELS = ("pooled", "hausdorff")
MODES = ("max", "avg")
WEIGHTS = (1, 100)  # fusion weights a world is also ranked at, besides the default
EXPANSIONS = (0, 25)  # query expansions (-k) a world is also ranked at, besides 5
PERCENTILE = 75  # Hausdorff percentile a world is also ranked at, besides 50

# one BLAS thread, as perfbench runs; no output may depend on the count
ENV = dict(os.environ, PYTHONPATH=str(SRC),
           OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run(argv, stdout=None) -> None:
    """Run a command, writing its standard output to ``stdout`` if given;
    stop the script if it fails."""
    done = subprocess.run(argv, env=ENV, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(map(str, argv))} exited {done.returncode}\n{done.stderr}")
    if stdout is not None:
        Path(stdout).write_text(done.stdout, encoding="utf-8")


def semvid(*args, stdout=None) -> None:
    run([sys.executable, "-m", "semvid.cli", *map(str, args)], stdout)


def outputs(files, binary: bool, out: Path, rankings) -> None:
    """Every output of one set of input files into ``out``. ``rankings``
    maps an output name to (query file, extra rank flags, evaluated,
    kernels)."""
    out.mkdir(parents=True, exist_ok=True)
    table = [files["embeddings"], files["concepts"]]
    flags = ["--binary"] if binary else []
    for name, (queries, extra, evaluated, kernels) in rankings.items():
        for kernel in kernels:
            ranked = out / f"{name}-{kernel}.tsv"
            semvid("rank", *table, queries, "--scores", files["scores"],
                   "--transcripts", files["transcripts"], "--kernel", kernel,
                   "--out", ranked, *extra, *flags)
            if evaluated:
                semvid("eval", ranked, files["truth"], "--out", out / f"{name}-{kernel}.eval.tsv",
                       stdout=out / f"{name}-{kernel}.eval.txt")
    with open(files["queries"], encoding="utf-8") as fh:
        title = json.load(fh)[0]["title"]
    relevance = {kernel: ["--kernel", kernel] for kernel in KERNELS}
    relevance["default"] = []  # no kernel or percentile flag
    relevance[f"hausdorff-p{PERCENTILE}"] = ["--kernel", "hausdorff", "--percentile", PERCENTILE]
    for name, extra in relevance.items():
        semvid("relevance", *table, "--query", title, *extra, *flags,
               stdout=out / f"relevance-{name}.txt")
    for mode in MODES:
        semvid("pool", files["scores"], files["concepts"], "--mode", mode,
               "--out", out / f"pool-{mode}.csv")


def workload(name: str, seed: int, tmp: Path, out: Path) -> None:
    data = tmp / f"{name}-{seed}"
    run([sys.executable, str(ROOT / "perfbench" / "gen.py"),
         "--workload", name, "--seed", str(seed), "--out", str(data)])
    manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    files = {key: str(data / path) for key, path in manifest["files"].items()}
    rankings = {"batch": (files["queries"], [], True, KERNELS),
                "single": (files["single"], [], False, KERNELS),
                "single-k25": (files["single"], ["-k", 25], False, KERNELS)}
    outputs(files, manifest["spec"]["binary"], out / f"{name}-{seed}", rankings)


def world(seed: int, tmp: Path, out: Path) -> None:
    data = tmp / f"world-{seed}"
    run([sys.executable, "-c",
         "import sys; from semvid.synth import synth_world, write_world_files; "
         "write_world_files(synth_world(seed=int(sys.argv[1])), sys.argv[2])",
         str(seed), str(data)])
    files = {key: str(data / path) for key, path in (
        ("embeddings", "embeddings.txt"), ("concepts", "concepts.json"),
        ("scores", "scores.jsonl"), ("transcripts", "transcripts.jsonl"),
        ("queries", "queries.json"), ("truth", "truth.csv"))}
    rankings = {mode: (files["queries"], ["--mode", mode], True, KERNELS) for mode in MODES}
    rankings.update({f"w{w}": (files["queries"], ["-w", w], True, KERNELS) for w in WEIGHTS})
    rankings.update({f"k{k}": (files["queries"], ["-k", k], True, KERNELS) for k in EXPANSIONS})
    rankings[f"p{PERCENTILE}"] = (files["queries"], ["--percentile", PERCENTILE], True,
                                  ("hausdorff",))
    outputs(files, False, out / f"world-{seed}", rankings)
    pooled = out / f"world-{seed}" / "pool-max.csv"
    quoted = data / "pool-max-quoted.csv"
    with open(pooled, encoding="utf-8", newline="") as src, \
            open(quoted, "w", encoding="utf-8", newline="") as dst:
        csv.writer(dst, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(csv.reader(src))
    for name, scores in (("csv", pooled), ("csv-quoted", quoted)):
        for kernel in KERNELS:
            semvid("rank", files["embeddings"], files["concepts"], files["queries"],
                   "--scores", scores, "--transcripts", files["transcripts"],
                   "--kernel", kernel, "--out", out / f"world-{seed}" / f"{name}-{kernel}.tsv")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        sys.exit(__doc__.strip().splitlines()[2])
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="semvid-standard-") as tmp:
        for name in WORKLOADS:
            for seed in WORKLOAD_SEEDS:
                workload(name, seed, Path(tmp), out)
        for seed in WORLD_SEEDS:
            world(seed, Path(tmp), out)
    print(f"standard outputs -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

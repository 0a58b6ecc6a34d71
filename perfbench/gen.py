"""Seeded input generator for the semvid benchmark.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR [--tiny]

Builds a clustered retrieval world in the spirit of ``semvid.synth.synth_world``
at workload scale and dimension 300, and writes it in the README file formats:

* embeddings (word2vec text or binary), rows stored at unit norm as float32 so
  that loading keeps them bit-for-bit;
* concepts.json, scores (pre-pooled CSV or per-frame score JSONL),
  transcripts.jsonl, batch.json (the batch events' query file), single.json
  (single events, disjoint titles) and truth.csv (judgements for the batch
  events).

Alongside, for the output check only: ``vectors.npy`` (the float32 table the
embedding file encodes), ``pooled.npy`` (the video x concept probabilities the
score file pools to) and ``manifest.json`` (sizes and id orders). The same
workload, seed and size flag always give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

DIM = 300

# Per-workload sizes. Each workload is sized so that one layer dominates it;
# README.md in this directory records the shares measured at the seed.
WORKLOADS = {
    # Per-video transcript scoring dominates a single event.
    "corpus_scan": dict(
        vocab=3000, binary=False, concepts=600, videos=260, kernel="pooled",
        scores="csv", transcript_share=1.0, tokens=(2, 22), oov_share=0.1,
        transcript_only=0, event_terms=False,
    ),
    # Nearest-word expansion over a table larger than the last-level cache.
    "vocab_scan": dict(
        vocab=16000, binary=True, concepts=300, videos=100, kernel="hausdorff",
        scores="csv", transcript_share=1.0, tokens=(1, 5), oov_share=0.1,
        transcript_only=0, event_terms=True, positives=3,
    ),
    # Ingest of per-frame detector tracks dominates set-up.
    "cold_ingest": dict(
        vocab=5000, binary=False, concepts=300, videos=200, kernel="pooled",
        scores="jsonl", tracks=300, samples=8, transcript_share=0.1, tokens=(4, 12),
        oov_share=0.1, transcript_only=5, event_terms=False,
    ),
}
COMMON = dict(batch_events=25, single_events=100, positives=6)

# Smoke-test sizes: the same code path on a world small enough for a unit test.
TINY = dict(vocab=600, concepts=40, videos=40, tracks=40, batch_events=3, single_events=4,
            positives=3)

# Cluster spread: noise of norm ~0.5 around a unit direction, so tokens of one
# event have cosine ~0.8 with each other and ~0 with everything else.
NOISE = 0.5 / np.sqrt(DIM)


def sizes(workload: str, tiny: bool = False) -> dict:
    spec = dict(COMMON, **WORKLOADS[workload])  # a workload may override COMMON
    if tiny:
        spec.update({k: v for k, v in TINY.items() if k in spec})
    return spec


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """float32 rows whose float64 norm is within float32 rounding of 1."""
    matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    out = matrix.astype(np.float32)
    norms = np.linalg.norm(out.astype(np.float64), axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-7:
        raise AssertionError("generated rows are not unit norm")
    return out


def build(workload: str, seed: int, tiny: bool = False) -> dict:
    """The world as plain Python data plus the two float arrays."""
    spec = sizes(workload, tiny)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    n_events = spec["batch_events"] + spec["single_events"]
    n_video = spec["videos"]

    # vocabulary: 8 tokens clustered around each event direction, then background
    centers = _unit_rows(rng.standard_normal((n_events, DIM))).astype(np.float64)
    event_tokens = []
    for k in range(n_events):
        event_tokens.append(
            {"title": [f"e{k}t{j}" for j in range(2)],
             "concept": [f"e{k}c{j}" for j in range(2)],
             "synonym": [f"e{k}s{j}" for j in range(4)]}
        )
    clustered = [t for ev in event_tokens for part in ("title", "concept", "synonym") for t in ev[part]]
    n_background = spec["vocab"] - len(clustered)
    if n_background < 100:
        raise SystemExit("vocabulary too small for the event count")
    background = [f"w{i}" for i in range(n_background)]
    tokens = clustered + background
    noisy = np.repeat(centers, 8, axis=0) + NOISE * rng.standard_normal((len(clustered), DIM))
    matrix = _unit_rows(np.vstack([noisy, rng.standard_normal((n_background, DIM))]))

    # concepts: two per event (one with a synonym keyword), the rest background
    concepts = []
    for k, ev in enumerate(event_tokens):
        concepts.append({"id": f"k{k}a", "name": ev["concept"][0], "keywords": [ev["synonym"][0]],
                         "kind": "object"})
        concepts.append({"id": f"k{k}b", "name": ev["concept"][1], "kind": "action"})
    for j in range(spec["concepts"] - len(concepts)):
        a, b = rng.choice(n_background, size=2, replace=False)
        concepts.append({"id": f"bg{j}", "name": f"{background[a]} {background[b]}",
                         "kind": ("object", "scene", "action")[j % 3]})
    if len(concepts) != spec["concepts"]:
        raise SystemExit("concept count smaller than two per event")
    col = {c["id"]: i for i, c in enumerate(concepts)}

    # videos: the first positives*batch_events are positives of the batch events
    video_ids = [f"v{i:05d}" for i in range(n_video)]
    n_pos = spec["positives"] * spec["batch_events"]
    if n_pos >= n_video:
        raise SystemExit("every batch event needs positives and the corpus needs negatives")
    owner = [i // spec["positives"] if i < n_pos else None for i in range(n_video)]
    pooled = rng.uniform(0.0, 0.2, size=(n_video, spec["concepts"])).round(4)
    lo, hi = spec["tokens"]

    def words(k, n_syn, n):
        syn = list(rng.choice(event_tokens[k]["synonym"], size=n_syn)) if k is not None else []
        rest = [str(background[i]) for i in rng.integers(0, n_background, size=max(n - n_syn, 0))]
        rest = [f"x{rng.integers(10**6)}" if rng.uniform() < spec["oov_share"] else w for w in rest]
        out = syn + rest
        rng.shuffle(out)
        return " ".join(out)

    transcripts = {}
    for i, vid in enumerate(video_ids):
        k = owner[i]
        stray = None
        if k is not None:
            for cid in rng.choice([f"k{k}a", f"k{k}b"], size=int(rng.integers(1, 3)), replace=False):
                pooled[i, col[cid]] = round(float(rng.uniform(0.4, 0.95)), 4)
        elif rng.uniform() < 0.25:
            # confusable background: moderate detection plus a stray synonym
            stray = int(rng.integers(0, spec["batch_events"]))
            pooled[i, col[f"k{stray}a"]] = round(float(rng.uniform(0.25, 0.5)), 4)
        if rng.uniform() < spec["transcript_share"]:
            src = k if k is not None else stray
            n_syn = int(rng.integers(1, 4)) if k is not None else (1 if stray is not None else 0)
            transcripts[vid] = (words(src, n_syn, int(rng.integers(lo, hi + 1))),
                                words(src, n_syn, int(rng.integers(lo, hi + 1))))
    only_ids = [f"t{i:05d}" for i in range(spec["transcript_only"])]
    for vid in only_ids:
        transcripts[vid] = (words(None, 0, lo), words(None, 0, hi))

    # events: batch first, then single; titles are the events' own tokens
    events = []
    for k, ev in enumerate(event_tokens):
        entry = {"event": f"E{k:03d}", "title": " ".join(ev["title"])}
        if spec["event_terms"] and k % 2 == 0:  # every other event, so OCR and ASR differ
            entry["ocr_terms"] = [ev["synonym"][1]]
            entry["asr_terms"] = [ev["synonym"][2]]
        events.append(entry)

    truth = []
    for k in range(spec["batch_events"]):
        for i, vid in enumerate(video_ids + only_ids):
            truth.append((f"E{k:03d}", vid, int(i < n_video and owner[i] == k)))

    return dict(spec=spec, tokens=tokens, matrix=matrix, concepts=concepts,
                video_ids=video_ids, transcript_only=only_ids, pooled=pooled,
                transcripts=transcripts, batch=events[: spec["batch_events"]],
                single=events[spec["batch_events"]:], truth=truth, rng=rng)


def _write_embeddings(path, tokens, matrix, binary):
    if binary:
        parts = [f"{len(tokens)} {DIM}\n".encode()]
        for token, row in zip(tokens, matrix):
            parts.append(token.encode() + b" " + row.astype("<f4").tobytes() + b"\n")
        Path(path).write_bytes(b"".join(parts))
        return
    fmt = " ".join(["%.9g"] * DIM)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(tokens)} {DIM}\n")
        for token, row in zip(tokens, matrix):
            fh.write(token + " " + fmt % tuple(row.tolist()) + "\n")


def _write_scores(path, world):
    """Write the score file; returns its number of data lines."""
    spec, pooled, rng = world["spec"], world["pooled"], world["rng"]
    ids = [c["id"] for c in world["concepts"]]
    lines = []
    if spec["scores"] == "csv":
        lines.append("video," + ",".join(ids) + "\n")
        for vid, row in zip(world["video_ids"], pooled):
            lines.append(vid + "," + ",".join(map(repr, row.tolist())) + "\n")
    else:
        # per-frame tracks: one line per (video, concept) whose maximum sample
        # is the pooled value; a video covers ``tracks`` concepts, always
        # including its high detections, and the rest pool to zero
        n_samples = spec["samples"]
        for i, vid in enumerate(world["video_ids"]):
            high = np.nonzero(pooled[i] > 0.2)[0]
            low = np.setdiff1d(np.arange(len(ids)), high)
            shown = np.sort(np.concatenate(
                [high, rng.choice(low, size=spec["tracks"] - len(high), replace=False)]))
            keep = np.zeros(len(ids), dtype=bool)
            keep[shown] = True
            pooled[i, ~keep] = 0.0
            peaks = pooled[i, shown]
            samples = (rng.uniform(0.0, 1.0, size=(len(shown), n_samples)) * peaks[:, None]).round(4)
            samples[np.arange(len(shown)), rng.integers(0, n_samples, size=len(shown))] = peaks
            for j, c in enumerate(shown):
                lines.append(json.dumps({"video": vid, "concept": ids[c],
                                         "scores": samples[j].tolist()}) + "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
    return len(lines) - (spec["scores"] == "csv")


def write(world: dict, out: Path) -> None:
    spec = world["spec"]
    out.mkdir(parents=True, exist_ok=True)
    emb = "embeddings.bin" if spec["binary"] else "embeddings.txt"
    scores = "scores.csv" if spec["scores"] == "csv" else "scores.jsonl"
    _write_embeddings(out / emb, world["tokens"], world["matrix"], spec["binary"])
    score_lines = _write_scores(out / scores, world)  # before pooled.npy: JSONL zeroes uncovered concepts
    with open(out / "concepts.json", "w", encoding="utf-8") as fh:
        json.dump(world["concepts"], fh, indent=1)
    with open(out / "transcripts.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for vid in sorted(world["transcripts"]):
            ocr, asr = world["transcripts"][vid]
            fh.write(json.dumps({"video": vid, "ocr": ocr, "asr": asr}) + "\n")
    for name in ("batch", "single"):
        with open(out / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(world[name], fh, indent=1)
    with open(out / "truth.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("event_id,video_id,label\n")
        fh.writelines(f"{e},{v},{label}\n" for e, v, label in world["truth"])
    np.save(out / "vectors.npy", world["matrix"])
    np.save(out / "pooled.npy", world["pooled"])
    manifest = {
        "spec": spec,
        "files": {"embeddings": emb, "concepts": "concepts.json", "scores": scores,
                  "transcripts": "transcripts.jsonl", "queries": "batch.json",
                  "single": "single.json", "truth": "truth.csv"},
        "score_lines": score_lines,
        "tokens": world["tokens"],
        "video_ids": world["video_ids"],
        "transcript_only": world["transcript_only"],
        "event_terms_share": sum("ocr_terms" in e for e in world["single"] + world["batch"])
        / (len(world["single"]) + len(world["batch"])),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    out = Path(args.out)
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    write(build(args.workload, args.seed, args.tiny), tmp)
    os.replace(tmp, out)  # a cache entry appears only once complete
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded synthetic worlds for benchmarks, fixtures and the acceptance suite.

The retrieval world places each event's title tokens, concept-name tokens
and transcript synonym tokens around one direction of a toy vector space,
with unrelated background tokens scattered at random. Positive videos carry
elevated detector scores on their event's concepts and transcripts made of
synonyms (never the title words themselves); background videos carry low
scores and unrelated transcripts. Everything derives from one rng seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .concepts import KINDS, ConceptDefinition, ConceptRepository
from .embedding import EmbeddingSpace
from .evaluation import GroundTruth
from .retrieval import EventQuery
from .videos import Corpus


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def random_space(rng: np.random.Generator, n_tokens: int, dim: int) -> EmbeddingSpace:
    """Vocabulary of random unit vectors, tokens ``w0 .. w<N-1>``."""
    tokens = [f"w{i}" for i in range(n_tokens)]
    matrix = rng.standard_normal((n_tokens, dim))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    return EmbeddingSpace(tokens, matrix)


@dataclass(frozen=True)
class SynthWorld:
    space: EmbeddingSpace
    repo: ConceptRepository
    tracks: dict[str, dict[str, tuple[float, ...]]]  # video id -> concept id -> samples
    transcripts: dict[str, tuple[str, str]]  # video id -> (ocr, asr)
    corpus: Corpus
    queries: list[EventQuery]
    truth: GroundTruth
    seed: int


def synth_world(
    seed: int = 20240,
    n_events: int = 5,
    positives_per_event: int = 30,
    n_videos: int = 300,
    dim: int = 16,
) -> SynthWorld:
    """Build the clustered retrieval world described in the module docstring."""
    rng = np.random.default_rng(seed)
    if n_events * positives_per_event > n_videos:
        raise ValueError("more positives than videos")

    centers = [_unit(rng.standard_normal(dim)) for _ in range(n_events)]
    noise = 0.08

    def near(center: np.ndarray) -> np.ndarray:
        return _unit(center + noise * rng.standard_normal(dim))

    tokens: list[str] = []
    vectors: list[np.ndarray] = []

    def add_token(token: str, vec: np.ndarray) -> None:
        tokens.append(token)
        vectors.append(vec)

    per_event_titles: list[list[str]] = []
    per_event_concept_tokens: list[list[str]] = []
    per_event_synonyms: list[list[str]] = []
    for k in range(n_events):
        titles = [f"ev{k}title{j}" for j in range(2)]
        con = [f"ev{k}con{j}" for j in range(6)]
        syn = [f"ev{k}syn{j}" for j in range(6)]
        for token in titles + con + syn:
            add_token(token, near(centers[k]))
        per_event_titles.append(titles)
        per_event_concept_tokens.append(con)
        per_event_synonyms.append(syn)

    background_tokens = [f"bg{j}" for j in range(200)]
    for token in background_tokens:
        add_token(token, _unit(rng.standard_normal(dim)))

    space = EmbeddingSpace(tokens, np.vstack(vectors))

    concepts: list[ConceptDefinition] = []
    per_event_concept_ids: list[list[str]] = []
    for k in range(n_events):
        ids = []
        for j, token in enumerate(per_event_concept_tokens[k]):
            cid = f"e{k}c{j}"
            keywords = (per_event_synonyms[k][j],) if j % 2 == 0 else ()
            kind = KINDS[j % len(KINDS)]
            concepts.append(ConceptDefinition(id=cid, name=token, keywords=keywords, kind=kind))
            ids.append(cid)
        per_event_concept_ids.append(ids)
    for j in range(20):
        concepts.append(
            ConceptDefinition(
                id=f"bgc{j}",
                name=f"{background_tokens[2 * j]} {background_tokens[2 * j + 1]}",
                kind=KINDS[j % len(KINDS)],
            )
        )
    repo = ConceptRepository(concepts, space)
    all_ids = repo.ids()

    def low_track(cap: float) -> tuple[float, ...]:
        return tuple(rng.uniform(0.0, cap, size=4))

    tracks: dict[str, dict[str, tuple[float, ...]]] = {}
    transcripts: dict[str, tuple[str, str]] = {}
    truth_labels: dict[tuple[str, str], int] = {}

    for idx in range(n_videos):
        video_id = f"v{idx:03d}"
        event = idx // positives_per_event if idx < n_events * positives_per_event else None
        video_tracks: dict[str, tuple[float, ...]] = {}
        if event is not None:
            own_ids = per_event_concept_ids[event]
            n_hi = int(rng.integers(1, 5))
            hi_ids = list(rng.choice(own_ids, size=n_hi, replace=False))
            for cid in hi_ids:
                peak = float(rng.uniform(0.3, 0.95))
                samples = tuple(float(s) for s in rng.uniform(0.0, peak, size=4)) + (peak,)
                video_tracks[str(cid)] = samples
            others = [c for c in all_ids if c not in hi_ids]
            for cid in rng.choice(others, size=3, replace=False):
                video_tracks[str(cid)] = low_track(0.25)
            syn = per_event_synonyms[event]
            n_syn = int(rng.integers(1, 5))
            ocr_words = list(rng.choice(syn, size=n_syn, replace=False)) + list(
                rng.choice(background_tokens, size=5 - n_syn)
            )
            asr_words = list(rng.choice(syn, size=n_syn, replace=False)) + list(
                rng.choice(background_tokens, size=6 - n_syn)
            )
        else:
            shown = [str(c) for c in rng.choice(all_ids, size=4, replace=False)]
            for cid in shown:
                video_tracks[cid] = low_track(0.4)
            ocr_words = list(rng.choice(background_tokens, size=4, replace=False))
            asr_words = list(rng.choice(background_tokens, size=5, replace=False))
            # a slice of background videos is deliberately confusable: a
            # moderate detection on one event's concept plus stray synonyms
            # of the same event in the transcripts
            if rng.uniform() < 0.25:
                k = int(rng.integers(0, n_events))
                cid = str(rng.choice(per_event_concept_ids[k]))
                if cid not in shown:
                    peak = float(rng.uniform(0.3, 0.7))
                    video_tracks[cid] = tuple(rng.uniform(0.0, peak, size=4)) + (peak,)
                syn = per_event_synonyms[k]
                ocr_words[0] = str(rng.choice(syn))
                asr_words[0] = str(rng.choice(syn))
                if rng.uniform() < 0.5:
                    asr_words[1] = str(rng.choice(syn))
        ocr = " ".join(str(w) for w in ocr_words)
        asr = " ".join(str(w) for w in asr_words)
        tracks[video_id] = video_tracks
        transcripts[video_id] = (ocr, asr)

    queries = []
    for k in range(n_events):
        event_id = f"E{k:02d}"
        queries.append(
            EventQuery(event_id=event_id, title_terms=tuple(per_event_titles[k]))
        )
        for idx in range(n_videos):
            positive = idx < n_events * positives_per_event and idx // positives_per_event == k
            truth_labels[(event_id, f"v{idx:03d}")] = int(positive)

    # each track pooled by its max, as ``load_corpus`` pools score JSONL
    S = np.zeros((n_videos, len(repo)))
    for row, video_tracks in enumerate(tracks.values()):
        for cid, samples in video_tracks.items():
            S[row, repo.index_of(cid)] = max(samples)
    return SynthWorld(
        space=space,
        repo=repo,
        tracks=tracks,
        transcripts=transcripts,
        corpus=Corpus(
            repo, tracks, S, [ocr for ocr, _ in transcripts.values()],
            [asr for _, asr in transcripts.values()],
        ),
        queries=queries,
        truth=GroundTruth(labels=truth_labels),
        seed=seed,
    )


def bench_setup(seed: int, n_videos: int, n_concepts: int, dim: int):
    """Random corpus for scaling benchmarks: uniform concept scores and
    short random transcripts, returned already built into a Corpus."""
    rng = np.random.default_rng(seed)
    vocab = n_concepts + 400
    space = random_space(rng, vocab, dim)
    all_tokens = space.tokens()

    concepts = [
        ConceptDefinition(id=f"c{i}", name=all_tokens[i], kind="object")
        for i in range(n_concepts)
    ]
    repo = ConceptRepository(concepts, space)

    scores = rng.uniform(0.0, 1.0, size=(n_videos, n_concepts))
    filler = all_tokens[n_concepts:]
    ocr, asr = [], []
    for _ in range(n_videos):
        words = rng.choice(filler, size=8)
        ocr.append(" ".join(str(w) for w in words[:4]))
        asr.append(" ".join(str(w) for w in words[4:]))
    ids = [f"v{i:06d}" for i in range(n_videos)]
    query = EventQuery(
        event_id="bench",
        title_terms=(all_tokens[n_concepts], all_tokens[n_concepts + 1]),
    )
    return space, repo, Corpus(repo, ids, scores, ocr, asr), query


def write_world_files(world: SynthWorld, directory) -> dict[str, str]:
    """Materialize a world in the on-disk formats the CLI consumes."""
    from pathlib import Path

    from .embedding import save_embeddings

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "embeddings": str(directory / "embeddings.txt"),
        "concepts": str(directory / "concepts.json"),
        "scores": str(directory / "scores.jsonl"),
        "transcripts": str(directory / "transcripts.jsonl"),
        "queries": str(directory / "queries.json"),
        "truth": str(directory / "truth.csv"),
    }

    save_embeddings(world.space, paths["embeddings"], fmt="text")

    with open(paths["concepts"], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            [
                {"id": c.id, "name": c.name, "keywords": list(c.keywords), "kind": c.kind}
                for c in world.repo.concepts
            ],
            fh,
            indent=1,
        )
        fh.write("\n")

    with open(paths["scores"], "w", encoding="utf-8", newline="\n") as fh:
        for video_id in sorted(world.tracks):
            for concept_id, samples in world.tracks[video_id].items():
                fh.write(
                    json.dumps({"video": video_id, "concept": concept_id, "scores": list(samples)})
                    + "\n"
                )

    with open(paths["transcripts"], "w", encoding="utf-8", newline="\n") as fh:
        for video_id in sorted(world.transcripts):
            ocr, asr = world.transcripts[video_id]
            fh.write(json.dumps({"video": video_id, "ocr": ocr, "asr": asr}) + "\n")

    with open(paths["queries"], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            [{"event": q.event_id, "title": " ".join(q.title_terms)} for q in world.queries],
            fh,
            indent=1,
        )
        fh.write("\n")

    with open(paths["truth"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("event_id,video_id,label\n")
        for (event_id, video_id), label in sorted(world.truth.labels.items()):
            fh.write(f"{event_id},{video_id},{label}\n")

    return paths

"""Smoke and negative tests for the benchmark itself.

Run from the repository root: python3 -m pytest perfbench -q

The smoke tests run the real benchmark code path on tiny generated worlds
(``--tiny``); the negative tests perturb outputs here, never in src/, and
require the output check to catch it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def cache(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CACHE", tmp_path / "cache")
    return tmp_path / "cache"


def _run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.05", "--trace", str(trace),
            "--tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_and_passes_check(capsys, workload, trace):
    text, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]] and line.endswith(" " + metric["unit"])
                   for line in text), metric["name"]
    assert any(line.startswith("error_ratio") for line in text)
    if not trace:
        assert any(line.startswith("single events:") for line in text)


@pytest.fixture
def bench(tmp_path):
    semvid = run._load_program()
    data = run.inputs("corpus_scan", 3, tiny=True)
    work = tmp_path / "work"
    work.mkdir()
    return run.Bench(semvid, data, work, seed=3)


def test_check_catches_a_perturbed_single_event_score(bench):
    _, loaded = bench.setup()
    query = loaded[3][0]
    _, ranked = bench.single(loaded, query)
    bench.check_single(ranked, {query.event_id})
    assert bench.run.failures == []

    entries = list(ranked.entries)
    vid, score = entries[0]
    entries[0] = (vid, score + 1e-6)  # order unchanged, score off
    perturbed = type(ranked)(event_id=ranked.event_id, entries=tuple(entries))
    bench.check_single(perturbed, {query.event_id})
    assert len(bench.run.failures) == 1 and vid in bench.run.failures[0]


def test_check_catches_a_misordered_or_incomplete_single_event(bench):
    _, loaded = bench.setup()
    _, ranked = bench.single(loaded, loaded[3][0])
    cls = type(ranked)
    bench.check_single(cls(ranked.event_id, ranked.entries[1:] + ranked.entries[:1]), set())
    bench.check_single(cls(ranked.event_id, ranked.entries[:-1]), set())
    assert len(bench.run.failures) == 2


def _batch(bench):
    ranked = bench.work / "ranked.tsv"
    _, _, code = run.child(bench.rank_argv(str(ranked)), bench.work, "rank")
    assert code == 0
    return ranked


def test_check_catches_a_perturbed_batch_score(bench):
    ranked = _batch(bench)
    lines = ranked.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        event, rank, vid, score = line.rstrip("\n").split("\t")
        if rank == "1":  # every event's top video is always among those checked
            lines[i] = f"{event}\t{rank}\t{vid}\t{float(score) + 1e-5:.6f}\n"
    ranked.write_text("".join(lines))
    bench.check_batch(ranked, 0)
    assert len(bench.run.failures) == run.CHECK_EVENTS
    assert bench.run.attempted == len(bench.batch_ids)


def test_check_catches_a_dropped_batch_line_and_a_failed_exit(bench):
    ranked = _batch(bench)
    lines = ranked.read_text().splitlines(keepends=True)
    ranked.write_text("".join(lines[:-1]))
    bench.check_batch(ranked, 0)
    assert len(bench.run.failures) == 1
    bench.check_batch(ranked, 1)
    assert len(bench.run.failures) == 1 + len(bench.batch_ids)


def test_check_catches_a_wrong_eval_report(bench):
    ranked = _batch(bench)
    _, _, code = run.child(bench.eval_argv(str(ranked)), bench.work, "eval")
    stdout = (bench.work / "eval.out").read_text()
    assert bench.check_eval(ranked, code, stdout) > 0.5
    assert bench.run.failures == []

    report = bench.work / "report.tsv"
    lines = report.read_text().splitlines(keepends=True)
    parts = lines[1].split("\t")
    parts[1] = f"{float(parts[1]) / 2:.6f}"
    lines[1] = "\t".join(parts)
    report.write_text("".join(lines))
    bench.check_eval(ranked, code, stdout)
    assert len(bench.run.failures) == 1


def test_tracer_wraps_every_binding_and_tolerates_a_missing_function(monkeypatch):
    import semvid.concepts
    import semvid.embedding
    import semvid.retrieval

    original = semvid.embedding.embed_tokens
    missing = ("retrieval", "retrieval", "no_such_function", False)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (missing,))
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = semvid.embedding.embed_tokens
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert semvid.retrieval.embed_tokens is wrapped and semvid.concepts.embed_tokens is wrapped
    finally:
        t.uninstall()
    assert semvid.retrieval.embed_tokens is original
    assert t.absent == ["retrieval.no_such_function"]


def test_tracer_self_time_and_aggregation():
    t = tracer.Tracer()
    outer = t._wrap("outer", lambda: [inner() for _ in range(3)], aggregated=False)
    inner = t._wrap("inner", lambda: sum(range(1000)), aggregated=True)
    outer()
    (span,) = t.spans
    assert span.agg["inner"][0] == 3
    table = tracer.summarize(t.spans, [span])
    assert table["inner"][0] == 3
    assert table["outer"][2] == pytest.approx(span.duration - span.agg["inner"][1])

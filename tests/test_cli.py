"""End-to-end command tests through cli.main with real files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semvid
from semvid.cli import main
from semvid.concepts import load_concepts
from semvid.embedding import EmbeddingSpace, load_embeddings, save_embeddings
from semvid.synth import synth_world, write_world_files
from semvid.videos import load_corpus


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("world")
    world = synth_world(seed=11, n_events=2, positives_per_event=10, n_videos=60)
    paths = write_world_files(world, directory)
    return world, paths


def test_pool_writes_csv_and_roundtrips(world_dir, tmp_path):
    world, paths = world_dir
    repo = load_concepts(paths["concepts"])
    for mode in ("max", "avg"):
        out = tmp_path / f"pooled-{mode}.csv"
        code = main(["pool", paths["scores"], paths["concepts"], "--mode", mode, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == sorted(world.tracks)

        # round trip: the CSV loads to the scores the JSONL pools to, bit for bit
        pooled = load_corpus(paths["scores"], repo, mode=mode)
        loaded = load_corpus(str(out), repo)
        assert loaded.ids == pooled.ids
        assert loaded.S.tobytes() == pooled.S.tobytes(), mode
        if mode == "max":  # the synthetic world pools its tracks as the loader does
            assert pooled.S.tobytes() == world.corpus.S.tobytes()


def test_pool_rejects_out_of_range_score(world_dir, tmp_path, capsys):
    _, paths = world_dir
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"video": "v1", "concept": "e0c0", "scores": [1.3]}\n', encoding="utf-8")
    code = main(["pool", str(bad), paths["concepts"], "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_relevance_matches_library_ranking(world_dir, capsys):
    world, paths = world_dir
    code = main([
        "relevance", paths["embeddings"], paths["concepts"],
        "--query", "ev0title0 ev0title1", "--top", "5",
    ])
    assert code == 0
    table = capsys.readouterr().out.strip().splitlines()
    assert len(table) == 6  # header + 5 rows

    from semvid.concepts import rank_concepts, top_r
    from semvid.embedding import embed_tokens

    space = load_embeddings(paths["embeddings"])
    repo = load_concepts(paths["concepts"], space)
    expected = top_r(rank_concepts(repo, embed_tokens(space, ["ev0title0", "ev0title1"])), 5)
    listed = [line.split()[0] for line in table[1:]]
    assert listed == [w.concept_id for w in expected]


def test_relevance_top_zero_empty_table(world_dir, capsys):
    _, paths = world_dir
    code = main(["relevance", paths["embeddings"], paths["concepts"], "--query", "ev0title0", "--top", "0"])
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1  # header only


def test_relevance_negative_top_is_an_input_error(world_dir, capsys):
    _, paths = world_dir
    code = main(["relevance", paths["embeddings"], paths["concepts"], "--query", "ev0title0", "--top", "-1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--top must be >= 0, got -1" in captured.err


def test_relevance_oov_query_fails_with_report(world_dir, capsys):
    _, paths = world_dir
    code = main(["relevance", paths["embeddings"], paths["concepts"], "--query", "xylophone"])
    assert code == 1
    assert "vocabulary" in capsys.readouterr().err


def test_rank_deterministic_and_matches_library(world_dir, tmp_path):
    world, paths = world_dir
    out1, out2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
    argv = [
        "rank", paths["embeddings"], paths["concepts"], paths["queries"],
        "--scores", paths["scores"], "--transcripts", paths["transcripts"],
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    from semvid.retrieval import rank_events, read_ranked_tsv

    runs = rank_events(world.queries, world.space, world.repo, world.corpus)
    parsed = read_ranked_tsv(out1)
    assert [r.event_id for r in parsed] == [r.event_id for r in runs]
    for got, expected in zip(parsed, runs):
        assert [v for v, _ in got.entries] == [v for v, _ in expected.entries]


def shuffled_lines(source, target, rng, header=False):
    """``source``'s lines in a seeded random order (a header line stays first)."""
    lines = Path(source).read_text(encoding="utf-8").splitlines(keepends=True)
    head, body = (lines[:1], lines[1:]) if header else ([], lines)
    Path(target).write_text("".join(head + [body[i] for i in rng.permutation(len(body))]),
                            encoding="utf-8")
    return str(target)


@pytest.mark.parametrize("mode", ["max", "avg"])
def test_rank_is_the_same_for_input_lines_in_any_order(world_dir, tmp_path, mode):
    _, paths = world_dir

    def rank(scores, transcripts):
        out = tmp_path / "ranked.tsv"
        assert main([
            "rank", paths["embeddings"], paths["concepts"], paths["queries"], "--scores", scores,
            "--transcripts", transcripts, "--mode", mode, "--out", str(out),
        ]) == 0
        return out.read_bytes()

    pooled = tmp_path / "pooled.csv"
    assert main(["pool", paths["scores"], paths["concepts"], "--mode", mode,
                 "--out", str(pooled)]) == 0
    expected = rank(paths["scores"], paths["transcripts"])
    assert rank(str(pooled), paths["transcripts"]) == expected
    rng = np.random.default_rng(17 if mode == "max" else 18)
    for trial in range(4):
        scores = shuffled_lines(paths["scores"], tmp_path / f"scores{trial}.jsonl", rng)
        transcripts = shuffled_lines(paths["transcripts"], tmp_path / f"tr{trial}.jsonl", rng)
        csv = shuffled_lines(pooled, tmp_path / f"pooled{trial}.csv", rng, header=True)
        assert rank(scores, transcripts) == expected
        assert rank(scores, paths["transcripts"]) == expected
        assert rank(csv, transcripts) == expected


def test_rank_config_file_and_flag_precedence(world_dir, tmp_path):
    _, paths = world_dir
    config = tmp_path / "run.conf"
    config.write_text("R = 2\nk = 0  # no expansion\n", encoding="utf-8")
    base = [
        "rank", paths["embeddings"], paths["concepts"], paths["queries"],
        "--scores", paths["scores"],
    ]
    out_file = tmp_path / "file.tsv"
    out_flag = tmp_path / "flag.tsv"
    out_default = tmp_path / "default.tsv"
    assert main(base + ["--config", str(config), "--out", str(out_file)]) == 0
    assert main(base + ["--config", str(config), "-R", "5", "--out", str(out_flag)]) == 0
    assert main(base + ["-R", "2", "-k", "0", "--out", str(out_default)]) == 0
    assert out_file.read_bytes() == out_default.read_bytes()  # file == same flags
    assert out_file.read_bytes() != out_flag.read_bytes()      # flag overrides file


def test_eval_reports_metrics(world_dir, tmp_path, capsys):
    _, paths = world_dir
    ranked = tmp_path / "ranked.tsv"
    assert main([
        "rank", paths["embeddings"], paths["concepts"], paths["queries"],
        "--scores", paths["scores"], "--transcripts", paths["transcripts"],
        "--out", str(ranked),
    ]) == 0
    report_out = tmp_path / "report.tsv"
    assert main(["eval", str(ranked), paths["truth"], "--out", str(report_out)]) == 0
    table = capsys.readouterr().out
    assert "MAP" in table and "mean AUC" in table
    lines = report_out.read_text().splitlines()
    assert lines[0] == "event_id\tap\tauc\tn_videos\tn_positives"
    assert len(lines) == 3  # two events


def test_eval_perfect_fixture_map_one(tmp_path, capsys):
    ranked = tmp_path / "ranked.tsv"
    ranked.write_text(
        "event_id\trank\tvideo_id\tscore\n"
        "e1\t1\tva\t0.900000\n"
        "e1\t2\tvb\t0.100000\n",
        encoding="utf-8",
    )
    truth = tmp_path / "truth.csv"
    truth.write_text("e1,va,1\ne1,vb,0\n", encoding="utf-8")
    assert main(["eval", str(ranked), str(truth), "--out", str(tmp_path / "rep.tsv")]) == 0
    report = (tmp_path / "rep.tsv").read_text().splitlines()[1]
    assert report.split("\t")[1] == "1.000000"


def _report(path):
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    return {row[0]: (row[1], row[2]) for row in rows}


def test_eval_matches_library_on_in_memory_lists(world_dir, tmp_path, capsys):
    # eval reads ranked.tsv's six-decimal scores; on this world no positive
    # and negative score round to the same value, so AP and AUC agree with
    # evaluate on the unrounded lists
    from semvid.evaluation import evaluate, load_truth
    from semvid.retrieval import rank_events

    world, paths = world_dir
    ranked = tmp_path / "ranked.tsv"
    assert main([
        "rank", paths["embeddings"], paths["concepts"], paths["queries"],
        "--scores", paths["scores"], "--transcripts", paths["transcripts"], "--out", str(ranked),
    ]) == 0
    assert main(["eval", str(ranked), paths["truth"], "--out", str(tmp_path / "rep.tsv")]) == 0
    runs = rank_events(world.queries, world.space, world.repo, world.corpus)
    library = evaluate(runs, load_truth(paths["truth"]))
    assert _report(tmp_path / "rep.tsv") == {
        r.event_id: (f"{r.ap:.6f}", f"{r.auc:.6f}") for r in library.per_event
    }


def test_eval_rounding_ties_change_auc_not_ap(tmp_path, capsys):
    # scores closer than the sixth decimal print equal: AUC counts the pair
    # as a tie (half a win), AP follows the list order and does not change
    from semvid.evaluation import evaluate, load_truth
    from semvid.retrieval import RankedList, write_ranked_tsv

    runs = [RankedList("e1", (("va", 0.5000004), ("vb", 0.5000001), ("vc", 0.1)))]
    truth = tmp_path / "truth.csv"
    truth.write_text("e1,va,1\ne1,vb,0\ne1,vc,0\n", encoding="utf-8")
    ranked = tmp_path / "ranked.tsv"
    with open(ranked, "w", encoding="utf-8") as fh:
        write_ranked_tsv(runs, fh)
    assert main(["eval", str(ranked), str(truth), "--out", str(tmp_path / "rep.tsv")]) == 0
    library = evaluate(runs, load_truth(truth)).per_event[0]
    assert (library.ap, library.auc) == (1.0, 1.0)
    assert _report(tmp_path / "rep.tsv") == {"e1": ("1.000000", "0.750000")}


def test_bench_smoke(capsys):
    code = main(["bench", "--videos", "64,128", "--concepts", "20", "--dim", "8",
                 "--repeat", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "t(2n)/t(n)" in out


def test_bench_empty_sizes_usage_error(capsys):
    assert main(["bench", "--videos", ","]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--repeat", "0"], ["--seed", "-1"], ["--dim", "0"], ["--concepts", "0"],
     ["--videos", "64,0"]],
)
def test_bench_bad_size_is_input_error_before_any_work(flags, capsys, caplog):
    assert main(["bench", "--videos", "64", "--concepts", "20", "--dim", "8", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "internal error" not in err
    assert not caplog.records  # rejected before a world is built


def test_missing_file_is_input_error(capsys):
    assert main(["eval", "/nonexistent.tsv", "/nonexistent.csv"]) == 1


def test_outputs_end_with_newline(world_dir, tmp_path):
    _, paths = world_dir
    out = tmp_path / "r.tsv"
    main([
        "rank", paths["embeddings"], paths["concepts"], paths["queries"],
        "--scores", paths["scores"], "--out", str(out),
    ])
    assert out.read_bytes().endswith(b"\n")


def _with_bad_byte(src, dst, line: int) -> str:
    """A copy of ``src`` with a byte that is not UTF-8 at the end of line
    ``line``; returns the copy's path."""
    lines = Path(src).read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].rstrip(b"\n") + b"\xff\n"
    Path(dst).write_bytes(b"".join(lines))
    return str(dst)


@pytest.mark.parametrize("which, where", [
    ("embeddings", "row 2"),
    ("binary", "row 3"),
    ("concepts", "line 3"),
    ("queries", "line 4"),
    ("scores", "line 5"),
    ("pooled", "line 3"),
    ("transcripts", "line 2"),
    ("config", "line 2"),
    ("stopwords", "line 2"),
    ("ranked", "line 5"),
    ("truth", "line 3"),
])
def test_input_that_is_not_utf8_is_an_input_error(world_dir, tmp_path, capsys, which, where):
    world, paths = world_dir
    files = dict(paths)
    binary = tmp_path / "embeddings.bin"
    save_embeddings(world.space, binary, fmt="binary")
    files["binary"] = str(binary)
    files["pooled"] = str(tmp_path / "pooled.csv")
    assert main(["pool", paths["scores"], paths["concepts"], "--out", files["pooled"]]) == 0
    files["config"] = str(tmp_path / "run.conf")
    files["stopwords"] = str(tmp_path / "stops.txt")
    (tmp_path / "run.conf").write_text("R = 2\nk = 1\n", encoding="utf-8")
    (tmp_path / "stops.txt").write_text("a\nthe\n", encoding="utf-8")
    files["ranked"] = str(tmp_path / "ranked.tsv")
    assert main(["rank", paths["embeddings"], paths["concepts"], paths["queries"],
                 "--scores", paths["scores"], "--out", files["ranked"]]) == 0
    capsys.readouterr()
    bad = tmp_path / f"bad-{which}"
    if which == "binary":
        # the third token gains the byte: a binary table has no lines
        data = binary.read_bytes()
        token = ("\n" + world.space.tokens()[2] + " ").encode()
        bad.write_bytes(data.replace(token, token[:-1] + b"\xff ", 1))
    else:
        _with_bad_byte(files[which], bad, int(where.split()[1]) + (which == "embeddings"))
    files[which] = str(bad)
    if which in ("ranked", "truth"):
        argv = ["eval", files["ranked"], files["truth"]]
    else:
        argv = ["rank", files["binary" if which == "binary" else "embeddings"], files["concepts"],
                files["queries"], "--transcripts", files["transcripts"],
                "--scores", files["pooled" if which == "pooled" else "scores"],
                "--config", files["config"], "--stopwords", files["stopwords"],
                "--out", str(tmp_path / "out.tsv")]
        argv += ["--binary"] if which == "binary" else []
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {bad} {where}: not valid UTF-8" in err, err


def test_rank_is_the_same_with_one_and_two_blas_threads(tmp_path):
    # the float32 table scan only selects candidates, and every score that
    # reaches the ranking is a fixed-order reduction: the BLAS thread count
    # must not change a byte. 20000 filler rows make the scan's GEMMs large
    # enough for OpenBLAS to split them. The two runs also hash strings with
    # different seeds, so no set or dict order can reach the output.
    world = synth_world(seed=5, n_events=3, positives_per_event=10, n_videos=80, dim=300)
    paths = write_world_files(world, tmp_path)
    fillers = np.random.default_rng(6).standard_normal((20000, 300)).astype(np.float32)
    space = EmbeddingSpace(world.space.tokens() + [f"filler{i}" for i in range(20000)],
                           np.vstack([world.space._matrix, fillers]))
    binary = tmp_path / "embeddings.bin"
    save_embeddings(space, binary, fmt="binary")
    src = str(Path(semvid.__file__).resolve().parent.parent)
    outputs = []
    for threads, hash_seed in (("1", "0"), ("2", "1")):
        out = tmp_path / f"ranked-{threads}.tsv"
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed,
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "semvid.cli", "rank", str(binary), paths["concepts"],
             paths["queries"], "--scores", paths["scores"], "--transcripts",
             paths["transcripts"], "--binary", "--kernel", "hausdorff", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 1 + 3 * 80

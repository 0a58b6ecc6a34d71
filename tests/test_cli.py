"""End-to-end command tests through cli.main with real files."""

import csv
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


def test_pool_round_trips_ids_with_commas_and_quotes(world_dir, tmp_path, capsys):
    # pool quotes an id holding "," or '"', so ranking its CSV gives the
    # ranked.tsv of the JSONL it pooled
    _, paths = world_dir
    video = lambda v: f'{v},"x'  # noqa: E731
    concept = lambda c: f'"{c}",y'  # noqa: E731
    files = _renamed(paths, tmp_path / "in", lambda e: e, video, which=["scores", "transcripts"])
    definitions = json.loads(Path(paths["concepts"]).read_text(encoding="utf-8"))
    files["concepts"] = str(tmp_path / "in" / "concepts.json")
    Path(files["concepts"]).write_text(
        json.dumps([dict(d, id=concept(d["id"])) for d in definitions]), encoding="utf-8"
    )
    lines = [json.loads(line) for line in Path(files["scores"]).read_text(encoding="utf-8").splitlines()]
    Path(files["scores"]).write_text(
        "".join(json.dumps(dict(line, concept=concept(line["concept"]))) + "\n" for line in lines),
        encoding="utf-8",
    )
    pooled = tmp_path / "pooled.csv"
    assert main(["pool", files["scores"], files["concepts"], "--out", str(pooled)]) == 0
    ranked = []
    for scores in (files["scores"], str(pooled)):
        out = tmp_path / f"ranked-{len(ranked)}.tsv"
        assert main(["rank", files["embeddings"], files["concepts"], files["queries"],
                     "--scores", scores, "--transcripts", files["transcripts"],
                     "--out", str(out)]) == 0
        ranked.append(out.read_text(encoding="utf-8"))
    assert ranked[0] == ranked[1]
    assert f"\t{video('v001')}\t" in ranked[0]


def test_relevance_matches_library_ranking(world_dir, capsys):
    world, paths = world_dir
    code = main([
        "relevance", paths["embeddings"], paths["concepts"],
        "--query", "ev0title0 ev0title1", "--top", "5",
    ])
    assert code == 0
    table = capsys.readouterr().out.strip().splitlines()
    assert len(table) == 6  # header + 5 rows

    from semvid.concepts import rank_concepts
    from semvid.embedding import embed_tokens

    space = load_embeddings(paths["embeddings"])
    repo = load_concepts(paths["concepts"], space)
    expected = rank_concepts(repo, embed_tokens(space, ["ev0title0", "ev0title1"]))[:5]
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


def test_rank_warning_reaches_stderr(world_dir, tmp_path):
    # a fresh process: in this one the test runner's log capture holds the
    # root logger, so only a child shows what the command sets up
    _, paths = world_dir
    definitions = json.loads(Path(paths["concepts"]).read_text(encoding="utf-8"))
    concepts = tmp_path / "concepts.json"
    concepts.write_text(json.dumps(definitions + [{"id": "ghost", "name": "zzzqqq"}]),
                        encoding="utf-8")
    src = str(Path(semvid.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "semvid.cli", "rank", paths["embeddings"], str(concepts),
         paths["queries"], "--scores", paths["scores"], "--out", str(tmp_path / "ranked.tsv")],
        env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True, text=True,
    )
    assert done.stderr == (
        f"WARNING 1 of {len(definitions) + 1} concepts fully out of vocabulary, "
        "excluded from scoring: ['ghost']\n"
    )


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


@pytest.mark.parametrize("flags, message", [
    (["--kernel", "hausdorff", "--percentile", "0"], "percentile must be in (0, 100], got 0.0"),
    (["--kernel", "hausdorff", "--percentile", "nan"], "percentile must be in (0, 100], got nan"),
    (["--percentile", "150"], "percentile must be in (0, 100], got 150.0"),
    (["-w", "nan"], "w must be finite and positive, got nan"),
    (["-w", "inf"], "w must be finite and positive, got inf"),
    (["-w", "0"], "w must be finite and positive, got 0.0"),
])
def test_rank_out_of_range_flag_is_an_input_error(world_dir, tmp_path, capsys, flags, message):
    # a NaN or infinite w would score every video nan or 1.000000, and a
    # percentile of 0 has no order statistic
    _, paths = world_dir
    out = tmp_path / "ranked.tsv"
    code = main([
        "rank", paths["embeddings"], paths["concepts"], paths["queries"],
        "--scores", paths["scores"], "--out", str(out),
    ] + flags)
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("percentile = 0", "percentile must be in (0, 100], got 0.0"),
    ("percentile = 100.5", "percentile must be in (0, 100], got 100.5"),
    ("w = nan", "w must be finite and positive, got nan"),
    ("w = -inf", "w must be finite and positive, got -inf"),
])
def test_rank_out_of_range_config_value_is_an_input_error(world_dir, tmp_path, capsys, line, message):
    _, paths = world_dir
    config = tmp_path / "run.conf"
    config.write_text(line + "\n", encoding="utf-8")
    code = main([
        "rank", paths["embeddings"], paths["concepts"], paths["queries"],
        "--scores", paths["scores"], "--config", str(config), "--out", str(tmp_path / "r.tsv"),
    ])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("kernel", ["pooled", "hausdorff"])
@pytest.mark.parametrize("percentile", ["0", "nan", "150", "-5"])
def test_relevance_out_of_range_percentile_is_an_input_error(world_dir, capsys, kernel, percentile):
    _, paths = world_dir
    code = main([
        "relevance", paths["embeddings"], paths["concepts"], "--query", "ev0title0",
        "--kernel", kernel, "--percentile", percentile,
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: percentile must be in (0, 100]" in captured.err


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


@pytest.mark.parametrize("lines, message", [
    (["E1\t1\tv1\tabc"], "line 2: non-numeric score 'abc'"),
    (["E1\t1\tv1\t0.9", "E2\t1\tv1\t0.9", "E1\t2\tv2\t0.5", "E1\t3\tv1\t0.1"],
     "line 5: video 'v1' ranked twice for event 'E1'"),
], ids=["non-numeric score", "video ranked twice"])
def test_eval_rejects_a_bad_ranked_tsv_line(tmp_path, capsys, lines, message):
    ranked = tmp_path / "ranked.tsv"
    ranked.write_text(
        "event_id\trank\tvideo_id\tscore\n" + "".join(line + "\n" for line in lines),
        encoding="utf-8",
    )
    truth = tmp_path / "truth.csv"
    truth.write_text("E1,v1,1\nE1,v2,0\nE2,v1,1\nE2,v2,0\n", encoding="utf-8")
    assert main(["eval", str(ranked), str(truth)]) == 1
    assert capsys.readouterr().err == f"error: {ranked} {message}\n"


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


def _renamed(paths, directory, event, video, which=("queries", "scores", "transcripts", "truth")):
    """The world's input files, with every event id renamed by ``event`` and
    every video id by ``video`` in the files named in ``which``; the rest
    are the originals."""
    directory = Path(directory)
    directory.mkdir(exist_ok=True)
    files = dict(paths)
    for name in which:
        files[name] = str(directory / Path(paths[name]).name)
        source = Path(paths[name]).read_text(encoding="utf-8")
        if name == "queries":
            queries = [dict(q, event=event(q["event"])) for q in json.loads(source)]
            text = json.dumps(queries)
        elif name == "truth":
            rows = [row.split(",") for row in source.splitlines()]
            rows[1:] = [[event(e), video(v), label] for e, v, label in rows[1:]]
            with open(files[name], "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows(rows)
            continue
        else:
            lines = [json.loads(line) for line in source.splitlines()]
            text = "".join(json.dumps(dict(line, video=video(line["video"]))) + "\n" for line in lines)
        Path(files[name]).write_text(text, encoding="utf-8")
    return files


@pytest.mark.parametrize("char", ["\t", "\r", "\n"])
@pytest.mark.parametrize("which", ["queries", "scores", "pooled", "transcripts"])
def test_id_that_breaks_a_ranked_tsv_is_an_input_error(world_dir, tmp_path, capsys, which, char):
    # rank used to write such an id into a ranked.tsv that eval then rejected
    _, paths = world_dir
    bad_event = {"E01": f"E0{char}1"}
    bad_video = {"v001": f"v0{char}01"}
    files = _renamed(paths, tmp_path / "in", lambda e: bad_event.get(e, e),
                     lambda v: bad_video.get(v, v),
                     which=[{"pooled": "scores"}.get(which, which)])
    if which == "pooled":
        files["scores"] = str(tmp_path / "pooled.csv")
        assert main(["pool", paths["scores"], paths["concepts"], "--out", files["scores"]]) == 0
        with open(files["scores"], encoding="utf-8", newline="") as fh:
            rows = [[bad_video.get(row[0], row[0])] + row[1:] for row in csv.reader(fh)]
        with open(files["scores"], "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
    out = tmp_path / "ranked.tsv"
    code = main(["rank", files["embeddings"], files["concepts"], files["queries"],
                 "--scores", files["scores"], "--transcripts", files["transcripts"],
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    if which == "queries":
        where = f"{files['queries']} entry 1: event id {bad_event['E01']!r}"
    else:
        path = files["transcripts" if which == "transcripts" else "scores"]
        # the first line of v001: the pooled CSV is in id order, after its header
        line = {"pooled": 3, "transcripts": 2}.get(which) or next(
            i for i, text in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1)
            if json.loads(text)["video"] == bad_video["v001"]
        )
        where = f"{path} line {line}: video id {bad_video['v001']!r}"
    assert f"error: {where} holds a tab, CR or LF" in err, err


def test_rank_then_eval_round_trips_ids_with_spaces_and_other_separators(world_dir, tmp_path, capsys):
    # only a tab, CR or LF breaks a ranked TSV line; other whitespace and
    # separators that str.splitlines knows (VT, FF, NEL, U+2028) do not
    _, paths = world_dir
    event = lambda e: f"{e} \x0b\u2028é"  # noqa: E731
    video = lambda v: f"{v} \x0c\x85ü"  # noqa: E731
    reports = []
    for files in (paths, _renamed(paths, tmp_path / "renamed", event, video)):
        ranked, report = tmp_path / "ranked.tsv", tmp_path / "report.tsv"
        assert main(["rank", files["embeddings"], files["concepts"], files["queries"],
                     "--scores", files["scores"], "--transcripts", files["transcripts"],
                     "--out", str(ranked)]) == 0
        assert main(["eval", str(ranked), files["truth"], "--out", str(report)]) == 0
        reports.append(report.read_text(encoding="utf-8").split("\n"))
    capsys.readouterr()
    plain, renamed = reports
    assert len(renamed) == len(plain) == 4  # header, two events, the final newline
    assert renamed[1:3] == [
        line.replace(line.split("\t")[0], event(line.split("\t")[0]), 1) for line in plain[1:3]
    ]


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

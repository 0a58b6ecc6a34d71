"""Start-up: lazy package exports, and what each command imports.

The import checks run in a fresh interpreter, since the test process has
numpy loaded already.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import semvid
import semvid.ranked
import semvid.retrieval

SRC = Path(semvid.__file__).resolve().parent.parent


def _child(code: str, cwd) -> str:
    """Run ``code`` in a fresh interpreter that imports semvid from SRC;
    returns its stdout."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_bare_import_loads_no_numpy(tmp_path):
    out = _child("import sys, semvid; print('numpy' in sys.modules, semvid.__version__)", tmp_path)
    assert out.split() == ["False", semvid.__version__]


def test_eval_command_runs_without_numpy(tmp_path):
    # nor logging, dataclasses or inspect; the modules are compared before
    # and after, since a host's site may load some of them first
    (tmp_path / "ranked.tsv").write_text(
        "event_id\trank\tvideo_id\tscore\n"
        "e1\t1\tva\t0.900000\ne1\t2\tvb\t0.500000\ne1\t3\tvc\t0.500000\n",
        encoding="utf-8",
    )
    (tmp_path / "truth.csv").write_text("e1,va,1\ne1,vb,0\ne1,vc,1\n", encoding="utf-8")
    out = _child(
        """
        import contextlib, io, sys
        before = set(sys.modules)
        from semvid import cli
        table = io.StringIO()
        with contextlib.redirect_stdout(table):
            code = cli.main(["eval", "ranked.tsv", "truth.csv", "--out", "report.tsv"])
        added = set(sys.modules) - before
        print(code, sorted(added & {"numpy", "logging", "dataclasses", "inspect"}))
        print(table.getvalue())
        """,
        tmp_path,
    )
    verdict, table = out.split("\n", 1)
    assert verdict == "0 []"
    assert "MAP" in table
    report = (tmp_path / "report.tsv").read_text(encoding="utf-8")
    assert report.splitlines()[1] == "e1\t0.833333\t0.750000\t3\t2"


def test_avg_pooling_does_not_import_numpy_ma(tmp_path):
    # the first np.unique of a process imports numpy.ma (8-18 ms, 1.7 MB);
    # ranking with either kernel then leaves the single-pair similarity
    # module unloaded
    lines = [
        {"video": v, "concept": c, "scores": [0.1 * (k + 1)] * (k % 4 + 1)}
        for k, (v, c) in enumerate((v, c) for v in ("v0", "v1", "v2") for c in ("c0", "c1"))
    ]
    (tmp_path / "scores.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
    )
    out = _child(
        """
        import sys
        from semvid.concepts import ConceptDefinition, ConceptRepository
        from semvid.videos import load_corpus
        concepts = [ConceptDefinition(id=c, name=c) for c in ("c0", "c1")]
        corpus = load_corpus("scores.jsonl", ConceptRepository(concepts), mode="avg")
        print("numpy.ma" in sys.modules, len(corpus), "numpy" in sys.modules)

        import numpy as np
        from semvid.config import RetrievalConfig
        from semvid.embedding import EmbeddingSpace
        from semvid.retrieval import EventQuery, rank_events
        space = EmbeddingSpace(["c0", "c1", "x"], np.eye(3))
        repo = ConceptRepository(concepts, space)
        corpus = load_corpus("scores.jsonl", repo, mode="avg")
        for kernel in ("pooled", "hausdorff"):
            config = RetrievalConfig(kernel=kernel, augment_k=1)
            rank_events([EventQuery("e", ("c0", "x"))], space, repo, corpus, config)
        print("semvid.similarity" in sys.modules)
        """,
        tmp_path,
    )
    assert out.split() == ["False", "3", "True", "False"]


def test_every_export_is_its_module_object_and_listed():
    assert semvid.__all__ == sorted(semvid._EXPORTS)
    listing = dir(semvid)
    for name in semvid.__all__:
        module = importlib.import_module(f"semvid.{semvid._EXPORTS[name]}")
        assert getattr(semvid, name) is getattr(module, name), name
        assert name in listing
    assert "__version__" in listing


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(semvid, "no_such_name")
    assert not hasattr(semvid, "RankedLists")


def test_ranked_list_and_tsv_helpers_still_import_from_retrieval():
    for name in ("RankedList", "read_ranked_tsv", "write_ranked_tsv"):
        assert getattr(semvid.retrieval, name) is getattr(semvid.ranked, name)

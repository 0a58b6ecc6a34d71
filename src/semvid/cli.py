"""Batch command line: pool | relevance | rank | eval | bench.

Exit codes: 0 success, 1 input error, 2 internal invariant violation.
All outputs are deterministic for identical inputs and flags (bench timing
figures excepted; its synthesized data is still seeded).
"""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import SemvidError

# Each command imports what it runs and pays only its own start-up: ``eval``
# loads no numpy, and only ``bench`` loads the bench and synth modules.


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for bugs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SemvidError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="semvid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pool = sub.add_parser("pool", help="pool score tracks into a pre-pooled CSV")
    pool.add_argument("scores", help="score JSONL file")
    pool.add_argument("concepts", help="concept repository JSON")
    pool.add_argument("--mode", choices=["max", "avg"], default="max")
    pool.add_argument("--out", required=True, help="output CSV path")

    rel = sub.add_parser("relevance", help="rank concepts by relevance to a query")
    rel.add_argument("embeddings", help="word2vec embedding table (text, or --binary)")
    rel.add_argument("concepts", help="concept repository JSON")
    rel.add_argument("--query", required=True, help="free-text event query")
    rel.add_argument("--kernel", choices=["pooled", "hausdorff"], default="pooled")
    rel.add_argument("--percentile", type=float, default=50.0)
    rel.add_argument("--top", type=int, default=20)
    rel.add_argument("--stopwords", help="stop-word override file")
    rel.add_argument("--binary", action="store_true", help="embeddings are packed binary")

    rank = sub.add_parser("rank", help="rank corpus videos for each event query")
    rank.add_argument("embeddings")
    rank.add_argument("concepts")
    rank.add_argument("queries", help="query JSON file")
    rank.add_argument("--scores", required=True, help="score JSONL or pre-pooled CSV")
    rank.add_argument("--transcripts", help="transcript JSONL")
    rank.add_argument("--out", help="ranked TSV path (default stdout)")
    rank.add_argument("--config", help="key = value config file")
    rank.add_argument("--kernel", choices=["pooled", "hausdorff"])
    rank.add_argument("--mode", choices=["max", "avg"])
    rank.add_argument("-R", type=int, dest="top_r", metavar="R")
    rank.add_argument("-w", type=float, dest="fusion_w", metavar="W")
    rank.add_argument("-k", type=int, dest="augment_k", metavar="K")
    rank.add_argument("--percentile", type=float)
    rank.add_argument("--stopwords")
    rank.add_argument("--binary", action="store_true")

    ev = sub.add_parser("eval", help="score a ranked TSV against ground truth")
    ev.add_argument("ranked", help="ranked TSV from the rank command")
    ev.add_argument("truth", help="ground truth CSV: event_id,video_id,label")
    ev.add_argument("--out", help="report TSV path (default: appended to stdout)")

    bench = sub.add_parser("bench", help="time event ranking at growing corpus sizes")
    bench.add_argument("--videos", required=True, help="comma-separated corpus sizes")
    bench.add_argument("--concepts", type=int, default=600)
    bench.add_argument("--dim", type=int, default=300)
    bench.add_argument("--repeat", type=int, default=3)
    bench.add_argument("--seed", type=int, default=7)
    return parser


def _stops(args):
    from .stopwords import DEFAULT_STOPWORDS, load_stopwords

    return load_stopwords(args.stopwords) if getattr(args, "stopwords", None) else DEFAULT_STOPWORDS


def _fmt(args):
    return "binary" if getattr(args, "binary", False) else "text"


def _cmd_pool(args) -> int:
    from .concepts import load_concepts
    from .videos import load_corpus

    repo = load_concepts(args.concepts)
    corpus = load_corpus(args.scores, repo, mode=args.mode)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("video," + ",".join(repo.ids()) + "\n")
        for video, row in sorted(zip(corpus.ids, corpus.S.tolist())):  # ids are unique
            fh.write(video + "," + ",".join(map(repr, row)) + "\n")
    print(f"pooled {len(corpus)} videos x {len(repo)} concepts -> {args.out}")
    return 0


def _cmd_relevance(args) -> int:
    from .concepts import load_concepts, rank_concepts
    from .embedding import embed_tokens, load_embeddings, tokenize

    if args.top < 0:
        raise SemvidError(f"--top must be >= 0, got {args.top}")
    stops = _stops(args)
    space = load_embeddings(args.embeddings, _fmt(args))
    repo = load_concepts(args.concepts, space, stops)
    tokens = tokenize(args.query, stops)
    query_set = embed_tokens(space, tokens)
    if query_set.oov:
        print(f"note: query tokens out of vocabulary: {list(query_set.oov)}", file=sys.stderr)
    ranked = rank_concepts(repo, query_set, args.kernel, args.percentile)[: args.top]
    width = max([len("concept")] + [len(w.concept_id) for w in ranked])
    print(f"{'concept':<{width}}  {'weight':>9}")
    for wc in ranked:
        print(f"{wc.concept_id:<{width}}  {wc.weight:>9.6f}")
    return 0


def _cmd_rank(args) -> int:
    from .concepts import load_concepts
    from .config import build_config, parse_config_file
    from .embedding import load_embeddings
    from .ranked import write_ranked_tsv
    from .retrieval import load_queries, rank_events
    from .videos import load_corpus

    stops = _stops(args)
    file_values = parse_config_file(args.config) if args.config else None
    config = build_config(
        file_values,
        kernel=args.kernel,
        mode=args.mode,
        R=args.top_r,
        w=args.fusion_w,
        k=args.augment_k,
        percentile=args.percentile,
    )
    space = load_embeddings(args.embeddings, _fmt(args))
    repo = load_concepts(args.concepts, space, stops)
    corpus = load_corpus(args.scores, repo, args.transcripts, config.mode)
    queries = load_queries(args.queries, stops)
    runs = rank_events(queries, space, repo, corpus, config)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write_ranked_tsv(runs, fh)
    else:
        write_ranked_tsv(runs, sys.stdout)
    return 0


def _cmd_eval(args) -> int:
    from .evaluation import evaluate, format_report_table, load_truth, write_report_tsv
    from .ranked import read_ranked_tsv

    runs = read_ranked_tsv(args.ranked)
    truth = load_truth(args.truth)
    report = evaluate(runs, truth)
    sys.stdout.write(format_report_table(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write_report_tsv(report, fh)
    else:
        sys.stdout.write("\n")
        write_report_tsv(report, sys.stdout)
    return 0


def _cmd_bench(args) -> int:
    from .bench import format_bench_table, run_bench

    try:
        sizes = [int(s) for s in args.videos.split(",") if s.strip()]
    except ValueError:
        raise SemvidError(f"--videos must be comma-separated integers, got {args.videos!r}")
    rows = run_bench(
        sizes, n_concepts=args.concepts, dim=args.dim, repeat=args.repeat, seed=args.seed
    )
    sys.stdout.write(format_bench_table(rows, args.seed))
    return 0


_COMMANDS = {
    "pool": _cmd_pool,
    "relevance": _cmd_relevance,
    "rank": _cmd_rank,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (SemvidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 1
    except Exception as exc:  # invariant violation, not an input problem
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

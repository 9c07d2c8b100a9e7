"""Command-line front end.

Subcommands cover the individual pipeline stages (index, tune-mu, tune-rm3,
search, weigh, rerank, eval) plus the one-shot `experiment` protocol and the
`make-synthetic` test-collection generator.  A config file supplies defaults;
explicit flags override it.  Exit code 0 on success, nonzero with a message
on stderr otherwise.
"""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig, load_config, override, save_config
from .evaluation import (
    Qrels,
    average_precision,
    load_qrels,
    load_topics,
    precision_at,
    reciprocal_rank,
    tune_mu,
)
from .experiment import (
    RM3_LABEL,
    expand_and_weigh,
    make_queries,
    rerank_queries,
    run_experiment,
    tune,
)
from .index import Index, build_index, read_corpus
from .rerank import check_rerank
from .retrieval import LogProbMemo, add_up, check_positive_mu, read_run, retrieve_topk, write_run
from .synthetic import make_synthetic, write_collection
from .weighting import WeightingMethod, dump_weight_tables


def _load_index(args, config: ExperimentConfig) -> Index:
    if getattr(args, "snapshot", None):
        return Index.load(args.snapshot)
    if not config.corpus:
        raise ValueError("need --snapshot or --corpus")
    return build_index(read_corpus(config.corpus), config.analyzer)


def _queries_for(config: ExperimentConfig, index: Index):
    if not config.topics:
        raise ValueError("need --topics")
    return make_queries(load_topics(config.topics), index)[0]


def _qrels_for(config: ExperimentConfig) -> Qrels:
    if not config.qrels:
        raise ValueError("need --qrels")
    return load_qrels(config.qrels)


def _config_from(args) -> ExperimentConfig:
    config = load_config(args.config) if getattr(args, "config", None) else ExperimentConfig()
    return override(
        config,
        corpus=getattr(args, "corpus", None),
        topics=getattr(args, "topics", None),
        qrels=getattr(args, "qrels", None),
        output_dir=getattr(args, "out_dir", None),
        k=getattr(args, "k", None),
        rerank_depth=getattr(args, "rerank_depth", None),
        qpp_m=getattr(args, "qpp_m", None),
        weighting_method=(
            WeightingMethod.from_string(args.method)
            if getattr(args, "method", None) and args.method != RM3_LABEL
            else None
        ),
    )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    flags = {
        "config": lambda: p.add_argument("--config", help="INI config file"),
        "snapshot": lambda: p.add_argument("--snapshot", help="index snapshot file"),
        "corpus": lambda: p.add_argument("--corpus", help="corpus JSONL file or text directory"),
        "topics": lambda: p.add_argument("--topics", help="tab-separated topics file"),
        "qrels": lambda: p.add_argument("--qrels", help="TREC qrels file"),
        "mu": lambda: p.add_argument("--mu", type=float, help="Dirichlet smoothing mass"),
        "k": lambda: p.add_argument("--k", type=int, help="retrieval depth"),
        "method": lambda: p.add_argument(
            "--method",
            help="weighting method (TWQP(WIG), TWQP(NQC), TWQP(ScoreRatio), "
            "nWIG, ScoreRatio, SROR) or RM3Opt",
        ),
        "rm3_m": lambda: p.add_argument(
            "--rm3-m", dest="rm3_m", type=int, default=10, help="feedback depth"
        ),
        "qpp": lambda: p.add_argument(
            "--qpp-m", dest="qpp_m", type=int, help="predictor cutoff override"
        ),
    }
    for name in names:
        flags[name]()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twqp",
        description="Query-likelihood retrieval with prediction-based term weighting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build an index snapshot from a corpus")
    _add_common(p, "config", "corpus")
    p.add_argument("--out", required=True, help="snapshot output path")

    p = sub.add_parser("tune-mu", help="pick the smoothing mass maximizing mean AP")
    _add_common(p, "config", "snapshot", "corpus", "topics", "qrels", "k")

    p = sub.add_parser("tune-rm3", help="pick the feedback depth maximizing mean AP")
    _add_common(p, "config", "snapshot", "corpus", "topics", "qrels", "mu", "k")

    p = sub.add_parser("search", help="retrieve top-k lists and write a run file")
    _add_common(p, "config", "snapshot", "corpus", "topics", "mu", "k")
    p.add_argument("--out", required=True, help="run file output path")
    p.add_argument("--tag", default="QL", help="run tag")

    p = sub.add_parser("weigh", help="dump term weight tables for a method")
    _add_common(p, "config", "snapshot", "corpus", "topics", "mu", "k", "method", "rm3_m", "qpp")
    p.add_argument("--out", required=True, help="weight table output path")

    p = sub.add_parser("rerank", help="retrieve, weigh and re-rank; write a run file")
    _add_common(p, "config", "snapshot", "corpus", "topics", "mu", "k", "method", "rm3_m", "qpp")
    p.add_argument("--rerank-depth", dest="rerank_depth", type=int, help="re-scored head size")
    p.add_argument("--out", required=True, help="run file output path")

    p = sub.add_parser("eval", help="score a run file against qrels")
    _add_common(p, "qrels")
    p.add_argument("--run", required=True, help="run file to evaluate")
    p.add_argument("--cutoff", type=int, default=10, help="precision cutoff")
    p.add_argument("--depth", type=int, default=1000, help="AP depth")

    p = sub.add_parser("experiment", help="run the full eight-method protocol")
    _add_common(p, "config", "corpus", "topics", "qrels", "k")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")

    p = sub.add_parser("make-synthetic", help="generate a seeded synthetic collection")
    p.add_argument("--seed", type=int, default=32)
    p.add_argument("--docs", type=int, default=200)
    p.add_argument("--vocab", type=int, default=800)
    p.add_argument("--queries", type=int, default=20)
    p.add_argument("--out-dir", dest="out_dir", required=True)

    p = sub.add_parser("write-config", help="write the default config to a file")
    p.add_argument("--out", required=True)
    return parser


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _run(args) -> int:
    config = _config_from(args)
    if args.command == "index":
        if not config.corpus:
            raise ValueError("need --corpus")
        build_index(read_corpus(config.corpus), config.analyzer).save(args.out)
        print(f"indexed -> {args.out}")
        return 0

    if args.command == "make-synthetic":
        collection = make_synthetic(args.seed, args.docs, args.vocab, args.queries)
        paths = write_collection(collection, args.out_dir)
        for kind in sorted(paths):
            print(f"{kind}: {paths[kind]}")
        return 0

    if args.command == "write-config":
        save_config(config, args.out)
        print(f"config -> {args.out}")
        return 0

    if args.command == "experiment":
        result = run_experiment(config)
        print(f"tuned mu={result.best_mu:g} rm3_m={result.best_m}")
        for path in result.output_files:
            print(f"wrote {path}")
        return 0

    if args.command == "eval":
        qrels = _qrels_for(config)
        runs = read_run(args.run)
        precisions, judged = [], []
        for qid in sorted(runs):
            run = runs[qid]
            precisions.append(precision_at(run, qrels, args.cutoff))
            cell = f"{qid}\tp@{args.cutoff}={precisions[-1]:.4f}"
            if qrels.relevant_count(qid) > 0:
                ap, rr = average_precision(run, qrels, args.depth), reciprocal_rank(run, qrels)
                judged.append((ap, rr))
                print(f"{cell}\tAP={ap:.4f}\tRR={rr:.4f}")
            else:
                print(f"{cell}\t(no relevant docs; AP/RR excluded)")
        if precisions:
            n = len(precisions)
            print(f"mean over {n} queries\tp@{args.cutoff}={add_up(precisions)/n:.4f}")
        if judged:
            n = len(judged)
            print(
                f"mean over {n} judged queries\t"
                f"MAP={add_up(ap for ap, _ in judged)/n:.4f}\t"
                f"MRR={add_up(rr for _, rr in judged)/n:.4f}"
            )
        return 0

    # Reject a missing or unusable mu, a count below 1, a depth no re-rank
    # can use, and a re-ranking method asked to weigh, before indexing.
    if args.command in ("search", "weigh", "rerank") and args.mu is None:
        raise ValueError("need --mu")
    for name in ("k", "qpp_m", "rm3_m", "rerank_depth"):
        value = getattr(args, name, None)
        if value is not None and value < 1:  # a config file's counts obey the same rule
            raise ValueError(f"--{name.replace('_', '-')} must be >= 1, got {value}")
    if args.command in ("tune-rm3", "rerank"):
        check_rerank(args.mu, config)
    elif args.command == "weigh":
        check_positive_mu(args.mu, "weighting")
        if args.method == RM3_LABEL:
            raise ValueError("RM3Opt is a re-ranking method, not a term weighter")
    index = _load_index(args, config)

    if args.command == "tune-mu":
        qrels = _qrels_for(config)
        queries = _queries_for(config, index)
        best = tune_mu(queries, qrels, config, index)
        print(f"best mu: {best:g}")
        return 0

    if args.command == "tune-rm3":
        qrels = _qrels_for(config)
        _, best, memo, _ = tune(_queries_for(config, index), qrels, config, index, mu=args.mu)
        print(f"best rm3 m: {best} (at mu={memo.mu:g})")
        return 0

    if args.command == "search":
        queries = _queries_for(config, index)
        lists = [retrieve_topk(q, config.k, args.mu, index) for q in queries]
        write_run(lists, args.out, args.tag)
        print(f"wrote {args.out}")
        return 0

    if args.command in ("weigh", "rerank"):
        queries = _queries_for(config, index)
        label = RM3_LABEL if args.method == RM3_LABEL else config.weighting_method.value
        methods = () if label == RM3_LABEL else (config.weighting_method,)
        memo = LogProbMemo(args.mu, index)  # every stage below scores at mu
        lists = [(q, retrieve_topk(q, config.k, args.mu, index, memo)) for q in queries]
        weighed = expand_and_weigh(lists, args.rm3_m, methods, config, memo)
        if args.command == "weigh":
            rows = [(q.query_id, label, maps[label]) for (q, _), maps in zip(lists, weighed)]
            dump_weight_tables(rows, args.out)
        else:
            runs = rerank_queries(lists, weighed, config, memo)[label]
            write_run(list(runs.values()), args.out, label)
        print(f"wrote {args.out}")
        return 0

    raise ValueError(f"unhandled command {args.command!r}")


def _join_mu(argv: list[str]) -> list[str]:
    """argv with `--mu VALUE` written `--mu=VALUE`: argparse reads a value
    such as -inf or -1e3 as an option, so it would never reach the mu check."""
    joined, rest = [], list(argv)
    while rest:
        arg = rest.pop(0)
        if arg == "--mu" and rest:
            arg = f"--mu={rest.pop(0)}"
        joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_mu(sys.argv[1:] if argv is None else argv))
    try:
        return _run(args)
    except Exception as exc:  # argparse handles its own errors; this is ours
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

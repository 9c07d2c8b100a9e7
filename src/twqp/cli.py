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
from pathlib import Path

from .config import ExperimentConfig, load_config, override, save_config
from .evaluation import (
    average_precision,
    load_qrels,
    load_topics,
    precision_at,
    reciprocal_rank,
    tune_mu,
    tune_rm3_m,
)
from .experiment import RM3_LABEL, make_queries, run_experiment
from .index import Index, build_index, read_corpus
from .qpp import PredictorKind
from .relevance import build_rm3, restrict_top_n, top_n_terms
from .rerank import RerankConfig, rerank_rm3, rerank_twqp
from .retrieval import read_run, retrieve_topk, write_run
from .synthetic import make_synthetic, write_collection
from .weighting import WeightingMethod, WeightingParams, dump_weight_tables, weigh_queries

_TWQP_FOR_KIND = {
    PredictorKind.WIG: WeightingMethod.TWQP_WIG,
    PredictorKind.NQC: WeightingMethod.TWQP_NQC,
    PredictorKind.SCORE_RATIO: WeightingMethod.TWQP_SCORE_RATIO,
}


# ---------------------------------------------------------------------------
# Command implementations (also the library-level entry points)
# ---------------------------------------------------------------------------


def cmd_index(corpus_path: str, config: ExperimentConfig, out_path: str) -> Path:
    """Build an index from a corpus and write its snapshot."""
    index = build_index(read_corpus(corpus_path), config.analyzer)
    out = Path(out_path)
    index.save(out)
    return out


def cmd_experiment(config: ExperimentConfig):
    """Run the full protocol; returns the ExperimentResult."""
    return run_experiment(config)


def cmd_make_synthetic(
    seed: int, n_docs: int, vocab_size: int, n_queries: int, out_dir: str
) -> dict[str, Path]:
    """Generate a synthetic collection and write its three files."""
    collection = make_synthetic(seed, n_docs, vocab_size, n_queries)
    return write_collection(collection, out_dir)


def _load_index(args, config: ExperimentConfig) -> Index:
    if getattr(args, "snapshot", None):
        return Index.load(args.snapshot)
    corpus = getattr(args, "corpus", None) or config.corpus
    if not corpus:
        raise ValueError("need --snapshot or --corpus")
    return build_index(read_corpus(corpus), config.analyzer)


def _queries_for(args, config: ExperimentConfig, index: Index):
    topics_path = getattr(args, "topics", None) or config.topics
    if not topics_path:
        raise ValueError("need --topics")
    queries, _ = make_queries(load_topics(topics_path), index)
    if not queries:
        raise ValueError("no usable queries after analysis")
    return queries


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


def _method_from(args, config: ExperimentConfig) -> WeightingMethod | str:
    if getattr(args, "method", None):
        if args.method == RM3_LABEL:
            return RM3_LABEL
        return WeightingMethod.from_string(args.method)
    if getattr(args, "qpp_kind", None):
        return _TWQP_FOR_KIND[PredictorKind.from_string(args.qpp_kind)]
    return config.weighting_method


def _weight_tables(args, config: ExperimentConfig, index: Index, queries, mu: float):
    method = _method_from(args, config)
    if method == RM3_LABEL:
        raise ValueError("RM3Opt is a re-ranking method, not a term weighter")
    params = WeightingParams(mu=mu, k=config.k, predictor_m=config.qpp_m)
    retrieved = []
    pairs = []
    for q in queries:
        initial = retrieve_topk(q, config.k, mu, index)
        if not initial.entries:
            continue
        rm = build_rm3(
            q,
            initial,
            min(args.rm3_m, len(initial.entries)),
            config.rm3_mu,
            config.rm3_lambda,
            index,
        )
        retrieved.append((q, initial, rm))
        pairs.append((q, top_n_terms(rm, config.rm3_n)))
    weighed = weigh_queries(pairs, (method,), params, index)
    return method, [(*r, tables[method]) for r, tables in zip(retrieved, weighed)]


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
        "qpp": lambda: (
            p.add_argument("--qpp-kind", dest="qpp_kind", help="WIG, NQC or ScoreRatio"),
            p.add_argument("--qpp-m", dest="qpp_m", type=int, help="predictor cutoff override"),
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
        corpus = args.corpus or config.corpus
        if not corpus:
            raise ValueError("need --corpus")
        out = cmd_index(corpus, config, args.out)
        print(f"indexed -> {out}")
        return 0

    if args.command == "make-synthetic":
        paths = cmd_make_synthetic(args.seed, args.docs, args.vocab, args.queries, args.out_dir)
        for kind in sorted(paths):
            print(f"{kind}: {paths[kind]}")
        return 0

    if args.command == "write-config":
        save_config(config, args.out)
        print(f"config -> {args.out}")
        return 0

    if args.command == "experiment":
        result = cmd_experiment(config)
        print(f"tuned mu={result.best_mu:g} rm3_m={result.best_m}")
        for path in result.output_files:
            print(f"wrote {path}")
        return 0

    if args.command == "eval":
        qrels_path = args.qrels or config.qrels
        if not qrels_path:
            raise ValueError("need --qrels")
        qrels = load_qrels(qrels_path)
        runs = read_run(args.run)
        rows = []
        for qid in sorted(runs):
            run = runs[qid]
            p10 = precision_at(run, qrels, args.cutoff)
            if qrels.relevant_count(qid) > 0:
                ap = average_precision(run, qrels, args.depth)
                rr = reciprocal_rank(run, qrels)
                rows.append((qid, p10, ap, rr))
                print(f"{qid}\tp@{args.cutoff}={p10:.4f}\tAP={ap:.4f}\tRR={rr:.4f}")
            else:
                print(f"{qid}\tp@{args.cutoff}={p10:.4f}\t(no relevant docs; AP/RR excluded)")
        if rows:
            n = len(rows)
            print(
                f"mean over {n} queries\t"
                f"p@{args.cutoff}={sum(r[1] for r in rows)/n:.4f}\t"
                f"MAP={sum(r[2] for r in rows)/n:.4f}\t"
                f"MRR={sum(r[3] for r in rows)/n:.4f}"
            )
        return 0

    index = _load_index(args, config)

    if args.command == "tune-mu":
        queries = _queries_for(args, config, index)
        qrels = load_qrels(args.qrels or config.qrels)
        best = tune_mu(index, queries, qrels, config.mu_grid, k=config.k, depth=config.k)
        print(f"best mu: {best:g}")
        return 0

    if args.command == "tune-rm3":
        queries = _queries_for(args, config, index)
        qrels = load_qrels(args.qrels or config.qrels)
        mu = args.mu
        if mu is None:
            mu = tune_mu(index, queries, qrels, config.mu_grid, k=config.k, depth=config.k)
        best = tune_rm3_m(
            index,
            queries,
            qrels,
            mu,
            config.rm3_m_grid,
            k=config.k,
            depth=config.k,
            rerank_depth=config.rerank_depth,
            rm3_mu=config.rm3_mu,
            rm3_lambda=config.rm3_lambda,
            rm3_n=config.rm3_n,
        )
        print(f"best rm3 m: {best} (at mu={mu:g})")
        return 0

    if args.command == "search":
        queries = _queries_for(args, config, index)
        if args.mu is None:
            raise ValueError("need --mu")
        lists = [retrieve_topk(q, config.k, args.mu, index) for q in queries]
        write_run(lists, args.out, args.tag)
        print(f"wrote {args.out}")
        return 0

    if args.command == "weigh":
        queries = _queries_for(args, config, index)
        if args.mu is None:
            raise ValueError("need --mu")
        _, tables = _weight_tables(args, config, index, queries, args.mu)
        dump_weight_tables([t for _, _, _, t in tables], args.out)
        print(f"wrote {args.out}")
        return 0

    if args.command == "rerank":
        queries = _queries_for(args, config, index)
        if args.mu is None:
            raise ValueError("need --mu")
        depth = args.rerank_depth or config.rerank_depth
        cfg = RerankConfig(mu=args.mu, rerank_depth=depth, k=config.k)
        method = _method_from(args, config)
        reranked = []
        if method == RM3_LABEL:
            for q in queries:
                initial = retrieve_topk(q, config.k, args.mu, index)
                if not initial.entries:
                    continue
                rm = build_rm3(
                    q,
                    initial,
                    min(args.rm3_m, len(initial.entries)),
                    config.rm3_mu,
                    config.rm3_lambda,
                    index,
                )
                reranked.append(rerank_rm3(initial, restrict_top_n(rm, config.rm3_n), cfg, index))
            tag = RM3_LABEL
        else:
            _, tables = _weight_tables(args, config, index, queries, args.mu)
            for _, initial, _, table in tables:
                reranked.append(rerank_twqp(initial, table, cfg, index))
            tag = method.value
        write_run(reranked, args.out, tag)
        print(f"wrote {args.out}")
        return 0

    raise ValueError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # argparse handles its own errors; this is ours
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end experiment protocol.

One call runs the whole pipeline on a corpus + topics + qrels triple:

  1. build the index and analyze the topic titles into queries;
  2. tune the smoothing mass over the mu grid (best mean AP);
  3. retrieve the initial lists (QLOpt-init);
  4. tune the feedback depth over the m grid, build per-query relevance
     models, re-rank (RM3Opt), and extract the candidate vocabulary V;
  5. weigh terms under every weighting method in one pass that shares the
     retrievals, and re-rank the initial lists;
  6. evaluate everything and emit run files plus a plain-text and a JSON
     report.

All outputs are deterministic functions of the inputs: files are written in
sorted order with fixed float formatting, so identical configs produce
byte-identical output trees.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

from .analysis import analyze
from .config import ExperimentConfig
from .evaluation import (
    EvalReport,
    Qrels,
    build_report,
    load_qrels,
    load_topics,
    tune_mu,
    tune_rm3_m,
)
from .index import Index, build_index, read_corpus
from .relevance import build_rm3, restrict_top_n, top_n_terms
from .rerank import RerankConfig, rerank_rm3, rerank_twqp
from .retrieval import Query, RankedList, format_run, retrieve_topk
from .weighting import WeightingMethod, WeightingParams, weigh_queries

QL_LABEL = "QLOpt-init"
RM3_LABEL = "RM3Opt"

METHOD_ORDER: tuple[str, ...] = (
    QL_LABEL,
    RM3_LABEL,
    WeightingMethod.NWIG.value,
    WeightingMethod.SCORE_RATIO_NORM.value,
    WeightingMethod.SROR.value,
    WeightingMethod.TWQP_WIG.value,
    WeightingMethod.TWQP_SCORE_RATIO.value,
    WeightingMethod.TWQP_NQC.value,
)

_WEIGHTING_METHODS: tuple[WeightingMethod, ...] = (
    WeightingMethod.NWIG,
    WeightingMethod.SCORE_RATIO_NORM,
    WeightingMethod.SROR,
    WeightingMethod.TWQP_WIG,
    WeightingMethod.TWQP_SCORE_RATIO,
    WeightingMethod.TWQP_NQC,
)


@dataclass(frozen=True)
class ExperimentResult:
    best_mu: float
    best_m: int
    runs: dict[str, dict[str, RankedList]]
    report: EvalReport
    skipped_queries: tuple[str, ...]
    output_files: tuple[Path, ...]


def make_queries(
    topics: list[tuple[str, str]], index: Index
) -> tuple[list[Query], list[str]]:
    """Analyze topic titles against the index's analyzer.

    Terms missing from the index are dropped with a warning; queries left
    with no terms are skipped entirely (reported back to the caller).
    """
    queries: list[Query] = []
    skipped: list[str] = []
    for qid, title in topics:
        tokens = analyze(title, index.analyzer)
        kept = [t for t in tokens if t in index.postings]
        for t in sorted(set(tokens) - set(kept)):
            warnings.warn(f"query {qid}: term {t!r} not in index; dropped", stacklevel=2)
        if not kept:
            warnings.warn(f"query {qid}: no indexed terms; skipped", stacklevel=2)
            skipped.append(qid)
            continue
        queries.append(Query(qid, tuple(kept)))
    return queries, skipped


def run_label_slug(label: str) -> str:
    out = []
    for ch in label.lower():
        out.append(ch if ch.isalnum() else "-")
    slug = "".join(out)
    while "--" in slug:
        slug = slug.replace("--", "-")
    return slug.strip("-")


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    if not (config.corpus and config.topics and config.qrels):
        raise ValueError("experiment needs corpus, topics and qrels paths")
    index = build_index(read_corpus(config.corpus), config.analyzer)
    topics = load_topics(config.topics)
    qrels = load_qrels(config.qrels)
    queries, skipped = make_queries(topics, index)
    if not queries:
        raise ValueError("no usable queries after analysis")
    if all(qrels.relevant_count(q.query_id) == 0 for q in queries):
        raise ValueError("no query has relevance judgments; nothing to evaluate")

    best_mu = tune_mu(index, queries, qrels, config.mu_grid, k=config.k, depth=config.k)
    initial = {q.query_id: retrieve_topk(q, config.k, best_mu, index) for q in queries}
    live_queries = [q for q in queries if initial[q.query_id].entries]
    for q in queries:
        if not initial[q.query_id].entries:
            warnings.warn(f"query {q.query_id}: empty retrieval; dropped", stacklevel=2)
            skipped.append(q.query_id)
    if not live_queries:
        raise ValueError("every query retrieved an empty list")

    best_m = tune_rm3_m(
        index,
        live_queries,
        qrels,
        best_mu,
        config.rm3_m_grid,
        k=config.k,
        depth=config.k,
        rerank_depth=config.rerank_depth,
        rm3_mu=config.rm3_mu,
        rm3_lambda=config.rm3_lambda,
        rm3_n=config.rm3_n,
    )

    cfg = RerankConfig(mu=best_mu, rerank_depth=config.rerank_depth, k=config.k)
    params = WeightingParams(mu=best_mu, k=config.k, predictor_m=config.qpp_m)
    runs: dict[str, dict[str, RankedList]] = {label: {} for label in METHOD_ORDER}
    pairs = []
    for q in live_queries:
        base = initial[q.query_id]
        rm = build_rm3(
            q, base, min(best_m, len(base.entries)), config.rm3_mu, config.rm3_lambda, index
        )
        pairs.append((q, top_n_terms(rm, config.rm3_n)))
        runs[QL_LABEL][q.query_id] = base
        runs[RM3_LABEL][q.query_id] = rerank_rm3(
            base, restrict_top_n(rm, config.rm3_n), cfg, index
        )
    for (q, _), tables in zip(pairs, weigh_queries(pairs, _WEIGHTING_METHODS, params, index)):
        for method, table in tables.items():
            runs[method.value][q.query_id] = rerank_twqp(initial[q.query_id], table, cfg, index)

    report = build_report(runs, qrels, baseline=RM3_LABEL, cutoff=10, depth=config.k)
    written = write_outputs(config.output_dir, best_mu, best_m, runs, report, tuple(skipped))
    return ExperimentResult(best_mu, best_m, runs, report, tuple(sorted(skipped)), written)


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------


def _letters(methods: list[str]) -> dict[str, str]:
    return {m: chr(ord("a") + i) for i, m in enumerate(methods)}


def render_text_report(
    best_mu: float, best_m: int, report: EvalReport, skipped: tuple[str, ...]
) -> str:
    methods = [m for m in METHOD_ORDER if m in report.aggregates]
    letters = _letters(methods)
    lines = [
        f"tuned: mu={best_mu:g} rm3_m={best_m}",
        f"baseline for RI: {report.baseline}",
        "",
    ]
    header = f"{'':2} {'method':<18} {'p@10':>12} {'AP':>12} {'RR':>12} {'RI':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for method in methods:
        cells = []
        for measure in ("p10", "ap", "rr"):
            value = report.aggregates[method][measure]
            marks = "".join(
                letters[other]
                for other in methods
                if other != method
                and report.significance[measure].get((method, other), 1.0) < 0.05
                and report.aggregates[method][measure] > report.aggregates[other][measure]
            )
            cells.append(f"{value:.4f}{marks:<4}")
        ri = report.ri[method]
        lines.append(
            f"{letters[method]:2} {method:<18} {cells[0]:>12} {cells[1]:>12} {cells[2]:>12} {ri:>7.3f}"
        )
    lines.append("")
    lines.append("significance marks: better than the lettered method, paired t-test p < 0.05")
    if report.excluded:
        lines.append(f"queries without relevant docs (no AP/RR): {', '.join(report.excluded)}")
    if skipped:
        lines.append(f"queries skipped before retrieval: {', '.join(sorted(skipped))}")
    return "\n".join(lines) + "\n"


def render_json_report(
    best_mu: float, best_m: int, report: EvalReport, skipped: tuple[str, ...]
) -> str:
    methods = [m for m in METHOD_ORDER if m in report.aggregates]
    payload = {
        "tuned": {"mu": best_mu, "rm3_m": best_m},
        "baseline": report.baseline,
        "methods": {
            method: {
                "aggregates": report.aggregates[method],
                "ri_p10_vs_baseline": report.ri[method],
                "per_query": {
                    qid: {
                        "p10": qm.p10,
                        "ap": qm.ap,
                        "rr": qm.rr,
                    }
                    for qid, qm in sorted(report.per_query[method].items())
                },
            }
            for method in methods
        },
        "significance": {
            measure: {
                f"{a} vs {b}": p
                for (a, b), p in sorted(report.significance[measure].items())
                if methods.index(a) < methods.index(b)
            }
            for measure in ("p10", "ap", "rr")
        },
        "excluded_queries": list(report.excluded),
        "skipped_queries": sorted(skipped),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_outputs(
    output_dir: str | Path,
    best_mu: float,
    best_m: int,
    runs: dict[str, dict[str, RankedList]],
    report: EvalReport,
    skipped: tuple[str, ...],
) -> tuple[Path, ...]:
    out = Path(output_dir)
    (out / "runs").mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for label in METHOD_ORDER:
        if label not in runs:
            continue
        path = out / "runs" / f"{run_label_slug(label)}.run"
        ordered = [runs[label][qid] for qid in sorted(runs[label])]
        path.write_text(format_run(ordered, label), encoding="utf-8")
        written.append(path)
    text_path = out / "report.txt"
    text_path.write_text(render_text_report(best_mu, best_m, report, skipped), encoding="utf-8")
    written.append(text_path)
    json_path = out / "report.json"
    json_path.write_text(render_json_report(best_mu, best_m, report, skipped), encoding="utf-8")
    written.append(json_path)
    return tuple(written)

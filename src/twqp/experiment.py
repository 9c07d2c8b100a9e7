"""End-to-end experiment protocol.

One call runs the whole pipeline on a corpus + topics + qrels triple:

  1. build the index and analyze the topic titles into queries;
  2. tune the smoothing mass over the mu grid (best mean AP), retrieve the
     initial lists (QLOpt-init) and tune the feedback depth over the m grid
     (tune);
  3. per query, build the relevance model and extract the candidate
     vocabulary V, weigh V under every weighting method in one pass that
     shares the retrievals (expand_and_weigh), and re-rank the head under
     the model (RM3Opt) and every weight table (rerank_queries);
  4. evaluate everything and emit run files plus a plain-text and a JSON
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
from typing import Sequence

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
from .rerank import RerankConfig, rerank_many
from .retrieval import Query, RankedList, format_run, retrieve_topk
from .weighting import TermWeightTable, WeightingMethod, WeightingParams, weigh_queries

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

_WEIGHTING_METHODS: tuple[WeightingMethod, ...] = tuple(map(WeightingMethod, METHOD_ORDER[2:]))


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

    Terms held by no document are dropped with a warning; queries left with
    no terms are skipped entirely (reported back to the caller), and a topic
    set left with no query is an error.  Every kept query therefore
    retrieves a non-empty list at any k >= 1.
    """
    queries: list[Query] = []
    skipped: list[str] = []
    for qid, title in topics:
        tokens = analyze(title, index.analyzer)
        kept = [t for t in tokens if index.term(t)[0].size]
        for t in sorted(set(tokens) - set(kept)):
            warnings.warn(f"query {qid}: term {t!r} not in index; dropped", stacklevel=2)
        if not kept:
            warnings.warn(f"query {qid}: no indexed terms; skipped", stacklevel=2)
            skipped.append(qid)
            continue
        queries.append(Query(qid, tuple(kept)))
    if not queries:
        raise ValueError("no usable queries after analysis")
    return queries, skipped


def run_label_slug(label: str) -> str:
    out = []
    for ch in label.lower():
        out.append(ch if ch.isalnum() else "-")
    slug = "".join(out)
    while "--" in slug:
        slug = slug.replace("--", "-")
    return slug.strip("-")


def expand_and_weigh(
    lists: Sequence[tuple[Query, RankedList]],
    m: int,
    methods: Sequence[WeightingMethod],
    mu: float,
    config: ExperimentConfig,
    index: Index,
) -> list[tuple[dict[str, float], dict[WeightingMethod, TermWeightTable]]]:
    """(RM3 weight map, {method: weight table}) for each (query, list) pair.

    Each list is the query's non-empty depth-k retrieval at mu.  RM3 is
    built from its top min(m, len) documents; the candidate vocabulary is
    the model's top rm3_n terms in rank order (ScoreRatio normalizes in
    that order), and the weight map is the model clipped to those terms.
    """
    models, pairs = [], []
    for q, initial in lists:
        rm = build_rm3(
            q, initial, min(m, len(initial)), config.rm3_mu, config.rm3_lambda, index
        )
        models.append(restrict_top_n(rm, config.rm3_n).term_probs)
        pairs.append((q, top_n_terms(rm, config.rm3_n)))
    params = WeightingParams(mu=mu, k=config.k, predictor_m=config.qpp_m)
    return list(zip(models, weigh_queries(pairs, methods, params, index)))


def rerank_queries(
    lists: Sequence[tuple[Query, RankedList]],
    weighed: Sequence[tuple[dict[str, float], dict[WeightingMethod, TermWeightTable]]],
    mu: float,
    config: ExperimentConfig,
    index: Index,
) -> dict[str, dict[str, RankedList]]:
    """label -> query id -> re-ranked list, for RM3Opt and each weighed method.

    Each query's head is re-ranked under every weight map from one head
    matrix (rerank_many).
    """
    cfg = RerankConfig(mu=mu, rerank_depth=config.rerank_depth, k=config.k)
    runs: dict[str, dict[str, RankedList]] = {}
    for (q, initial), (model, tables) in zip(lists, weighed):
        labels = [RM3_LABEL, *(method.value for method in tables)]
        maps = [model, *(table.weights for table in tables.values())]
        for label, run in zip(labels, rerank_many(initial, maps, cfg, index)):
            runs.setdefault(label, {})[q.query_id] = run
    return runs


def tune(
    queries: Sequence[Query],
    qrels: Qrels,
    config: ExperimentConfig,
    index: Index,
    mu: float | None = None,
) -> tuple[float, list[tuple[Query, RankedList]], int]:
    """(mu, (query, initial list) pairs, feedback depth m) by best mean AP.

    mu is tuned over config.mu_grid unless given; each query's depth-k list
    is retrieved at that mu, and m is tuned over config.rm3_m_grid by
    re-ranking those lists under RM3.
    """
    if mu is None:
        mu = tune_mu(queries, qrels, config, index)
    lists = [(q, retrieve_topk(q, config.k, mu, index)) for q in queries]
    return mu, lists, tune_rm3_m(lists, qrels, mu, config, index)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    if not (config.corpus and config.topics and config.qrels):
        raise ValueError("experiment needs corpus, topics and qrels paths")
    index = build_index(read_corpus(config.corpus), config.analyzer)
    topics = load_topics(config.topics)
    qrels = load_qrels(config.qrels)
    queries, skipped = make_queries(topics, index)
    if all(qrels.relevant_count(q.query_id) == 0 for q in queries):
        raise ValueError("no query has relevance judgments; nothing to evaluate")

    best_mu, lists, best_m = tune(queries, qrels, config, index)
    weighed = expand_and_weigh(lists, best_m, _WEIGHTING_METHODS, best_mu, config, index)
    reranked = rerank_queries(lists, weighed, best_mu, config, index)
    reranked[QL_LABEL] = {q.query_id: initial for q, initial in lists}
    runs = {label: reranked[label] for label in METHOD_ORDER}

    report = build_report(runs, qrels, baseline=RM3_LABEL, depth=config.k)
    written = write_outputs(config.output_dir, best_mu, best_m, runs, report, tuple(skipped))
    return ExperimentResult(best_mu, best_m, runs, report, tuple(sorted(skipped)), written)


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------


def render_text_report(
    best_mu: float, best_m: int, report: EvalReport, skipped: tuple[str, ...]
) -> str:
    letters = {m: chr(ord("a") + i) for i, m in enumerate(METHOD_ORDER)}
    lines = [
        f"tuned: mu={best_mu:g} rm3_m={best_m}",
        f"baseline for RI: {report.baseline}",
        "",
    ]
    header = f"{'':2} {'method':<18} {'p@10':>12} {'AP':>12} {'RR':>12} {'RI':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for method in METHOD_ORDER:
        cells = []
        for measure in ("p10", "ap", "rr"):
            value = report.aggregates[method][measure]
            marks = "".join(
                letters[other]
                for other in METHOD_ORDER
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
            for method in METHOD_ORDER
        },
        "significance": {
            measure: {
                f"{a} vs {b}": p
                for (a, b), p in sorted(report.significance[measure].items())
                if METHOD_ORDER.index(a) < METHOD_ORDER.index(b)
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

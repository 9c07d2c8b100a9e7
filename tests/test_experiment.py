"""Full pipeline protocol: tuning, per-method runs, reports, determinism."""

import json
from dataclasses import replace

import pytest

from twqp.config import ExperimentConfig
from twqp.evaluation import average_precision, load_qrels, load_topics
from twqp.experiment import (
    METHOD_ORDER,
    QL_LABEL,
    RM3_LABEL,
    make_queries,
    run_experiment,
    run_label_slug,
)
from twqp.index import build_index, read_corpus
from twqp.retrieval import format_run, read_run, retrieve_topk
from twqp.synthetic import make_synthetic, write_collection

from conftest import PLAIN


@pytest.fixture(scope="module")
def small_experiment(tmp_path_factory):
    """One trimmed-grid experiment shared by the inspection tests."""
    root = tmp_path_factory.mktemp("exp")
    coll = make_synthetic(11, n_docs=80, vocab_size=120, n_queries=8)
    paths = write_collection(coll, root / "data")
    config = ExperimentConfig(
        corpus=str(paths["corpus"]),
        topics=str(paths["topics"]),
        qrels=str(paths["qrels"]),
        output_dir=str(root / "out"),
        mu_grid=(500, 1000),
        rm3_m_grid=(5, 10),
    )
    result = run_experiment(config)
    return config, result, root


class TestRunExperiment:
    def test_tuned_values_come_from_the_grids(self, small_experiment):
        config, result, _ = small_experiment
        assert result.best_mu in config.mu_grid
        assert result.best_m in config.rm3_m_grid

    def test_all_methods_cover_all_queries(self, small_experiment):
        _, result, _ = small_experiment
        assert set(result.runs) == set(METHOD_ORDER)
        qids = sorted(result.runs[QL_LABEL])
        assert len(qids) == 8
        for label in METHOD_ORDER:
            assert sorted(result.runs[label]) == qids

    def test_reruns_are_byte_identical(self, small_experiment):
        config, _, root = small_experiment
        cfg2 = replace(config, output_dir=str(root / "out2"))
        run_experiment(cfg2)
        first = sorted((root / "out").rglob("*"))
        second = sorted((root / "out2").rglob("*"))
        assert [p.name for p in first if p.is_file()] == [
            p.name for p in second if p.is_file()
        ]
        for a, b in zip(first, second):
            if a.is_file():
                assert a.read_bytes() == b.read_bytes(), a.name

    def test_initial_run_file_matches_direct_retrieval(self, small_experiment):
        config, result, root = small_experiment
        index = build_index(read_corpus(config.corpus), config.analyzer)
        queries, skipped = make_queries(load_topics(config.topics), index)
        assert skipped == []
        lists = [
            retrieve_topk(q, config.k, result.best_mu, index)
            for q in sorted(queries, key=lambda q: q.query_id)
        ]
        expected = format_run(lists, QL_LABEL)
        written = (root / "out" / "runs" / "qlopt-init.run").read_text()
        assert written == expected

    def test_report_json_structure(self, small_experiment):
        _, result, root = small_experiment
        payload = json.loads((root / "out" / "report.json").read_text())
        assert set(payload["methods"]) == set(METHOD_ORDER)
        assert payload["baseline"] == RM3_LABEL
        assert payload["tuned"]["mu"] == result.best_mu
        assert payload["tuned"]["rm3_m"] == result.best_m
        for label in METHOD_ORDER:
            entry = payload["methods"][label]
            assert set(entry["aggregates"]) == {"p10", "ap", "rr"}
            assert len(entry["per_query"]) == 8
        for measure in ("p10", "ap", "rr"):
            for key in payload["significance"][measure]:
                a, b = key.split(" vs ")
                assert METHOD_ORDER.index(a) < METHOD_ORDER.index(b)

    def test_aggregate_ap_recomputable_from_run_file(self, small_experiment):
        config, result, root = small_experiment
        qrels = load_qrels(config.qrels)
        label = "TWQP(NQC)"
        per_query = read_run(root / "out" / "runs" / "twqp-nqc.run")
        values = [
            average_precision(per_query[qid], qrels, depth=config.k)
            for qid in sorted(per_query)
        ]
        expected = sum(values) / len(values)
        assert result.report.aggregates[label]["ap"] == pytest.approx(expected, abs=1e-9)

    def test_text_report_has_tuning_line_and_all_methods(self, small_experiment):
        _, result, root = small_experiment
        text = (root / "out" / "report.txt").read_text()
        assert f"tuned: mu={result.best_mu:g} rm3_m={result.best_m}" in text
        for label in METHOD_ORDER:
            assert label in text

    def test_qpp_m_reaches_the_twqp_predictor(self, small_experiment):
        # WIG's default cutoff is 5; a set [qpp] m must change its weights.
        config, result, root = small_experiment
        cfg2 = replace(config, output_dir=str(root / "out-qpp-m"), qpp_m=2)
        changed = run_experiment(cfg2)
        assert changed.best_mu == result.best_mu and changed.best_m == result.best_m
        assert changed.runs[QL_LABEL] == result.runs[QL_LABEL]
        assert changed.runs["TWQP(WIG)"] != result.runs["TWQP(WIG)"]

    def test_missing_paths_rejected(self):
        with pytest.raises(ValueError, match="needs corpus"):
            run_experiment(ExperimentConfig())

    def test_unjudged_query_set_rejected(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doc_id": "d1", "text": "apple banana"}\n')
        topics = tmp_path / "topics.tsv"
        topics.write_text("q1\tapple\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 0\n")
        config = ExperimentConfig(
            corpus=str(corpus),
            topics=str(topics),
            qrels=str(qrels),
            output_dir=str(tmp_path / "out"),
            analyzer=PLAIN,
            mu_grid=(1000,),
            rm3_m_grid=(5,),
        )
        with pytest.raises(ValueError, match="no query has relevance judgments"):
            run_experiment(config)


class TestMakeQueries:
    def test_oov_terms_dropped_with_warning(self, fruit_index):
        topics = [("q1", "apple zzz"), ("q2", "banana cherry")]
        with pytest.warns(UserWarning, match="not in index"):
            queries, skipped = make_queries(topics, fruit_index)
        assert [q.terms for q in queries] == [("apple",), ("banana", "cherry")]
        assert skipped == []

    def test_fully_oov_query_skipped(self, fruit_index):
        topics = [("q1", "zzz qqq"), ("q2", "apple")]
        with pytest.warns(UserWarning, match="skipped"):
            queries, skipped = make_queries(topics, fruit_index)
        assert [q.query_id for q in queries] == ["q2"]
        assert skipped == ["q1"]

    def test_duplicates_survive_analysis(self, fruit_index):
        queries, _ = make_queries([("q1", "apple apple banana")], fruit_index)
        assert queries[0].terms == ("apple", "apple", "banana")


class TestRunLabelSlug:
    def test_known_labels(self):
        assert run_label_slug("TWQP(NQC)") == "twqp-nqc"
        assert run_label_slug("TWQP(ScoreRatio)") == "twqp-scoreratio"
        assert run_label_slug("QLOpt-init") == "qlopt-init"
        assert run_label_slug("nWIG") == "nwig"
        assert run_label_slug("ScoreRatio") == "scoreratio"
        assert run_label_slug("SROR") == "sror"

    def test_all_method_labels_are_distinct_slugs(self):
        slugs = [run_label_slug(label) for label in METHOD_ORDER]
        assert len(set(slugs)) == len(slugs)

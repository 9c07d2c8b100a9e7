"""Full pipeline protocol: tuning, per-method runs, reports, determinism."""

import builtins
import configparser
import hashlib
import json
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import twqp.evaluation
import twqp.experiment
import twqp.relevance
from twqp.cli import main
from twqp.config import _KEYS, ExperimentConfig, save_config
from twqp.evaluation import average_precision, build_report, load_qrels, load_topics
from twqp.experiment import (
    METHOD_ORDER,
    QL_LABEL,
    RM3_LABEL,
    expand_and_weigh,
    make_queries,
    run_experiment,
    run_label_slug,
    tune,
)
from twqp.index import build_index, read_corpus
from twqp.relevance import build_rm3
from twqp.retrieval import format_run, read_run, retrieve_topk
from twqp.synthetic import make_synthetic, write_collection
from twqp.weighting import WeightingMethod

from compensated_sum import cpython312_sum
from conftest import PLAIN
from oracle import index_from_postings


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

    def test_run_files_read_back_evaluate_like_the_runs(self, small_experiment):
        # The files hold entries-built lists, the result array-backed ones;
        # the measures read only the ranking, which the files keep.
        config, result, root = small_experiment
        runs = {
            label: read_run(root / "out" / "runs" / f"{run_label_slug(label)}.run")
            for label in METHOD_ORDER
        }
        report = build_report(runs, load_qrels(config.qrels), RM3_LABEL, depth=config.k)
        assert report.per_query == result.report.per_query
        assert report.aggregates == result.report.aggregates

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

    @pytest.mark.parametrize("low", [0, -100])
    def test_mu_grid_at_or_below_zero_stops_before_tuning(
        self, small_experiment, tmp_path, monkeypatch, low
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("tune_mu ran")

        monkeypatch.setattr(twqp.experiment, "tune_mu", unreachable)
        config, _, _ = small_experiment
        cfg = replace(config, output_dir=str(tmp_path / "out"), mu_grid=(low, 500, 1000))
        with pytest.raises(ValueError, match=f"mu_grid values must be > 0 to re-rank, got {low}"):
            run_experiment(cfg)

    def test_rerank_depth_above_k_stops_before_reading_the_corpus(
        self, small_experiment, tmp_path, monkeypatch
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("read the corpus before checking the re-ranking depth")

        monkeypatch.setattr(twqp.experiment, "read_corpus", unreachable)
        monkeypatch.setattr(twqp.experiment, "build_index", unreachable)
        config, _, _ = small_experiment
        cfg = replace(config, output_dir=str(tmp_path / "out"), k=50)
        with pytest.raises(ValueError, match="need 1 <= rerank_depth <= k"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_rm3_mu_zero_stops_before_reading_the_corpus(
        self, small_experiment, tmp_path, monkeypatch
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("read the corpus before checking the RM3 mu")

        monkeypatch.setattr(twqp.experiment, "read_corpus", unreachable)
        monkeypatch.setattr(twqp.experiment, "build_index", unreachable)
        config, _, _ = small_experiment
        cfg = replace(config, output_dir=str(tmp_path / "out"), rm3_mu=0.0)
        with pytest.raises(ValueError, match="RM3 requires mu > 0 and finite, got 0.0"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

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

    def test_term_with_empty_postings_dropped(self):
        # a hand-made snapshot may list a term that no document holds
        index = index_from_postings({"apple": {"d1": 2}, "ghost": {}}, {"d1": 2}, PLAIN)
        with pytest.warns(UserWarning, match="'ghost' not in index"):
            queries, skipped = make_queries([("q1", "apple ghost")], index)
        assert [q.terms for q in queries] == [("apple",)]
        assert skipped == []
        assert retrieve_topk(queries[0], 1, 1000.0, index).entries

    def test_no_usable_query_is_an_error(self, fruit_index):
        topics = [("q1", "zzz"), ("q2", "qqq www")]
        with pytest.warns(UserWarning, match="skipped"):
            with pytest.raises(ValueError, match="no usable queries after analysis"):
                make_queries(topics, fruit_index)


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


@pytest.mark.parametrize("m_grid", [None, (5, 5, 5000)], ids=["default-grid", "repeat-and-past"])
def test_expansion_takes_the_tuned_models(tmp_path, monkeypatch, m_grid):
    # Tuning builds each judged query's RM3 model; the expansion weighs
    # with that model and builds only the unjudged query's own.  The
    # (5, 5, 5000) grid repeats a depth and reaches past every list.
    paths = write_collection(make_synthetic(32), tmp_path / "data")
    with open(paths["topics"], "a", encoding="utf-8") as fh:
        fh.write("q900\tt00a t01a\n")  # indexed terms, no qrels line
    config = ExperimentConfig(
        corpus=str(paths["corpus"]),
        topics=str(paths["topics"]),
        qrels=str(paths["qrels"]),
        output_dir=str(tmp_path / "out"),
    )
    if m_grid is not None:
        config = replace(config, rm3_m_grid=m_grid)
    modelled = Counter()  # query id -> rm3_table calls
    real_table = twqp.relevance.rm3_table

    def table(q, *args, **kwargs):
        modelled[q.query_id] += 1
        return real_table(q, *args, **kwargs)

    for module in (twqp.relevance, twqp.evaluation):
        monkeypatch.setattr(module, "rm3_table", table)
    seen = {}
    real_expand = twqp.experiment.expand_and_weigh

    def expand(lists, m, methods, config, memo, *args):
        seen.update(lists=lists, m=m, memo=memo)
        seen["weighed"] = real_expand(lists, m, methods, config, memo, *args)
        return seen["weighed"]

    monkeypatch.setattr(twqp.experiment, "expand_and_weigh", expand)
    result = run_experiment(config)
    lists, m, index = seen["lists"], seen["m"], seen["memo"].index
    assert m == result.best_m
    assert "q900" in result.report.excluded
    # one model build per query per run
    assert modelled == Counter({q.query_id: 1 for q, _ in lists})
    for (q, initial), maps in zip(lists, seen["weighed"]):
        expected = build_rm3(
            q, initial, min(m, len(initial)), config.rm3_mu, config.rm3_lambda, index,
            config.rm3_n,
        )
        assert list(maps[RM3_LABEL].items()) == list(expected.items())


def test_query_only_feedback_reranks_as_the_initial_list(tmp_path):
    # At rm3_lambda = 1.0 the RM3 model is the query's own term
    # distribution, and every feedback term in it weighs 0.0: tuning
    # re-ranks with those columns at weight 0, and on single-term topics
    # each RM3Opt run must be its initial list, scores and all.
    paths = write_collection(make_synthetic(32), tmp_path / "data")
    config = ExperimentConfig(
        corpus=str(paths["corpus"]),
        topics=str(paths["topics"]),
        qrels=str(paths["qrels"]),
        output_dir=str(tmp_path / "out"),
        rm3_lambda=1.0,
    )
    index = build_index(read_corpus(paths["corpus"]), config.analyzer)
    queries, _ = make_queries(load_topics(paths["topics"]), index)
    assert all(len(q.terms) == 1 for q in queries)
    _, m, _, models = tune(queries, load_qrels(paths["qrels"]), config, index)
    assert all(0.0 in model.values() for model in models)
    result = run_experiment(config)
    assert result.best_m == m
    initial, expanded = result.runs[QL_LABEL], result.runs[RM3_LABEL]
    assert list(expanded) == list(initial)
    for qid, run in initial.items():
        assert expanded[qid].entries == run.entries


def test_twqp_weight_spread_at_the_default_protocol(tmp_path):
    # Today's raw predictor deltas put TWQP(ScoreRatio) and TWQP(NQC)
    # weights in a narrow band around 1 and 0.5 on the 1000-document
    # synthetic set (seed 32) at its tuned mu and m; a change of the
    # delta's scale shows up here first.
    paths = write_collection(make_synthetic(32, 1000, 800, 20), tmp_path / "data")
    config = ExperimentConfig()
    index = build_index(read_corpus(paths["corpus"]), config.analyzer)
    queries, _ = make_queries(load_topics(paths["topics"]), index)
    lists, m, memo, models = tune(queries, load_qrels(paths["qrels"]), config, index)
    assert (memo.mu, m) == (100, 5)
    methods = (WeightingMethod.TWQP_SCORE_RATIO, WeightingMethod.TWQP_NQC)
    weighed = expand_and_weigh(lists, m, methods, config, memo, models)
    spread = {}
    for method in methods:
        weights = [w for maps in weighed for w in maps[method.value].values()]
        spread[method] = (round(min(weights), 4), round(max(weights), 4))
    assert spread == {
        WeightingMethod.TWQP_SCORE_RATIO: (0.9999, 1.0),
        WeightingMethod.TWQP_NQC: (0.4898, 0.5211),
    }


# A hand-written collection on which every analyzer key bites: titles and
# documents mix case, hold the Porter pair running/runs (both stem to run)
# and stopwords.  The synthetic sets hold only lower-case, stem-stable,
# non-stopword tokens, so no key of the analyzer reaches them.
ANALYZER_DOCS = {
    "d1": "Running shoes for the trail. Running is fun, and the runs are long.",
    "d2": "The runs of the river run into the sea; running water is cold.",
    "d3": "Apples and pears: the Apple orchard runs along the Road.",
    "d4": "A road race is running in the city, and the runner runs fast.",
    "d5": "Pears ripen in the autumn; The orchard is quiet.",
    "d6": "City traffic on the road is slow in the morning.",
}
ANALYZER_TOPICS = {"q1": "Running the Race", "q2": "The Apple Orchard", "q3": "Runs on the Road"}
ANALYZER_QRELS = {"q1": ("d1", "d4"), "q2": ("d3",), "q3": ("d4", "d6")}


def _tree_digest(out):
    """sha256 over the files under out, or out itself when it is a file:
    each file's path relative to out and its bytes, in path order."""
    out = Path(out)
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()) or [out]:
        digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _experiment_digest(config):
    """sha256 over the experiment's output tree."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # title terms dropped under some analyzers
        run_experiment(config)
    return _tree_digest(config.output_dir)


@pytest.fixture(scope="module")
def analyzer_experiment(tmp_path_factory):
    """The default-analyzer config on the hand-written collection, and its
    output digest."""
    root = tmp_path_factory.mktemp("analyzer")
    (root / "corpus.jsonl").write_text(
        "".join(json.dumps({"doc_id": d, "text": t}) + "\n" for d, t in ANALYZER_DOCS.items())
    )
    (root / "topics.tsv").write_text("".join(f"{q}\t{t}\n" for q, t in ANALYZER_TOPICS.items()))
    (root / "qrels.txt").write_text(
        "".join(f"{q} 0 {d} 1\n" for q, docs in ANALYZER_QRELS.items() for d in docs)
    )
    config = ExperimentConfig(
        corpus=str(root / "corpus.jsonl"),
        topics=str(root / "topics.tsv"),
        qrels=str(root / "qrels.txt"),
        output_dir=str(root / "default"),
        k=10,
        rerank_depth=3,
        mu_grid=(50, 500),
        rm3_m_grid=(2, 3),
    )
    return config, _experiment_digest(config)


# One row per config key outside [paths]: a value other than the
# analyzer_experiment config's, as a config file holds it, and the command
# whose output it must change.  experiment runs all six weighters, so the
# weighting method is seen in rerank's run.
KEY_ROWS = {
    ("analyzer", "lowercase"): ("false", "experiment"),
    ("analyzer", "stemmer"): ("none", "experiment"),
    ("analyzer", "token_pattern"): ("[a-z]{4,}", "experiment"),
    ("analyzer", "stopwords"): ("", "experiment"),
    ("retrieval", "k"): ("3", "experiment"),
    ("retrieval", "rerank_depth"): ("2", "experiment"),
    ("retrieval", "mu_grid"): ("5000", "experiment"),
    ("rm3", "mu"): ("10.0", "experiment"),
    ("rm3", "lambda"): ("0.2", "experiment"),
    ("rm3", "n"): ("2", "experiment"),
    ("rm3", "m_grid"): ("1", "experiment"),
    ("qpp", "m"): ("1", "experiment"),
    ("weighting", "method"): ("nWIG", "rerank"),
}


def _command_digest(command, ini, out):
    """sha256 of what command writes when run on config file ini: the
    experiment's output tree, or rerank's run file at mu 50."""
    if command == "experiment":
        argv = ["experiment", "--config", str(ini), "--out-dir", str(out)]
    else:
        argv = ["rerank", "--config", str(ini), "--mu", "50", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # title terms dropped under some analyzers
        assert main(argv) == 0
    return _tree_digest(out)


@pytest.fixture(scope="module")
def default_digests(analyzer_experiment, tmp_path_factory):
    """The analyzer_experiment config as a file, and each command's digest on it."""
    root = tmp_path_factory.mktemp("keys")
    save_config(analyzer_experiment[0], root / "default.ini")
    return root / "default.ini", {
        command: _command_digest(command, root / "default.ini", root / command)
        for command in ("experiment", "rerank")
    }


@pytest.mark.parametrize(
    "section, key",
    [(section, key) for section, key, *_ in _KEYS if section != "paths"],
    ids=lambda name: name,
)
def test_each_config_key_changes_its_command_s_output(default_digests, tmp_path, section, key):
    assert (section, key) in KEY_ROWS, f"[{section}] {key}: add a KEY_ROWS row"
    value, command = KEY_ROWS[section, key]
    default_ini, digests = default_digests
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(default_ini, encoding="utf-8")
    assert parser.get(section, key) != value
    parser.set(section, key, value)
    with open(tmp_path / "changed.ini", "w", encoding="utf-8") as fh:
        parser.write(fh)
    changed = _command_digest(command, tmp_path / "changed.ini", tmp_path / "out")
    assert changed != digests[command]


def test_every_key_row_names_a_config_key():
    assert set(KEY_ROWS) <= {(section, key) for section, key, *_ in _KEYS}


def test_the_outputs_do_not_depend_on_the_interpreter_s_sum(tmp_path, monkeypatch):
    # From CPython 3.12 on builtin sum compensates; the library adds its
    # floats with add_up, so a 3.12 sum changes no output byte.
    paths = write_collection(make_synthetic(32, 1000, 800, 20), tmp_path / "data")
    config = ExperimentConfig(
        corpus=str(paths["corpus"]),
        topics=str(paths["topics"]),
        qrels=str(paths["qrels"]),
        output_dir=str(tmp_path / "in-order"),
    )
    in_order = _experiment_digest(config)
    monkeypatch.setattr(builtins, "sum", cpython312_sum)
    assert _experiment_digest(replace(config, output_dir=str(tmp_path / "compensated"))) == in_order


def test_the_analyzer_collection_digest_is_reproducible(analyzer_experiment, tmp_path):
    # so that a changed digest above is the key's doing
    config, default_digest = analyzer_experiment
    assert _experiment_digest(replace(config, output_dir=str(tmp_path))) == default_digest

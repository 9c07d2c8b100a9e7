"""Experiment configuration defaults, INI round-trip, and overrides."""

import pytest

from twqp.analysis import DEFAULT_STOPWORDS, AnalyzerConfig
from twqp.config import ExperimentConfig, load_config, override, save_config
from twqp.weighting import WeightingMethod


class TestDefaults:
    def test_protocol_constants(self):
        cfg = ExperimentConfig()
        assert cfg.k == 1000
        assert cfg.rerank_depth == 100
        assert cfg.rm3_mu == 1000.0
        assert cfg.rm3_lambda == 0.9
        assert cfg.rm3_n == 100
        assert cfg.mu_grid == tuple(range(100, 5001, 100))
        assert cfg.rm3_m_grid == tuple(range(5, 101, 5))
        assert cfg.qpp_m is None
        assert cfg.weighting_method is WeightingMethod.TWQP_NQC
        assert cfg.output_dir == "out"
        assert cfg.corpus is None and cfg.topics is None and cfg.qrels is None

    def test_default_analyzer(self):
        cfg = ExperimentConfig()
        assert cfg.analyzer.lowercase is True
        assert cfg.analyzer.stemmer == "porter"
        assert cfg.analyzer.stopwords == DEFAULT_STOPWORDS


class TestRoundTrip:
    def test_defaults_survive(self, tmp_path):
        path = tmp_path / "exp.ini"
        save_config(ExperimentConfig(), path)
        assert load_config(path) == ExperimentConfig()

    def test_modified_config_survives(self, tmp_path):
        cfg = ExperimentConfig(
            corpus="data/corpus.jsonl",
            topics="data/topics.tsv",
            qrels="data/qrels.txt",
            output_dir="results",
            analyzer=AnalyzerConfig(
                lowercase=False,
                stopwords=frozenset({"foo", "bar"}),
                stemmer="none",
            ),
            k=500,
            rerank_depth=50,
            rm3_mu=750.5,
            rm3_lambda=0.25,
            rm3_n=40,
            mu_grid=(100, 200, 300),
            rm3_m_grid=(5, 15),
            qpp_m=25,
            weighting_method=WeightingMethod.SROR,
        )
        path = tmp_path / "exp.ini"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_none_qpp_m_round_trips(self, tmp_path):
        path = tmp_path / "exp.ini"
        save_config(ExperimentConfig(qpp_m=None), path)
        assert load_config(path).qpp_m is None

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_config(tmp_path / "nope.ini")

    def test_partial_file_falls_back_to_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[retrieval]\nk = 250\n")
        cfg = load_config(path)
        assert cfg.k == 250
        assert cfg.rerank_depth == 100
        assert cfg.mu_grid == tuple(range(100, 5001, 100))
        assert cfg.analyzer == AnalyzerConfig()

    @pytest.mark.parametrize(
        "section, key, replacement",
        [("qpp", "kind", r"\[weighting\] method"), ("synthetic", "seed", "make-synthetic --seed")],
    )
    def test_retired_key_warns_and_names_its_replacement(
        self, tmp_path, section, key, replacement
    ):
        path = tmp_path / "exp.ini"
        path.write_text(f"[{section}]\n{key} = 7\n[retrieval]\nk = 250\n")
        with pytest.warns(UserWarning, match=replacement):
            cfg = load_config(path)
        assert cfg == ExperimentConfig(k=250)

    def test_saved_file_sets_no_retired_key(self, tmp_path, recwarn):
        path = tmp_path / "exp.ini"
        save_config(ExperimentConfig(), path)
        text = path.read_text()
        assert "kind" not in text and "[synthetic]" not in text
        load_config(path)
        assert not recwarn.list

    def test_grid_accepts_spaces_or_commas(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[retrieval]\nmu_grid = 100, 200 300\n")
        assert load_config(path).mu_grid == (100, 200, 300)


class TestOverride:
    def test_none_values_keep_existing(self):
        cfg = ExperimentConfig(k=500)
        assert override(cfg, k=None, qpp_m=None) == cfg

    def test_non_none_values_replace(self):
        cfg = override(ExperimentConfig(), k=200, qpp_m=9)
        assert cfg.k == 200
        assert cfg.qpp_m == 9
        assert cfg.rerank_depth == 100

    def test_no_changes_returns_equal_config(self):
        cfg = ExperimentConfig()
        assert override(cfg) == cfg

"""Command-line interface: subcommand flows, outputs, and error reporting."""

import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import twqp.cli
import twqp.experiment
from twqp.cli import main
from twqp.config import ExperimentConfig, load_config, save_config
from twqp.evaluation import build_report, load_qrels
from twqp.experiment import run_label_slug
from twqp.index import Index
from twqp.retrieval import read_run
from twqp.synthetic import make_synthetic, write_collection


# `twqp write-config` output for the default config, byte for byte.
DEFAULT_INI = (
    "[paths]\n"
    "corpus = \n"
    "topics = \n"
    "qrels = \n"
    "output_dir = out\n"
    "\n"
    "[analyzer]\n"
    "lowercase = true\n"
    "stemmer = porter\n"
    "token_pattern = [^\\W_]+\n"
    "stopwords = a an and are as at be but by for if in into is it no not of on or such"
    " that the their then there these they this to was will with\n"
    "\n"
    "[retrieval]\n"
    "k = 1000\n"
    "rerank_depth = 100\n"
    "mu_grid = 100,200,300,400,500,600,700,800,900,1000,1100,1200,1300,1400,1500,1600,"
    "1700,1800,1900,2000,2100,2200,2300,2400,2500,2600,2700,2800,2900,3000,3100,3200,"
    "3300,3400,3500,3600,3700,3800,3900,4000,4100,4200,4300,4400,4500,4600,4700,4800,"
    "4900,5000\n"
    "\n"
    "[rm3]\n"
    "mu = 1000.0\n"
    "lambda = 0.9\n"
    "n = 100\n"
    "m_grid = 5,10,15,20,25,30,35,40,45,50,55,60,65,70,75,80,85,90,95,100\n"
    "\n"
    "[qpp]\n"
    "m = \n"
    "\n"
    "[weighting]\n"
    "method = TWQP(NQC)\n"
    "\n"
).encode()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic collection, index snapshot, and trimmed-grid config."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert (
        main(
            [
                "make-synthetic",
                "--seed", "3",
                "--docs", "60",
                "--vocab", "100",
                "--queries", "6",
                "--out-dir", str(data),
            ]
        )
        == 0
    )
    assert (
        main(["index", "--corpus", str(data / "corpus.jsonl"), "--out", str(root / "index.snap")])
        == 0
    )
    config = ExperimentConfig(
        corpus=str(data / "corpus.jsonl"),
        topics=str(data / "topics.tsv"),
        qrels=str(data / "qrels.txt"),
        output_dir=str(root / "out"),
        mu_grid=(500, 1000),
        rm3_m_grid=(5, 10),
    )
    save_config(config, root / "exp.ini")
    return root


class TestGeneratorAndIndex:
    def test_make_synthetic_writes_three_files(self, tmp_path, capsys):
        rc = main(
            [
                "make-synthetic",
                "--seed", "5",
                "--docs", "60",
                "--vocab", "100",
                "--queries", "6",
                "--out-dir", str(tmp_path / "d"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("corpus.jsonl", "topics.tsv", "qrels.txt"):
            assert (tmp_path / "d" / name).exists()
            assert name in out

    def test_index_snapshot_loads(self, workspace, capsys):
        assert "indexed ->" not in capsys.readouterr().out  # drain fixture output
        snap = workspace / "index.snap"
        assert snap.exists()
        index = Index.load(snap)
        assert index.doc_count == 60

    def test_write_config_round_trips(self, tmp_path, capsys):
        path = tmp_path / "default.ini"
        rc = main(["write-config", "--out", str(path)])
        assert rc == 0
        assert "config ->" in capsys.readouterr().out
        assert path.read_bytes() == DEFAULT_INI
        assert load_config(path) == ExperimentConfig()


class TestPipelineCommands:
    def test_search_writes_run(self, workspace, capsys):
        out_path = workspace / "ql.run"
        rc = main(
            [
                "search",
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--mu", "1000",
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        runs = read_run(out_path)
        assert sorted(runs) == [f"q{t:03d}" for t in range(6)]

    def test_eval_prints_per_query_and_mean(self, workspace, capsys):
        assert (workspace / "ql.run").exists()
        rc = main(
            [
                "eval",
                "--run", str(workspace / "ql.run"),
                "--qrels", str(workspace / "data" / "qrels.txt"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "q000" in out and "AP=" in out
        assert "mean over 6 queries" in out
        assert "MAP=" in out and "MRR=" in out

    def test_eval_means_match_the_report(self, workspace, tmp_path, capsys):
        # p@10 averages over every query in the run, MAP and MRR over the
        # judged ones, as build_report does; q000 is left unjudged here
        run_path, qrels_path = tmp_path / "ql.run", tmp_path / "qrels.txt"
        lines = (workspace / "data" / "qrels.txt").read_text().splitlines(keepends=True)
        qrels_path.write_text("".join(l for l in lines if not l.startswith("q000 ")))
        argv = ["--snapshot", str(workspace / "index.snap"), "--mu", "1000"]
        topics = ["--topics", str(workspace / "data" / "topics.tsv")]
        assert main(["search", *argv, *topics, "--out", str(run_path)]) == 0
        capsys.readouterr()
        assert main(["eval", "--run", str(run_path), "--qrels", str(qrels_path)]) == 0
        out = capsys.readouterr().out
        means = build_report({"QL": read_run(run_path)}, load_qrels(qrels_path), "QL").aggregates
        assert f"mean over 6 queries\tp@10={means['QL']['p10']:.4f}\n" in out
        assert (
            f"mean over 5 judged queries\tMAP={means['QL']['ap']:.4f}"
            f"\tMRR={means['QL']['rr']:.4f}\n"
        ) in out

    def test_tune_mu_reports_best(self, workspace, capsys):
        rc = main(
            [
                "tune-mu",
                "--config", str(workspace / "exp.ini"),
                "--snapshot", str(workspace / "index.snap"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "best mu:" in out

    def test_tune_rm3_reports_best(self, workspace, capsys):
        rc = main(
            [
                "tune-rm3",
                "--config", str(workspace / "exp.ini"),
                "--snapshot", str(workspace / "index.snap"),
                "--mu", "1000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "best rm3 m:" in out and "at mu=1000" in out

    def test_weigh_writes_tables(self, workspace, capsys):
        out_path = workspace / "tables.txt"
        rc = main(
            [
                "weigh",
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--mu", "1000",
                "--method", "TWQP(NQC)",
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        lines = out_path.read_text().splitlines()
        assert lines
        for line in lines:
            qid, label, term, weight = line.split()
            assert label == "TWQP(NQC)"
            assert 0.0 < float(weight) < 1.0

    def _weigh_labels(self, workspace, *flags):
        out_path = workspace / "labels.txt"
        rc = main(
            [
                "weigh",
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--mu", "1000",
                "--out", str(out_path),
                *flags,
            ]
        )
        assert rc == 0
        return {line.split()[1] for line in out_path.read_text().splitlines()}

    def test_config_method_selects_weighter_and_stale_kind_warns(self, workspace, capsys):
        ini = workspace / "wig.ini"
        ini.write_text("[qpp]\nkind = NQC\n[weighting]\nmethod = TWQP(WIG)\n")
        with pytest.warns(UserWarning, match=r"\[qpp\] kind is not read"):
            assert self._weigh_labels(workspace, "--config", str(ini)) == {"TWQP(WIG)"}
        assert self._weigh_labels(workspace, "--method", "TWQP(ScoreRatio)") == {"TWQP(ScoreRatio)"}
        capsys.readouterr()

    def test_rerank_writes_run(self, workspace, capsys):
        out_path = workspace / "nwig.run"
        rc = main(
            [
                "rerank",
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--mu", "1000",
                "--method", "nWIG",
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert "nWIG" in out_path.read_text()
        assert sorted(read_run(out_path)) == [f"q{t:03d}" for t in range(6)]

    def test_rerank_rm3_method(self, workspace, capsys):
        out_path = workspace / "rm3.run"
        rc = main(
            [
                "rerank",
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--mu", "1000",
                "--method", "RM3Opt",
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert "RM3Opt" in out_path.read_text()

    def test_experiment_from_config(self, workspace, capsys):
        rc = main(["experiment", "--config", str(workspace / "exp.ini")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tuned mu=" in out
        out_dir = workspace / "out"
        assert len(list((out_dir / "runs").glob("*.run"))) == 8
        payload = json.loads((out_dir / "report.json").read_text())
        assert len(payload["methods"]) == 8
        assert (out_dir / "report.txt").exists()

    # every re-ranked label: `rerank --method X` weighs X alone, while the
    # experiment weighs all six methods in one batch and re-ranks under all
    # seven maps at once; both must write the same bytes
    @pytest.mark.parametrize("method", twqp.experiment.METHOD_ORDER[1:])
    def test_rerank_reproduces_experiment_run(self, workspace, tmp_path, capsys, method):
        config = str(workspace / "exp.ini")
        assert main(["experiment", "--config", config, "--out-dir", str(tmp_path)]) == 0
        tuned = json.loads((tmp_path / "report.json").read_text())["tuned"]
        out_path = tmp_path / "cli.run"
        rc = main(
            [
                "rerank",
                "--config", config,
                "--snapshot", str(workspace / "index.snap"),
                "--mu", str(tuned["mu"]),
                "--rm3-m", str(tuned["rm3_m"]),
                "--method", method,
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        expected = tmp_path / "runs" / f"{run_label_slug(method)}.run"
        assert out_path.read_bytes() == expected.read_bytes()

    def test_tune_rm3_tunes_as_the_experiment_does(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        config = str(workspace / "exp.ini")
        assert main(["experiment", "--config", config, "--out-dir", str(tmp_path)]) == 0
        tuned = json.loads((tmp_path / "report.json").read_text())["tuned"]
        capsys.readouterr()
        calls = []
        real = twqp.experiment.tune_rm3_m

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(twqp.experiment, "tune_rm3_m", counted)
        rc = main(["tune-rm3", "--config", config, "--snapshot", str(workspace / "index.snap")])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"best rm3 m: {tuned['rm3_m']} (at mu={tuned['mu']:g})" in out
        assert len(calls) == 1

    def test_weigh_below_default_rerank_depth(self, workspace, capsys):
        # weighing builds no re-ranking config, so k may be below rerank_depth
        rc = main(
            [
                "weigh",
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--k", "50",
                "--mu", "1000",
                "--out", str(workspace / "k50.txt"),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert (workspace / "k50.txt").read_text()


# sha256 of `twqp weigh --mu 1000 --method X` on make_synthetic(32, 200, 800,
# 20): the weight lines are an output as the run files are, so a refactor of
# the weighting layer must leave every byte of them as it was
WEIGH_DIGESTS = {
    "TWQP(WIG)": "09015e63dec51e841a5009079ff1a983d634d3c9992d0dbc4ae4d855e8536f38",
    "TWQP(NQC)": "d8a990aeff11f2d852497befdd152a5f4f5f3eb9fad9b257e73aa92902c435af",
    "TWQP(ScoreRatio)": "c2aa522724b1cbbce3f7cb17f5b9a072802c88cd4e1e4f7d754edb29a7d1701b",
    "nWIG": "17aa908d725f5b0fd1ee4d956e8f655702ce9faf0b9b43b2275a06cf875297af",
    "ScoreRatio": "4856ab75be1ba38353b444900e4930090b2d2173a69ae6e0397a2eb3d44a097d",
    "SROR": "0e135d0f48202cd4c844931f27c41df35480d36e605915bb549f2ef18dba1ce2",
}


@pytest.fixture(scope="module")
def seed32_collection(tmp_path_factory):
    return write_collection(make_synthetic(32, 200, 800, 20), tmp_path_factory.mktemp("seed32"))


@pytest.mark.parametrize("method", sorted(WEIGH_DIGESTS))
def test_weigh_output_bytes_are_pinned(seed32_collection, tmp_path, capsys, method):
    out_path = tmp_path / "weights.txt"
    rc = main(
        [
            "weigh",
            "--corpus", str(seed32_collection["corpus"]),
            "--topics", str(seed32_collection["topics"]),
            "--mu", "1000",
            "--method", method,
            "--out", str(out_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == WEIGH_DIGESTS[method]


class TestHelp:
    @pytest.mark.parametrize(
        "command",
        ["index", "tune-mu", "tune-rm3", "search", "weigh", "rerank", "experiment"],
    )
    def test_config_flag_listed(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestErrors:
    def _stderr(self, capsys):
        return capsys.readouterr().err

    def test_search_needs_an_index_source(self, workspace, capsys):
        rc = main(
            [
                "search",
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--mu", "1000",
                "--out", str(workspace / "x.run"),
            ]
        )
        assert rc == 1
        assert "need --snapshot or --corpus" in self._stderr(capsys)

    def test_search_rejects_a_json_snapshot(self, workspace, tmp_path, capsys):
        snapshot = tmp_path / "v1.snap"
        snapshot.write_text('#twqp-index 1\n{"postings": {}}\n', encoding="utf-8")
        rc = main(
            [
                "search",
                "--snapshot", str(snapshot),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--mu", "1000",
                "--out", str(tmp_path / "x.run"),
            ]
        )
        assert rc == 1
        err = self._stderr(capsys)
        assert "format 1" in err and "twqp index" in err

    def test_search_names_a_damaged_snapshot(self, workspace, tmp_path, capsys):
        snapshot = tmp_path / "cut.snap"
        data = (workspace / "index.snap").read_bytes()
        snapshot.write_bytes(data[: len(data) // 2])
        rc = main(
            [
                "search",
                "--snapshot", str(snapshot),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--mu", "1000",
                "--out", str(tmp_path / "x.run"),
            ]
        )
        assert rc == 1
        assert f"{snapshot}: damaged index snapshot" in self._stderr(capsys)

    def test_search_needs_mu(self, workspace, capsys):
        rc = main(
            [
                "search",
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--out", str(workspace / "x.run"),
            ]
        )
        assert rc == 1
        assert "need --mu" in self._stderr(capsys)

    @pytest.mark.parametrize("method", ["TWQP(NQC)", "TWQP(WIG)", "nWIG"])
    def test_weigh_rejects_mu_zero(self, workspace, capsys, method):
        # at mu = 0 a q+w list holds -inf scores: NQC's delta was NaN, WIG
        # hit a math domain error and nWIG wrote -inf weights
        out_path = workspace / "mu0.txt"
        rc = main(
            [
                "weigh",
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--mu", "0",
                "--method", method,
                "--out", str(out_path),
            ]
        )
        assert rc == 1
        assert "weighting requires mu > 0 and finite, got 0.0" in self._stderr(capsys)
        assert not out_path.exists()

    @pytest.mark.parametrize("mu", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command, extra",
        [("search", []), ("weigh", []), ("rerank", ["--method", "RM3Opt"])],
        ids=["search", "weigh", "rerank"],
    )
    def test_non_finite_mu_rejected(self, workspace, capsys, command, extra, mu):
        # NaN fails every comparison, so a check written as `mu <= 0`
        # lets it through to a run of nan scores
        out_path = workspace / f"{command}-{mu}.out"
        rc = main(
            [
                command,
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--mu", mu,
                "--out", str(out_path),
                *extra,
            ]
        )
        assert rc == 1
        assert f"and finite, got {mu}" in self._stderr(capsys)
        assert not out_path.exists()

    @pytest.mark.parametrize("mu", ["-inf", "-1e3"])
    @pytest.mark.parametrize(
        "command, extra",
        [("search", []), ("weigh", []), ("rerank", ["--method", "RM3Opt"])],
        ids=["search", "weigh", "rerank"],
    )
    def test_negative_mu_as_its_own_argument_rejected(
        self, workspace, capsys, command, extra, mu
    ):
        # argparse reads "-inf" or "-1e3" after a space as an option, not as
        # --mu's value; the space and "=" forms must reach the same check
        out_path = workspace / f"{command}-{mu}.out"
        rc = main(
            [
                command,
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--mu", mu,
                "--out", str(out_path),
                *extra,
            ]
        )
        assert rc == 1
        assert f"and finite, got {float(mu)}" in self._stderr(capsys)
        assert not out_path.exists()

    def test_unknown_weighting_method(self, workspace, capsys):
        rc = main(
            [
                "weigh",
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--mu", "1000",
                "--method", "bm25",
                "--out", str(workspace / "x.txt"),
            ]
        )
        assert rc == 1
        assert "error:" in self._stderr(capsys)

    def test_weigh_rejects_rm3_label(self, workspace, capsys):
        rc = main(
            [
                "weigh",
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--mu", "1000",
                "--method", "RM3Opt",
                "--out", str(workspace / "x.txt"),
            ]
        )
        assert rc == 1
        assert "not a term weighter" in self._stderr(capsys)

    def test_rerank_depth_checked_before_weighing(self, workspace, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("weighed before checking the re-ranking depth")

        monkeypatch.setattr(twqp.cli, "expand_and_weigh", unreachable)
        rc = main(
            [
                "rerank",
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                "--k", "50",
                "--mu", "1000",
                "--out", str(workspace / "x.run"),
            ]
        )
        assert rc == 1
        assert "need 1 <= rerank_depth <= k" in self._stderr(capsys)

    @pytest.mark.parametrize("how", ["flag", "config file"])
    def test_experiment_depth_checked_before_indexing(
        self, workspace, tmp_path, capsys, monkeypatch, how
    ):
        # experiment has no --rerank-depth flag, so k = 50 is below the
        # default depth 100 and no run can succeed
        def unreachable(*args, **kwargs):
            raise AssertionError("indexed before checking the re-ranking depth")

        monkeypatch.setattr(twqp.experiment, "read_corpus", unreachable)
        monkeypatch.setattr(twqp.experiment, "build_index", unreachable)
        out_dir = tmp_path / "out"
        if how == "flag":
            argv = ["--config", str(workspace / "exp.ini"), "--k", "50"]
        else:
            config = replace(load_config(workspace / "exp.ini"), k=50)
            save_config(config, tmp_path / "k50.ini")
            argv = ["--config", str(tmp_path / "k50.ini")]
        assert main(["experiment", *argv, "--out-dir", str(out_dir)]) == 1
        assert "need 1 <= rerank_depth <= k, got rerank_depth=100, k=50" in self._stderr(capsys)
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("rerank", ["--k", "50", "--mu", "1000"], "need 1 <= rerank_depth <= k"),
            # without --mu the depth rule would read mu_grid; the missing flag is named first
            ("rerank", ["--k", "50"], "need --mu"),
            ("weigh", [], "need --mu"),
            ("search", [], "need --mu"),
            ("weigh", ["--mu", "0"], "weighting requires mu > 0 and finite, got 0.0"),
            (
                "weigh",
                ["--mu", "1000", "--method", "RM3Opt"],
                "RM3Opt is a re-ranking method, not a term weighter",
            ),
            # the integer flags obey a config file's counts rule, >= 1
            ("weigh", ["--mu", "1000", "--qpp-m", "0"], "--qpp-m must be >= 1, got 0"),
            ("weigh", ["--mu", "1000", "--qpp-m", "-3"], "--qpp-m must be >= 1, got -3"),
            ("weigh", ["--mu", "1000", "--rm3-m", "0"], "--rm3-m must be >= 1, got 0"),
            ("rerank", ["--mu", "1000", "--rm3-m", "0"], "--rm3-m must be >= 1, got 0"),
            ("rerank", ["--mu", "1000", "--rerank-depth", "0"], "--rerank-depth must be >= 1"),
            ("search", ["--mu", "1000", "--k", "0"], "--k must be >= 1, got 0"),
            ("weigh", ["--mu", "1000", "--k", "0"], "--k must be >= 1, got 0"),
            ("tune-mu", ["--k", "0"], "--k must be >= 1, got 0"),
        ],
        ids=[
            "rerank-depth",
            "rerank-mu",
            "weigh-mu",
            "search-mu",
            "weigh-mu-zero",
            "weigh-rm3",
            "weigh-qpp-m-zero",
            "weigh-qpp-m-negative",
            "weigh-rm3-m-zero",
            "rerank-rm3-m-zero",
            "rerank-depth-zero",
            "search-k-zero",
            "weigh-k-zero",
            "tune-mu-k-zero",
        ],
    )
    def test_mu_and_depth_checked_before_indexing(
        self, workspace, capsys, monkeypatch, command, extra, message
    ):
        builds = []
        real_build = twqp.cli.build_index

        def counted(*args, **kwargs):
            builds.append(1)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(twqp.cli, "build_index", counted)
        out = [] if command == "tune-mu" else ["--out", str(workspace / "x.out")]
        rc = main(
            [
                command,
                "--corpus", str(workspace / "data" / "corpus.jsonl"),
                "--topics", str(workspace / "data" / "topics.tsv"),
                *extra,
                *out,
            ]
        )
        assert rc == 1
        assert message in self._stderr(capsys)
        assert builds == []

    def test_tune_rm3_depth_checked_before_indexing(self, workspace, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("indexed before checking the re-ranking depth")

        monkeypatch.setattr(twqp.cli, "_load_index", unreachable)
        rc = main(
            [
                "tune-rm3",
                "--config", str(workspace / "exp.ini"),
                "--snapshot", str(workspace / "index.snap"),
                "--k", "50",
            ]
        )
        assert rc == 1
        assert "need 1 <= rerank_depth <= k, got rerank_depth=100, k=50" in self._stderr(capsys)

    def test_malformed_corpus_line_reported(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doc_id": "d1", "text": "ok"}\nnot json\n')
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "i.snap")])
        assert rc == 1
        assert "line 2" in self._stderr(capsys)

    def test_index_rejects_a_doc_id_a_run_cannot_carry(self, tmp_path, capsys):
        # such an id would be written into a run line that eval cannot read
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"doc_id": "d0", "text": "ok"}\n{"doc_id": "d 1", "text": "ok"}\n')
        rc = main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "i.snap")])
        assert rc == 1
        assert "doc_id 'd 1' is empty or holds whitespace at line 2" in self._stderr(capsys)
        assert not (tmp_path / "i.snap").exists()

    def test_eval_rejects_a_repeated_document(self, tmp_path, capsys):
        qrels, run = tmp_path / "qrels.txt", tmp_path / "dup.run"
        qrels.write_text("q1 0 d1 1\n")
        run.write_text("q1 Q0 d1 1 -1.0 t\nq1 Q0 d1 2 -2.0 t\n")
        rc = main(["eval", "--qrels", str(qrels), "--run", str(run)])
        assert rc == 1
        assert "duplicate document d1 for query q1 at line 2" in self._stderr(capsys)

    def test_tune_rm3_rejects_a_mu_grid_holding_zero(self, workspace, tmp_path, capsys):
        config = replace(load_config(workspace / "exp.ini"), mu_grid=(0, 100, 1000))
        save_config(config, tmp_path / "zero.ini")
        argv = ["--config", str(tmp_path / "zero.ini"), "--snapshot", str(workspace / "index.snap")]
        assert main(["tune-rm3", *argv]) == 1
        assert "mu_grid values must be > 0" in self._stderr(capsys)
        # tune-mu only retrieves, so 0 stays a grid point there.
        assert main(["tune-mu", *argv]) == 0
        assert "best mu:" in capsys.readouterr().out

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_eval_rejects_depth_below_one(self, tmp_path, capsys, depth):
        qrels, run = tmp_path / "qrels.txt", tmp_path / "ql.run"
        qrels.write_text("q1 0 d2 1\n")
        run.write_text("q1 Q0 d1 1 -1.0 t\nq1 Q0 d2 2 -2.0 t\n")
        rc = main(["eval", "--qrels", str(qrels), "--run", str(run), "--depth", depth])
        assert rc == 1
        assert f"error: depth must be >= 1, got {depth}" in self._stderr(capsys)

    def test_eval_needs_qrels(self, workspace, capsys):
        rc = main(["eval", "--run", str(workspace / "ql.run")])
        assert rc == 1
        assert "need --qrels" in self._stderr(capsys)

    @pytest.mark.parametrize("command", ["tune-mu", "tune-rm3"])
    def test_tuning_needs_qrels(self, workspace, capsys, command):
        rc = main(
            [
                command,
                "--snapshot", str(workspace / "index.snap"),
                "--topics", str(workspace / "data" / "topics.tsv"),
            ]
        )
        assert rc == 1
        assert "need --qrels" in self._stderr(capsys)

    def test_overcommitted_synthetic_rejected(self, tmp_path, capsys):
        rc = main(
            [
                "make-synthetic",
                "--seed", "1",
                "--docs", "10",
                "--vocab", "50",
                "--queries", "10",
                "--out-dir", str(tmp_path / "d"),
            ]
        )
        assert rc == 1
        assert "cannot host" in self._stderr(capsys)


def test_import_loads_no_scipy():
    # scipy.special is imported on first use: by the kernel's log step at
    # the first score and by the t-test.  Importing the command line loads
    # no scipy, so index and eval, which score nothing, run without it.
    src = Path(twqp.cli.__file__).resolve().parents[1]
    code = (
        "import sys, twqp.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=src,
    ).stdout
    assert out == "[]\n"

"""Experiment configuration: defaults, INI round-trip, CLI overrides.

Defaults encode the reference protocol: depth-1000 retrieval, top-100
re-ranking, feedback model with mu=1000, lambda=0.9, n=100, smoothing grid
100..5000 step 100 and feedback-depth grid 5..100 step 5.  A config file is
plain INI; command-line flags override file values field by field.
"""

from __future__ import annotations

import configparser
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from .analysis import AnalyzerConfig
from .weighting import WeightingMethod

MU_GRID: tuple[int, ...] = tuple(range(100, 5001, 100))
RM3_M_GRID: tuple[int, ...] = tuple(range(5, 101, 5))

# Keys older config files may set that no longer select anything, and what
# selects that behaviour now.
_RETIRED_KEYS = {
    ("qpp", "kind"): "[weighting] method (or the --method flag)",
    ("synthetic", "seed"): "the make-synthetic --seed flag",
}


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: str | None = None
    topics: str | None = None
    qrels: str | None = None
    output_dir: str = "out"
    analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)
    k: int = 1000
    rerank_depth: int = 100
    rm3_mu: float = 1000.0
    rm3_lambda: float = 0.9
    rm3_n: int = 100
    mu_grid: tuple[int, ...] = MU_GRID
    rm3_m_grid: tuple[int, ...] = RM3_M_GRID
    qpp_m: int | None = None
    weighting_method: WeightingMethod = WeightingMethod.TWQP_NQC


def _format_grid(grid: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in grid)


def _parse_grid(text: str) -> tuple[int, ...]:
    values = tuple(int(v) for v in text.replace(",", " ").split())
    if not values:
        raise ValueError("empty grid")
    return values


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    parser["paths"] = {
        "corpus": config.corpus or "",
        "topics": config.topics or "",
        "qrels": config.qrels or "",
        "output_dir": config.output_dir,
    }
    parser["analyzer"] = {
        "lowercase": str(config.analyzer.lowercase).lower(),
        "stemmer": config.analyzer.stemmer,
        "token_pattern": config.analyzer.token_pattern,
        "stopwords": " ".join(sorted(config.analyzer.stopwords)),
    }
    parser["retrieval"] = {
        "k": str(config.k),
        "rerank_depth": str(config.rerank_depth),
        "mu_grid": _format_grid(config.mu_grid),
    }
    parser["rm3"] = {
        "mu": repr(config.rm3_mu),
        "lambda": repr(config.rm3_lambda),
        "n": str(config.rm3_n),
        "m_grid": _format_grid(config.rm3_m_grid),
    }
    parser["qpp"] = {"m": "" if config.qpp_m is None else str(config.qpp_m)}
    parser["weighting"] = {"method": config.weighting_method.value}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    """Read an INI config; absent keys keep their defaults, unread keys
    warn, and a value that does not parse names its file, section and key."""
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path, encoding="utf-8"):
        raise ValueError(f"cannot read config file {path}")
    defaults = ExperimentConfig()
    seen: set[tuple[str, str]] = set()

    def get(section: str, key: str, fallback, convert=str):
        seen.add((section, key))
        if not parser.has_option(section, key):
            return fallback
        try:
            return convert(parser.get(section, key))
        except ValueError as exc:
            raise ValueError(f"{path}: [{section}] {key}: {exc}") from None

    analyzer = AnalyzerConfig(
        lowercase=get("analyzer", "lowercase", defaults.analyzer.lowercase, _parse_bool),
        stemmer=get("analyzer", "stemmer", defaults.analyzer.stemmer),
        token_pattern=get("analyzer", "token_pattern", defaults.analyzer.token_pattern),
        stopwords=get(
            "analyzer", "stopwords", defaults.analyzer.stopwords, lambda v: frozenset(v.split())
        ),
    )
    config = ExperimentConfig(
        corpus=get("paths", "corpus", None) or None,
        topics=get("paths", "topics", None) or None,
        qrels=get("paths", "qrels", None) or None,
        output_dir=get("paths", "output_dir", defaults.output_dir),
        analyzer=analyzer,
        k=get("retrieval", "k", defaults.k, int),
        rerank_depth=get("retrieval", "rerank_depth", defaults.rerank_depth, int),
        rm3_mu=get("rm3", "mu", defaults.rm3_mu, float),
        rm3_lambda=get("rm3", "lambda", defaults.rm3_lambda, float),
        rm3_n=get("rm3", "n", defaults.rm3_n, int),
        mu_grid=get("retrieval", "mu_grid", defaults.mu_grid, _parse_grid),
        rm3_m_grid=get("rm3", "m_grid", defaults.rm3_m_grid, _parse_grid),
        qpp_m=get("qpp", "m", defaults.qpp_m, lambda v: int(v) if v else None),
        weighting_method=get(
            "weighting", "method", defaults.weighting_method, WeightingMethod.from_string
        ),
    )
    for section in parser.sections():
        for key in parser.options(section):
            if (section, key) not in seen:
                replacement = _RETIRED_KEYS.get((section, key))
                use = f"; use {replacement}" if replacement else ""
                warnings.warn(f"{path}: [{section}] {key} is not read{use}", stacklevel=2)
    return config


def override(config: ExperimentConfig, **changes) -> ExperimentConfig:
    """Replace fields with non-None values (CLI flags beat file values)."""
    effective = {k: v for k, v in changes.items() if v is not None}
    return replace(config, **effective) if effective else config

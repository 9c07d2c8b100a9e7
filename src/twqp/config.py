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

from .analysis import DEFAULT_STOPWORDS, DEFAULT_TOKEN_PATTERN, AnalyzerConfig
from .evaluation import MU_GRID, RM3_M_GRID
from .weighting import WeightingMethod

# Keys older config files may set that no longer select anything, and what
# selects that behaviour now.
_RETIRED_KEYS = {
    ("qpp", "kind"): "[weighting] method (or the --qpp-kind flag)",
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


def load_config(path: str | Path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ValueError(f"cannot read config file {path}")
    defaults = ExperimentConfig()
    for (section, key), replacement in _RETIRED_KEYS.items():
        if parser.has_option(section, key):
            warnings.warn(
                f"{path}: [{section}] {key} is not read; use {replacement}", stacklevel=2
            )

    def get(section: str, key: str, fallback: str) -> str:
        return parser.get(section, key, fallback=fallback)

    analyzer = AnalyzerConfig(
        lowercase=get("analyzer", "lowercase", "true").lower() in ("true", "1", "yes"),
        stemmer=get("analyzer", "stemmer", defaults.analyzer.stemmer),
        token_pattern=get("analyzer", "token_pattern", defaults.analyzer.token_pattern),
        stopwords=frozenset(
            get("analyzer", "stopwords", " ".join(sorted(DEFAULT_STOPWORDS))).split()
        ),
    )
    qpp_m_raw = get("qpp", "m", "")
    return ExperimentConfig(
        corpus=get("paths", "corpus", "") or None,
        topics=get("paths", "topics", "") or None,
        qrels=get("paths", "qrels", "") or None,
        output_dir=get("paths", "output_dir", defaults.output_dir),
        analyzer=analyzer,
        k=int(get("retrieval", "k", str(defaults.k))),
        rerank_depth=int(get("retrieval", "rerank_depth", str(defaults.rerank_depth))),
        rm3_mu=float(get("rm3", "mu", repr(defaults.rm3_mu))),
        rm3_lambda=float(get("rm3", "lambda", repr(defaults.rm3_lambda))),
        rm3_n=int(get("rm3", "n", str(defaults.rm3_n))),
        mu_grid=_parse_grid(get("retrieval", "mu_grid", _format_grid(defaults.mu_grid))),
        rm3_m_grid=_parse_grid(get("rm3", "m_grid", _format_grid(defaults.rm3_m_grid))),
        qpp_m=int(qpp_m_raw) if qpp_m_raw else None,
        weighting_method=WeightingMethod.from_string(
            get("weighting", "method", defaults.weighting_method.value)
        ),
    )


def override(config: ExperimentConfig, **changes) -> ExperimentConfig:
    """Replace fields with non-None values (CLI flags beat file values)."""
    effective = {k: v for k, v in changes.items() if v is not None}
    return replace(config, **effective) if effective else config

"""Experiment configuration: defaults, INI round-trip, CLI overrides.

Defaults encode the reference protocol: depth-1000 retrieval, top-100
re-ranking, feedback model with mu=1000, lambda=0.9, n=100, smoothing grid
100..5000 step 100 and feedback-depth grid 5..100 step 5.  A config file is
plain INI; command-line flags override file values field by field.
"""

from __future__ import annotations

import configparser
import math
import re
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


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _checked(parse, ok, rule: str):
    """parse, then reject a value that fails ok with the rule it broke."""
    def parse_checked(text: str):
        if not ok(value := parse(text)):
            raise ValueError(f"{rule}, got {text!r}")
        return value
    return parse_checked


_count = _checked(int, lambda v: v >= 1, "must be >= 1")
_positive_mu = _checked(float, lambda v: 0 < v < math.inf, "must be > 0 and finite")
_fraction = _checked(float, lambda v: 0 <= v <= 1, "must be in [0,1]")
_mu_grid = _checked(_parse_grid, lambda g: min(g) >= 0, "values must be >= 0")
_m_grid = _checked(_parse_grid, lambda g: min(g) >= 1, "values must be >= 1")

# The config file, one row per key in the order it is written: (section,
# key, field, parse, format).  [analyzer] rows fill AnalyzerConfig, the
# rest ExperimentConfig; an absent key keeps the field's default.
_KEYS = (
    ("paths", "corpus", "corpus", lambda v: v or None, lambda v: v or ""),
    ("paths", "topics", "topics", lambda v: v or None, lambda v: v or ""),
    ("paths", "qrels", "qrels", lambda v: v or None, lambda v: v or ""),
    ("paths", "output_dir", "output_dir", str, str),
    ("analyzer", "lowercase", "lowercase", _parse_bool, lambda v: str(v).lower()),
    ("analyzer", "stemmer", "stemmer", lambda v: AnalyzerConfig(stemmer=v).stemmer, str),
    ("analyzer", "token_pattern", "token_pattern",
     lambda v: AnalyzerConfig(token_pattern=v).token_pattern, str),
    ("analyzer", "stopwords", "stopwords", lambda v: frozenset(v.split()),
     lambda v: " ".join(sorted(v))),
    ("retrieval", "k", "k", _count, str),
    ("retrieval", "rerank_depth", "rerank_depth", _count, str),
    ("retrieval", "mu_grid", "mu_grid", _mu_grid, _format_grid),
    ("rm3", "mu", "rm3_mu", _positive_mu, repr),
    ("rm3", "lambda", "rm3_lambda", _fraction, repr),
    ("rm3", "n", "rm3_n", _count, str),
    ("rm3", "m_grid", "rm3_m_grid", _m_grid, _format_grid),
    ("qpp", "m", "qpp_m", lambda v: _count(v) if v else None,
     lambda v: "" if v is None else str(v)),
    ("weighting", "method", "weighting_method", WeightingMethod.from_string, lambda v: v.value),
)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    sections: dict[str, dict[str, str]] = {}
    for section, key, name, _, format_value in _KEYS:
        source = config.analyzer if section == "analyzer" else config
        sections.setdefault(section, {})[key] = format_value(getattr(source, name))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read an INI config; absent keys keep their defaults, unread keys
    warn, and a value that does not parse or is out of range names its
    file, section and key."""
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path, encoding="utf-8"):
        raise ValueError(f"cannot read config file {path}")
    analyzer: dict[str, object] = {}
    fields: dict[str, object] = {}
    for section, key, name, parse, _ in _KEYS:
        if parser.has_option(section, key):
            try:
                value = parse(parser.get(section, key))
            except (ValueError, re.error) as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
            (analyzer if section == "analyzer" else fields)[name] = value
    read = {(section, key) for section, key, *_ in _KEYS}
    for section in parser.sections():
        for key in parser.options(section):
            if (section, key) not in read:
                replacement = _RETIRED_KEYS.get((section, key))
                use = f"; use {replacement}" if replacement else ""
                warnings.warn(f"{path}: [{section}] {key} is not read{use}", stacklevel=2)
    return ExperimentConfig(analyzer=AnalyzerConfig(**analyzer), **fields)


def override(config: ExperimentConfig, **changes) -> ExperimentConfig:
    """Replace fields with non-None values (CLI flags beat file values)."""
    effective = {k: v for k, v in changes.items() if v is not None}
    return replace(config, **effective) if effective else config

"""Span tracer that wraps twqp's public functions from outside the library.

twqp modules import each other with ``from .x import y``, so a function is
reachable under several module-level names (``twqp.retrieval.retrieve_topk``,
``twqp.weighting.retrieve_topk``, ...).  ``Tracer.install`` replaces every
binding that is the same object as the target, in every loaded twqp module,
with one wrapper; callers inside the library then go through it.  A target
that no longer exists is reported as a missing span and never raises.

Each wrapper call appends (name, start, end, parent) to an in-memory list;
nothing is written until ``write``.  Self time is a span's duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

# (span name, defining module, attribute).  "Class.method" wraps a method.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("analysis.analyze", "twqp.analysis", "analyze"),
    ("index.build", "twqp.index", "build_index"),
    ("index.doc_vector_first", "twqp.index", "Index.doc_vector"),
    ("index.save", "twqp.index", "Index.save"),
    ("index.load", "twqp.index", "Index.load"),
    ("retrieval.retrieve_topk", "twqp.retrieval", "retrieve_topk"),
    ("relevance.build_rm3", "twqp.relevance", "build_rm3"),
    ("qpp.predict_quality", "twqp.qpp", "predict_quality"),
    ("weighting.weigh_terms", "twqp.weighting", "weigh_terms"),
    ("rerank.rerank_twqp", "twqp.rerank", "rerank_twqp"),
    ("rerank.rerank_rm3", "twqp.rerank", "rerank_rm3"),
    ("evaluation.average_precision", "twqp.evaluation", "average_precision"),
    ("evaluation.tune_mu", "twqp.evaluation", "tune_mu"),
    ("evaluation.tune_rm3_m", "twqp.evaluation", "tune_rm3_m"),
    ("evaluation.build_report", "twqp.evaluation", "build_report"),
    ("experiment.write_outputs", "twqp.experiment", "write_outputs"),
    ("experiment.run_experiment", "twqp.experiment", "run_experiment"),
)

# weigh_terms spans are named after the method they weigh with.
WEIGHTING_SPANS = {
    "TWQP(WIG)": "weighting.twqp_wig",
    "TWQP(NQC)": "weighting.twqp_nqc",
    "TWQP(ScoreRatio)": "weighting.twqp_scoreratio",
    "ScoreRatio": "weighting.scoreratio",
    "nWIG": "weighting.nwig",
    "SROR": "weighting.sror",
}

# Bindings whose retrieve_topk calls are the weighters' retrievals (the
# names acceptance criterion 8 counts through).
WEIGHTING_RETRIEVAL_MODULES = ("twqp.weighting", "twqp.qpp")


def span_names() -> list[str]:
    names = [name for name, _, _ in SPANS if name != "weighting.weigh_terms"]
    return names + list(WEIGHTING_SPANS.values())


@dataclass
class Tracer:
    spans: list[tuple[str, float, float, int]] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    missing: list[str] = field(default_factory=list)
    weighting_keys: set = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)
    _indexes_seen: weakref.WeakSet = field(default_factory=weakref.WeakSet)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name
            if on_call is not None:
                try:
                    span_name = on_call(args, kwargs)
                except (IndexError, KeyError, AttributeError, TypeError):
                    span_name = name  # signature changed: keep the plain span
                if span_name is None:
                    return fn(*args, **kwargs)
            idx = len(spans)
            spans.append((span_name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, spans[idx][3])

        traced.__wrapped__ = fn
        return traced

    def _on_call(self, name: str) -> Callable | None:
        counts = self.counts
        if name == "index.doc_vector_first":
            seen = self._indexes_seen

            def first_per_index(args, kwargs):
                if args[0] in seen:
                    return None
                seen.add(args[0])
                return name

            return first_per_index
        if name == "qpp.predict_quality":

            def by_kind(args, kwargs):
                counts[f"qpp.predict_quality.{args[0].kind.value.lower()}.calls"] += 1
                return name

            return by_kind
        if name == "weighting.weigh_terms":
            return lambda args, kwargs: WEIGHTING_SPANS.get(args[2].value, name)
        if name in ("rerank.rerank_twqp", "rerank.rerank_rm3"):

            def rescored(args, kwargs):
                counts["rerank.docs_rescored"] += min(len(args[0].entries), args[2].rerank_depth)
                return name

            return rescored
        return None

    def _weighting_retrieval(self, fn: Callable) -> Callable:
        counts, keys = self.counts, self.weighting_keys

        def counted(*args, **kwargs):
            counts["weighting.retrievals"] += 1
            try:
                keys.add((tuple(sorted(args[0].terms)), args[1], args[2]))
            except (IndexError, AttributeError):
                pass
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _count_candidates(self, fn: Callable) -> Callable:
        counts = self.counts

        def matching_docs(*args, **kwargs):
            docs = fn(*args, **kwargs)
            counts["retrieval.docs_scored"] += len(docs)
            return docs

        return matching_docs

    # -- installing --------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of every target in the loaded twqp modules."""
        modules = {n: m for n, m in sys.modules.items() if n == "twqp" or n.startswith("twqp.")}
        for name, module_name, attr in SPANS:
            module = modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if isinstance(original, classmethod):
                inner = self._wrap(name, original.__func__, self._on_call(name))
                self._set(owner, leaf, classmethod(inner))
                continue
            wrapper = self._wrap(name, original, self._on_call(name))
            if owner_name:
                self._set(owner, leaf, wrapper)
                continue
            for mod_name, mod in modules.items():
                if mod.__dict__.get(leaf) is original:
                    if leaf == "retrieve_topk" and mod_name in WEIGHTING_RETRIEVAL_MODULES:
                        self._set(mod, leaf, self._weighting_retrieval(wrapper))
                    else:
                        self._set(mod, leaf, wrapper)
        index_cls = getattr(modules.get("twqp.index"), "Index", None)
        matching = vars(index_cls).get("matching_docs") if index_cls is not None else None
        if matching is None:
            self.missing.append("retrieval.docs_scored")
        else:
            self._set(index_cls, "matching_docs", self._count_candidates(matching))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        out = {n: {"s": 0.0, "self_s": 0.0, "calls": 0} for n in span_names()}
        for i, (name, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c in sorted(children[i], key=lambda c: self.spans[c][1]):
                c_start, c_end = max(self.spans[c][1], reach), min(self.spans[c][2], end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += end - start
            row["self_s"] += end - start - covered
            row["calls"] += 1
        return out

    def write(self, path, header: dict) -> None:
        """One JSON line of header, then one line per span in call order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")

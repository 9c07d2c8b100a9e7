"""Inverted index with the collection statistics needed for smoothed scoring.

The index is built in a single pass and treated as immutable afterwards: all
retrieval, feedback and prediction code only reads it.  Per-document lengths
are token counts after analysis, so they match the tf accounting used by the
scoring formulas exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .analysis import AnalyzerConfig, analyze

SNAPSHOT_MAGIC = "#twqp-index"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class Document:
    """A raw corpus entry; doc_id must be unique within a corpus."""

    doc_id: str
    text: str


class Index:
    """Postings plus collection statistics.

    postings maps term -> {doc_id: tf} with doc_ids in ascending order;
    collection_tf maps term -> total tf over the collection; total_tokens is
    the number of analyzed tokens in the collection (sum of doc lengths).
    """

    def __init__(
        self,
        postings: dict[str, dict[str, int]],
        doc_lengths: dict[str, int],
        analyzer: AnalyzerConfig,
    ) -> None:
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.analyzer = analyzer
        self.collection_tf = {w: sum(p.values()) for w, p in postings.items()}
        self.total_tokens = sum(doc_lengths.values())
        self._forward: dict[str, dict[str, int]] | None = None
        self._columns: DocColumns | None = None

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)

    @property
    def vocabulary(self) -> list[str]:
        return sorted(self.postings)

    def tf(self, w: str, doc_id: str) -> int:
        return self.postings.get(w, {}).get(doc_id, 0)

    def doc_length(self, doc_id: str) -> int:
        try:
            return self.doc_lengths[doc_id]
        except KeyError:
            raise KeyError(f"unknown doc_id {doc_id!r}") from None

    def postings_list(self, w: str) -> list[tuple[str, int]]:
        """(doc_id, tf) pairs in ascending doc_id order."""
        return list(self.postings.get(w, {}).items())

    def matching_docs(self, terms: Iterable[str]) -> set[str]:
        """Doc ids containing at least one of the given terms."""
        docs: set[str] = set()
        for w in set(terms):
            docs.update(self.postings.get(w, ()))
        return docs

    def doc_vector(self, doc_id: str) -> dict[str, int]:
        """term -> tf for one document (forward view, built lazily once)."""
        if self._forward is None:
            forward: dict[str, dict[str, int]] = {d: {} for d in self.doc_lengths}
            for w in sorted(self.postings):
                for d, tf in self.postings[w].items():
                    forward[d][w] = tf
            self._forward = forward
        try:
            return self._forward[doc_id]
        except KeyError:
            raise KeyError(f"unknown doc_id {doc_id!r}") from None

    @property
    def columns(self) -> "DocColumns":
        """Columnar view for vectorised scoring, built on first use."""
        if self._columns is None:
            self._columns = DocColumns(self)
        return self._columns

    # ------------------------------------------------------------------
    # Snapshot format: a magic + version header line, then one JSON object.
    # All statistics are integers and strings, so the round trip is exact.
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        payload = {
            "analyzer": {
                "lowercase": self.analyzer.lowercase,
                "stopwords": sorted(self.analyzer.stopwords),
                "stemmer": self.analyzer.stemmer,
                "token_pattern": self.analyzer.token_pattern,
            },
            "doc_lengths": {d: self.doc_lengths[d] for d in sorted(self.doc_lengths)},
            "postings": {
                w: dict(self.postings[w].items()) for w in sorted(self.postings)
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION}\n")
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "Index":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 2 or header[0] != SNAPSHOT_MAGIC:
                raise ValueError(f"{path}: not an index snapshot (bad header)")
            if int(header[1]) != SNAPSHOT_VERSION:
                raise ValueError(f"{path}: unsupported snapshot version {header[1]}")
            payload = json.load(fh)
        analyzer = AnalyzerConfig(
            lowercase=payload["analyzer"]["lowercase"],
            stopwords=frozenset(payload["analyzer"]["stopwords"]),
            stemmer=payload["analyzer"]["stemmer"],
            token_pattern=payload["analyzer"]["token_pattern"],
        )
        postings = {
            w: {d: int(tf) for d, tf in sorted(pl.items())}
            for w, pl in payload["postings"].items()
        }
        return cls(postings, {d: int(n) for d, n in payload["doc_lengths"].items()}, analyzer)


class DocColumns:
    """Numbered documents and per-term postings arrays over one index.

    Documents are numbered in ascending doc-id order, so ascending number is
    the retrieval tie-break.  lengths[n] is the length of document n.  A
    term's (doc numbers, tfs) arrays are built the first time the term is
    scored and kept for the life of the index; doc numbers ascend and end in
    the sentinel doc_count (tf 0), so a searchsorted position is always a
    valid index.
    """

    def __init__(self, index: Index) -> None:
        self._postings = index.postings
        self.doc_ids = sorted(index.doc_lengths)
        self._numbers = {d: n for n, d in enumerate(self.doc_ids)}
        self.lengths = np.array([index.doc_lengths[d] for d in self.doc_ids], dtype=np.int64)
        self._terms: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def doc_numbers(self, doc_ids: Iterable[str]) -> np.ndarray:
        """Document numbers of the given doc ids, in the order given."""
        try:
            return np.fromiter(map(self._numbers.__getitem__, doc_ids), dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"unknown doc_id {exc.args[0]!r}") from None

    def term(self, w: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc numbers, tfs) of w's postings plus the sentinel entry."""
        cols = self._terms.get(w)
        if cols is None:
            # Postings are in ascending doc-id order, hence in number order.
            postings = self._postings.get(w, {})
            nums = np.append(self.doc_numbers(postings), len(self.doc_ids))
            tfs = np.append(np.fromiter(postings.values(), dtype=np.int64), 0)
            cols = (nums, tfs)
            if postings:
                self._terms[w] = cols
        return cols


def build_index(corpus: Iterable[Document], config: AnalyzerConfig | None = None) -> Index:
    """Single pass over the corpus; duplicate doc_ids and empty corpora are errors."""
    if config is None:
        config = AnalyzerConfig()
    raw_postings: dict[str, dict[str, int]] = {}
    doc_lengths: dict[str, int] = {}
    for doc in corpus:
        if doc.doc_id in doc_lengths:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        tokens = analyze(doc.text, config)
        doc_lengths[doc.doc_id] = len(tokens)
        for t in tokens:
            raw_postings.setdefault(t, {})
            raw_postings[t][doc.doc_id] = raw_postings[t].get(doc.doc_id, 0) + 1
    if not doc_lengths:
        raise ValueError("empty corpus: no documents to index")
    postings = {w: dict(sorted(pl.items())) for w, pl in raw_postings.items()}
    return Index(postings, doc_lengths, config)


def collection_prob(w: str, index: Index) -> float:
    """tf(w, D) / |D|; zero for out-of-vocabulary terms."""
    return index.collection_tf.get(w, 0) / index.total_tokens


# ---------------------------------------------------------------------------
# Corpus readers
# ---------------------------------------------------------------------------


def read_corpus_jsonl(path: str | Path) -> Iterator[Document]:
    """One JSON object per line with "doc_id" and "text" fields."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                doc_id = record["doc_id"]
                text = record["text"]
            except (json.JSONDecodeError, TypeError, KeyError) as exc:
                raise ValueError(f"{path}: malformed corpus line {lineno}: {exc}") from None
            yield Document(str(doc_id), str(text))


def read_corpus_dir(path: str | Path) -> Iterator[Document]:
    """Directory of plain-text files; the file stem is the doc_id."""
    root = Path(path)
    files = sorted(p for p in root.iterdir() if p.is_file())
    for p in files:
        yield Document(p.stem, p.read_text(encoding="utf-8"))


def read_corpus(path: str | Path) -> Iterator[Document]:
    """Dispatch on path kind: directory of .txt files or a JSONL file."""
    p = Path(path)
    if p.is_dir():
        return read_corpus_dir(p)
    return read_corpus_jsonl(p)

"""Inverted index with the collection statistics needed for smoothed scoring.

The index is a set of arrays, built in a single pass and treated as
immutable afterwards: all retrieval, feedback and prediction code only reads
it.  Documents are numbered in ascending doc-id order, so ascending number
is the retrieval tie-break.  Postings are one term-major CSR over the sorted
vocabulary: term i's doc numbers (ascending) and tfs are nums and tfs over
starts[i]:starts[i + 1].  Per-document lengths are token counts after
analysis, so they match the tf accounting used by the scoring formulas
exactly.  A snapshot is an .npz of the same arrays.
"""

from __future__ import annotations

import json
import tokenize
import zipfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .analysis import AnalyzerConfig, analyze

SNAPSHOT_VERSION = 2
_JSON_MAGIC = b"#twqp-index"  # first bytes of a format 1 (JSON) snapshot
# What zipfile and numpy's .npy reader raise on a cut or corrupted archive.
_DAMAGED = (zipfile.BadZipFile, EOFError, OSError, RuntimeError, ValueError, tokenize.TokenError)


@dataclass(frozen=True)
class Document:
    """A raw corpus entry; doc_id must be unique within a corpus."""

    doc_id: str
    text: str


@dataclass(eq=False, repr=False)
class Index:
    """Numbered documents, their lengths and term-major postings arrays.

    doc_ids[n] is document n's id and lengths[n] its length; vocabulary is
    sorted.  collection_tf maps term -> total tf over the collection;
    total_tokens is the number of analyzed tokens in the collection (sum of
    doc lengths).
    """

    doc_ids: list[str]
    lengths: np.ndarray
    vocabulary: list[str]
    starts: np.ndarray
    nums: np.ndarray
    tfs: np.ndarray
    analyzer: AnalyzerConfig

    def __post_init__(self) -> None:
        self._numbers = {d: n for n, d in enumerate(self.doc_ids)}
        starts = self.starts.tolist()
        self._spans = {w: slice(s, e) for w, s, e in zip(self.vocabulary, starts, starts[1:])}
        cumulative = np.concatenate(([0], np.cumsum(self.tfs)))[self.starts]
        self.collection_tf = dict(zip(self.vocabulary, np.diff(cumulative).tolist()))
        self.total_tokens = int(self.lengths.sum())

    @classmethod
    def from_postings(
        cls,
        postings: dict[str, dict[str, int]],
        doc_lengths: dict[str, int],
        analyzer: AnalyzerConfig,
    ) -> "Index":
        """The index of term -> {doc_id: tf} over doc_id -> length; a term
        may have no postings, and postings may come in any doc order."""
        doc_ids = sorted(doc_lengths)
        number = {d: n for n, d in enumerate(doc_ids)}
        vocabulary = sorted(postings)
        sizes = np.fromiter(map(len, map(postings.__getitem__, vocabulary)), dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        nums = np.fromiter((number[d] for w in vocabulary for d in postings[w]), dtype=np.int64)
        tfs = np.fromiter((tf for w in vocabulary for tf in postings[w].values()), dtype=np.int64)
        # Sort each term's postings by doc number, keeping terms in order.
        order = np.lexsort((nums, np.repeat(np.arange(len(vocabulary)), sizes)))
        lengths = np.fromiter(map(doc_lengths.__getitem__, doc_ids), dtype=np.int64)
        return cls(doc_ids, lengths, vocabulary, starts, nums[order], tfs[order], analyzer)

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def doc_numbers(self, doc_ids: Iterable[str]) -> np.ndarray:
        """Document numbers of the given doc ids, in the order given."""
        try:
            return np.fromiter(map(self._numbers.__getitem__, doc_ids), dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"unknown doc_id {exc.args[0]!r}") from None

    def term(self, w: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc numbers, tfs) of w's postings, doc numbers ascending; empty
        for a term outside the vocabulary."""
        span = self._spans.get(w, slice(0, 0))
        return self.nums[span], self.tfs[span]

    def matching_docs(self, terms: Iterable[str]) -> np.ndarray:
        """Ascending numbers of the documents holding at least one of the terms."""
        held = np.zeros(self.doc_count, dtype=bool)
        for w in set(terms):
            held[self.term(w)[0]] = True
        return np.flatnonzero(held)

    @property
    def postings(self) -> dict[str, dict[str, int]]:
        """term -> {doc_id: tf} with doc ids ascending, built on each call."""
        # An object array of doc ids, not a list of doc numbers, so that no
        # int object is made per posting.
        doc_ids = np.array(self.doc_ids, dtype=object)[self.nums].tolist()
        tfs, starts = self.tfs.tolist(), self.starts.tolist()
        return {
            w: dict(zip(doc_ids[s:e], tfs[s:e]))
            for w, s, e in zip(self.vocabulary, starts, starts[1:])
        }

    @property
    def doc_lengths(self) -> dict[str, int]:
        """doc_id -> length, built on each call."""
        return dict(zip(self.doc_ids, self.lengths.tolist()))

    def tf(self, w: str, doc_id: str) -> int:
        nums, tfs = self.term(w)
        return int(tfs[nums == self._numbers.get(doc_id, -1)].sum())

    def doc_length(self, doc_id: str) -> int:
        return int(self.lengths[self.doc_numbers([doc_id])[0]])

    # Snapshot format 2 is one .npz of the arrays, read without pickle.
    # Strings are UTF-8 bytes plus end offsets, so any str round-trips.

    def save(self, path: str | Path) -> None:
        a = self.analyzer
        # A file object, so that numpy does not append ".npz" to the path.
        with open(path, "wb") as fh:
            np.savez(
                fh,
                twqp_index_version=np.array(SNAPSHOT_VERSION),
                lengths=self.lengths,
                starts=self.starts,
                nums=self.nums.astype(np.int32),
                tfs=self.tfs.astype(np.int32),
                lowercase=np.array(a.lowercase),
                **_pack("doc_ids", self.doc_ids),
                **_pack("vocabulary", self.vocabulary),
                **_pack("analyzer", [a.stemmer, a.token_pattern, *sorted(a.stopwords)]),
            )

    @classmethod
    def load(cls, path: str | Path) -> "Index":
        with open(path, "rb") as fh:
            head = fh.read(len(_JSON_MAGIC))
            if head == _JSON_MAGIC:
                raise ValueError(
                    f"{path}: snapshot format 1 (JSON) is no longer read; "
                    "rebuild the snapshot with `twqp index`"
                )
            if not head.startswith(b"PK\x03\x04"):  # every .npz is a zip file
                raise ValueError(f"{path}: not an index snapshot")
            fh.seek(0)
            try:
                with np.load(fh, allow_pickle=False) as npz:
                    arrays = {name: npz[name] for name in npz.files}
            except _DAMAGED as exc:
                raise ValueError(f"{path}: damaged index snapshot ({exc})") from exc
        if "twqp_index_version" not in arrays:
            raise ValueError(f"{path}: not an index snapshot")
        version = int(arrays["twqp_index_version"])
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        try:  # a damaged directory can lose a member's name
            stemmer, token_pattern, *stopwords = _unpack("analyzer", arrays)
            analyzer = AnalyzerConfig(
                bool(arrays["lowercase"]), frozenset(stopwords), stemmer, token_pattern
            )
            doc_ids, vocabulary = _unpack("doc_ids", arrays), _unpack("vocabulary", arrays)
            nums, tfs = arrays["nums"].astype(np.int64), arrays["tfs"].astype(np.int64)
            lengths, starts = arrays["lengths"], arrays["starts"]
        except KeyError as exc:
            raise ValueError(f"{path}: damaged index snapshot (no array {exc})") from exc
        return cls(doc_ids, lengths, vocabulary, starts, nums, tfs, analyzer)


def _pack(name: str, strings: Sequence[str]) -> dict[str, np.ndarray]:
    """The strings as one UTF-8 byte array and the end offset of each."""
    encoded = [s.encode("utf-8", "surrogatepass") for s in strings]
    return {
        f"{name}_utf8": np.frombuffer(b"".join(encoded), dtype=np.uint8),
        f"{name}_ends": np.cumsum([len(b) for b in encoded], dtype=np.int64),
    }


def _unpack(name: str, arrays: Mapping[str, np.ndarray]) -> list[str]:
    data = arrays[f"{name}_utf8"].tobytes()
    ends = arrays[f"{name}_ends"].tolist()
    return [data[s:e].decode("utf-8", "surrogatepass") for s, e in zip([0] + ends, ends)]


def build_index(corpus: Iterable[Document], config: AnalyzerConfig | None = None) -> Index:
    """Single pass over the corpus; duplicate doc_ids and empty corpora are errors."""
    if config is None:
        config = AnalyzerConfig()
    postings: dict[str, dict[str, int]] = {}
    doc_lengths: dict[str, int] = {}
    for doc in corpus:
        if doc.doc_id in doc_lengths:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        tokens = analyze(doc.text, config)
        doc_lengths[doc.doc_id] = len(tokens)
        for t, tf in Counter(tokens).items():
            postings.setdefault(t, {})[doc.doc_id] = tf
    if not doc_lengths:
        raise ValueError("empty corpus: no documents to index")
    return Index.from_postings(postings, doc_lengths, config)


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

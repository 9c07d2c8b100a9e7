"""Inverted index with the collection statistics needed for smoothed scoring.

The index is a set of arrays, built in a single pass and treated as
immutable afterwards: all retrieval, feedback and prediction code only reads
it.  Documents are numbered in ascending doc-id order, so ascending number
is the retrieval tie-break.  Postings are one term-major CSR over the sorted
vocabulary: term i's doc numbers (ascending) and tfs are nums and tfs over
starts[i]:starts[i + 1].  Per-document lengths are token counts after
analysis, so they match the tf accounting used by the scoring formulas
exactly.  A snapshot is an .npz of the same arrays.

build_index reads the corpus once.  Each text is split into raw tokens by
analysis.tokenizer, the one tokenizer analyze also calls: str.translate +
str.split for an ASCII text under a one-character-class pattern such as
the default, re.findall otherwise, with the same tokens either way.  A
table local to the call maps each distinct raw token to its term id (or to
"dropped", for a stopword) the first time the token is seen, through
analysis.analyze_token, so a token is analyzed once however often it
occurs; every occurrence is then one dict lookup whose id goes into a
compact array('i') buffer.  The CSR is made from that buffer with numpy:
one np.unique over term-rank * n_docs + doc-number keys gives the postings
in term-major, doc-ascending order and their tfs.
"""

from __future__ import annotations

import json
import re
import tokenize
import zipfile
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .analysis import AnalyzerConfig, analyze_token, tokenizer

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
        """Ascending numbers of the documents holding at least one of the terms.

        For one distinct term these are its postings' doc numbers, returned
        as a read-only view of nums; for more, the union is read off a
        boolean mask over the collection.
        """
        distinct = set(terms)
        if len(distinct) == 1:
            nums = self.term(*distinct)[0]
            nums.flags.writeable = False  # a view: writing would corrupt the index
            return nums
        held = np.zeros(self.doc_count, dtype=bool)
        for w in distinct:
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
            lowercase = bool(arrays["lowercase"])
            doc_ids, vocabulary = _unpack("doc_ids", arrays), _unpack("vocabulary", arrays)
            lengths, starts = arrays["lengths"], arrays["starts"]
            nums, tfs = arrays["nums"], arrays["tfs"]
        except KeyError as exc:
            raise ValueError(f"{path}: damaged index snapshot (no array {exc})") from exc
        if not _consistent(len(doc_ids), len(vocabulary), lengths, starts, nums, tfs):
            raise ValueError(f"{path}: damaged index snapshot (arrays disagree)")
        try:
            analyzer = AnalyzerConfig(lowercase, frozenset(stopwords), stemmer, token_pattern)
        except (ValueError, re.error) as exc:
            raise ValueError(f"{path}: stored analyzer rejected: {exc}") from exc
        nums, tfs = nums.astype(np.int64), tfs.astype(np.int64)
        return cls(doc_ids, lengths, vocabulary, starts, nums, tfs, analyzer)


def _consistent(
    n_docs: int,
    n_terms: int,
    lengths: np.ndarray,
    starts: np.ndarray,
    nums: np.ndarray,
    tfs: np.ndarray,
) -> bool:
    """Whether the arrays form one index: a length per document, a posting
    span per term ascending from 0 over all of nums and tfs, every posting
    on a numbered document with a tf of at least 1, and each term's
    document numbers strictly ascending."""
    ok = (
        all(a.dtype.kind in "iu" for a in (lengths, starts, nums, tfs))
        and lengths.shape == (n_docs,)
        and starts.shape == (n_terms + 1,)
        and starts[0] == 0
        and bool((starts[1:] >= starts[:-1]).all())
        and nums.shape == tfs.shape == (starts[-1],)
    )
    if not ok or nums.size == 0:
        return bool(ok)
    rising = nums[1:] > nums[:-1]
    rising[starts[(starts > 0) & (starts < nums.size)] - 1] = True  # a term's first posting
    return bool(nums.min() >= 0 and nums.max() < n_docs and tfs.min() >= 1 and rising.all())


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


class _TermIds(dict):
    """Raw token -> term id, or -1 for a stopword, filled on first sight.

    ``terms`` holds term -> id in order of first sight.  One table serves
    one build, so tokens analyzed under one config never meet another.
    """

    def __init__(self, config: AnalyzerConfig) -> None:
        super().__init__()
        self.config = config
        self.terms: dict[str, int] = {}

    def __missing__(self, token: str) -> int:
        term = analyze_token(token, self.config)
        tid = -1 if term is None else self.terms.setdefault(term, len(self.terms))
        self[token] = tid
        return tid


def build_index(corpus: Iterable[Document], config: AnalyzerConfig | None = None) -> Index:
    """Single pass over the corpus.  Duplicate doc ids, doc ids that are
    empty or hold whitespace (a run file cannot carry them) and empty
    corpora are errors."""
    if config is None:
        config = AnalyzerConfig()
    tokenize = tokenizer(config.token_pattern)
    table = _TermIds(config)
    ids = array("i")  # term id of every token, documents in input order
    ends = array("q")  # end offset of each document's tokens in ids
    doc_ids: list[str] = []
    seen: set[str] = set()
    for doc in corpus:
        if doc.doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        if doc.doc_id.split() != [doc.doc_id]:
            raise ValueError(f"doc_id {doc.doc_id!r} is empty or holds whitespace")
        seen.add(doc.doc_id)
        doc_ids.append(doc.doc_id)
        ids.extend(map(table.__getitem__, tokenize(doc.text)))
        ends.append(len(ids))
    if not doc_ids:
        raise ValueError("empty corpus: no documents to index")

    # Number documents in doc-id order and terms in vocabulary order; then
    # each distinct (term, doc) key is one posting, and its count the tf.
    n_docs = len(doc_ids)
    token_ids = np.frombuffer(ids, dtype=np.intc)
    token_docs = np.repeat(_ranks(doc_ids), np.diff(np.frombuffer(ends, dtype=np.int64), prepend=0))
    kept = token_ids >= 0
    token_docs = token_docs[kept]
    keys = _ranks(list(table.terms))[token_ids[kept]] * n_docs + token_docs
    lengths = np.bincount(token_docs, minlength=n_docs)
    del ids, ends, token_ids, token_docs, kept  # free the token buffers before the sort
    keys, tfs = np.unique(keys, return_counts=True)
    terms, nums = np.divmod(keys, n_docs)
    vocabulary = sorted(table.terms)
    starts = np.concatenate(([0], np.cumsum(np.bincount(terms, minlength=len(vocabulary)))))
    return Index(sorted(doc_ids), lengths, vocabulary, starts, nums, tfs, config)


def _ranks(strings: list[str]) -> np.ndarray:
    """ranks[i] is the position of strings[i] in sorted(strings)."""
    ranks = np.empty(len(strings), dtype=np.int64)
    ranks[sorted(range(len(strings)), key=strings.__getitem__)] = np.arange(len(strings))
    return ranks


def collection_prob(w: str, index: Index) -> float:
    """tf(w, D) / |D|; zero for out-of-vocabulary terms."""
    return index.collection_tf.get(w, 0) / index.total_tokens


# ---------------------------------------------------------------------------
# Corpus readers
# ---------------------------------------------------------------------------


def read_corpus_jsonl(path: str | Path) -> Iterator[Document]:
    """One JSON object per line with "doc_id" and "text" string fields."""
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
            for field, value in (("doc_id", doc_id), ("text", text)):
                if not isinstance(value, str):
                    raise ValueError(
                        f"{path}: {field} must be a JSON string, got {json.dumps(value)} "
                        f"at line {lineno}"
                    )
            if doc_id.split() != [doc_id]:
                raise ValueError(
                    f"{path}: doc_id {doc_id!r} is empty or holds whitespace at line {lineno}"
                )
            yield Document(doc_id, text)


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

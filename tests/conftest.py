"""Shared fixtures: hand-sized corpora with exact integer statistics."""

import random

import numpy as np
import pytest
from hypothesis import strategies as st

from twqp.analysis import AnalyzerConfig
from twqp.index import Document, build_index

# Analyzer with no stemming and no stopwords, so token counts in test
# corpora can be read straight off the raw text.
PLAIN = AnalyzerConfig(lowercase=True, stopwords=frozenset(), stemmer="none")


@pytest.fixture
def plain_config():
    return PLAIN


@pytest.fixture
def fruit_docs():
    # d1: apple x2, banana -> length 3; d2: banana, cherry -> length 2
    # collection: apple 2, banana 2, cherry 1; total tokens 5
    return [
        Document("d1", "apple banana apple"),
        Document("d2", "banana cherry"),
    ]


@pytest.fixture
def fruit_index(fruit_docs):
    return build_index(fruit_docs, PLAIN)


def make_random_corpus(rng, n_docs, vocab_size=50, max_len=30):
    """Random nonempty documents over a w000.. vocabulary."""
    docs = []
    for j in range(n_docs):
        length = int(rng.integers(1, max_len + 1))
        words = [f"w{int(v):03d}" for v in rng.integers(0, vocab_size, size=length)]
        docs.append(Document(f"d{j:04d}", " ".join(words)))
    return docs


def random_query(rng, index, query_id="q0", max_terms=4, allow_duplicates=True):
    """Query whose terms are sampled from the index vocabulary."""
    from twqp.retrieval import Query

    vocab = index.vocabulary
    n = int(rng.integers(1, max_terms + 1))
    terms = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=n)]
    if not allow_duplicates:
        terms = sorted(set(terms))
    return Query(query_id, tuple(terms))


# Vocabulary of the hypothesis corpora, and a term no corpus holds.
VOCAB = ("a", "b", "c", "d", "e")
UNINDEXED = "zz"
POSITIVE_MUS = st.one_of(
    st.sampled_from([1, 10, 100.0, 1000, 2500.0]),
    st.floats(min_value=1e-3, max_value=5000.0, allow_nan=False),
)


# Analyzer configurations the one-pass build and analyze are checked under.
ANALYZER_CONFIGS = {
    "default": AnalyzerConfig(),
    "plain": PLAIN,
    "case-kept": AnalyzerConfig(lowercase=False),
    "unstemmed": AnalyzerConfig(stemmer="none"),
    "word-pattern": AnalyzerConfig(token_pattern=r"\w+"),
}

# Raw words: mixed case, stopwords, words Porter stemming changes,
# non-ASCII letters, underscores and digits.
WORDS = st.one_of(
    st.sampled_from(
        [
            "the", "The", "AND", "of", "Running", "runs", "RUN", "ponies", "caresses",
            "relational", "Hopefulness", "happy", "sky", "naïve", "Straße", "ÉCOLE",
            "ωmega", "foo_bar", "_x_", "x86", "2nd", "r2d2",
        ]
    ),
    st.text(alphabet="aeinsgyYSÉéß_09", min_size=1, max_size=8),
)
TEXTS = st.one_of(
    st.lists(st.tuples(WORDS, st.sampled_from([" ", ", ", "-", "\n", ". ", "\t"])))
    .map(lambda pairs: "".join(w + sep for w, sep in pairs)),
    st.lists(st.sampled_from(["the", "The", "AND", "of", "a", "IS"])).map(" ".join),
)


@st.composite
def raw_corpora(draw, max_docs=8):
    """Documents over TEXTS (empty and stopword-only ones included) whose
    distinct doc ids come in no particular order."""
    doc_id = st.text(alphabet="dD019é_", min_size=1, max_size=3)
    ids = draw(st.lists(doc_id, min_size=1, max_size=max_docs, unique=True))
    return [Document(d, draw(TEXTS)) for d in draw(st.permutations(ids))]


@st.composite
def corpora(draw, max_docs=12):
    """1-max_docs documents of 1-300 tokens, each over its own subset of VOCAB."""
    docs = []
    for j in range(draw(st.integers(1, max_docs))):
        rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
        words = rnd.sample(VOCAB, rnd.randint(1, len(VOCAB)))
        length = draw(st.integers(1, 300))
        docs.append(Document(f"d{j:02d}", " ".join(rnd.choices(words, k=length))))
    return build_index(docs, PLAIN)

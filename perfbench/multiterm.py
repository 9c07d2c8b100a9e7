"""Seeded collection with multi-term titles and spread document lengths.

``twqp.synthetic.make_synthetic`` plants one title term per topic and writes
every document at 80 tokens, so its queries never reach the code whose cost
and result grow with |q| (expanded-query scoring, SROR's leave-one-out
retrievals, NQC's multi-term denominator) nor Dirichlet length
normalization.  This generator keeps its layout (planted topics over a Zipf
background vocabulary, relevant documents carrying the topic's title and
expansion terms) and changes exactly those two properties:

* topic t has 2 + (t % 2) title terms; title term j appears in a shrinking
  share of the topic's relevant documents and is sprinkled independently
  into background documents, so leaving one term out of the query changes
  the result set by a different amount per term;
* document lengths are a fixed geometric ladder from ``MIN_LENGTH`` to
  ``MAX_LENGTH`` tokens.  The multiset is the same on every seed, so the
  collection's size does not drift with the seed.  Topical documents take
  the longest rungs and background documents the rest, each group
  shuffled by the seed.  Feedback documents are topical, so even the
  smallest tuned RM3 depth (5 documents) yields the full ``rm3_n``
  candidate terms; with lengths shuffled over all documents, short
  feedback documents gave fewer candidates and the weighting work jumped
  by up to 25% with the seed's tuned depth.
"""

from __future__ import annotations

import numpy as np

from twqp import Qrels, SyntheticCollection, analyze
from twqp.index import Document

MIN_LENGTH = 16
MAX_LENGTH = 256
EXPANSION_TERMS = 4
# Share of a topic's relevant documents that carry title term j.
TITLE_PRESENCE = (1.0, 0.7, 0.5)
TITLE_TF_RANGE = (1, 3)
# Expansion-term tf in core relevant documents, as a share of doc length.
CORE_TF_SHARE = 0.08
SPRINKLE_SHARE = (0.02, 0.03, 0.04)
ZIPF_EXPONENT = 1.1


def _terms(topic: int) -> tuple[list[str], list[str]]:
    n_title = 2 + topic % 2
    names = [f"m{topic:02d}{'abcdefg'[j]}" for j in range(n_title + EXPANSION_TERMS)]
    return names[:n_title], names[n_title:]


def make_multiterm(
    seed: int, n_docs: int = 1000, vocab_size: int = 800, n_queries: int = 10
) -> SyntheticCollection:
    """Deterministic collection; every query has >= 2 terms and >= 2 relevant docs."""
    rng = np.random.default_rng(seed)
    background = [f"w{j:04d}" for j in range(vocab_size)]
    zipf = 1.0 / np.arange(1, vocab_size + 1) ** ZIPF_EXPONENT
    zipf /= zipf.sum()
    per_topic = max(2, int(0.55 * n_docs / n_queries))
    n_topical = per_topic * n_queries
    if n_topical > n_docs:
        raise ValueError(f"{n_docs} documents cannot host {n_queries} topics")
    # Topical documents take the longest rungs, background documents the
    # rest, each group shuffled.
    ladder = np.geomspace(MIN_LENGTH, MAX_LENGTH, n_docs).round().astype(int)
    n_background = n_docs - n_topical
    lengths = np.concatenate(
        [rng.permutation(ladder[n_background:]), rng.permutation(ladder[:n_background])]
    )

    planted: list[list[str]] = [[] for _ in range(n_docs)]
    relevant: dict[int, list[str]] = {t: [] for t in range(n_queries)}
    core_cutoff = max(1, per_topic // 2)
    for j in range(n_topical):
        topic, slot = j % n_queries, j // n_queries
        titles, expansions = _terms(topic)
        for i, term in enumerate(titles):
            if i == 0 or rng.random() < TITLE_PRESENCE[i]:
                tf = int(rng.integers(TITLE_TF_RANGE[0], TITLE_TF_RANGE[1] + 1))
                planted[j] += [term] * tf
        for term in expansions:
            if slot < core_cutoff:
                tf = max(2, int(round(CORE_TF_SHARE * lengths[j])) + int(rng.integers(-1, 2)))
            else:
                tf = int(rng.integers(1, 3))
            planted[j] += [term] * tf
        relevant[topic].append(f"d{j:05d}")
    for t in range(n_queries):
        for i, term in enumerate(_terms(t)[0]):
            count = min(n_background, max(3, int(SPRINKLE_SHARE[i] * n_docs)))
            for offset in rng.choice(n_background, size=count, replace=False):
                planted[n_topical + int(offset)] += [term] * int(rng.integers(1, 3))

    documents = []
    for j in range(n_docs):
        filler = max(int(lengths[j]) - len(planted[j]), 5)
        tokens = planted[j] + [background[i] for i in rng.choice(vocab_size, size=filler, p=zipf)]
        order = rng.permutation(len(tokens))
        documents.append(Document(f"d{j:05d}", " ".join(tokens[i] for i in order)))

    topics, judgments = [], {}
    for t in range(n_queries):
        qid = f"q{t:03d}"
        titles, expansions = _terms(t)
        for term in titles + expansions:
            if analyze(term) != [term]:
                raise AssertionError(f"planted term {term!r} is not analyzer-stable")
        topics.append((qid, " ".join(titles)))
        judgments[qid] = {d: 1 for d in relevant[t]}
    return SyntheticCollection(documents, topics, Qrels(judgments), plants={})

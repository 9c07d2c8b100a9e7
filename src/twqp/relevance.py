"""RM3 pseudo-relevance feedback, clipped to the candidate vocabulary.

The relevance model interpolates the query's unsmoothed term distribution
with a feedback distribution read off the top-m retrieved documents, each
document weighted by its renormalized query likelihood:

    p(w) = lambda * p_q(w) + (1 - lambda) * sum_d weight(d) * p_d(w)

p_q and p_d are maximum-likelihood estimates (no smoothing).  Document
weights are computed in probability space from log scores, subtracting the
max log score before exponentiating.  A model is a term -> probability
dict in rank order; one clipped to n terms keeps its top n by probability,
ties broken by name, without renormalizing.
"""

from __future__ import annotations

import bisect
import math
import warnings
from typing import Sequence

import numpy as np

from .index import Index
from .retrieval import Query, RankedList, add_up, check_positive_mu, log_prob_matrix, weighted_sum


def build_rm3(
    q: Query,
    initial: RankedList,
    m: int,
    mu: float,
    lam: float,
    index: Index,
    n: int | None = None,
) -> dict[str, float]:
    """Estimate the RM3 distribution from the top-m docs of the initial list:
    term -> probability over the vocabulary of the query and those docs.

    m larger than the list is clamped with a warning; lambda outside [0,1]
    or a mu that fails check_positive_mu is an error.  Document weights are
    query likelihoods at this mu, which need not be the mu the initial list
    was retrieved with.  n, when given, clips the model to its top n terms
    as build_rm3_grid does.
    """
    return build_rm3_grid(q, initial, (m,), mu, lam, index, n)[0]


def build_rm3_grid(
    q: Query,
    initial: RankedList,
    ms: Sequence[int],
    mu: float,
    lam: float,
    index: Index,
    n: int | None = None,
) -> list[dict[str, float]]:
    """One RM3 model per feedback depth in ms, each equal to build_rm3's.

    The top max(ms) documents are scored once and their tf/len vectors are
    gathered once, from the postings arrays, into columns in term-number
    (so name) order; each depth then weighs its first m documents by
    renormalized likelihood and adds them up one document at a time in rank
    order, as a per-document dictionary update would.

    A model's terms come in rank order: one stable argsort of the
    probabilities over the name-ordered support, so ties break by name.
    With n it holds only its top n terms, their probabilities as in the
    whole model and not renormalized, without building the whole model's
    dict.  With n = None the same step keeps the whole support.  An empty
    ms, or a query term in no document, which scores every document -inf,
    is an error.
    """
    if not ms:
        raise ValueError("RM3: the list of feedback depths ms is empty")
    if not initial:
        raise ValueError("cannot build a relevance model from an empty ranked list")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0,1], got {lam}")
    check_positive_mu(mu, "RM3")
    if n is not None and n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    depths = []
    for m in ms:
        if m < 1:
            raise ValueError(f"feedback depth m must be >= 1, got {m}")
        if m > len(initial):
            warnings.warn(
                f"feedback depth {m} exceeds list length {len(initial)}; clamping",
                stacklevel=2,
            )
            m = len(initial)
        depths.append(m)

    terms, counts = q.bag
    for w in terms:
        if not index.collection_tf.get(w):
            raise ValueError(f"RM3: query term {w!r} is in no document")
    nums = initial.doc_numbers(index)[: max(depths)]
    log_scores = weighted_sum(counts, log_prob_matrix(terms, nums, mu, index)).tolist()

    rank = np.full(index.doc_count, -1)  # document n's row of doc_probs, or -1
    rank[nums] = np.arange(len(nums))
    picked = np.flatnonzero(rank[index.nums] >= 0)  # the feedback documents' postings
    # Postings are term-major over the sorted vocabulary: term numbers are
    # in name order, and so are the columns.
    picked_terms = index.starts.searchsorted(picked, "right") - 1
    query_terms = [bisect.bisect_left(index.vocabulary, w) for w in terms]
    vocab = np.union1d(query_terms, picked_terms)
    doc_rows = rank[index.nums[picked]]
    doc_probs = np.zeros((len(nums), vocab.size))
    doc_probs[doc_rows, vocab.searchsorted(picked_terms)] = (
        index.tfs[picked] / index.lengths[nums][doc_rows]
    )
    # A term is in the depth-m support when one of the first m docs holds it.
    held = doc_probs > 0.0
    first_doc = np.where(held.any(axis=0), held.argmax(axis=0), len(nums))
    qlen = len(q.terms)
    query_probs = np.zeros(vocab.size)
    query_probs[vocab.searchsorted(query_terms)] = [c / qlen for c in counts]
    is_query_term = query_probs > 0.0

    models = []
    for m in depths:
        top = max(log_scores[:m])
        raw = [math.exp(s - top) for s in log_scores[:m]]
        z = add_up(raw)
        feedback = weighted_sum([r / z for r in raw], doc_probs[:m])
        support = first_doc < m
        kept = np.flatnonzero(support | is_query_term)  # columns, in name order
        probs = lam * query_probs + (1.0 - lam) * np.where(support, feedback, 0.0)
        kept = kept[np.argsort(-probs[kept], kind="stable")[:n]]
        names = map(index.vocabulary.__getitem__, vocab[kept].tolist())
        models.append(dict(zip(names, probs[kept].tolist())))
    return models

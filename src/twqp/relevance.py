"""RM3 pseudo-relevance feedback and candidate-vocabulary extraction.

The relevance model interpolates the query's unsmoothed term distribution
with a feedback distribution read off the top-m retrieved documents, each
document weighted by its renormalized query likelihood:

    p(w) = lambda * p_q(w) + (1 - lambda) * sum_d weight(d) * p_d(w)

p_q and p_d are maximum-likelihood estimates (no smoothing).  Document
weights are computed in probability space from log scores, subtracting the
max log score before exponentiating.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .index import Index
from .retrieval import Query, RankedList, log_prob_matrix, weighted_sum


@dataclass(frozen=True)
class RelevanceModel:
    """Term distribution over the vocabulary seen in query + feedback docs."""

    query_id: str
    term_probs: dict[str, float]
    m: int
    mu: float
    lam: float


def build_rm3(
    q: Query,
    initial: RankedList,
    m: int,
    mu: float,
    lam: float,
    index: Index,
) -> RelevanceModel:
    """Estimate the RM3 distribution from the top-m docs of the initial list.

    m larger than the list is clamped with a warning; lambda outside [0,1]
    is an error.  Document weights are query likelihoods at this mu, which
    need not be the mu the initial list was retrieved with.
    """
    return build_rm3_grid(q, initial, (m,), mu, lam, index)[0]


def build_rm3_grid(
    q: Query,
    initial: RankedList,
    ms: Sequence[int],
    mu: float,
    lam: float,
    index: Index,
) -> list[RelevanceModel]:
    """One RM3 model per feedback depth in ms, each equal to build_rm3's.

    The top max(ms) documents are scored once and their tf/len vectors are
    gathered once, from the postings arrays; each depth then weighs its first
    m documents by renormalized likelihood and adds them up one document at
    a time in rank order, as a per-document dictionary update would.
    """
    if not initial:
        raise ValueError("cannot build a relevance model from an empty ranked list")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0,1], got {lam}")
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

    terms, counts = zip(*sorted(q.term_counts().items()))
    nums = initial.doc_numbers(index)[: max(depths)]
    log_scores = weighted_sum(counts, log_prob_matrix(terms, nums, mu, index)).tolist()

    rank = np.full(index.doc_count, -1)  # document n's row of doc_probs, or -1
    rank[nums] = np.arange(len(nums))
    picked = np.flatnonzero(rank[index.nums] >= 0)  # the feedback documents' postings
    picked_terms = [index.vocabulary[t] for t in index.starts.searchsorted(picked, "right") - 1]
    vocab = sorted(set(q.terms).union(picked_terms))
    column = {w: i for i, w in enumerate(vocab)}
    doc_rows = rank[index.nums[picked]]
    doc_probs = np.zeros((len(nums), len(vocab)))
    doc_probs[doc_rows, [column[w] for w in picked_terms]] = (
        index.tfs[picked] / index.lengths[nums][doc_rows]
    )
    # A term is in the depth-m support when one of the first m docs holds it.
    held = doc_probs > 0.0
    first_doc = np.where(held.any(axis=0), held.argmax(axis=0), len(nums))
    query_counts = q.term_counts()
    qlen = len(q.terms)
    query_probs = np.array([query_counts.get(w, 0) / qlen for w in vocab])
    is_query_term = query_probs > 0.0

    models = []
    for m in depths:
        top = max(log_scores[:m])
        raw = [math.exp(s - top) for s in log_scores[:m]]
        z = sum(raw)
        feedback = weighted_sum([r / z for r in raw], doc_probs[:m])
        support = first_doc < m
        keep = support | is_query_term
        probs = lam * query_probs + (1.0 - lam) * np.where(support, feedback, 0.0)
        term_probs = dict(zip(compress(vocab, keep.tolist()), probs[keep].tolist()))
        models.append(RelevanceModel(q.query_id, term_probs, m, mu, lam))
    return models


def top_n_terms(rm: RelevanceModel, n: int) -> list[str]:
    """The n highest-probability terms; ties broken lexicographically."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # Python's sort is stable, also in reverse, so sorting the terms by
    # probability after sorting them by name breaks ties by name.
    by_name = sorted(rm.term_probs)
    return sorted(by_name, key=rm.term_probs.__getitem__, reverse=True)[:n]


def restrict_top_n(rm: RelevanceModel, n: int) -> RelevanceModel:
    """Clip the model to its top-n support without renormalizing."""
    keep = top_n_terms(rm, n)
    return RelevanceModel(
        rm.query_id, {w: rm.term_probs[w] for w in sorted(keep)}, rm.m, rm.mu, rm.lam
    )


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

rm3_table builds the models of several feedback depths at once, as one
depth x term table over their common support; build_rm3 reads its one
depth's dict off it, and tuning re-ranks with the table itself, then
reads the picked depth's dict off its clipped columns.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
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
    as rm3_table does.  The dict is rm3_table's one row, its terms in rank
    order.
    """
    table = rm3_table(q, initial, (m,), mu, lam, index, n)
    (row,), (columns,) = table.probs, table.ranked
    return dict(zip(map(table.terms.__getitem__, columns.tolist()), row[columns].tolist()))


@dataclass(frozen=True)
class RM3Table:
    """Every feedback depth's RM3 model over one support.

    terms are the support's terms in name order, the columns of probs.
    probs holds one row per depth: each term's probability in that depth's
    model, 0.0 for a term outside it.  ranked holds each depth's model's
    columns in rank order (by probability, ties by name).
    """

    terms: list[str]
    probs: np.ndarray
    ranked: list[np.ndarray]


def rm3_table(
    q: Query,
    initial: RankedList,
    ms: Sequence[int],
    mu: float,
    lam: float,
    index: Index,
    n: int | None = None,
) -> RM3Table:
    """The RM3 model at each feedback depth in ms, one row each.

    The top max(ms) documents are scored once and their tf/len vectors are
    gathered once, from the postings arrays, into columns in term-number
    (so name) order.  Each depth weighs its first m documents by
    renormalized likelihood.  The documents are then added one at a time in
    rank order, each into the rows of the depths that hold it (m above its
    rank: a suffix of the ascending distinct depths), so every row sums its
    documents in rank order, as a per-document dictionary update would.

    Each depth's terms are ranked by one stable argsort of the
    probabilities over the name-ordered support, the columns outside its
    support keyed +inf, so ties break by name.  With n its model holds only
    its top n terms, their probabilities as in the whole model and not
    renormalized.  With n = None it keeps the whole support.  m larger than
    the list is clamped with a warning; an empty ms, an m below 1, lambda
    outside [0,1], a mu that fails check_positive_mu, an n below 1, or a
    query term in no document, which scores every document -inf, is an
    error.
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
                stacklevel=3,
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

    grid = sorted(set(depths))
    weights = np.zeros((len(grid), len(nums)))  # depth x document
    for row, m in zip(weights, grid):
        top = max(log_scores[:m])
        raw = [math.exp(s - top) for s in log_scores[:m]]
        z = add_up(raw)
        row[:m] = [r / z for r in raw]
    feedback = np.zeros((len(grid), vocab.size))
    for doc, start in enumerate(np.searchsorted(grid, np.arange(len(nums)), "right").tolist()):
        feedback[start:] += weights[start:, doc, None] * doc_probs[doc]
    support = first_doc < np.array(grid)[:, None]
    probs = lam * query_probs + (1.0 - lam) * np.where(support, feedback, 0.0)
    kept = support | (query_probs > 0.0)
    keys = np.where(kept, -probs, np.inf)
    columns = np.arange(vocab.size)
    if n is not None and n < vocab.size:
        # Only a column within some depth's first n keys, ties included,
        # can rank among its first n: the others need no sorting.
        nth = np.partition(keys, n - 1, axis=1)[:, n - 1, None]
        columns = np.flatnonzero((keys <= nth).any(axis=0))
    order = columns[np.argsort(keys[:, columns], axis=1, kind="stable")]
    sizes = np.minimum(np.count_nonzero(kept, axis=1), vocab.size if n is None else n)
    ranked = [row[:size] for row, size in zip(order, sizes.tolist())]
    in_model = np.zeros(probs.shape, dtype=bool)
    in_model[np.repeat(np.arange(len(grid)), sizes), np.concatenate(ranked)] = True

    rows = np.searchsorted(grid, depths)
    return RM3Table(
        list(map(index.vocabulary.__getitem__, vocab.tolist())),
        np.where(in_model, probs, 0.0)[rows],
        [ranked[row] for row in rows.tolist()],
    )

"""Re-score and re-order the head of an initial ranked list.

A re-ranked document scores the weighted sum of its log smoothed term
probabilities, weighted by a term weight table or, for RM3, by the relevance
model's term distribution as passed.  Only the top rerank_depth documents
are re-scored; the rest keep their original relative order beneath the
re-ranked block, so the emitted ranking stays well-defined to full depth.
Scores in the tail keep the initial retrieval's scale: rank, not score, is
the authoritative output of a re-ranked list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .index import Index
from .retrieval import RankedList, log_prob_matrix, rank_entries, weighted_sum
from .weighting import TermWeightTable


@dataclass(frozen=True)
class RerankConfig:
    """Depths and smoothing for re-ranking; mu must be positive and finite so
    every in-vocabulary term has a finite log probability."""

    mu: float
    rerank_depth: int = 100
    k: int = 1000

    def __post_init__(self) -> None:
        if not 1 <= self.rerank_depth <= self.k:
            raise ValueError(
                f"need 1 <= rerank_depth <= k, got rerank_depth={self.rerank_depth}, k={self.k}"
            )
        if not 0 < self.mu < math.inf:
            raise ValueError(f"rerank requires mu > 0 and finite, got {self.mu}")


def rerank_many(
    initial: RankedList,
    weight_maps: Sequence[dict[str, float]],
    cfg: RerankConfig,
    index: Index,
) -> list[RankedList]:
    """The initial list re-ranked once per term -> weight map.

    One head x term log matrix over the union of the maps' non-zero terms
    serves every map: each cell depends only on its term and document.
    """
    # Same summation order as query-likelihood scoring (sorted terms), so a
    # table of term counts reproduces the QL score bit-for-bit.
    head = initial.entries[: cfg.rerank_depth]
    tail = initial.entries[cfg.rerank_depth :]
    map_terms = [[w for w in sorted(weights) if weights[w] != 0.0] for weights in weight_maps]
    terms = sorted(set().union(*map_terms))
    nums = np.sort(index.doc_numbers(d for d, _ in head))
    log_probs = log_prob_matrix(terms, nums, cfg.mu, index)
    unindexed = np.flatnonzero(np.isneginf(log_probs).any(axis=1))
    if unindexed.size:
        w = terms[unindexed[0]]
        raise ValueError(f"term {w!r} has zero smoothed probability; is it indexed?")
    row = {w: i for i, w in enumerate(terms)}
    reranked = []
    for weights, present in zip(weight_maps, map_terms):
        rows = log_probs[[row[w] for w in present]]
        scores = weighted_sum([weights[w] for w in present], rows)
        entries = rank_entries(nums, scores, index) + tail
        reranked.append(RankedList(initial.query_id, entries, initial.k))
    return reranked


def rerank_twqp(
    initial: RankedList, table: TermWeightTable, cfg: RerankConfig, index: Index
) -> RankedList:
    """Score(d) = sum_w weight(w) * log p_d(w) over the table's terms."""
    return rerank_many(initial, [table.weights], cfg, index)[0]

"""Re-score and re-order the head of an initial ranked list.

A re-ranked document scores the weighted sum of its log smoothed term
probabilities, weighted by a term -> weight map: a weighter's output or the
RM3 model's term distribution as passed.  Only the top config.rerank_depth
documents are re-scored; the rest keep their original relative order
beneath the re-ranked block, so the emitted ranking stays well-defined to
full depth.  Scores in the tail keep the initial retrieval's scale: rank,
not score, is the authoritative output of a re-ranked list.

rerank_table re-ranks one list under every column of a term x map weight
table at once and returns (map, rank) arrays; rerank_many builds that
table from term -> weight maps and wraps the rows as ranked lists, and
tuning passes the RM3 depth table straight in.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import ExperimentConfig
from .index import Index
from .retrieval import LogProbMemo, RankedList, check_positive_mu, rank_by_score, weighted_sum


def check_rerank(mu: float | None, config: ExperimentConfig) -> None:
    """Reject settings no re-rank can run with: a depth outside 1..config.k,
    or a mu at which an indexed term's log probability is not finite.  A mu
    of None is one still to be tuned: every config.mu_grid value must pass."""
    if not 1 <= config.rerank_depth <= config.k:
        raise ValueError(
            f"need 1 <= rerank_depth <= k, got rerank_depth={config.rerank_depth}, k={config.k}"
        )
    if mu is None:
        if min(config.mu_grid, default=1) <= 0:
            raise ValueError(f"mu_grid values must be > 0 to re-rank, got {min(config.mu_grid)}")
    else:
        check_positive_mu(mu, "rerank")


def rerank_table(
    initial: RankedList,
    terms: Sequence[str],
    table: np.ndarray,
    config: ExperimentConfig,
    memo: LogProbMemo,
) -> tuple[np.ndarray, np.ndarray]:
    """(numbers, scores), each a (map, rank) array: the initial list
    re-ranked once per column of table, at the memo's mu over its index.

    table is a term x map weight table over terms, which are distinct and
    in sorted order: the same summation order as query-likelihood scoring,
    so a map of term counts reproduces the QL score bit for bit.  One head
    x term log matrix, gathered from the memo, serves every map: each cell
    depends only on its term and document.  Every map's scores come from
    one weighted_sum; a term a map weighs 0.0 adds nothing to its scores,
    as the rows are all finite.  One lexsort ranks every map's head, and
    the tail, shared by all, follows in its own order.
    """
    index = memo.index
    check_rerank(memo.mu, config)
    depth = config.rerank_depth
    all_nums, all_scores = initial.doc_numbers(index), initial.score_array()
    nums = np.sort(all_nums[:depth])
    log_probs = memo.matrix(terms, nums)
    unindexed = np.flatnonzero(np.isneginf(log_probs).any(axis=1))
    if unindexed.size:
        w = terms[unindexed[0]]
        raise ValueError(f"term {w!r} has zero smoothed probability; is it indexed?")
    head_nums, head_scores = rank_by_score(nums, weighted_sum(table, log_probs))
    maps = head_scores.shape[0]
    tail_nums = np.broadcast_to(all_nums[depth:], (maps, all_nums.size - nums.size))
    tail_scores = np.broadcast_to(all_scores[depth:], tail_nums.shape)
    return (
        np.concatenate((head_nums, tail_nums), axis=1),
        np.concatenate((head_scores, tail_scores), axis=1),
    )


def rerank_many(
    initial: RankedList,
    weight_maps: Sequence[dict[str, float]],
    config: ExperimentConfig,
    memo: LogProbMemo,
) -> list[RankedList]:
    """The initial list re-ranked once per term -> weight map, at the
    memo's mu over its index (rerank_table).

    The table's terms are the union of the maps' non-zero terms; a term
    that a map lacks, or weighs 0, has weight 0.0 in its column, so each
    map scores as it would alone.
    """
    terms = sorted({w for weights in weight_maps for w, v in weights.items() if v != 0.0})
    table = np.zeros((len(terms), len(weight_maps)))
    for column, weights in zip(table.T, weight_maps):
        column[:] = [weights.get(w, 0.0) for w in terms]
    nums, scores = rerank_table(initial, terms, table, config, memo)
    return [
        RankedList.from_arrays(initial.query_id, n, s, memo.index) for n, s in zip(nums, scores)
    ]


def rerank_twqp(
    initial: RankedList,
    weights: dict[str, float],
    mu: float,
    config: ExperimentConfig,
    index: Index,
) -> RankedList:
    """Score(d) = sum_w weight(w) * log p_d(w) over the map's terms."""
    check_rerank(mu, config)
    return rerank_many(initial, [weights], config, LogProbMemo(mu, index))[0]

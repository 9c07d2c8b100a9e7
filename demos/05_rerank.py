"""
Re-ranking the head of the initial list
=======================================

"""

from twqp import (
    AnalyzerConfig,
    Document,
    ExperimentConfig,
    LogProbMemo,
    Query,
    build_index,
    build_rm3,
    rerank_many,
    rerank_twqp,
    retrieve_topk,
    weigh_terms,
)
from twqp.weighting import WeightingMethod

docs = [
    Document("d1", "training neural networks with gradient descent"),
    Document("d2", "gradient descent converges on convex losses"),
    Document("d3", "neural networks learn feature representations"),
    Document("d4", "deep networks need many training examples"),
    Document("d5", "convex optimization and line search"),
    Document("d6", "training data quality matters"),
]
index = build_index(docs, AnalyzerConfig())
q = Query("q1", ("train", "network"))
mu, k = 300.0, 6

initial = retrieve_topk(q, k, mu, index)
print("initial:  ", initial.doc_ids)

# Sanity anchor: re-scoring with the query's own term counts reproduces the
# initial ranking exactly, because the weighted sum collapses to plain QL.
# Weighing and re-ranking read their depths from one experiment config.
# rerank_many re-ranks with any number of term -> weight maps, reading the
# log probabilities from a memo of the index at mu.
config = ExperimentConfig(k=k, rerank_depth=4, qpp_m=3)
memo = LogProbMemo(mu, index)
counts = dict(zip(*q.bag))  # each distinct query term and its count
identity = rerank_many(initial, [counts], config, memo)[0]
print("indicator:", identity.doc_ids, "(identical)" if identity.entries == initial.entries else "(DIFFERENT)")

# A learned term -> weight map moves documents that match the weighted terms up.
rm = build_rm3(q, initial, m=3, mu=mu, lam=0.5, index=index, n=5)
candidates = list(rm)
weights = weigh_terms(q, candidates, WeightingMethod.TWQP_NQC, mu, config, index)
reranked = rerank_twqp(initial, weights, mu, config, index)
print("weighted: ", reranked.doc_ids)

# RM3 re-ranking scores against the clipped feedback distribution instead.
by_rm3 = rerank_many(initial, [rm], config, memo)[0]
print("rm3:      ", by_rm3.doc_ids)

# Only the head is re-scored; positions past rerank_depth keep their
# original documents and scores.
print("\ntail preserved:", reranked.entries[4:] == initial.entries[4:])

"""One-document reference implementations the library is tested against.

The library scores every list through one kernel (log_prob_matrix and
weighted_sum).  These loops compute the same quantities one document and
one term at a time, straight from the formulas, with math.log per cell.
The kernel and everything built on it must give the same floats.  The
evaluation measures at the end read a run entry by entry, with one
is_relevant lookup per entry.
"""

import math

from twqp.index import Index, collection_prob
from twqp.retrieval import Query


def smoothed_prob(w: str, doc_id: str, mu: float, index: Index) -> float:
    """(tf(w,d) + mu * tf(w,D)/|D|) / (|d| + mu).

    mu = 0 gives the document MLE, which is 0 for absent terms; callers must
    guard the log in that case.
    """
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    length = index.doc_length(doc_id)
    denom = length + mu
    if denom == 0:
        raise ValueError(f"doc {doc_id!r} is empty and mu=0: probability undefined")
    return (index.tf(w, doc_id) + mu * collection_prob(w, index)) / denom


def score_ql(q: Query, doc_id: str, mu: float, index: Index) -> float:
    """Sum of log smoothed term probabilities over the query bag.

    Any zero-probability term makes the score -inf; such documents rank below
    every finite-scored document.
    """
    score = 0.0
    for w, count in sorted(q.term_counts().items()):
        p = smoothed_prob(w, doc_id, mu, index)
        if p == 0.0:
            return float("-inf")
        score += count * math.log(p)
    return score


def scalar_topk(q, k, mu, index):
    """Every matching document scored by score_ql, ranked by (score desc, doc id)."""
    postings = index.postings
    matching = set().union(*(postings.get(w, {}) for w in q.terms))
    scored = [(d, score_ql(q, d, mu, index)) for d in matching]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return tuple(scored[:k])


def scalar_rescore(doc_id, weights, mu, index):
    """The re-ranking score: weight * log p_d(w) over the non-zero weights,
    added in sorted term order."""
    score = 0.0
    for w in sorted(weights):
        if weights[w] != 0.0:
            score += weights[w] * math.log(smoothed_prob(w, doc_id, mu, index))
    return score


def scalar_wig(lst, q, m, mu, index):
    """The one-document WIG loop: smoothed_prob and math.log per cell."""
    m = min(m, len(lst.entries))
    log_pd = {}
    for w in set(q.terms):
        p = index.collection_tf.get(w, 0) / index.total_tokens
        if p != 0.0:
            log_pd[w] = math.log(p)
    total = 0.0
    for doc_id, _ in lst.entries[:m]:
        for w in q.terms:
            if w in log_pd:
                total += math.log(smoothed_prob(w, doc_id, mu, index)) - log_pd[w]
    return total / (m * math.sqrt(len(q.terms)))


def scalar_nwig(w, lst, m, mu, index):
    """nWIG weight of one term; 0 where the denominator is undefined."""
    m = min(m, len(lst.entries))
    p_collection = index.collection_tf.get(w, 0) / index.total_tokens
    if p_collection == 0.0 or math.log(p_collection) == 0.0:
        return 0.0
    log_pd = math.log(p_collection)
    mean_log = sum(math.log(smoothed_prob(w, d, mu, index)) for d, _ in lst.entries[:m]) / m
    return (mean_log - log_pd) / (-log_pd)


def scalar_rm3(q, initial, m, mu, lam, index):
    """RM3 term distribution from the top-m documents, one document at a time."""
    m = min(m, len(initial.entries))
    feedback_docs = [doc_id for doc_id, _ in initial.entries[:m]]
    log_scores = [score_ql(q, d, mu, index) for d in feedback_docs]
    top = max(log_scores)
    raw = [math.exp(s - top) for s in log_scores]
    z = sum(raw)
    postings = index.postings
    feedback = {}
    for d, r in zip(feedback_docs, raw):
        length = index.doc_length(d)
        for w, docs in postings.items():
            if d in docs:
                feedback[w] = feedback.get(w, 0.0) + (r / z) * (docs[d] / length)
    counts = q.term_counts()
    qlen = len(q.terms)
    return {
        w: lam * (counts.get(w, 0) / qlen) + (1.0 - lam) * feedback.get(w, 0.0)
        for w in sorted(set(feedback) | set(counts))
    }


def scalar_precision_at(run, qrels, cutoff=10):
    """Relevant fraction of the top cutoff, one is_relevant lookup per entry."""
    hits = sum(1 for doc_id, _ in run.entries[:cutoff] if qrels.is_relevant(run.query_id, doc_id))
    return hits / cutoff


def scalar_average_precision(run, qrels, depth=1000):
    """Precision at each relevant rank of the first depth entries, over R."""
    total_relevant = qrels.relevant_count(run.query_id)
    hits = 0
    acc = 0.0
    for rank, (doc_id, _) in enumerate(run.entries[:depth], start=1):
        if qrels.is_relevant(run.query_id, doc_id):
            hits += 1
            acc += hits / rank
    return acc / total_relevant


def scalar_reciprocal_rank(run, qrels):
    """1 / rank of the first relevant entry; 0 when there is none."""
    for rank, (doc_id, _) in enumerate(run.entries, start=1):
        if qrels.is_relevant(run.query_id, doc_id):
            return 1.0 / rank
    return 0.0

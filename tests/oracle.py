"""One-document reference implementations the library is tested against.

The library scores every list through one kernel (log_prob_matrix and
weighted_sum).  These loops compute the same quantities one document and
one term at a time, straight from the formulas, with math.log per cell.
The kernel and everything built on it must give the same floats.  The
evaluation measures at the end read a run entry by entry, with one
judgment lookup per entry.  The analyzer tokenizes with re.findall and
runs its steps as whole list passes, and the index builders count each
document's analyzed tokens into term -> {doc_id: tf} dicts before turning
those into the index arrays; analyze and build_index must give the same
tokens and arrays.  The kernel's number-level steps have references here
too: the candidate mask, the searchsorted tf gather and the np.unique log
step, each the general path that the kernel's fast paths must equal.  So
do the pipeline's per-term quantities, one term at a time: a candidate's
predicted-quality delta, the top-n cut of a relevance model and the
query-indicator weights.  The batched steps (a weight table's sums, a
predictor over many lists) have one-list, one-column references here.
"""

import math
import re
from collections import Counter

import numpy as np

from twqp.analysis import AnalyzerConfig, porter_stem
from twqp.index import Index, collection_prob
from twqp.qpp import predict_quality, score_gap
from twqp.retrieval import LogProbMemo, Query, expand_query, retrieve_topk


def reference_analyze(text: str, config: AnalyzerConfig) -> list[str]:
    """The analysis pipeline as four list passes: tokenize (with
    re.findall, empty matches dropped), lowercase, drop stopwords, stem."""
    tokens = [t for t in re.findall(config.token_pattern, text) if t]
    if config.lowercase:
        tokens = [t.lower() for t in tokens]
    tokens = [t for t in tokens if t not in config.stopwords]
    if config.stemmer == "porter":
        tokens = [porter_stem(t) for t in tokens]
    return tokens


def index_from_postings(
    postings: dict[str, dict[str, int]],
    doc_lengths: dict[str, int],
    analyzer: AnalyzerConfig,
) -> Index:
    """The index of term -> {doc_id: tf} over doc_id -> length; a term
    may have no postings, and postings may come in any doc order."""
    doc_ids = sorted(doc_lengths)
    number = {d: n for n, d in enumerate(doc_ids)}
    vocabulary = sorted(postings)
    sizes = np.fromiter(map(len, map(postings.__getitem__, vocabulary)), dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    nums = np.fromiter((number[d] for w in vocabulary for d in postings[w]), dtype=np.int64)
    tfs = np.fromiter((tf for w in vocabulary for tf in postings[w].values()), dtype=np.int64)
    # Sort each term's postings by doc number, keeping terms in order.
    order = np.lexsort((nums, np.repeat(np.arange(len(vocabulary)), sizes)))
    lengths = np.fromiter(map(doc_lengths.__getitem__, doc_ids), dtype=np.int64)
    return Index(doc_ids, lengths, vocabulary, starts, nums[order], tfs[order], analyzer)


def reference_build_index(corpus, config: AnalyzerConfig) -> Index:
    """build_index one document at a time: reference_analyze, count, add to
    the dicts."""
    postings: dict[str, dict[str, int]] = {}
    doc_lengths: dict[str, int] = {}
    for doc in corpus:
        tokens = reference_analyze(doc.text, config)
        doc_lengths[doc.doc_id] = len(tokens)
        for t, tf in Counter(tokens).items():
            postings.setdefault(t, {})[doc.doc_id] = tf
    return index_from_postings(postings, doc_lengths, config)


def term_tf(w: str, doc_id: str, index: Index) -> int:
    """tf(w, d), read from w's postings arrays; 0 when d does not hold w."""
    nums, tfs = index.term(w)
    return int(tfs[nums == index.doc_numbers([doc_id])[0]].sum())


def doc_length(doc_id: str, index: Index) -> int:
    """|d|, read from the lengths array; KeyError for an unknown doc id."""
    return int(index.lengths[index.doc_numbers([doc_id])[0]])


def smoothed_prob(w: str, doc_id: str, mu: float, index: Index) -> float:
    """(tf(w,d) + mu * tf(w,D)/|D|) / (|d| + mu).

    mu = 0 gives the document MLE, which is 0 for absent terms; callers must
    guard the log in that case.
    """
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    length = doc_length(doc_id, index)
    denom = length + mu
    if denom == 0:
        raise ValueError(f"doc {doc_id!r} is empty and mu=0: probability undefined")
    return (term_tf(w, doc_id, index) + mu * collection_prob(w, index)) / denom


def score_ql(q: Query, doc_id: str, mu: float, index: Index) -> float:
    """Sum of log smoothed term probabilities over the query bag.

    Any zero-probability term makes the score -inf; such documents rank below
    every finite-scored document.
    """
    score = 0.0
    for w, count in sorted(Counter(q.terms).items()):
        p = smoothed_prob(w, doc_id, mu, index)
        if p == 0.0:
            return float("-inf")
        score += count * math.log(p)
    return score


def mask_matching_docs(terms, index):
    """Ascending numbers of the documents holding a term: a mask over the
    collection, set at every term's postings."""
    held = np.zeros(index.doc_count, dtype=bool)
    for w in terms:
        held[index.term(w)[0]] = True
    return np.flatnonzero(held)


def searchsorted_tf(terms, nums, index):
    """tf of each term (row) in each document numbered nums (column), each
    document looked up in the term's postings by binary search."""
    tf = np.zeros((len(terms), len(nums)), dtype=np.int64)
    for row, w in zip(tf, terms):
        post_nums, post_tfs = index.term(w)
        for col, n in enumerate(nums.tolist()):
            pos = int(post_nums.searchsorted(n))
            if pos < post_nums.size and post_nums[pos] == n:
                row[col] = post_tfs[pos]
    return tf


def unique_log_step(p):
    """math.log of each cell of p (-inf for 0), taken once per distinct
    value found by np.unique."""
    values, inverse = np.unique(p.ravel(), return_inverse=True)
    logs = [math.log(v) if v != 0.0 else -math.inf for v in values.tolist()]
    return np.array(logs, dtype=float)[inverse].reshape(p.shape)


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


def scalar_nqc(lst, q, m, index):
    """NQC of one list: np.std of its top-m scores over the absolute
    collection log likelihood of the bag, added term by term in bag order."""
    denom = 0.0
    for w, count in zip(*q.bag):
        denom += count * math.log(index.collection_tf[w] / index.total_tokens)
    return float(np.std(lst.score_array()[: min(m, len(lst))])) / abs(denom)


def scalar_weighted_sums(table, rows):
    """One sum per column of a rows x columns weight table, per document:
    weight * log p added in row order over the column's non-zero weights,
    one Python float at a time."""
    sums = []
    for column in zip(*table):
        per_doc = []
        for d in range(len(rows[0]) if rows else 0):
            acc = 0.0
            for weight, row in zip(column, rows):
                if weight != 0.0:
                    acc += weight * row[d]
            per_doc.append(acc)
        sums.append(per_doc)
    return sums


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
        length = doc_length(d, index)
        for w, docs in postings.items():
            if d in docs:
                feedback[w] = feedback.get(w, 0.0) + (r / z) * (docs[d] / length)
    counts = Counter(q.terms)
    qlen = len(q.terms)
    return {
        w: lam * (counts.get(w, 0) / qlen) + (1.0 - lam) * feedback.get(w, 0.0)
        for w in sorted(set(feedback) | set(counts))
    }


def delta_p(w, q, base_list, predictor, k, mu, index, base_quality=None):
    """Predicted-quality change from expanding q with w, on a memo of its
    own: retrieve q+w, predict its quality, subtract the base quality.
    When both ScoreRatios overflow to inf, the delta is +inf, -inf or 0 by
    the sign of the change in score gap."""
    memo = LogProbMemo(mu, index)
    if base_quality is None:
        base_quality = predict_quality(predictor, base_list, q, memo)
    expanded = expand_query(q, w)
    expanded_list = retrieve_topk(expanded, k, mu, index, memo)
    quality = predict_quality(predictor, expanded_list, expanded, memo)
    if quality == base_quality == math.inf:
        change = score_gap(expanded_list) - score_gap(base_list)
        return change * math.inf if change else 0.0
    return quality - base_quality


def top_n_terms(rm: dict[str, float], n: int) -> list[str]:
    """The n highest-probability terms of a term -> probability model;
    ties broken by name."""
    return sorted(rm, key=lambda w: (-rm[w], w))[:n]


def restrict_top_n(rm: dict[str, float], n: int) -> dict[str, float]:
    """The model clipped to its top-n support, not renormalized."""
    return {w: rm[w] for w in sorted(top_n_terms(rm, n))}


def indicator_weights(q: Query) -> dict[str, float]:
    """Each distinct query term weighted by its occurrence count."""
    return {w: float(c) for w, c in sorted(Counter(q.terms).items())}


def judged_relevant(qrels, query_id, doc_id):
    """Whether the judgments grade (query, doc) >= 1; unjudged is not relevant."""
    return qrels.judgments.get(query_id, {}).get(doc_id, 0) >= 1


def scalar_precision_at(run, qrels, cutoff=10):
    """Relevant fraction of the top cutoff, one judgment lookup per entry."""
    top = run.entries[:cutoff]
    hits = sum(1 for doc_id, _ in top if judged_relevant(qrels, run.query_id, doc_id))
    return hits / cutoff


def scalar_average_precision(run, qrels, depth=1000):
    """Precision at each relevant rank of the first depth entries, over R."""
    grades = qrels.judgments.get(run.query_id, {}).values()
    total_relevant = sum(1 for g in grades if g >= 1)
    hits = 0
    acc = 0.0
    for rank, (doc_id, _) in enumerate(run.entries[:depth], start=1):
        if judged_relevant(qrels, run.query_id, doc_id):
            hits += 1
            acc += hits / rank
    return acc / total_relevant


def scalar_reciprocal_rank(run, qrels):
    """1 / rank of the first relevant entry; 0 when there is none."""
    for rank, (doc_id, _) in enumerate(run.entries, start=1):
        if judged_relevant(qrels, run.query_id, doc_id):
            return 1.0 / rank
    return 0.0

"""
Building an index and running query-likelihood retrieval
========================================================

"""

# A corpus is just documents with ids; the analyzer lowercases, drops
# stopwords, and applies Porter stemming before anything is counted.
from twqp import AnalyzerConfig, Document, Query, analyze, build_index

docs = [
    Document("d1", "The smoothing of language models for retrieval"),
    Document("d2", "Language models estimate term probabilities"),
    Document("d3", "Relevance feedback expands the query with new terms"),
    Document("d4", "Smoothing interpolates document and collection statistics"),
]

config = AnalyzerConfig()
index = build_index(docs, config)

print("documents:", index.doc_count)
print("vocabulary:", index.vocabulary)

# The analyzer is part of the index, so queries go through the same steps.
tokens = analyze("smoothing language models", config)
print("analyzed query:", tokens)
q = Query("q1", tuple(tokens))

# Scores are log probabilities under Dirichlet smoothing: each document's
# term distribution is pulled toward the collection distribution by mu.
import math

from twqp import collection_prob, retrieve_topk

for mu in (10.0, 1000.0):
    ranked = retrieve_topk(q, 10, mu, index)
    print(f"\nmu={mu:g}")
    for rank, (doc_id, score) in enumerate(ranked.entries, start=1):
        print(f"  {rank}. {doc_id}  {score:.4f}")

# Any single entry is the sum, over the query terms in sorted order, of
# log((tf(w, d) + mu * p_D(w)) / (|d| + mu)).
# The index keeps each term's postings as (doc numbers, tfs) arrays and
# each document's length under its number.
mu = 1000.0
d1 = 0.0
n1 = index.doc_numbers(["d1"])[0]
for w in sorted(q.terms):
    nums, tfs = index.term(w)
    tf = int(tfs[nums == n1].sum())
    p = (tf + mu * collection_prob(w, index)) / (int(index.lengths[n1]) + mu)
    d1 += math.log(p)
print("\nd1 at mu=1000:", d1)
assert d1 == dict(retrieve_topk(q, 10, mu, index).entries)["d1"]

# Run files use the usual six-column TREC layout.
from twqp.retrieval import format_run

print("\nrun file:")
print(format_run([retrieve_topk(q, 10, 1000.0, index)], "demo"), end="")

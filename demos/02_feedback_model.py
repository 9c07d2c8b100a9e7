"""
Pseudo-relevance feedback with RM3
==================================

"""

from twqp import AnalyzerConfig, Document, Query, build_index, retrieve_topk
from twqp.relevance import build_rm3

docs = [
    Document("d1", "solar panels convert sunlight into electricity"),
    Document("d2", "solar energy and wind energy power the grid"),
    Document("d3", "panels on the roof feed electricity to the grid"),
    Document("d4", "coal plants also generate electricity"),
    Document("d5", "sunlight is free energy"),
]
index = build_index(docs, AnalyzerConfig())

q = Query("q1", ("solar", "electr"))
initial = retrieve_topk(q, 5, 1000.0, index)
print("initial ranking:", [doc_id for doc_id, _ in initial.entries])

# The relevance model mixes the original query distribution (weight lam)
# with a term distribution estimated from the top-m feedback documents.
# It is a term -> probability dict whose terms come in rank order, by
# probability with ties broken by name, and n keeps only the top n of them.
rm = build_rm3(q, initial, m=3, mu=1000.0, lam=0.5, index=index, n=6)
print("\nlam=0.5, m=3")
for w, p in rm.items():
    print(f"  {w:10s} {p:.4f}")

# lam=1 keeps only the query; lam=0 keeps only the feedback estimate.
for lam in (1.0, 0.0):
    rm_end = build_rm3(q, initial, m=3, mu=1000.0, lam=lam, index=index, n=2)
    print(f"\nlam={lam:g} top terms:", list(rm_end))

# Expansion terms are new vocabulary: high-probability terms that were not
# in the query already. Candidate induction keeps the top n by probability,
# without renormalizing.
clipped = build_rm3(q, initial, m=3, mu=1000.0, lam=0.5, index=index, n=4)
print("\nclipped support:", sorted(clipped))
candidates = [w for w in rm if w not in q.terms]
print("expansion candidates:", candidates)

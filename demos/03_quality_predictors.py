"""
Post-retrieval query quality prediction
=======================================

"""

from twqp import (
    AnalyzerConfig,
    Document,
    LogProbMemo,
    PredictorKind,
    PredictorSpec,
    Query,
    build_index,
    predict_quality,
    retrieve_topk,
)

# Two topics: one clearly answered by the corpus, one that every document
# matches equally badly. Predictors should tell the two apart.
docs = [
    Document("d1", "volcano eruption lava ash volcano"),
    Document("d2", "volcano lava flows downhill"),
    Document("d3", "ash cloud after the eruption"),
    Document("d4", "weather report rain and wind"),
    Document("d5", "rain wind rain wind weather"),
    Document("d6", "stock market report gains"),
]
index = build_index(docs, AnalyzerConfig())

focused = Query("good", ("volcano", "lava"))
diffuse = Query("bad", ("report",))

mu = 500.0
# Every list here is scored at one mu, so the predictors read their log
# probabilities from one memo of the index at that mu.
memo = LogProbMemo(mu, index)
for q in (focused, diffuse):
    lst = retrieve_topk(q, 6, mu, index)
    print(f"query {q.query_id!r}: {[d for d, _ in lst.entries]}")
    for kind in (PredictorKind.WIG, PredictorKind.NQC, PredictorKind.SCORE_RATIO):
        spec = PredictorSpec(kind, m=3)  # m is the depth the predictor looks at
        value = predict_quality(spec, lst, q, memo)
        print(f"  {kind.value:12s} {value:.4f}")
    print()

# WIG compares top-document likelihoods to the collection likelihood, NQC
# measures score spread, ScoreRatio is the first-to-last likelihood ratio.
# All three should be larger for the focused query than the diffuse one.

# A flat score distribution is the degenerate case: NQC is exactly zero.
from twqp import predict_nqc
from twqp.retrieval import RankedList

flat = RankedList("flat", tuple((f"d{i}", -4.0) for i in range(1, 5)))
print("NQC on identical scores:", predict_nqc(flat, Query("flat", ("rain",)), 4, index))

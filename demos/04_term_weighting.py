"""
Weighting expansion candidates by predicted quality
===================================================

"""

import math

from twqp import (
    AnalyzerConfig,
    Document,
    ExperimentConfig,
    LogProbMemo,
    PredictorKind,
    PredictorSpec,
    Query,
    build_index,
    build_rm3,
    expand_query,
    predict_quality,
    retrieve_topk,
    twqp_weight,
    weigh_terms,
)
from twqp.weighting import WeightingMethod

docs = [
    Document("d1", "solar panels convert sunlight into electricity"),
    Document("d2", "solar energy and wind energy power the grid"),
    Document("d3", "panels on the roof feed electricity to the grid"),
    Document("d4", "coal plants also generate electricity"),
    Document("d5", "sunlight is free energy"),
    Document("d6", "the grid stores energy from panels"),
]
index = build_index(docs, AnalyzerConfig())
q = Query("q1", ("solar", "electr"))
mu, k = 500.0, 6

# Candidates come from the feedback model: high-probability terms.
initial = retrieve_topk(q, k, mu, index)
rm = build_rm3(q, initial, m=3, mu=mu, lam=0.5, index=index, n=6)
candidates = list(rm)
print("candidates:", candidates)

# Each candidate is scored by how much it moves a quality predictor when
# added to the query: the predicted quality of the q+w list minus that of
# the initial list. The base quality is computed once and reused; a
# predictor takes a memo of the index at mu, which WIG reads its logs from,
# and retrievals at that mu can read from the same memo.
spec = PredictorSpec(PredictorKind.NQC, m=3)
memo = LogProbMemo(mu, index)
base_quality = predict_quality(spec, initial, q, memo)
print(f"\nbase NQC = {base_quality:.4f}")
for w in candidates:
    expanded = expand_query(q, w)
    expanded_list = retrieve_topk(expanded, k, mu, index, memo)
    d = predict_quality(spec, expanded_list, expanded, memo) - base_quality
    print(f"  {w:10s} delta={d:+.4f}  weight={twqp_weight(d):.4f}")

# The logistic squashes any delta into (0, 1) and is 0.5 at zero.
print("\nlogistic checkpoints:")
for x in (-5.0, -1.0, 0.0, math.log(3.0), 5.0):
    print(f"  twqp_weight({x:+.4f}) = {twqp_weight(x):.4f}")

# weigh_terms builds the whole term -> weight map in one call; baseline
# weighters share the same interface.  The depth and predictor cutoff come
# from the experiment config, the same settings run_experiment weighs with.
config = ExperimentConfig(k=k, qpp_m=3)
for method in (WeightingMethod.TWQP_NQC, WeightingMethod.NWIG, WeightingMethod.SROR):
    weights = weigh_terms(q, candidates, method, mu, config, index)
    pairs = ", ".join(f"{w}={x:.3f}" for w, x in sorted(weights.items()))
    print(f"\n{method.value}: {pairs}")

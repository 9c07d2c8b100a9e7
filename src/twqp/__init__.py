"""Query-likelihood retrieval with prediction-based term weighting.

The pipeline: analyze text, build an inverted index, retrieve with a
Dirichlet-smoothed query-likelihood model, induce candidate terms with RM3,
weigh each candidate by the sigmoid of its predicted-quality delta (or one
of the baseline weighters), re-rank the head of the initial list with a
weighted log-linear score, and evaluate with standard measures.
"""

from .analysis import DEFAULT_STOPWORDS, AnalyzerConfig, analyze, porter_stem
from .config import ExperimentConfig, load_config, save_config
from .evaluation import (
    MU_GRID,
    RM3_M_GRID,
    EvalReport,
    Qrels,
    average_precision,
    build_report,
    load_qrels,
    load_topics,
    paired_ttest,
    precision_at,
    reciprocal_rank,
    robustness_index,
    tune_mu,
    tune_rm3_m,
)
from .experiment import ExperimentResult, run_experiment
from .index import Document, Index, build_index, collection_prob, read_corpus
from .qpp import (
    PredictorKind,
    PredictorSpec,
    nwig_term,
    nwig_weights,
    predict_nqc,
    predict_quality,
    predict_score_ratio,
    predict_wig,
    sror_term,
)
from .relevance import (
    RelevanceModel,
    build_rm3,
    build_rm3_grid,
    restrict_top_n,
    top_n_terms,
)
from .rerank import RerankConfig, rerank_many, rerank_rm3, rerank_twqp
from .retrieval import (
    Query,
    RankedList,
    expand_query,
    retrieve_topk,
    score_ql,
    smoothed_prob,
    write_run,
)
from .synthetic import SyntheticCollection, make_synthetic, write_collection
from .weighting import (
    TermWeightTable,
    WeightingMethod,
    WeightingParams,
    delta_p,
    query_indicator_table,
    twqp_weight,
    weigh_queries,
    weigh_terms,
)

__version__ = "0.1.0"

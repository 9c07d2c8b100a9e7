"""Query-likelihood retrieval with prediction-based term weighting.

The pipeline: analyze text, build an inverted index, retrieve with a
Dirichlet-smoothed query-likelihood model, induce candidate terms with RM3,
weigh each candidate by the sigmoid of its predicted-quality delta (or one
of the baseline weighters), re-rank the head of the initial list with a
weighted log-linear score, and evaluate with standard measures.
"""

from .analysis import DEFAULT_STOPWORDS, AnalyzerConfig, analyze, porter_stem
from .config import MU_GRID, RM3_M_GRID, ExperimentConfig, load_config, save_config
from .evaluation import (
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
    predict_nqc,
    predict_quality,
    predict_score_ratio,
    predict_wig,
)
from .relevance import build_rm3, build_rm3_grid
from .rerank import check_rerank, rerank_many, rerank_twqp
from .retrieval import LogProbMemo, Query, RankedList, expand_query, retrieve_topk, write_run
from .synthetic import SyntheticCollection, make_synthetic, write_collection
from .weighting import (
    WeightingMethod,
    nwig_weights,
    sror_term,
    twqp_weight,
    weigh_queries,
    weigh_terms,
)

__version__ = "0.1.0"

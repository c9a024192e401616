"""Matrix factorization with signed social constraints.

Rating prediction that pulls each user's latent features toward trusted
users and pushes them past a unit squared-distance margin from distrusted
users, plus the classic neighborhood baselines, ranking metrics, and the
experiment protocols to compare them.
"""

from .data import (
    FactorModel,
    Hyperparams,
    SocialGraph,
    SparseRatings,
    TripletStore,
    extract_triplets,
    init_model,
    lazy_triplets,
    predict_many,
    sample_triplets,
)
from .experiments import (
    SplitSpec,
    SyntheticSpec,
    cold_start_split,
    consistency_eval,
    distrust_tradeoff_run,
    grid_search,
    majority_vote_eval,
    split_ratings,
    synth_generate,
)
from .fileio import load_dataset, load_model, save_model
from .metrics import RankedList, average_precision, evaluate_model, mae, ndcg_at_k, rmse
from .neighborhood import (
    PropagatedSets,
    SimilarityCache,
    build_propagated_sets,
    build_similarity_cache,
    nb_predict,
    nb_predict_many,
)
from .objective import grad, objective_value, trace_identity_check
from .optimize import FitReport, fit_gd, fit_sgd

__version__ = "0.1.0"

__all__ = [
    "FactorModel", "Hyperparams", "SocialGraph", "SparseRatings", "TripletStore",
    "extract_triplets", "init_model", "lazy_triplets", "predict_many", "sample_triplets",
    "SplitSpec", "SyntheticSpec", "cold_start_split", "consistency_eval",
    "distrust_tradeoff_run", "evaluate_model", "grid_search",
    "majority_vote_eval", "split_ratings", "synth_generate",
    "load_dataset", "load_model", "save_model",
    "RankedList", "average_precision", "mae", "ndcg_at_k", "rmse",
    "PropagatedSets", "SimilarityCache", "build_propagated_sets",
    "build_similarity_cache", "nb_predict", "nb_predict_many",
    "grad", "objective_value", "trace_identity_check",
    "FitReport", "fit_gd", "fit_sgd",
]

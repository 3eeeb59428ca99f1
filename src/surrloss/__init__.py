"""Structured prediction via kernel-ridge surrogate learning and
loss-weighted decoding, with brute-force theory oracles."""

__version__ = "0.1.0"

from . import decoders, experiments, kernels, losses, model_selection, oracle, surrogate
from .decoders import (
    Exhaustive,
    RankingFas,
    ScalarGrid,
    SimplexHellinger,
    decode_exhaustive,
    decode_ranking_fas,
    decode_simplex_hellinger,
    predict,
    predict_batch,
)
from .kernels import KernelSpec, cross_kernel, factor_shifted, gaussian, gram_matrix, linear, solve_spd
from .losses import (
    AbsoluteError,
    Cauchy,
    FiniteTable,
    RankLoss,
    SquaredError,
    SquaredHellinger,
    ZeroOne,
    c_delta,
    rank_loss,
    squared_hellinger,
    zero_one,
)
from .model_selection import CvPlan, CvReport, cross_validate, kfold_split
from .oracle import FiniteProblem, bayes_optimal, check_comparison, structured_risk
from .surrogate import TrainedSurrogate, alpha_weights, fit, load_model, save_model

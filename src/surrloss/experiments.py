"""Synthetic data generators, experiment runners, and baselines.

Three experiments, each against a baseline:
  * robust regression -- the sin(6 pi x) + noise + outliers setup at desk
    scale: Gaussian-kernel weights, Cauchy-loss grid decoding with
    cross-validated (sigma, lambda, gamma), against kernel ridge regression.
    The metric is the mean absolute distance to the clean function on a
    uniform ROBUST_TEST_POINTS-point test grid.
  * ranking -- latent-utility rating profiles, linear kernel with
    cross-validated lambda, against the best constant training sort.
  * histograms -- the complementary half of a Dirichlet-mixture histogram,
    Hellinger decoding against a KDE-style decode, both with
    cross-validated (sigma, lambda).

The CV grids, the fold count and the decoders are the module constants
below; a runner's arguments set only the sizes, repetitions and seed.
`repetitions` has no default here: the CLI's `--reps` (20) is the one
default.  The CLI records the grids in its report metadata.  All generators
are pure functions of (parameters, seed).
"""

import time
from dataclasses import dataclass

import numpy as np

from . import decoders, kernels, losses, model_selection, surrogate

FOLDS = 5  # every experiment's cross-validation
ROBUST_SIGMAS = (0.01, 0.05, 0.1, 0.5)
ROBUST_LAMBDAS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
ROBUST_GAMMAS = (0.5, 1.0, 2.0)
ROBUST_TEST_POINTS = 1000
ROBUST_DECODER = decoders.ScalarGrid(bound=3.0, grid_points=512, refine_iters=40)
# Model selection scores folds with a trimmed decoder; the final predictor
# always decodes at full fidelity.
CV_DECODER = decoders.ScalarGrid(bound=3.0, grid_points=256, refine_iters=10)
RANKING_LAMBDAS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
RANKING_FEATURES = 4  # dimension of the latent user and item vectors
HISTOGRAM_SIGMAS = (0.1, 1.0, 10.0)
HISTOGRAM_LAMBDAS = (1e-4, 1e-2, 1.0)
HISTOGRAM_COMPONENTS = 3  # Dirichlet mixture components


@dataclass(frozen=True)
class RobustDataset:
    x: np.ndarray      # (n, 1) inputs in [-1, 1]
    y: np.ndarray      # noisy targets
    clean: np.ndarray  # sin(6 pi x), no noise or outliers


@dataclass(frozen=True)
class ExperimentResult:
    method: str
    n: int
    metric_mean: float
    metric_std: float
    seeds: list
    wall_time: float
    per_seed: list


def gen_robust_data(n, seed):
    """y = sin(6 pi x) + eps + zeta; eps ~ N(0, 0.1) (variance 0.1, std
    sqrt(0.1)); zeta is 0 w.p. 0.9, else uniform on [-3, 3]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=n)
    eps = rng.normal(0.0, np.sqrt(0.1), size=n)
    spikes = rng.uniform(-3.0, 3.0, size=n)
    zeta = np.where(rng.random(n) < 0.1, spikes, 0.0)
    clean = np.sin(6.0 * np.pi * x)
    return RobustDataset(x=x[:, None], y=clean + eps + zeta, clean=clean)


def krr_predict_batch(model, Xq):
    A = surrogate.alpha_weights_batch(model, Xq)
    return np.asarray(model.Y, dtype=float) @ A


def _robust_cv(X, y, sigmas, lambdas, gammas, folds, seed, cv_decoder):
    """Hyperparameters for both methods from one `model_selection.sweep`.

    Every held-out weight matrix A is scored by the Cauchy decoder at each
    gamma and by the KRR baseline, whose prediction is y_train @ A.  The
    decoder is scored with absolute error, which stays comparable across
    gamma (raw Cauchy values scale with it); KRR is scored with squared
    error, its own criterion -- an outlier-robust scoring rule here would
    hand the baseline exactly the robustness it is supposed to lack.
    Selection follows `model_selection.select_best`, the decoder's grid in
    (gamma, sigma, lambda) order and KRR's in (sigma, lambda) order.

    Returns ((kernel, lambda, gamma) for the decoder, (kernel, lambda) for
    KRR).
    """
    y = np.asarray(y, dtype=float)
    # The decoder's grid/training loss table depends only on the fold and gamma.
    loss_grids = [[decoders.scalar_loss_grid(cv_decoder, y[tr], losses.Cauchy(g)) for g in gammas]
                  for tr, _ in model_selection.fold_splits(y.size, folds, seed)]

    def score(fold, tr, va, A):
        out = [np.mean((y[tr] @ A - y[va]) ** 2)]
        for gamma, grid in zip(gammas, loss_grids[fold]):
            pred, _ = decoders.decode_scalar_grid_batch(A, y[tr], losses.Cauchy(gamma),
                                                        cv_decoder, loss_grid=grid)
            out.append(np.mean(np.abs(pred - y[va])))
        return out

    means = model_selection.sweep(X, [kernels.gaussian(s) for s in sigmas], lambdas,
                                  folds, seed, score).mean(axis=2)
    sigma, lam, gamma = model_selection.select_best(
        (means[si, li, 1 + gi], lam, (sigma, lam, gamma))
        for gi, gamma in enumerate(gammas)
        for si, sigma in enumerate(sigmas)
        for li, lam in enumerate(lambdas))
    k_sigma, k_lam = model_selection.select_best(
        (means[si, li, 0], lam, (sigma, lam))
        for si, sigma in enumerate(sigmas)
        for li, lam in enumerate(lambdas))
    return ((kernels.gaussian(sigma), lam, gamma), (kernels.gaussian(k_sigma), k_lam))


def run_robust_experiment(n_grid=(50, 100, 200, 500), *, repetitions, seed0=0):
    """Learning curves for the Cauchy-loss decoder vs the KRR baseline."""
    x_test = np.linspace(-1.0, 1.0, ROBUST_TEST_POINTS)[:, None]
    target = np.sin(6.0 * np.pi * x_test[:, 0])
    results = []
    for n in n_grid:
        alg_vals, krr_vals, seeds = [], [], []
        t0 = time.perf_counter()
        for rep in range(repetitions):
            seed = seed0 + 100_003 * rep + n
            seeds.append(seed)
            ds = gen_robust_data(n, seed)

            (kernel, lam, gamma), (k_kernel, k_lam) = _robust_cv(
                ds.x, ds.y, ROBUST_SIGMAS, ROBUST_LAMBDAS, ROBUST_GAMMAS, FOLDS, seed,
                CV_DECODER)
            model = surrogate.fit(ds.x, ds.y, kernel, lam)
            pred = decoders.predict_batch(model, ROBUST_DECODER, losses.Cauchy(gamma), x_test)
            alg_vals.append(float(np.mean(np.abs(np.asarray(pred) - target))))

            k_model = surrogate.fit(ds.x, ds.y, k_kernel, k_lam)
            k_pred = krr_predict_batch(k_model, x_test)
            krr_vals.append(float(np.mean(np.abs(k_pred - target))))
        elapsed = time.perf_counter() - t0
        results.append(ExperimentResult("alg1_cauchy", n, float(np.mean(alg_vals)),
                                        float(np.std(alg_vals)), seeds, elapsed, alg_vals))
        results.append(ExperimentResult("krr", n, float(np.mean(krr_vals)),
                                        float(np.std(krr_vals)), seeds, elapsed, krr_vals))
    return results


# ---------------------------------------------------------------------------
# Ranking: latent-utility stand-in for the movie-rating task.  Each user is a
# feature vector u; item ratings are clip(round(3 + 1.5 u.z_j + 0.5 e), 1, 5)
# with e ~ N(0, 1).

def gen_ranking_data(items, n, seed):
    if items < 2 or n < 1:
        raise ValueError("need items >= 2 and n >= 1")
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(items, RANKING_FEATURES)) / np.sqrt(RANKING_FEATURES)
    U = rng.normal(size=(n, RANKING_FEATURES))
    raw = 3.0 + 1.5 * (U @ Z.T) + 0.5 * rng.normal(size=(n, items))
    ratings = np.clip(np.rint(raw), 1.0, 5.0)
    return U, ratings


def _best_training_sort(train_profiles):
    """The rating sort of a training profile with the lowest mean normalized
    rank loss over the training profiles; exact ties go to the lowest index.

    Every sort is scored against every profile in one (T, T) table
    (`losses.rank_loss_matrix`), whose row means are the candidates' scores.
    """
    sorts = decoders.profile_sort_ranks(train_profiles)
    means = losses.rank_loss_matrix(sorts, train_profiles, normalize=True).mean(axis=1)
    return sorts[int(np.argmin(means))]


def run_ranking_experiment(items=8, n_train=80, n_test=40, *, repetitions, seed0=0):
    """Mean normalized rank loss: the SELF predictor, decoded by the exact sort
    of s = A^T R (`decoders.RankingFas`, reported as "alg1_fas"), vs the
    constant best-training-sort baseline."""
    decoder = decoders.RankingFas(items=items)
    loss = losses.RankLoss(normalize=False)
    scoring = losses.RankLoss(normalize=True)
    alg_vals, base_vals, seeds = [], [], []
    t0 = time.perf_counter()
    for rep in range(repetitions):
        seed = seed0 + 7919 * rep
        seeds.append(seed)
        X, R = gen_ranking_data(items, n_train + n_test, seed)
        Xtr, Xte = X[:n_train], X[n_train:]
        Rtr, Rte = R[:n_train], R[n_train:]
        plan = model_selection.CvPlan(folds=FOLDS, seed=seed, lambda_grid=RANKING_LAMBDAS,
                                      kernel_grid=(kernels.linear(),), scoring=scoring)
        report = model_selection.cross_validate(Xtr, Rtr, plan, decoder, loss)
        model = surrogate.fit(Xtr, Rtr, report.selected.kernel, report.selected.lam)
        preds = decoders.predict_batch(model, decoder, loss, Xte)
        alg_vals.append(float(np.mean([losses.rank_loss(pr, true, normalize=True)
                                       for pr, true in zip(preds, Rte)])))
        base = _best_training_sort(Rtr)
        base_vals.append(float(np.mean(
            losses.rank_loss_matrix(base[None], Rte, normalize=True)[0])))
    elapsed = time.perf_counter() - t0
    return [
        ExperimentResult("alg1_fas", n_train, float(np.mean(alg_vals)),
                         float(np.std(alg_vals)), seeds, elapsed, alg_vals),
        ExperimentResult("best_train_sort", n_train, float(np.mean(base_vals)),
                         float(np.std(base_vals)), seeds, elapsed, base_vals),
    ]


# ---------------------------------------------------------------------------
# Histograms: predict the complementary half of a Dirichlet-mixture histogram
# from an observation of the first half with N(0, 0.05^2) noise.

def gen_histogram_data(dim, n, seed):
    if dim < 2 or n < 1:
        raise ValueError("need dim >= 2 and n >= 1")
    rng = np.random.default_rng(seed)
    conc = rng.gamma(2.0, 2.0, size=(HISTOGRAM_COMPONENTS, 2 * dim)) + 0.5
    comp = rng.integers(0, HISTOGRAM_COMPONENTS, size=n)
    X = np.empty((n, dim))
    Y = np.empty((n, dim))
    for i in range(n):
        full = rng.dirichlet(conc[comp[i]])
        front, back = full[:dim], full[dim:]
        X[i] = front + 0.05 * rng.normal(size=dim)
        back = back + 1e-9
        Y[i] = back / back.sum()
    return X, Y


def median_sq_dist(Y):
    d = kernels.sq_distances(Y)
    vals = d[np.triu_indices_from(d, k=1)]
    med = float(np.median(vals))
    return med if med > 0 else 1.0


def _gauss_output_kernel_matrix(Y, sigma_y):
    return np.exp(-kernels.sq_distances(Y) / sigma_y)


def _kde_decode_batch(A, Ytr, sigma_y, H=None):
    """Eq.-7-style decode over the training outputs: with a normalized output
    kernel, argmin_c F(c) = argmax_c sum_i alpha_i h(c, y_i).

    H, when given, must be `_gauss_output_kernel_matrix(Ytr, sigma_y)`; it
    depends only on the training outputs, so a CV fold builds it once.
    """
    if H is None:
        H = _gauss_output_kernel_matrix(Ytr, sigma_y)
    scores = H @ A  # (candidates, Q)
    return Ytr[np.argmax(scores, axis=0)]


def _mean_hellinger(preds, truth):
    return float(np.mean(losses.squared_hellinger_rows(preds, truth)))


def _mean_gauss_loss(preds, truth, sigma_y):
    preds = np.asarray(preds, dtype=float)
    d = ((preds - truth) ** 2).sum(axis=1)
    return float(np.mean(2.0 - 2.0 * np.exp(-d / sigma_y)))


def _histogram_cv(Xtr, Ytr, sigmas, lambdas, folds, seed, sigma_y):
    """(sigma, lambda) for both histogram methods from one
    `model_selection.sweep`.

    The Hellinger decoder is scored under squared Hellinger, the KDE decode
    under the Gaussian output-kernel loss.  Selection follows
    `model_selection.select_best` in (sigma, lambda) order.

    Returns {"hellinger": (sigma, lambda), "kde": (sigma, lambda)}.
    """
    # The KDE decode's output-kernel matrix depends only on the fold.
    output_grams = [_gauss_output_kernel_matrix(Ytr[tr], sigma_y)
                    for tr, _ in model_selection.fold_splits(len(Ytr), folds, seed)]

    def score(fold, tr, va, A):
        hellinger = decoders.decode_simplex_hellinger_batch(A, Ytr[tr])
        kde = _kde_decode_batch(A, Ytr[tr], sigma_y, H=output_grams[fold])
        return [_mean_hellinger(hellinger, Ytr[va]), _mean_gauss_loss(kde, Ytr[va], sigma_y)]

    means = model_selection.sweep(Xtr, [kernels.gaussian(s) for s in sigmas], lambdas,
                                  folds, seed, score).mean(axis=2)
    return {
        method: model_selection.select_best(
            (means[si, li, mi], lam, (sigma, lam))
            for si, sigma in enumerate(sigmas)
            for li, lam in enumerate(lambdas))
        for mi, method in enumerate(("hellinger", "kde"))
    }


def run_histogram_experiment(dim=8, n_train=120, n_test=60, *, repetitions, seed0=0):
    """Hellinger-decoded predictor vs KDE-style decoding over training outputs.

    Both methods share the surrogate machinery; each cross-validates
    (sigma, lambda) under its own scoring loss, and both test losses are
    reported for both methods.  The output-kernel bandwidth is the median
    pairwise squared distance of the training histograms.
    """
    rows = {name: {"dH": [], "dG": []} for name in ("alg1_hellinger", "kde_gaussian")}
    seeds = []
    t0 = time.perf_counter()
    for rep in range(repetitions):
        seed = seed0 + 104_729 * rep
        seeds.append(seed)
        X, Y = gen_histogram_data(dim, n_train + n_test, seed)
        Xtr, Xte = X[:n_train], X[n_train:]
        Ytr, Yte = Y[:n_train], Y[n_train:]
        sigma_y = median_sq_dist(Ytr)

        selected = _histogram_cv(Xtr, Ytr, HISTOGRAM_SIGMAS, HISTOGRAM_LAMBDAS, FOLDS, seed,
                                 sigma_y)
        for name, method in (("alg1_hellinger", "hellinger"), ("kde_gaussian", "kde")):
            sigma, lam = selected[method]
            model = surrogate.fit(Xtr, Ytr, kernels.gaussian(sigma), lam)
            A = surrogate.alpha_weights_batch(model, Xte)
            if method == "hellinger":
                preds = decoders.decode_simplex_hellinger_batch(A, Ytr)
            else:
                preds = _kde_decode_batch(A, Ytr, sigma_y)
            rows[name]["dH"].append(_mean_hellinger(preds, Yte))
            rows[name]["dG"].append(_mean_gauss_loss(preds, Yte, sigma_y))
    elapsed = time.perf_counter() - t0
    out = []
    for name, metrics in rows.items():
        for metric_name, vals in metrics.items():
            out.append(ExperimentResult(f"{name}:{metric_name}", n_train,
                                        float(np.mean(vals)), float(np.std(vals)),
                                        seeds, elapsed, vals))
    return out

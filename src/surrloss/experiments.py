"""Synthetic data generators, experiment runners, and baselines.

The robust-regression runner reproduces the sin(6 pi x) + noise + outliers
setup at desk scale: Gaussian-kernel weights, Cauchy-loss grid decoding with
cross-validated (sigma, lambda, gamma), against a kernel ridge regression
baseline.  The reported metric is the mean absolute distance to the clean
function on a uniform 1000-point test grid; this choice is recorded in the
report metadata so alternates can be compared.

All generators are pure functions of (parameters, seed).
"""

import time
from dataclasses import dataclass

import numpy as np

from . import decoders, kernels, losses, model_selection, surrogate

ROBUST_SIGMAS = (0.01, 0.05, 0.1, 0.5)
ROBUST_LAMBDAS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
ROBUST_GAMMAS = (0.5, 1.0, 2.0)
ROBUST_DECODER = decoders.ScalarGrid(bound=3.0, grid_points=512, refine_iters=40)


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
    """One CV sweep selecting hyperparameters for both methods.

    Held-out ridge weights depend only on (sigma, lambda, fold).  For each
    (sigma, fold) the Gram matrix and cross kernel are built once, and every
    lambda's weights A come from one eigendecomposition of the Gram matrix
    (`kernels.ridge_path`); each A is shared by the gamma grid and the KRR
    baseline (whose fold prediction is just y_train @ A).  The Cauchy decoder
    is scored with absolute error, which stays comparable across gamma (raw
    Cauchy values scale with it); KRR is scored with squared error, its own
    criterion -- an outlier-robust scoring rule here would hand the baseline
    exactly the robustness it is supposed to lack.  Selection follows
    `model_selection.select_best`, the decoder's grid in (gamma, sigma,
    lambda) order and KRR's in (sigma, lambda) order.

    Returns ((kernel, lambda, gamma) for the decoder, (kernel, lambda) for
    KRR).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    fold_idx = model_selection.kfold_split(n, folds, seed)
    all_idx = np.arange(n)
    splits = [(np.setdiff1d(all_idx, va), va) for va in fold_idx]
    loss_grids = [
        [decoders.scalar_loss_grid(cv_decoder, y[tr], losses.Cauchy(g)) for g in gammas]
        for tr, _ in splits
    ]
    alg_scores = np.zeros((len(sigmas), len(lambdas), len(gammas)))
    krr_scores = np.zeros((len(sigmas), len(lambdas)))
    for si, sigma in enumerate(sigmas):
        kernel = kernels.gaussian(sigma)
        for fi, (tr, va) in enumerate(splits):
            K = kernels.gram_matrix(kernel, X[tr])
            KX = kernels.cross_kernel_batch(kernel, X[tr], X[va])
            path = kernels.ridge_path(K, KX, [tr.size * lam for lam in lambdas])
            for li, A in enumerate(path):
                krr_scores[si, li] += float(np.mean((y[tr] @ A - y[va]) ** 2)) / folds
                for gi, gamma in enumerate(gammas):
                    pred, _ = decoders.decode_scalar_grid_batch(
                        A, y[tr], losses.Cauchy(gamma), cv_decoder,
                        loss_grid=loss_grids[fi][gi])
                    alg_scores[si, li, gi] += float(np.mean(np.abs(pred - y[va]))) / folds
    sigma, lam, gamma = model_selection.select_best(
        (alg_scores[si, li, gi], lam, (sigma, lam, gamma))
        for gi, gamma in enumerate(gammas)
        for si, sigma in enumerate(sigmas)
        for li, lam in enumerate(lambdas))
    k_sigma, k_lam = model_selection.select_best(
        (krr_scores[si, li], lam, (sigma, lam))
        for si, sigma in enumerate(sigmas)
        for li, lam in enumerate(lambdas))
    return ((kernels.gaussian(sigma), lam, gamma), (kernels.gaussian(k_sigma), k_lam))


# Model selection scores folds with a trimmed decoder; the final predictor
# always decodes at full fidelity.
CV_DECODER = decoders.ScalarGrid(bound=3.0, grid_points=256, refine_iters=10)


def run_robust_experiment(n_grid=(50, 100, 200, 500), repetitions=20, seed0=0,
                          sigmas=ROBUST_SIGMAS, lambdas=ROBUST_LAMBDAS,
                          gammas=ROBUST_GAMMAS, folds=5, test_points=1000,
                          decoder=ROBUST_DECODER, cv_decoder=CV_DECODER):
    """Learning curves for the Cauchy-loss decoder vs the KRR baseline."""
    x_test = np.linspace(-1.0, 1.0, test_points)[:, None]
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
                ds.x, ds.y, sigmas, lambdas, gammas, folds, seed, cv_decoder)
            model = surrogate.fit(ds.x, ds.y, kernel, lam)
            pred = decoders.predict_batch(model, decoder, losses.Cauchy(gamma), x_test)
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
# feature vector u; item ratings are clip(round(3 + u.z_j + noise), 1, 5).

def gen_ranking_data(items, n, seed, dim=4, noise=0.5):
    if items < 2 or n < 1:
        raise ValueError("need items >= 2 and n >= 1")
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(items, dim)) / np.sqrt(dim)
    U = rng.normal(size=(n, dim))
    raw = 3.0 + 1.5 * (U @ Z.T) + noise * rng.normal(size=(n, items))
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


def run_ranking_experiment(items=8, n_train=80, n_test=40, repetitions=5, seed0=0,
                           lambdas=(1e-4, 1e-3, 1e-2, 1e-1, 1.0), folds=5):
    """Mean normalized rank loss: FAS-decoded predictor vs constant baseline."""
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
        plan = model_selection.CvPlan(folds=folds, seed=seed, lambda_grid=tuple(lambdas),
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
# from a noisy observation of the first half.

def gen_histogram_data(dim, n, seed, components=3, noise=0.05):
    if dim < 2 or n < 1:
        raise ValueError("need dim >= 2 and n >= 1")
    rng = np.random.default_rng(seed)
    conc = rng.gamma(2.0, 2.0, size=(components, 2 * dim)) + 0.5
    comp = rng.integers(0, components, size=n)
    X = np.empty((n, dim))
    Y = np.empty((n, dim))
    for i in range(n):
        full = rng.dirichlet(conc[comp[i]])
        front, back = full[:dim], full[dim:]
        X[i] = front + noise * rng.normal(size=dim)
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
    """One CV sweep selecting (sigma, lambda) for both histogram methods.

    For each (sigma, fold) the Gram matrix and cross kernel are built once and
    every lambda's held-out weights come from `kernels.ridge_path`; each A is
    decoded and scored by both methods: the Hellinger decoder under squared
    Hellinger, the KDE decode under the Gaussian output-kernel loss.  The KDE
    decode's output-kernel matrix depends only on the fold, so it is built
    once per fold.
    Selection follows `model_selection.select_best` in (sigma, lambda) order.

    Returns {"hellinger": (sigma, lambda), "kde": (sigma, lambda)}.
    """
    fold_idx = model_selection.kfold_split(Xtr.shape[0], folds, seed)
    all_idx = np.arange(Xtr.shape[0])
    splits = [(np.setdiff1d(all_idx, va), va) for va in fold_idx]
    output_grams = [_gauss_output_kernel_matrix(Ytr[tr], sigma_y) for tr, _ in splits]
    scores = {method: np.zeros((len(sigmas), len(lambdas), folds))
              for method in ("hellinger", "kde")}
    for si, sigma in enumerate(sigmas):
        kernel = kernels.gaussian(sigma)
        for fi, (tr, va) in enumerate(splits):
            K = kernels.gram_matrix(kernel, Xtr[tr])
            KX = kernels.cross_kernel_batch(kernel, Xtr[tr], Xtr[va])
            path = kernels.ridge_path(K, KX, [tr.size * lam for lam in lambdas])
            for li, A in enumerate(path):
                preds = decoders.decode_simplex_hellinger_batch(A, Ytr[tr])
                scores["hellinger"][si, li, fi] = _mean_hellinger(preds, Ytr[va])
                preds = _kde_decode_batch(A, Ytr[tr], sigma_y, H=output_grams[fi])
                scores["kde"][si, li, fi] = _mean_gauss_loss(preds, Ytr[va], sigma_y)
    return {
        method: model_selection.select_best(
            (float(np.mean(s[si, li])), lam, (sigma, lam))
            for si, sigma in enumerate(sigmas)
            for li, lam in enumerate(lambdas))
        for method, s in scores.items()
    }


def run_histogram_experiment(dim=8, n_train=120, n_test=60, repetitions=5, seed0=0,
                             sigmas=(0.1, 1.0, 10.0), lambdas=(1e-4, 1e-2, 1.0), folds=5):
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

        selected = _histogram_cv(Xtr, Ytr, sigmas, lambdas, folds, seed, sigma_y)
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

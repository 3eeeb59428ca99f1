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

Each runner is one trial(n, seed) -> {method: loss} of the shared
repetition loop `_curves`, which builds the `ExperimentResult` rows.  The CV
grids, the fold count and the decoders are the module constants below; a
runner's arguments set only the sizes, repetitions and seed.  `repetitions`
has no default here: the CLI's `--reps` (20) is the one default.  The CLI
records the grids in its report metadata.  Every generator returns (X, Y),
a pure function of (parameters, seed).
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
class ExperimentResult:
    method: str
    n: int
    seeds: list
    wall_time: float
    per_seed: list

    @property
    def metric_mean(self):
        return float(np.mean(self.per_seed))

    @property
    def metric_std(self):
        return float(np.std(self.per_seed))


def _curves(n_grid, repetitions, seed_of, trial):
    """The rows of one experiment: for each n, `trial(n, seed)` -> {method:
    loss} on the seeds seed_of(rep, n) of every repetition, then one
    `ExperimentResult` per method in the trial's order.  `wall_time` is the
    time of n's whole repetition loop, shared by its methods."""
    results = []
    for n in n_grid:
        seeds = [seed_of(rep, n) for rep in range(repetitions)]
        t0 = time.perf_counter()
        trials = [trial(n, seed) for seed in seeds]
        elapsed = time.perf_counter() - t0
        results += [ExperimentResult(method, n, seeds, elapsed, [t[method] for t in trials])
                    for method in trials[0]]
    return results


def gen_robust_data(n, seed):
    """(X, y): X is (n, 1) uniform on [-1, 1], y = sin(6 pi x) + eps + zeta;
    eps ~ N(0, 0.1) (variance 0.1, std sqrt(0.1)); zeta is 0 w.p. 0.9, else
    uniform on [-3, 3]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=n)
    eps = rng.normal(0.0, np.sqrt(0.1), size=n)
    spikes = rng.uniform(-3.0, 3.0, size=n)
    zeta = np.where(rng.random(n) < 0.1, spikes, 0.0)
    return x[:, None], np.sin(6.0 * np.pi * x) + eps + zeta


def krr_predict_batch(model, Xq):
    A = surrogate.alpha_weights_batch(model, Xq)
    return np.asarray(model.Y, dtype=float) @ A


def _select_sigma_lambda(means, sigmas, lambdas):
    """The (sigma, lambda) of least mean in the (S, L) table `means`, by
    `model_selection.select_best` in (sigma, lambda) order."""
    return model_selection.select_best(
        (means[si, li], lam, (sigma, lam))
        for si, sigma in enumerate(sigmas)
        for li, lam in enumerate(lambdas))


def _robust_cv(X, y, sigmas, lambdas, gammas, folds, seed):
    """Hyperparameters for both methods from one `model_selection.sweep`.

    The sweep runs fold by fold and hands `score` each fold's weights for
    every (sigma, lambda) as one (n_tr, S*L*n_va) block, sigma-major, while
    it keeps the S Gaussian spectra (S*n*n floats) alive.  Every column is
    scored by `CV_DECODER` with the Cauchy loss at each gamma, one decode
    and so one grid loss table per (fold, gamma) for the whole block, and by
    the KRR baseline, whose prediction is y_train @ A.  The decoder is
    scored with absolute error, which stays comparable across gamma (raw
    Cauchy values scale with it); KRR is scored with squared error, its own
    criterion -- an outlier-robust scoring rule here would hand the baseline
    exactly the robustness it is supposed to lack.
    Selection follows `model_selection.select_best`, the decoder's grid in
    (gamma, sigma, lambda) order and KRR's in (sigma, lambda) order.  A
    failure of a sigma's spectrum or weights names that kernel and the fold; a
    failure of a decode names the fold and every kernel of its block.

    Returns ((kernel, lambda, gamma) for the decoder, (kernel, lambda) for
    KRR).
    """
    y = np.asarray(y, dtype=float)

    def score(tr, cols, A):
        out = [(y[tr] @ A - y[cols]) ** 2]
        for gamma in gammas:
            pred, _ = decoders.decode_scalar_grid_batch(A, y[tr], losses.Cauchy(gamma),
                                                        CV_DECODER)
            out.append(np.abs(pred - y[cols]))
        return out

    means = model_selection.sweep(X, [kernels.gaussian(s) for s in sigmas], lambdas,
                                  folds, seed, score).mean(axis=2)
    sigma, lam, gamma = model_selection.select_best(
        (means[si, li, 1 + gi], lam, (sigma, lam, gamma))
        for gi, gamma in enumerate(gammas)
        for si, sigma in enumerate(sigmas)
        for li, lam in enumerate(lambdas))
    k_sigma, k_lam = _select_sigma_lambda(means[:, :, 0], sigmas, lambdas)
    return ((kernels.gaussian(sigma), lam, gamma), (kernels.gaussian(k_sigma), k_lam))


def run_robust_experiment(n_grid=(50, 100, 200, 500), *, repetitions, seed0=0):
    """Learning curves for the Cauchy-loss decoder vs the KRR baseline."""
    x_test = np.linspace(-1.0, 1.0, ROBUST_TEST_POINTS)[:, None]
    target = np.sin(6.0 * np.pi * x_test[:, 0])

    def trial(n, seed):
        X, y = gen_robust_data(n, seed)
        (kernel, lam, gamma), (k_kernel, k_lam) = _robust_cv(
            X, y, ROBUST_SIGMAS, ROBUST_LAMBDAS, ROBUST_GAMMAS, FOLDS, seed)
        pred = decoders.predict_batch(surrogate.fit(X, y, kernel, lam), ROBUST_DECODER,
                                      losses.Cauchy(gamma), x_test)
        k_pred = krr_predict_batch(surrogate.fit(X, y, k_kernel, k_lam), x_test)
        return {"alg1_cauchy": float(np.mean(np.abs(np.asarray(pred) - target))),
                "krr": float(np.mean(np.abs(k_pred - target)))}

    return _curves(n_grid, repetitions, lambda rep, n: seed0 + 100_003 * rep + n, trial)


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

    def trial(n, seed):
        X, R = gen_ranking_data(items, n + n_test, seed)
        Xtr, Xte, Rtr, Rte = X[:n], X[n:], R[:n], R[n:]
        report = model_selection.cross_validate(Xtr, Rtr, (kernels.linear(),), RANKING_LAMBDAS,
                                                FOLDS, seed, decoder, loss, scoring)
        model = surrogate.fit(Xtr, Rtr, report.selected.kernel, report.selected.lam)
        preds = decoders.predict_batch(model, decoder, loss, Xte)
        base = _best_training_sort(Rtr)
        return {"alg1_fas": float(np.mean(losses.rank_loss(preds, Rte, normalize=True))),
                "best_train_sort": float(np.mean(
                    losses.rank_loss_matrix(base[None], Rte, normalize=True)[0]))}

    return _curves((n_train,), repetitions, lambda rep, n: seed0 + 7919 * rep, trial)


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
    """Median squared distance over the pairs of rows of Y, or 1.0 where it
    is not positive or Y has a single row.

    Taken with `np.partition`, equal to `np.median` (the middle value, or the
    mean of the two middle values), which would import `numpy.ma`.
    """
    d = kernels.sq_distances(Y)
    vals = d[np.triu_indices_from(d, k=1)]
    if vals.size == 0:
        return 1.0
    h = vals.size // 2
    if vals.size % 2:
        med = float(np.partition(vals, h)[h])
    else:
        part = np.partition(vals, (h - 1, h))
        med = float((part[h - 1] + part[h]) / 2)
    return med if med > 0 else 1.0


def _kde_decode_batch(A, Ytr, sigma_y):
    """Eq.-7-style decode over the training outputs: with a normalized output
    kernel, argmin_c F(c) = argmax_c sum_i alpha_i h(c, y_i)."""
    scores = np.exp(-kernels.sq_distances(Ytr) / sigma_y) @ A  # (candidates, Q)
    return Ytr[np.argmax(scores, axis=0)]


def _gauss_loss_rows(preds, truth, sigma_y):
    """The Gaussian output-kernel loss 2 - 2 h(p_q, t_q) of every row pair."""
    d = ((np.asarray(preds, dtype=float) - truth) ** 2).sum(axis=1)
    return 2.0 - 2.0 * np.exp(-d / sigma_y)


def _histogram_cv(Xtr, Ytr, sigmas, lambdas, folds, seed, sigma_y):
    """(sigma, lambda) for both histogram methods from one
    `model_selection.sweep`.

    The sweep runs fold by fold and hands `score` each fold's weights for
    every (sigma, lambda) as one (n_tr, S*L*n_va) block, sigma-major, while
    it keeps the S Gaussian spectra (S*n*n floats) alive.  So each fold
    takes one simplex decode and one KDE decode, which builds the fold's
    (n_tr, n_tr) output Gram once for the whole block.  The Hellinger
    decoder is scored under squared Hellinger, the KDE decode under the
    Gaussian output-kernel loss.  Selection follows
    `model_selection.select_best` in (sigma, lambda) order.  A failure of a
    sigma's spectrum or weights names that kernel and the fold; a failure of a
    decode names the fold and every kernel of its block.

    Returns {"hellinger": (sigma, lambda), "kde": (sigma, lambda)}.
    """
    def score(tr, cols, A):
        hellinger = decoders.decode_simplex_hellinger_batch(A, Ytr[tr])
        kde = _kde_decode_batch(A, Ytr[tr], sigma_y)
        return [losses.squared_hellinger(hellinger, Ytr[cols]),
                _gauss_loss_rows(kde, Ytr[cols], sigma_y)]

    means = model_selection.sweep(Xtr, [kernels.gaussian(s) for s in sigmas], lambdas,
                                  folds, seed, score).mean(axis=2)
    return {method: _select_sigma_lambda(means[:, :, mi], sigmas, lambdas)
            for mi, method in enumerate(("hellinger", "kde"))}


def run_histogram_experiment(dim=8, n_train=120, n_test=60, *, repetitions, seed0=0):
    """Hellinger-decoded predictor vs KDE-style decoding over training outputs.

    Both methods share the surrogate machinery; each cross-validates
    (sigma, lambda) under its own scoring loss, and both test losses are
    reported for both methods.  The output-kernel bandwidth is the median
    pairwise squared distance of the training histograms.
    """
    def trial(n, seed):
        X, Y = gen_histogram_data(dim, n + n_test, seed)
        Xtr, Xte, Ytr, Yte = X[:n], X[n:], Y[:n], Y[n:]
        sigma_y = median_sq_dist(Ytr)
        selected = _histogram_cv(Xtr, Ytr, HISTOGRAM_SIGMAS, HISTOGRAM_LAMBDAS, FOLDS, seed,
                                 sigma_y)
        out = {}
        for name, method in (("alg1_hellinger", "hellinger"), ("kde_gaussian", "kde")):
            sigma, lam = selected[method]
            model = surrogate.fit(Xtr, Ytr, kernels.gaussian(sigma), lam)
            A = surrogate.alpha_weights_batch(model, Xte)
            if method == "hellinger":
                preds = decoders.decode_simplex_hellinger_batch(A, Ytr)
            else:
                preds = _kde_decode_batch(A, Ytr, sigma_y)
            out[f"{name}:dH"] = float(np.mean(losses.squared_hellinger(preds, Yte)))
            out[f"{name}:dG"] = float(np.mean(_gauss_loss_rows(preds, Yte, sigma_y)))
        return out

    return _curves((n_train,), repetitions, lambda rep, n: seed0 + 104_729 * rep, trial)

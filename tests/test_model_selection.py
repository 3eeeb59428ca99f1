"""`model_selection.cross_validate` on its own, against a brute-force sweep.

The oracle (`_oracles.brute_force_cross_validate`) builds its own Gaussian
kernel, solves each (sigma, lambda, fold) with a dense `np.linalg.solve`,
decodes with its own scans and selects with its own tie rule.  Predictions
are grid points or labels, so where both sides decode the same values the
means agree up to summation order: every row mean must match to a relative
1e-12, and the selection exactly.
"""

import numpy as np
import pytest

import _oracles
from surrloss import decoders, experiments, kernels, losses, model_selection

SIGMAS = (0.3, 1.0, 4.0)
LAMBDAS = (1e-3, 1e-2, 1e-1)
FOLDS = 3
MEAN_RTOL = 1e-12


def _splits(n, seed, folds=FOLDS):
    all_idx = np.arange(n)
    return [(np.setdiff1d(all_idx, va), va)
            for va in model_selection.kfold_split(n, folds, seed)]


def _plan(seed, scoring):
    return model_selection.CvPlan(folds=FOLDS, seed=seed, lambda_grid=LAMBDAS,
                                  kernel_grid=tuple(kernels.gaussian(s) for s in SIGMAS),
                                  scoring=scoring)


def _assert_report_matches(report, rows, selected):
    assert [(r.kernel.sigma, r.lam) for r in report.rows] == [(s, l) for s, l, _ in rows]
    for got, (_, _, want) in zip(report.rows, rows):
        assert got.mean == pytest.approx(want, rel=MEAN_RTOL, abs=0.0)
    assert (report.selected.kernel.sigma, report.selected.lam) == selected


@pytest.mark.parametrize("seed", range(4))
def test_cross_validate_labels_match_a_brute_force_sweep(seed):
    rng = np.random.default_rng(100 + seed)
    X = rng.normal(size=(24, 2))
    cls = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5).astype(int)
    noisy = rng.uniform(size=24) < 0.2
    cls[noisy] = rng.integers(0, 3, size=int(noisy.sum()))
    Y = [str(v) for v in np.array(["a", "b", "c"])[cls]]
    cands = sorted(set(Y))
    loss = losses.ZeroOne()

    def decode(A, tr):
        Ytr = [Y[i] for i in tr]
        return [cands[_oracles.scan_minimum(cands, A[:, q], loss, Ytr)[0]]
                for q in range(A.shape[1])]

    def score(preds, va):
        return np.mean([float(p != Y[i]) for p, i in zip(preds, va)])

    rows, selected = _oracles.brute_force_cross_validate(X, SIGMAS, LAMBDAS,
                                                         _splits(len(Y), seed), decode, score)
    report = model_selection.cross_validate(X, Y, _plan(seed, losses.ZeroOne()),
                                            decoders.Exhaustive(cands), loss)
    _assert_report_matches(report, rows, selected)


@pytest.mark.parametrize("seed", range(4))
def test_cross_validate_scalar_targets_match_a_brute_force_sweep(seed):
    # refine_iters=0 makes the decode a plain scan of the uniform grid, which
    # the oracle repeats with its own Cauchy objective (np.log, not log1p)
    rng = np.random.default_rng(200 + seed)
    X = rng.uniform(-1.0, 1.0, size=(24, 1))
    y = np.sin(3.0 * X[:, 0]) + 0.2 * rng.standard_cauchy(24).clip(-5.0, 5.0)
    spec = decoders.ScalarGrid(bound=3.0, grid_points=201, refine_iters=0)
    gamma = 0.5

    def decode(A, tr):
        return np.array([_oracles.dense_grid_min_cauchy(A[:, q], y[tr], gamma, spec.bound,
                                                        spec.grid_points)[0]
                         for q in range(A.shape[1])])

    def score(preds, va):
        return np.mean(np.abs(preds - y[va]))

    rows, selected = _oracles.brute_force_cross_validate(X, SIGMAS, LAMBDAS,
                                                         _splits(y.size, seed), decode, score)
    report = model_selection.cross_validate(X, y, _plan(seed, losses.AbsoluteError()),
                                            spec, losses.Cauchy(gamma))
    _assert_report_matches(report, rows, selected)


@pytest.mark.parametrize("seed", range(4))
def test_cross_validate_on_a_rank_deficient_gram_matches_a_brute_force_sweep(seed):
    # A linear kernel on d = 4 inputs gives a Gram matrix of rank 4 on 64
    # training points, whose null-space eigenvalues the spectral path clamps
    # to 0.  Both sides decode with the library's ranking decoder, so the
    # comparison is between the held-out weights.
    U, R = experiments.gen_ranking_data(8, 80, seed)
    lambdas = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)

    def score(A, tr, va):
        return np.mean([losses.rank_loss(decoders.decode_ranking_fas(A[:, q], R[tr], 8),
                                         R[i], normalize=True)
                        for q, i in enumerate(va)])

    means = _oracles.brute_force_cv_means(U, (None,), lambdas, _splits(80, seed, folds=5),
                                          score, kernel_matrix=lambda A, B, _: A @ B.T)[0]
    plan = model_selection.CvPlan(folds=5, seed=seed, lambda_grid=lambdas,
                                  kernel_grid=(kernels.linear(),),
                                  scoring=losses.RankLoss(normalize=True))
    report = model_selection.cross_validate(U, R, plan, decoders.RankingFas(items=8),
                                            losses.RankLoss(normalize=False))
    for row, want in zip(report.rows, means):
        assert row.mean == pytest.approx(want, rel=MEAN_RTOL, abs=0.0)
    assert report.selected.lam == _oracles.lowest_mean_then_larger_lambda(
        zip(means, lambdas, lambdas))

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import _oracles
from surrloss import kernels


def _pair(spec, x, x2):
    """k(x, x') through the library: the one-row cross kernel."""
    return float(kernels.cross_kernel(spec, np.atleast_2d(x), x2)[0])


def test_gaussian_identity():
    spec = kernels.gaussian(1.0)
    x = np.array([0.3, -1.2])
    assert _pair(spec, x, x) == 1.0


def test_linear_dot_product():
    spec = kernels.linear()
    assert _pair(spec, [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_gaussian_unit_distance():
    spec = kernels.gaussian(1.0)
    v = _pair(spec, [0.0], [1.0])
    assert v == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert v == pytest.approx(0.36787944117144233)


def test_gaussian_range_and_symmetry():
    rng = np.random.default_rng(3)
    spec = kernels.gaussian(0.7)
    for _ in range(50):
        x, x2 = rng.normal(size=2 * 4).reshape(2, 4)
        v = _pair(spec, x, x2)
        assert 0.0 < v <= 1.0
        assert v == _pair(spec, x2, x)


def test_cross_kernel_rejects_bad_input():
    spec = kernels.gaussian(1.0)
    X = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="dimension"):
        kernels.cross_kernel(spec, X, [1.0])
    with pytest.raises(ValueError, match="dimension"):
        kernels.cross_kernel_batch(spec, X, [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="non-finite"):
        kernels.cross_kernel(spec, X, [np.nan, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        kernels.cross_kernel_batch(spec, X, [[np.inf, 1.0]])
    with pytest.raises(ValueError, match="1-d"):
        kernels.cross_kernel(spec, X, [[1.0, 2.0]])


def test_gram_rejects_bad_input():
    with pytest.raises(ValueError, match="non-finite"):
        kernels.gram_matrix(kernels.gaussian(1.0), [[1.0], [np.nan]])
    with pytest.raises(ValueError, match="non-finite"):
        kernels.gram_matrix(kernels.linear(), [[np.inf, 0.0]])
    with pytest.raises(ValueError):
        kernels.gaussian(0.0)
    with pytest.raises(ValueError):
        kernels.gaussian(-1.0)


@pytest.mark.parametrize("spec", [kernels.gaussian(2.0), kernels.linear()],
                         ids=lambda spec: spec.kind)
def test_a_1d_input_array_is_n_one_dimensional_inputs(spec):
    # as `KernelSpec` says: the (n,) array is the (n, 1) column, bit for bit
    x, q = np.array([0.0, 0.5, 2.0, -1.0]), np.array([0.25, 3.0])
    np.testing.assert_array_equal(kernels.gram_matrix(spec, x),
                                  kernels.gram_matrix(spec, x[:, None]))
    np.testing.assert_array_equal(kernels.cross_kernel_batch(spec, x, q),
                                  kernels.cross_kernel_batch(spec, x[:, None], q[:, None]))
    assert kernels.cross_kernel_batch(spec, x, q).shape == (4, 2)


def test_gram_single_point():
    K = kernels.gram_matrix(kernels.gaussian(2.0), [[0.5]])
    assert K.shape == (1, 1)
    assert K[0, 0] == 1.0


def test_gram_linear_orthonormal():
    K = kernels.gram_matrix(kernels.linear(), [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(K, np.eye(2))


def test_gram_matches_pairwise_eval():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 2))
    spec = kernels.gaussian(2.0)
    K = kernels.gram_matrix(spec, X)
    for i in range(3):
        for j in range(3):
            assert K[i, j] == pytest.approx(_oracles.eval_kernel(spec, X[i], X[j]), abs=1e-15)


def test_gram_exactly_symmetric_unit_diagonal():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 3))
    K = kernels.gram_matrix(kernels.gaussian(0.5), X)
    assert np.array_equal(K, K.T)
    np.testing.assert_array_equal(np.diag(K), np.ones(40))
    Kl = kernels.gram_matrix(kernels.linear(), X)
    assert np.array_equal(Kl, Kl.T)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
def test_gram_panel_mirror_equals_the_whole_matrix_mask_copy(n):
    X = np.random.default_rng(n).normal(size=(n, 4))
    for spec in (kernels.gaussian(4.0), kernels.linear()):
        raw = X @ X.T if spec.kind == "linear" else np.exp(kernels.sq_distances(X) / -spec.sigma)
        np.copyto(raw, raw.T, where=np.tri(n, k=-1, dtype=bool).T)
        K = kernels.gram_matrix(spec, X)
        assert np.array_equal(K, raw)
        assert np.array_equal(K, K.T)


def test_gram_rejects_empty():
    with pytest.raises(ValueError):
        kernels.gram_matrix(kernels.gaussian(1.0), np.empty((0, 2)))


def test_cross_kernel_first_entry_unit():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(4, 2))
    k = kernels.cross_kernel(kernels.gaussian(1.0), X, X[0])
    assert k[0] == 1.0


def test_cross_kernel_orthogonal_linear():
    X = np.array([[1.0, 0.0], [0.0, 2.0]])
    k = kernels.cross_kernel(kernels.linear(), X, np.array([0.0, 0.0]))
    np.testing.assert_array_equal(k, np.zeros(2))


def test_cross_kernel_matches_eval():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 3))
    q = rng.normal(size=3)
    spec = kernels.gaussian(1.3)
    k = kernels.cross_kernel(spec, X, q)
    for i in range(6):
        assert k[i] == pytest.approx(_oracles.eval_kernel(spec, q, X[i]), abs=1e-15)


def test_cross_kernel_batch_matches_single():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(5, 2))
    Q = rng.normal(size=(3, 2))
    for spec in (kernels.gaussian(0.8), kernels.linear()):
        KX = kernels.cross_kernel_batch(spec, X, Q)
        for q in range(3):
            np.testing.assert_allclose(KX[:, q], kernels.cross_kernel(spec, X, Q[q]),
                                       atol=1e-15)


def _offset_rows_with_duplicates(rng, n, d):
    """Rows far from the origin, every third one repeated, so the GEMM form
    cancels large norms and rounds below 0 before the clamp."""
    X = 1e3 + rng.normal(size=(n, d))
    X[::3] = X[0]
    return X


def test_sq_distances_nonnegative_and_match_direct_differences():
    rng = np.random.default_rng(40)
    Xo = _offset_rows_with_duplicates(rng, 20, 8)
    for X, Z in ((_offset_rows_with_duplicates(rng, 30, 4), None),
                 (rng.normal(size=(25, 5)), rng.normal(size=(9, 5))),
                 (Xo, Xo[::2].copy())):
        D = kernels.sq_distances(X, Z)
        Zr = X if Z is None else Z
        direct = ((X[:, None, :] - Zr[None, :, :]) ** 2).sum(axis=-1)
        scale = (X * X).sum(axis=1)[:, None] + (Zr * Zr).sum(axis=1)[None, :]
        assert D.shape == direct.shape
        assert np.all(D >= 0.0)
        assert np.all(np.abs(D - direct) <= 1e-12 * scale)
    np.testing.assert_array_equal(np.diag(kernels.sq_distances(Xo)), np.zeros(20))


def test_gram_of_near_duplicate_rows_stays_symmetric_with_unit_diagonal():
    X = _offset_rows_with_duplicates(np.random.default_rng(41), 40, 3)
    for spec in (kernels.gaussian(0.5), kernels.gaussian(50.0)):
        K = kernels.gram_matrix(spec, X)
        assert np.array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.ones(40))
        assert np.all((K > 0.0) & (K <= 1.0))


def test_gaussian_gram_builds_no_difference_tensor():
    n, d = 400, 64
    X = np.random.default_rng(42).normal(size=(n, d))
    spec = kernels.gaussian(float(d))
    kernels.gram_matrix(spec, X)
    tracemalloc.start()
    try:
        kernels.gram_matrix(spec, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (n, n, d) difference tensor alone would be n * n * d * 8 = 82 MB
    assert peak < 4 * n * n * 8


# ---------------------------------------------------------------------------
# SPD factorization and solves

def test_factor_identity():
    f = kernels.factor_shifted(np.eye(2), 0.0)
    np.testing.assert_array_equal(f.lower, np.eye(2))
    assert f.jitter == 0.0


def test_factor_hand_cholesky():
    # [[1,1],[1,1]] + I = [[2,1],[1,2]]; L = [[sqrt(2),0],[1/sqrt(2),sqrt(3/2)]]
    f = kernels.factor_shifted(np.ones((2, 2)), 1.0)
    expected = np.array([[np.sqrt(2.0), 0.0],
                         [1.0 / np.sqrt(2.0), np.sqrt(1.5)]])
    np.testing.assert_allclose(f.lower, expected, atol=1e-15)
    assert f.jitter == 0.0


def test_factor_rank_deficient_engages_jitter():
    f = kernels.factor_shifted(np.ones((3, 3)), 0.0)
    assert f.jitter > 0.0
    assert np.all(np.isfinite(f.lower))


def test_factor_reproduces_matrix():
    # sizes up to three diagonal blocks, so most draws update panels
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 3 * BLOCK))
        B = rng.normal(size=(n, n))
        K = B @ B.T
        shift = float(rng.uniform(0, 2))
        f = kernels.factor_shifted(K, shift)
        target = K + (shift + f.jitter) * np.eye(n)
        rebuilt = f.lower @ f.lower.T
        err = np.linalg.norm(rebuilt - target) / np.linalg.norm(target)
        assert err <= 1e-10


def test_factor_rejects_negative_shift_and_nonsquare():
    with pytest.raises(ValueError):
        kernels.factor_shifted(np.eye(2), -0.1)
    with pytest.raises(ValueError):
        kernels.factor_shifted(np.ones((2, 3)), 0.0)


def test_solve_identity_and_scaled():
    f = kernels.factor_shifted(np.eye(3), 0.0)
    b = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(kernels.solve_spd(f, b), b, atol=1e-15)
    f2 = kernels.factor_shifted(2.0 * np.eye(2), 0.0)
    np.testing.assert_allclose(kernels.solve_spd(f2, [4.0, 6.0]), [2.0, 3.0], atol=1e-14)


def test_solve_rejects_length_mismatch():
    f = kernels.factor_shifted(np.eye(3), 0.0)
    with pytest.raises(ValueError):
        kernels.solve_spd(f, np.ones(2))


def test_solve_does_not_copy_the_factor():
    n = 400
    X = np.random.default_rng(9).normal(size=(n, 2))
    f = kernels.factor_shifted(kernels.gram_matrix(kernels.gaussian(1.0), X), n * 1e-3)
    b = np.ones(n)
    kernels.solve_spd(f, b)
    tracemalloc.start()
    try:
        kernels.solve_spd(f, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


def test_solve_residual_bound_random_systems():
    # 1000 random SPD systems of order <= 50
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        B = rng.normal(size=(n, n))
        K = B @ B.T
        shift = float(rng.uniform(0, 1))
        b = rng.normal(size=n)
        f = kernels.factor_shifted(K, shift)
        sol = kernels.solve_spd(f, b)
        resid = (K + (shift + f.jitter) * np.eye(n)) @ sol - b
        assert np.max(np.abs(resid)) <= 1e-8 * (1.0 + np.max(np.abs(b)))


# unit roundoff of float64
U = np.finfo(float).eps / 2
BLOCK = kernels.SOLVE_BLOCK


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_solve_matches_dense_solve_at_block_boundaries(n):
    # The tolerance is solve_spd's stated bound n * u * cond^1.5, with
    # cond(K + shift*I) <= 1 + lambda_max(K) / shift; here about 1e-12.
    rng = np.random.default_rng(n)
    K = kernels.gram_matrix(kernels.gaussian(1.0), rng.normal(size=(n, 3)))
    shift = n * 1e-2
    f = kernels.factor_shifted(K, shift)
    A = K + (shift + f.jitter) * np.eye(n)
    tol = n * U * (1.0 + np.linalg.eigvalsh(K)[-1] / shift) ** 1.5
    for b in (rng.normal(size=n), rng.normal(size=(n, 5))):
        sol = kernels.solve_spd(f, b)
        ref = np.linalg.solve(A, b)
        assert sol.shape == b.shape
        assert np.max(np.abs(sol - ref)) <= tol * np.max(np.abs(ref))


def _gram_and_shift(n, rel):
    """A Gaussian Gram of n random points in 3-d and the shift n * rel."""
    X = np.random.default_rng(n).normal(size=(n, 3))
    return kernels.gram_matrix(kernels.gaussian(1.0), X), n * rel


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 1000])
def test_factor_matches_lapack_cholesky(n):
    # Both factorizations are backward stable (Higham Thm. 10.3) and A is well
    # conditioned (cond(A) <= 1 + lambda_max(K) / shift <= 101), so their
    # entries agree to about n * u * |A|_2; the blocked pass reads at most
    # 1e-3 of that bound.
    K, shift = _gram_and_shift(n, 1e-2)
    f = kernels.factor_shifted(K, shift)
    A = K + shift * np.eye(n)
    assert f.jitter == 0.0 and f.lower.flags.c_contiguous
    assert np.max(np.abs(f.lower - np.linalg.cholesky(A))) <= n * U * np.linalg.norm(A, 2)
    assert np.all(np.triu(f.lower, 1) == 0.0)


@pytest.mark.parametrize("rel", [1e-2, 1e-6])
@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 1000])
def test_block_inverses_match_a_dense_solve(n, rel):
    # solve_spd's stated bound for the GEMM recursion: each inverse is within
    # about m * u * cond(L_kk) of L_kk^-1, relative to its largest entry
    f = kernels.factor_shifted(*_gram_and_shift(n, rel))
    starts = range(0, n, BLOCK)
    assert len(f.block_inverses) == len(starts)
    for s, X in zip(starts, f.block_inverses):
        m = min(BLOCK, n - s)
        L_kk = f.lower[s:s + m, s:s + m]
        ref = np.linalg.solve(L_kk, np.eye(m))
        assert X.shape == (m, m) and np.all(np.triu(X, 1) == 0.0)
        assert np.max(np.abs(X - ref)) <= m * U * np.linalg.cond(L_kk) * np.max(np.abs(ref))


def _recording(monkeypatch, name):
    """Wrap np.linalg.<name>: the list it returns gets each call's row count,
    and "failed" after a call that raised LinAlgError."""
    function, calls = getattr(np.linalg, name), []

    def wrapper(M):
        calls.append(M.shape[0])
        try:
            return function(M)
        except np.linalg.LinAlgError:
            calls.append("failed")
            raise

    monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


def test_jitter_ladder_restarts_after_a_later_block_fails(monkeypatch):
    # Row 250 copies row 10 and K[250, 250] is lowered by 1e-9, so K has an
    # eigenvalue near -5e-10: the first diagonal block factors and the second
    # (rows 128-255) does not.  Jitter 1e-12 and 1e-10 leave K indefinite and
    # 1e-8 makes it definite, so a ladder of whole-matrix np.linalg.cholesky
    # calls picks 1e-8 too.  (An exact copy alone leaves the sign of the zero
    # pivot to rounding: either way of factoring then picks jitter 0 or 1e-12,
    # depending on the points.)
    X = np.random.default_rng(0).normal(size=(300, 3))
    X[250] = X[10]
    K = kernels.gram_matrix(kernels.gaussian(1.0), X)
    K[250, 250] -= 1e-9
    calls = _recording(monkeypatch, "cholesky")
    f = kernels.factor_shifted(K, 0.0)
    assert f.jitter == 1e-8
    assert calls == 3 * [BLOCK, BLOCK, "failed"] + [BLOCK, BLOCK, 300 - 2 * BLOCK]


def test_factor_works_on_blocks_only(monkeypatch):
    # np.linalg.cholesky sees only diagonal blocks and np.linalg.inv only the
    # leaves of the recursive block inverse, at most 32 rows
    n = 1000
    K, shift = _gram_and_shift(n, 1e-3)
    chol_calls = _recording(monkeypatch, "cholesky")
    inv_calls = _recording(monkeypatch, "inv")
    kernels.factor_shifted(K, shift)
    assert len(chol_calls) == len(range(0, n, BLOCK)) and max(chol_calls) <= BLOCK
    assert inv_calls and max(inv_calls) <= 32


def test_solve_with_jitter_solves_the_jittered_system():
    # ones((n, n)) is rank 1, so the ladder engages and the factor spans two
    # blocks.  cond(A) is about 1e14, so the forward error against a dense
    # solve is held to the Cholesky bound n * u * cond(A); the normwise
    # backward error |A sol - b| / (|A| |sol| + |b|) must stay below n * u.
    n = BLOCK + 1
    f = kernels.factor_shifted(np.ones((n, n)), 0.0)
    assert f.jitter > 0.0
    A = np.ones((n, n)) + f.jitter * np.eye(n)
    b = np.random.default_rng(11).normal(size=(n, 3))
    sol = kernels.solve_spd(f, b)
    ref = np.linalg.solve(A, b)
    assert np.max(np.abs(sol - ref)) <= n * U * np.linalg.cond(A) * np.max(np.abs(ref))
    backward = np.max(np.abs(A @ sol - b)) / (
        np.max(np.abs(A).sum(axis=1)) * np.max(np.abs(sol)) + np.max(np.abs(b)))
    assert backward <= n * U


_NEW_TOP_LEVEL_MODULES = """
import sys
def top():
    return {m.split('.')[0] for m in sys.modules}
bare = top()
import surrloss.cli
print(sorted(top() - bare - set(sys.stdlib_module_names) - {'surrloss'}))
"""


def test_import_loads_no_scipy():
    # nor any third-party module but numpy: what the interpreter's site hooks
    # load at start-up is in both sets and cancels out
    src = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _NEW_TOP_LEVEL_MODULES],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "['numpy']"


def test_gaussian_gram_spd_without_jitter():
    # spread-out distinct points keep the Gram SPD in double precision for
    # the whole bandwidth range
    rng = np.random.default_rng(8)
    for sigma in (0.01, 0.1, 1.0, 10.0, 100.0):
        for n in (20, 100, 200):
            X = rng.uniform(-5.0, 5.0, size=(n, 3))
            K = kernels.gram_matrix(kernels.gaussian(sigma), X)
            f = kernels.factor_shifted(K, 0.0)
            assert f.jitter == 0.0, f"jitter engaged at sigma={sigma}, n={n}"


# ---------------------------------------------------------------------------
# Spectral lambda-path

def _ridge_path_problems():
    """(spec, X, Xq) for Gaussian kernels over a bandwidth range and for a
    linear kernel on 40 points in 3-d, whose Gram of order 40 has rank 3 and
    on whose null space eigh returns eigenvalues just below 0."""
    rng = np.random.default_rng(10)
    specs = [kernels.gaussian(s) for s in (0.05, 0.5, 5.0)] + [kernels.linear()]
    for spec in specs:
        yield spec, rng.normal(size=(40, 3)), rng.normal(size=(12, 3))


def _fold_weights(spec, X, tr, va, lambdas, spectrum=None):
    """`kernels.fold_weights` of one fold, written into a fresh (n_tr, L, n_va)
    array; the spectrum is `kernels.fold_spectrum(spec, X)` unless given."""
    lambdas = kernels._check_lambdas(lambdas)
    if spectrum is None:
        spectrum = kernels.fold_spectrum(spec, X)
    out = np.full((tr.size, lambdas.size, va.size), np.nan)
    kernels.fold_weights(spec, spectrum, X, tr, va, lambdas, out)
    return out


def _path_on(spec, X, Xq, rates):
    """The ridge path that trains on X and validates on Xq: the fold weights
    of the rows of X then Xq, X's rows training and Xq's validating."""
    n, Q = X.shape[0], Xq.shape[0]
    return _fold_weights(spec, np.vstack([X, Xq]), np.arange(n), np.arange(n, n + Q), rates)


def test_ridge_path_matches_factor_and_solve():
    for spec, X, Xq in _ridge_path_problems():
        K, KX = kernels.gram_matrix(spec, X), kernels.cross_kernel_batch(spec, X, Xq)
        n = K.shape[0]
        rates = (1e-4, 1e-2, 1.0)
        path = _path_on(spec, X, Xq, rates)
        Q = KX.shape[1]
        assert path.shape == (n, len(rates), Q)
        for si, shift in enumerate(n * r for r in rates):
            A = path[:, si]
            ref = kernels.solve_spd(kernels.factor_shifted(K, shift), KX)
            assert np.max(np.abs(A - ref)) <= 1e-9 * np.max(np.abs(ref)), (spec, shift)


@pytest.mark.parametrize("n, d, copies", [(40, 3, 1), (12, 30, 1), (12, 12, 1), (8, 20, 2)],
                         ids=["d<n", "d>n", "d=n", "duplicate-rows"])
def test_linear_ridge_path_matches_a_dense_solve(n, d, copies):
    # the thin SVD's U has min(n, d) columns; with duplicate rows some of its
    # singular values are 0, and the path must still be the exact solve
    rng = np.random.default_rng(11 + d)
    X = np.tile(rng.normal(size=(n, d)), (copies, 1))
    Xq = rng.normal(size=(7, d))
    N = X.shape[0]
    evals, U = kernels._spectrum(kernels.linear(), X)
    assert U.shape == (N, min(N, d)) and evals.shape == (min(N, d),)
    assert np.all(evals >= 0.0)
    if copies > 1:
        assert np.min(evals) <= 1e-12 * np.max(evals)
    rates = (1e-4, 1e-2, 1.0)
    path = _path_on(kernels.linear(), X, Xq, rates)
    for si, shift in enumerate(N * r for r in rates):
        ref = np.linalg.solve(X @ X.T + shift * np.eye(N), X @ Xq.T)
        A = path[:, si]
        assert np.max(np.abs(A - ref)) <= 1e-9 * np.max(np.abs(ref)), shift


def _kfold(n, k, seed=0):
    return [np.sort(va) for va in np.array_split(np.random.default_rng(seed).permutation(n), k)]


def _gaussian_fold_problems():
    """(label, X, sigmas, lambdas, folds): 1-d inputs like the robust
    experiment's at its narrowest and widest bandwidth and smallest lambda,
    the worst-conditioned blocks of the experiments; 17 rows in 5 folds of
    3 or 4, so the shifts n_tr*lambda differ between folds; and 20 rows
    stacked twice, whose Gram has a null space the spectrum's clamp acts on."""
    rng = np.random.default_rng(13)
    yield ("robust", rng.uniform(-1.0, 1.0, size=(300, 1)), (0.01, 0.5), (1e-4, 1.0),
           _kfold(300, 5))
    yield "unequal-folds", rng.normal(size=(17, 2)), (0.3, 4.0), (1e-3, 1e-1), _kfold(17, 5)
    yield ("duplicate-rows", np.tile(rng.normal(size=(20, 2)), (2, 1)), (0.05, 0.5, 5.0),
           (1e-4, 1e-2, 1.0), _kfold(40, 4))


@pytest.mark.parametrize("label, X, sigmas, lambdas, folds", _gaussian_fold_problems(),
                         ids=lambda p: p if isinstance(p, str) else "")
def test_gaussian_fold_paths_match_a_dense_solve_per_fold(label, X, sigmas, lambdas, folds):
    # -M_TV M_VV^-1 from one spectrum of the full Gram against
    # np.linalg.solve(K_TT + n_tr*lambda*I, K_TV) on the oracle's own kernel
    if label == "unequal-folds":
        assert len({va.size for va in folds}) == 2
    for sigma in sigmas:
        if label == "duplicate-rows":  # the clamp has rounding to remove
            assert np.linalg.eigh(kernels.gram_matrix(kernels.gaussian(sigma), X))[0].min() < 0
        K = _oracles.gaussian_kernel_matrix(X, X, sigma)
        spec = kernels.gaussian(sigma)
        spectrum = kernels.fold_spectrum(spec, X)  # one for every fold
        for va in folds:
            tr = np.setdiff1d(np.arange(X.shape[0]), va)
            path = _fold_weights(spec, X, tr, va, lambdas, spectrum)
            for li, lam in enumerate(lambdas):
                ref = np.linalg.solve(K[np.ix_(tr, tr)] + tr.size * lam * np.eye(tr.size),
                                      K[np.ix_(tr, va)])
                A = path[:, li]
                assert np.max(np.abs(A - ref)) <= 1e-9 * np.max(np.abs(ref)), (sigma, lam)


def test_gaussian_spectrum_clamps_rounding_below_zero():
    # 20 points stacked twice: the Gram has a 20-dimensional null space, on
    # which eigh returns eigenvalues of about +-1e-15
    X = np.tile(np.random.default_rng(12).normal(size=(20, 2)), (2, 1))
    raw_negative = False
    for sigma in (0.05, 0.5, 5.0):
        spec = kernels.gaussian(sigma)
        raw_negative |= bool(np.linalg.eigh(kernels.gram_matrix(spec, X))[0].min() < 0.0)
        evals, U = kernels._spectrum(spec, X)
        assert U.shape == (40, 40)
        assert np.all(evals >= 0.0), sigma
    assert raw_negative  # the clamp has rounding to remove

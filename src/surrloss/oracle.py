"""Brute-force oracles on fully enumerated problems.

A FiniteProblem stores the whole joint table rho[x, y], so expected risks,
the Bayes predictor, the surrogate minimizer g*, and both sides of the
surrogate comparison inequality are computable exactly (up to rounding).
These power the `check` batteries: decoding g* must attain the Bayes risk,
the excess structured risk must stay under 2 c_delta sqrt(excess surrogate
risk), the least-squares classifier must match the decoded predictor on
classification problems, and the share of fits that miss the Bayes predictor
must fall with the sample size under the n^(-1/4) regularization schedule, by
a one-sided Cochran-Armitage trend test at level TREND_LEVEL.

The Fisher and comparison checks decode g (g* is the table P(y | x)) with
the library's decoder, `decoders.decode_exhaustive` over p.ys, and
compare it with `bayes_optimal`, the argmin of the conditional risks; the
Fisher check is the comparison check at g = g*.  Every structured risk is
read off a loss table (`losses.loss_table`).  The equivalence check reads
ghat from `TrainedSurrogate.output_coefficients`, and every fitted predictor
decodes all its inputs at once through the batch route.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import decoders, kernels, losses, surrogate

MASS_ATOL = 1e-12
FISHER_TOL = 1e-10  # largest |risk gap| the Fisher battery passes


@dataclass(frozen=True)
class FiniteProblem:
    xs: list
    ys: list
    rho: np.ndarray  # (|X|, |Y|) joint probabilities

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho.shape != (len(self.xs), len(self.ys)):
            raise ValueError("rho shape must be (|X|, |Y|)")
        if np.any(rho < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(rho.sum() - 1.0) > MASS_ATOL:
            raise ValueError("joint table must sum to 1")
        if np.any(rho.sum(axis=1) <= 0):
            raise ValueError("every listed x needs positive marginal mass")
        # the finite decoder would merge the columns of equal outputs
        if len(losses.group_outputs(self.ys)[0]) != len(self.ys):
            raise ValueError("duplicate ys")
        object.__setattr__(self, "rho", rho)  # the checked float array, not the input

    @property
    def marginal_x(self):
        return self.rho.sum(axis=1)

    @property
    def conditionals(self):
        return self.rho / self.rho.sum(axis=1, keepdims=True)


def random_problem(rng, nx_range=(2, 5), ny_range=(2, 6), ys=None):
    """Dirichlet(1) joint table over a small enumerable domain."""
    nx = int(rng.integers(nx_range[0], nx_range[1] + 1))
    if ys is None:
        ny = int(rng.integers(ny_range[0], ny_range[1] + 1))
        ys = list(range(ny))
    else:
        ys = list(ys)
        ny = len(ys)
    rho = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    # guard the positive-marginal convention
    rho += 1e-9
    rho /= rho.sum()
    return FiniteProblem(xs=list(range(nx)), ys=ys, rho=rho)


def structured_risk(p, loss, f):
    """E(f) = sum_{x,y} rho[x, y] * loss(f(x), y); f is indexed like p.xs."""
    if len(f) != len(p.xs):
        raise ValueError("f must assign an output to every x")
    return float((p.rho * losses.loss_table(loss, f, p.ys)).sum())


def bayes_optimal(p, loss):
    """Per-input argmin (lowest index) of the conditional risks
    P(y | x) @ table.T, from the problem's own loss table, and its risk."""
    risks = p.conditionals @ losses.loss_table(loss, p.ys, p.ys).T
    f = [p.ys[int(i)] for i in np.argmin(risks, axis=1)]
    return f, structured_risk(p, loss, f)


def _decode(p, loss, g):
    """d(g)(x) = argmin_y sum_j g[x, j] loss(y, p.ys[j]) at every x, by the
    library's finite decoder over the candidates p.ys."""
    best, _ = decoders.decode_exhaustive(p.ys, np.asarray(g, dtype=float).T, loss, p.ys)
    return [p.ys[int(i)] for i in best]


def check_comparison(p, loss, g):
    """Both sides of E(d.g) - E(f*) <= 2 c_delta sqrt(R(g) - R(g*)), where
    R(g) = sum_{x,y} rho[x, y] ||g(x) - e_y||^2 is the surrogate risk.
    `holds` allows the left side a rounding slack of 1e-9.  At g = g* (the
    table P(y | x)) the left side is the Fisher gap, which must be 0.

    The excess surrogate risk is taken from the identity R(g) - R(g*) =
    sum_x rho_X(x) ||g(x) - g*(x)||^2, not as a difference of two O(1)
    risks, which would cancel when g is close to g*.
    """
    g = np.asarray(g, dtype=float)
    diff = g - p.conditionals
    _, bayes = bayes_optimal(p, loss)
    lhs = structured_risk(p, loss, _decode(p, loss, g)) - bayes
    excess = float(p.marginal_x @ (diff * diff).sum(axis=1))
    rhs = 2.0 * losses.c_delta(loss, p.ys) * np.sqrt(excess)
    return {"lhs": lhs, "rhs": rhs, "excess": excess, "holds": bool(lhs <= rhs + 1e-9)}


# ---------------------------------------------------------------------------
# Classification equivalence: the least-squares classifier argmax_i ghat_i(x)
# equals the decoded predictor for the misclassification loss (V = ones - I),
# provided both break ties toward the lowest label index.

def sample_classification_dataset(rng, n, n_labels):
    """n points in the plane around n_labels N(0, 2^2 I) centres, unit noise."""
    centers = rng.normal(scale=2.0, size=(n_labels, 2))
    labels = rng.integers(0, n_labels, size=n)
    X = centers[labels] + rng.normal(size=(n, 2))
    return X, [int(t) for t in labels]


def check_ls_equivalence(X, Y, kernel, lam, X_test=None):
    """Exact agreement of argmax ghat, ghat = C^T k_x from the model's cached
    coefficients (the single-query route), and the classifier that
    `Exhaustive.decode` decodes from the batch weights (the `predict_batch`
    route)."""
    label_set = sorted(set(Y))
    loss = losses.ZeroOne(label_set)
    model = surrogate.fit(X, Y, kernel, lam)
    if X_test is None:
        X_test = model.X
    distinct, C = model.output_coefficients
    G = C.T @ kernels.cross_kernel_batch(model.kernel, model.X, X_test)
    G = G[[distinct.index(y) for y in label_set]]  # rows in label order: ties go low
    c_hat = [label_set[i] for i in np.argmax(G, axis=0)]
    A = surrogate.alpha_weights_batch(model, X_test)
    f_hat = decoders.Exhaustive(label_set).decode(A, model.Y, loss)
    mismatches = sum(c != f for c, f in zip(c_hat, f_hat))
    return {"checked": len(f_hat), "mismatches": mismatches, "ok": mismatches == 0}


# ---------------------------------------------------------------------------
# Consistency trend: with lambda_n = n^(-1/4), the fitted-and-decoded predictor
# should miss the Bayes predictor less often as n grows.

TREND_N_GRID = (25, 50, 100, 200, 400)
TREND_LEVEL = 1e-3  # the consistency battery passes at p <= TREND_LEVEL


def trend_p_value(counts, trials):
    """One-sided p-value of the Cochran-Armitage trend test (Armitage,
    Biometrics 11, 1955) for a fall of the rate counts[i] / trials along the
    scores t_i = log TREND_N_GRID[i].  With pbar the pooled rate,
    T = sum_i t_i (x_i - trials*pbar) has null variance
    pbar (1 - pbar) trials sum_i (t_i - tbar)^2, and p = Phi(T / sd).  Counts
    all 0 or all `trials` have no variance and show no trend: p = 1."""
    t = np.log(np.asarray(TREND_N_GRID, dtype=float))
    x = np.asarray(counts, dtype=float)
    pbar = x.sum() / (trials * x.size)
    var = pbar * (1.0 - pbar) * trials * float(((t - t.mean()) ** 2).sum())
    if var <= 0.0:
        return 1.0
    z = float(t @ (x - trials * pbar)) / math.sqrt(var)
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Check batteries used by the CLI; each returns (report, passed).

def rank_loss_table(items):
    """The ranking loss restricted to all permutations of `items` items,
    tabulated as a finite loss; the second argument's ratings are read off
    its ranks (rank 1 -> rating `items`)."""
    perms = np.array(list(itertools.permutations(range(1, items + 1))), dtype=np.int64)
    table = losses.rank_loss_matrix(perms, items + 1 - perms)
    return losses.FiniteTable([tuple(pm) for pm in perms.tolist()], table)


def random_table_loss(rng, labels):
    """Random non-negative loss table with zero diagonal."""
    t = rng.uniform(0.0, 1.0, size=(len(labels), len(labels)))
    np.fill_diagonal(t, 0.0)
    return losses.FiniteTable(labels, t)


def _loss_families(rng, family):
    """(problem, loss) draw for one trial of a check battery."""
    if family == "zero_one":
        p = random_problem(rng)
        return p, losses.ZeroOne(p.ys)
    if family == "table":
        p = random_problem(rng)
        return p, random_table_loss(rng, p.ys)
    if family == "rank_s3":
        loss = rank_loss_table(3)
        p = random_problem(rng, ys=loss.labels)
        return p, loss
    raise ValueError(f"unknown family {family!r}")


FISHER_FAMILIES = ("zero_one", "table", "rank_s3")


def fisher_battery(trials_per_family, seed=0):
    rng = np.random.default_rng(seed)
    gaps = []
    for family in FISHER_FAMILIES:
        for _ in range(trials_per_family):
            p, loss = _loss_families(rng, family)
            gaps.append(abs(check_comparison(p, loss, p.conditionals)["lhs"]))
    worst = float(max(gaps))
    return {"trials": len(gaps), "max_abs_gap": worst}, worst <= FISHER_TOL


def comparison_battery(trials, seed=0):
    """Random (problem, g) pairs; g mixes perturbations of g* and raw noise."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -np.inf
    for t in range(trials):
        family = ("zero_one", "table")[t % 2]
        p, loss = _loss_families(rng, family)
        gstar = p.conditionals
        if t % 3 == 0:
            g = rng.normal(size=gstar.shape)
        else:
            scale = 10.0 ** rng.uniform(-6, 1)
            g = gstar + scale * rng.normal(size=gstar.shape)
        rep = check_comparison(p, loss, g)
        worst = max(worst, rep["lhs"] - rep["rhs"])
        if not rep["holds"]:
            violations += 1
    return ({"trials": trials, "violations": violations, "worst_margin": float(worst)},
            violations == 0)


def equivalence_battery(trials, seed=0):
    """Random classification datasets of 5..50 points and 2..5 labels."""
    rng = np.random.default_rng(seed)
    total_checked = 0
    total_mismatch = 0
    for _ in range(trials):
        n = int(rng.integers(5, 51))
        n_labels = int(rng.integers(2, 6))
        X, Y = sample_classification_dataset(rng, n, n_labels)
        lam = 10.0 ** rng.uniform(-3, 0)
        sigma = 10.0 ** rng.uniform(-0.5, 1.0)
        X_test = np.vstack([X, rng.normal(scale=2.0, size=(20, X.shape[1]))])
        rep = check_ls_equivalence(X, Y, kernels.gaussian(sigma), lam, X_test)
        total_checked += rep["checked"]
        total_mismatch += rep["mismatches"]
    return ({"trials": trials, "checked": total_checked, "mismatches": total_mismatch},
            total_mismatch == 0)


def default_trend_problem():
    """3 x 3 misclassification problem with moderate conditional margins."""
    cond = np.array([
        [0.55, 0.30, 0.15],
        [0.20, 0.50, 0.30],
        [0.25, 0.30, 0.45],
    ])
    rho = cond / cond.shape[0]
    return FiniteProblem(xs=[0, 1, 2], ys=[0, 1, 2], rho=rho)


def consistency_battery(trials, seed=0):
    """Consistency on `default_trend_problem` under the misclassification
    loss.  At each n in TREND_N_GRID, `trials` samples are fitted with a
    Gaussian kernel of sigma 1 on the input indices at lambda_n = n^(-1/4)
    and decoded at every x; a fit whose excess risk exceeds FISHER_TOL is not
    Bayes-optimal.  Reports those counts per n and their `trend_p_value`;
    passes when p <= TREND_LEVEL."""
    p = default_trend_problem()
    loss = losses.ZeroOne(p.ys)
    _, bayes = bayes_optimal(p, loss)
    kernel = kernels.gaussian(1.0)
    x_embed = np.arange(len(p.xs), dtype=float)[:, None]
    weights = p.rho.ravel() / p.rho.sum()
    counts = []
    for n in TREND_N_GRID:
        count = 0
        for s in range(trials):
            rng = np.random.default_rng(seed + 1000 * s + n)
            ix, iy = np.unravel_index(rng.choice(weights.size, size=n, p=weights), p.rho.shape)
            model = surrogate.fit(x_embed[ix], [p.ys[j] for j in iy], kernel, float(n) ** -0.25)
            f = decoders.predict_batch(model, decoders.Exhaustive(p.ys), loss, x_embed)
            count += structured_risk(p, loss, f) - bayes > FISHER_TOL
        counts.append(count)
    p_value = trend_p_value(counts, trials)
    return ({"n_grid": list(TREND_N_GRID), "non_optimal": counts, "p_value": p_value},
            p_value <= TREND_LEVEL)

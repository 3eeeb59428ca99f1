"""Learning step: one ridge factorization, then per-query weights.

The system matrix is K + n*lambda*I exactly as written -- lambda multiplies n,
so values are not comparable with the K + lambda*I convention used elsewhere.

The factorization happens once at fit time and is reused (read-only) for every
query; TrainedSurrogate is immutable and safe to share across threads.

For a finite output set with canonical psi, ghat(x) = G^T alpha(x) =
C^T k_x with G the (n, U) one-hot matrix of the U distinct training outputs
and C = (K + n*lambda*I)^-1 G.  `TrainedSurrogate.output_coefficients` solves
for C once per model, on first use, and keeps it: a query then needs only
k_x and one (U, n) @ (n,) product, no solve.  The cache takes O(n*U) memory,
which U <= n keeps O(n^2).  It is a pure function of the frozen fields, so it
is thread-safe: two threads that race on first use at worst both compute the
same C, and every reader sees a complete value.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels, losses


@dataclass(frozen=True)
class TrainedSurrogate:
    X: np.ndarray
    Y: object  # opaque structured outputs, indexable, len n
    kernel: kernels.KernelSpec
    lam: float
    factor: kernels.SpdFactor

    @property
    def n(self):
        return self.factor.order

    @cached_property
    def output_coefficients(self):
        """(distinct, C): the U distinct training outputs
        (`losses.group_outputs`) and the (n, U) coefficients
        C = (K + n*lambda*I)^-1 G, so that ghat(x) = C^T k_x weighs
        distinct[u] by the summed alpha_i(x) of the outputs equal to it."""
        distinct, group = losses.group_outputs(self.Y)
        G = np.zeros((self.n, len(distinct)))
        G[np.arange(self.n), group] = 1.0
        return distinct, kernels.solve_spd(self.factor, G)


@dataclass(frozen=True)
class AlphaWeights:
    x: np.ndarray
    weights: np.ndarray


def fit(X, Y, kernel, lam):
    """Factor K + n*lambda*I for the training set; deterministic."""
    if lam <= 0 or not np.isfinite(lam):
        raise ValueError("lambda must be positive")
    X = kernels._as_input_matrix(X)
    n = X.shape[0]
    if len(Y) != n:
        raise ValueError(f"need |X| = |Y|, got {n} and {len(Y)}")
    factor = kernels.factor_shifted(kernels.gram_matrix(kernel, X), n * lam)
    return TrainedSurrogate(X=X, Y=Y, kernel=kernel, lam=float(lam), factor=factor)


def alpha_weights(model, x):
    """alpha(x) solving (K + n*lambda*I) alpha = K_x through the stored factor."""
    kx = kernels.cross_kernel(model.kernel, model.X, x)
    w = kernels.solve_spd(model.factor, kx)
    return AlphaWeights(x=np.asarray(x), weights=w)


def alpha_weights_batch(model, Xq):
    """(n, Q) weight matrix for a batch of Q queries; one triangular solve pair."""
    KX = kernels.cross_kernel_batch(model.kernel, model.X, Xq)
    return kernels.solve_spd(model.factor, KX)


def explicit_g_hat(A, Y, embedding):
    """(Q, |Y|) rows ghat(x_q) = sum_i A[i, q] psi(y_i) in canonical
    coordinates, for the (n, Q) weights A of Q queries."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != len(Y):
        raise ValueError("weights must be (n, Q)")
    G = np.zeros((len(embedding.labels), A.shape[1]))
    np.add.at(G, [embedding.index_of(y) for y in Y], A)
    return G.T


# ---------------------------------------------------------------------------
# Model blob: JSON with inputs, outputs, kernel spec and lambda.  The
# factorization is recomputed on load, which keeps the format portable.

FORMAT_NAME = "surrloss-model"
FORMAT_VERSION = 1

OUTPUT_KINDS = ("scalar", "label", "simplex", "ratings")


def kernel_to_json(spec):
    """The kernel as the model blob and the CLI's reports write it."""
    if spec.kind == "gaussian":
        return {"kind": "gaussian", "sigma": spec.sigma}
    return {"kind": spec.kind}


def _kernel_from_json(obj):
    if obj["kind"] == "gaussian":
        return kernels.gaussian(obj["sigma"])
    if obj["kind"] == "linear":
        return kernels.linear()
    raise ValueError(f"unknown kernel kind {obj['kind']!r}")


def _outputs_to_json(Y, output_kind):
    if output_kind == "label":
        return [y.item() if isinstance(y, np.generic) else y for y in Y]
    return np.asarray(Y, dtype=float).tolist()


def _outputs_from_json(values, output_kind):
    if output_kind == "label":
        return list(values)
    return np.asarray(values, dtype=float)


def save_model(model, path, output_kind):
    if output_kind not in OUTPUT_KINDS:
        raise ValueError(f"output_kind must be one of {OUTPUT_KINDS}")
    blob = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kernel": kernel_to_json(model.kernel),
        "lambda": model.lam,
        "x": model.X.tolist(),
        "y": {"kind": output_kind, "values": _outputs_to_json(model.Y, output_kind)},
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(blob))  # the C encoder; json.dump streams in Python


def load_model(path):
    """Returns (model, output_kind); refits the factorization."""
    with open(path, "r", encoding="utf-8") as f:
        blob = json.load(f)
    if blob.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} blob")
    if blob.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model version {blob.get('version')}")
    kernel = _kernel_from_json(blob["kernel"])
    X = np.asarray(blob["x"], dtype=float)
    kind = blob["y"]["kind"]
    Y = _outputs_from_json(blob["y"]["values"], kind)
    model = fit(X, Y, kernel, blob["lambda"])
    return model, kind

"""Learning step: one ridge factorization, then per-query weights.

The system matrix is K + n*lambda*I exactly as written -- lambda multiplies n,
so values are not comparable with the K + lambda*I convention used elsewhere.

A TrainedSurrogate holds the training inputs and outputs, the kernel and
lambda.  `factor`, the Cholesky factor of K + n*lambda*I, is built from them
on first use and reused (read-only) for every later query; `fit` builds it at
once, so a system that is not positive definite fails there.  A label model
loaded with trusted coefficients (see "Model blob" below) builds it only if
a route needs the weights alpha(x).

Every decode but a single Exhaustive query reads the (n, Q) weights of
`alpha_weights_batch`.  `alpha_weights`, the (n,) weights of one query, has
no caller in the library; the benchmark's stage map (`bench/stages.py`)
names it.

For a finite output set with canonical psi, ghat(x) = G^T alpha(x) =
C^T k_x with G the (n, U) one-hot matrix of the U distinct training outputs
and C = (K + n*lambda*I)^-1 G.  `TrainedSurrogate.output_coefficients` solves
for C once per model, on first use, and keeps it: a query then needs only
k_x and one (U, n) @ (n,) product, no solve.  This is the one ghat the
package computes (`oracle.check_ls_equivalence` checks it).  The cache takes
O(n*U) memory, which U <= n keeps O(n^2).

Both cached values are pure functions of the frozen fields, so the model is
thread-safe: two threads that race on first use at worst both compute the
same value, and every reader sees a complete one.
"""

import binascii
import json
import math
import zlib
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

    @property
    def n(self):
        return self.X.shape[0]

    @cached_property
    def factor(self):
        """The Cholesky factor of K + n*lambda*I (`kernels.factor_shifted`)."""
        return kernels.factor_shifted(kernels.gram_matrix(self.kernel, self.X),
                                      self.n * self.lam)

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


def check_outputs(Y, output_kind=None):
    """Y, or a ValueError naming a row no decoder can use: a non-finite number
    or, for output_kind "simplex", a histogram off the simplex."""
    if isinstance(Y, np.ndarray) and Y.dtype.kind == "f" and not np.isfinite(Y).all():
        row = int(np.argwhere(~np.isfinite(Y))[0, 0])
        raise ValueError(f"training output row {row} has non-finite entries")
    if output_kind == "simplex":
        losses._check_simplex_rows(Y, "training histograms")
    return Y


def _model(X, Y, kernel, lam, output_kind=None):
    """The unfactored model of checked fields: the one check `fit` and
    `load_model` share."""
    if lam <= 0 or not np.isfinite(lam):
        raise ValueError("lambda must be positive")
    X = kernels._as_input_matrix(X)
    if len(Y) != X.shape[0]:
        raise ValueError(f"need |X| = |Y|, got {X.shape[0]} and {len(Y)}")
    return TrainedSurrogate(X=X, Y=check_outputs(Y, output_kind), kernel=kernel,
                            lam=float(lam))


def fit(X, Y, kernel, lam):
    """Factor K + n*lambda*I for the training set; deterministic."""
    model = _model(X, Y, kernel, lam)
    model.factor  # factor now, so that a failing system fails here
    return model


def alpha_weights(model, x):
    """The (n,) weights alpha(x) solving (K + n*lambda*I) alpha = K_x through
    the stored factor."""
    factor = model.factor  # before k_x, as in alpha_weights_batch
    return kernels.solve_spd(factor, kernels.cross_kernel(model.kernel, model.X, x))


def alpha_weights_batch(model, Xq):
    """(n, Q) weight matrix for a batch of Q queries; one triangular solve pair.

    The factor is read first: on a model that has not built it yet, the
    Gram, its shifted copy and the factor, the peak of the call, are then
    allocated before the (n, Q) cross-kernel exists, not on top of it.
    """
    factor = model.factor
    KX = kernels.cross_kernel_batch(model.kernel, model.X, Xq)
    return kernels.solve_spd(factor, KX)


# ---------------------------------------------------------------------------
# Model blob, version 2: one JSON object with
#   "format", "version"  -- "surrloss-model", 2;
#   "kernel", "lambda"   -- the kernel spec (`kernel_to_json`) and lambda;
#   "x"                  -- the (n, d) inputs as a binary array;
#   "y"                  -- {"kind": output kind, "values": ...}: a JSON list
#                           for labels, a binary array for the numeric kinds;
# and, for labels only,
#   "coefficients"       -- C = (K + n*lambda*I)^-1 G, a binary (n, U) array
#                           (`TrainedSurrogate.output_coefficients`);
#   "checksum"           -- zlib.crc32 of the canonical JSON of kernel,
#                           lambda, x and y (`_checksum`).
# A binary array is {"shape": [...], "f8": base64 of its little-endian
# float64 bytes}, which round-trips bit for bit and parses in one call.
# A label model loads with C in its cache, so it predicts single queries with
# no Gram, factor or solve.  C is trusted only when the checksum matches and
# C is finite and (n, U); otherwise, and for every other kind, the model
# builds its factor on first use.  The checksum catches an edited or
# mismatched field; it is no protection against a crafted blob.  Version 1
# blobs (inputs and numeric outputs as nested lists, no coefficients) still
# load, and refit on first use.

FORMAT_NAME = "surrloss-model"
FORMAT_VERSION = 2

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


def _array_to_json(a):
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "f8": binascii.b2a_base64(a.tobytes(), newline=False).decode("ascii")}


def _array_from_json(obj, version):
    if version == 1:  # nested lists
        return np.asarray(obj, dtype=float)
    if not isinstance(obj["shape"], list):  # a string "23" would read as (2, 3)
        raise TypeError(f"shape {obj['shape']!r} is not a list")
    raw = binascii.a2b_base64(obj["f8"])
    shape = tuple(int(s) for s in obj["shape"])
    if 8 * math.prod(shape) != len(raw):
        raise ValueError(f"binary array of {len(raw)} bytes does not have shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _outputs_to_json(Y, output_kind):
    if output_kind == "label":
        return [y.item() if isinstance(y, np.generic) else y for y in Y]
    return _array_to_json(Y)


def _checksum(blob):
    """crc32 of the canonical JSON of the fields C is a function of."""
    fields = [blob["kernel"], blob["lambda"], blob["x"], blob["y"]]
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(text.encode("ascii"))


def save_model(model, path, output_kind):
    if output_kind not in OUTPUT_KINDS:
        raise ValueError(f"output_kind must be one of {OUTPUT_KINDS}")
    blob = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kernel": kernel_to_json(model.kernel),
        "lambda": model.lam,
        "x": _array_to_json(model.X),
        "y": {"kind": output_kind, "values": _outputs_to_json(model.Y, output_kind)},
    }
    if output_kind == "label":
        blob["coefficients"] = _array_to_json(model.output_coefficients[1])
        blob["checksum"] = _checksum(blob)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(blob))  # the C encoder; json.dump streams in Python


def _outputs_from_json(obj, version):
    """(output kind, Y) of the blob's "y" field."""
    kind, values = obj["kind"], obj["values"]
    if kind not in OUTPUT_KINDS:
        raise ValueError(f"unknown output kind {kind!r}")
    return kind, list(values) if kind == "label" else _array_from_json(values, version)


def _field(blob, name, parse):
    """parse(blob[name]); a missing or mistyped field is one ValueError naming it."""
    try:
        return parse(blob[name])
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"model blob field {name!r} is missing or malformed "
                         f"({type(e).__name__}: {e})") from e


def load_model(path):
    """Returns (model, output_kind).  A label model whose stored
    coefficients are trusted (see the blob comment above) starts with them
    cached; any other model builds its factor on first use.  Any fault of
    the blob is a ValueError."""
    with open(path, "r", encoding="utf-8") as f:
        blob = json.load(f)
    if not isinstance(blob, dict) or blob.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} blob")
    version = blob.get("version")
    if version not in (1, FORMAT_VERSION):
        raise ValueError(f"unsupported model version {version}")
    kernel = _field(blob, "kernel", _kernel_from_json)
    kind, Y = _field(blob, "y", lambda obj: _outputs_from_json(obj, version))
    X = _field(blob, "x", lambda obj: _array_from_json(obj, version))
    model = _model(X, Y, kernel, _field(blob, "lambda", float), kind)
    if (version == FORMAT_VERSION and kind == "label" and "coefficients" in blob
            and blob.get("checksum") == _checksum(blob)):
        distinct, _ = losses.group_outputs(Y)
        C = _field(blob, "coefficients", lambda obj: _array_from_json(obj, version))
        if C.shape == (model.n, len(distinct)) and np.all(np.isfinite(C)):
            model.__dict__["output_coefficients"] = (distinct, C)  # as the cache stores it
    return model, kind

"""Each decoder class states its own losses, outputs and decode: no code in
`src/surrloss` asks which decoder class it holds, except inside those classes
and `decoders.predict`'s single-query Exhaustive route."""

import ast
import os
import re

import numpy as np
import pytest

from surrloss import decoders, kernels, losses, model_selection, surrogate

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "surrloss")
DECODERS = {"Exhaustive", "RankingFas", "ScalarGrid", "SimplexHellinger"}


def _class_names(node):
    """The names a class argument of isinstance() gives: X, mod.X or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _class_names(elt)}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def decoder_isinstance_tests(source, path):
    """(path, enclosing definitions, decoder classes) of each isinstance() test
    of a decoder class in `source`, outside the bodies of those classes."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.ClassDef) and node.name in DECODERS:
            return
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            names = _class_names(node.args[1]) & DECODERS
            if names:
                found.append((path, ".".join(scope), tuple(sorted(names))))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_no_code_outside_the_decoder_classes_asks_for_a_decoder_class():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as f:
                found += decoder_isinstance_tests(f.read(), name)
    # item 2 of the ROADMAP deletes this last route
    assert found == [("decoders.py", "predict", ("Exhaustive",))]


def test_the_scan_sees_every_form_of_a_class_test():
    source = '''
class ScalarGrid:
    def check(self, d):
        return isinstance(d, ScalarGrid)

def route(d):
    if isinstance(d, (decoders.RankingFas, int)):
        return isinstance(d, SimplexHellinger)
    return isinstance(d, int)

class Other:
    def method(self, d):
        return isinstance(d, Exhaustive)
'''
    assert decoder_isinstance_tests(source, "m.py") == [
        ("m.py", "route", ("RankingFas",)),
        ("m.py", "route", ("SimplexHellinger",)),
        ("m.py", "Other.method", ("Exhaustive",)),
    ]


_RNG = np.random.default_rng(23)
_X = _RNG.normal(size=(8, 2))
_RATINGS = _RNG.integers(1, 6, size=(8, 3)).astype(float)
_HISTOGRAMS = _RNG.dirichlet(np.ones(3), size=8)
_NEGATIVE = _HISTOGRAMS - 0.5  # every row, so every fold's training set starts with one
_TARGETS = _RNG.uniform(-2.5, 2.5, size=8)
# (decoder, decode loss, training outputs, the message every route rejects them with);
# None: every route decodes them
REJECTIONS = {
    "ranking-squared": (decoders.RankingFas(items=3), losses.SquaredError(), _RATINGS,
                        "the ranking decoder minimises RankLoss(normalize=False), "
                        "not SquaredError"),
    "ranking-normalized": (decoders.RankingFas(items=3), losses.RankLoss(normalize=True),
                           _RATINGS, "the ranking decoder minimises "
                                     "RankLoss(normalize=False), not RankLoss"),
    "ranking-items": (decoders.RankingFas(items=4), losses.RankLoss(), _RATINGS,
                      "ranking decoder needs (T, 4) rating profiles"),
    "scalar-zero-one": (decoders.ScalarGrid(), losses.ZeroOne(), _TARGETS,
                        "the scalar decoder minimises Cauchy, SquaredError or "
                        "AbsoluteError, not ZeroOne"),
    "scalar-hellinger": (decoders.ScalarGrid(), losses.SquaredHellinger(), _TARGETS,
                         "the scalar decoder minimises Cauchy, SquaredError or "
                         "AbsoluteError, not SquaredHellinger"),
    "scalar-2d": (decoders.ScalarGrid(), losses.Cauchy(1.0), _RATINGS,
                  "scalar decoder needs scalar training outputs"),
    # not flattened to (n,) on any route; `test_decoders.py` sends the (1, n)
    # row, one training output, through the decode function, `decode` and
    # `predict_batch`
    "scalar-column": (decoders.ScalarGrid(), losses.Cauchy(1.0), _TARGETS[:, None],
                      "scalar decoder needs scalar training outputs"),
    "simplex-squared": (decoders.SimplexHellinger(), losses.SquaredError(), _HISTOGRAMS,
                        "the simplex decoder minimises SquaredHellinger, not SquaredError"),
    "simplex-absolute": (decoders.SimplexHellinger(), losses.AbsoluteError(), _HISTOGRAMS,
                         "the simplex decoder minimises SquaredHellinger, not AbsoluteError"),
    "simplex-1d": (decoders.SimplexHellinger(), losses.SquaredHellinger(), _TARGETS,
                   "training outputs must be a non-empty (n, d) array"),
    "simplex-negative": (decoders.SimplexHellinger(), losses.SquaredHellinger(), _NEGATIVE,
                         "training outputs row 0 has negative entries"),
    "exhaustive-unknown-label": (decoders.Exhaustive(["a", "b"]), losses.ZeroOne(["a", "b"]),
                                 ["a", "c", "b", "c", "a", "c", "b", "c"],
                                 "unknown label 'c'"),
    # the decoder checks the targets' shape only: the CLI refuses targets beyond
    # --bound, and the robust experiment trains on them
    "scalar-beyond-bound": (decoders.ScalarGrid(bound=1.0), losses.Cauchy(1.0), _TARGETS, None),
}
ROUTES = {
    "decode": lambda decoder, loss, Y: decoder.decode(
        np.full((len(Y), 3), 1.0 / len(Y)), Y, loss),
    "predict": lambda decoder, loss, Y: decoders.predict(
        surrogate.fit(_X, Y, kernels.gaussian(1.0), 0.1), decoder, loss, _X[0]),
    "predict_batch": lambda decoder, loss, Y: decoders.predict_batch(
        surrogate.fit(_X, Y, kernels.gaussian(1.0), 0.1), decoder, loss, _X[:3]),
    "cross_validate": lambda decoder, loss, Y: model_selection.cross_validate(
        _X, Y, (kernels.gaussian(1.0),), (0.1,), 2, 0, decoder, loss, loss),
}


@pytest.mark.parametrize("route", list(ROUTES))
@pytest.mark.parametrize("case", list(REJECTIONS))
def test_every_route_rejects_what_the_decoder_does_not_accept(case, route):
    decoder, loss, Y, message = REJECTIONS[case]
    if message is None:
        out = ROUTES[route](decoder, loss, Y)
        if route != "cross_validate":
            assert np.all(np.abs(out) <= decoder.bound)
        return
    with pytest.raises((ValueError, RuntimeError), match=re.escape(message)):
        ROUTES[route](decoder, loss, Y)


# (decoder, decode loss, training outputs) of each decoder that checks its outputs
CHECKED = {
    "ranking": (decoders.RankingFas(items=3), losses.RankLoss(), _RATINGS),
    "scalar": (decoders.ScalarGrid(), losses.Cauchy(1.0), _TARGETS),
    "simplex": (decoders.SimplexHellinger(), losses.SquaredHellinger(), _HISTOGRAMS),
}


@pytest.mark.parametrize("case", list(CHECKED))
def test_each_decode_checks_its_training_outputs_once(case, monkeypatch):
    # no simplex column here lacks positive mass: the single-query decode of
    # such a column checks the outputs once more
    decoder, loss, Y = CHECKED[case]
    real = type(decoder).check_outputs
    checked = []

    def counted(self, outputs):
        checked.append(len(outputs))
        return real(self, outputs)

    monkeypatch.setattr(type(decoder), "check_outputs", counted)
    decoder.decode(np.full((8, 3), 1.0 / 8), Y, loss)
    assert checked == [8]
    del checked[:]
    decoders.predict_batch(surrogate.fit(_X, Y, kernels.gaussian(1.0), 0.1), decoder, loss,
                           _X[:3])
    assert checked == [8]
    del checked[:]
    model_selection.cross_validate(_X, Y, (kernels.gaussian(1.0),), (0.1,), 2, 0, decoder,
                                   loss, loss)
    assert checked == [8 - va.size for va in model_selection.kfold_split(8, 2, 0)]

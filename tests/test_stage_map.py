"""The benchmark's stage map reads the arguments its observers need by
position or name (`stages._arg`), so each must still sit where it reads it.

`stages.resolve()` checks only that every target exists; a refactor that
moved a parameter would make an observer read another argument, or none,
and report a wrong or zero per-layer metric.  The workloads' output checks
(bench/workloads.py) likewise read the decoder of `decoders.predict_batch`
by position and need the experiments to call the functions they wrap.
bench/stages.py and bench/workloads.py are imported read-only, as
tests/test_reference.py imports the harness.
"""

import ast
import inspect
import os
import sys

import pytest

from surrloss import decoders, experiments

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)

import stages  # noqa: E402
import workloads  # noqa: E402


def _arg_reads(fn):
    """(pos, name, suffix) of every `_arg(args, kwargs, pos, name)` call in
    the observer `fn`; suffix is the target suffix of an enclosing
    `if target.endswith(suffix)`, else ""."""
    reads = []

    def visit(node, suffix):
        if isinstance(node, ast.If):
            test = node.test
            if (isinstance(test, ast.Call) and isinstance(test.func, ast.Attribute)
                    and test.func.attr == "endswith"
                    and isinstance(test.func.value, ast.Name) and test.func.value.id == "target"):
                for child in node.body:
                    visit(child, test.args[0].value)
                for child in node.orelse:
                    visit(child, suffix)
                return
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg":
            reads.append((node.args[2].value, node.args[3].value, suffix))
        for child in ast.iter_child_nodes(node):
            visit(child, suffix)

    visit(fn, "")
    return reads


def test_each_observer_reads_its_arguments_where_the_target_takes_them():
    tree = ast.parse(inspect.getsource(stages))
    observers = {fn.name: _arg_reads(fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    checked, wrong = set(), []
    for stage, targets in stages.resolve():
        if stage.observe is None:
            continue
        for pos, name, suffix in observers[stage.observe.__name__]:
            for target in targets:
                if not target.name.endswith(suffix):
                    continue
                params = list(inspect.signature(target.func).parameters)
                if pos >= len(params) or params[pos] != name:
                    wrong.append(f"{target.name}: parameter {pos} is not {name!r} ({params})")
                checked.add((target.name, pos, name))
    assert wrong == []
    # the scan finds every read the stage map makes today
    assert checked >= {
        ("decoders.decode_exhaustive", 0, "candidates"),
        ("decoders.decode_exhaustive", 3, "y_train"),
        ("decoders.decode_scalar_grid_batch", 3, "spec"),
        ("decoders._objective_batch", 0, "points"),
        ("kernels.solve_spd", 0, "factor"),
        ("experiments._robust_cv", 2, "sigmas"),
        ("experiments._robust_cv", 3, "lambdas"),
        ("experiments._robust_cv", 4, "gammas"),
        ("experiments._histogram_cv", 2, "sigmas"),
        ("experiments._histogram_cv", 3, "lambdas"),
    }


def test_predict_batch_takes_the_decoder_second():
    # the ranking output check (`workloads._check_rankings`) reads the decoder as
    # args[1]; read from anywhere else it sees no RankingFas and checks nothing
    assert list(inspect.signature(decoders.predict_batch).parameters)[1] == "decoder"


@pytest.mark.parametrize("workload, run, attr, decoder", [
    (workloads.RankingCv, experiments.run_ranking_experiment, "predict_batch",
     decoders.RankingFas),
    (workloads.HistogramCv, experiments.run_histogram_experiment,
     "decode_simplex_hellinger_batch", None),
], ids=["ranking", "histogram"])
def test_the_experiment_calls_what_its_output_check_wraps(monkeypatch, workload, run, attr,
                                                          decoder):
    # the output checks wrap a module attribute of `decoders` and require one
    # checked call (`OutputCheck.require_clean`), so the experiment must call it
    # through the module
    calls, fn = [], getattr(decoders, attr)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(decoders, attr, wrapper)
    run(**workload.sizes["tiny"], repetitions=1, seed0=0)
    assert calls
    if decoder is not None:
        assert any(isinstance(args[1], decoder) for args in calls)

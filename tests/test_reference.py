"""Full-size benchmark sessions reproduce the task losses recorded in
bench/reference.json.

The benchmark checks its recorded reference only when it runs; here the
bench's own workloads, reference table and comparison (`harness.check_losses`,
at `harness.REFERENCE_RTOL`) are imported read-only, so a change that moves a
result fails tier-1 first.  Each session writes only under its tmp_path.
"""

import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_a_full_size_session_reproduces_the_recorded_reference(tmp_path, name, seed):
    expected = reference.load(BENCH_DIR)[name][str(seed)]
    wl = workloads.make(name, seed, str(tmp_path / name))
    wl.prepare()
    tally = workloads.Tally()
    out = wl.session(tally)
    assert tally.failed == 0, tally.errors
    attempted, failed, errors = harness.check_losses([{"out": out}], expected)
    assert (attempted, failed) == (1, 0), errors

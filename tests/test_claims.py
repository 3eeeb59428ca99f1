"""The reproduction's claims: on every experiment, SELF beats its baseline.

bench/reference.json records each experiment workload's SELF loss
(`task_loss`) and baseline loss (`baseline_loss`) per seed.  Each
experiment's win count must pass a one-sided sign test at SIGN_TEST_LEVEL:
under the null that SELF and the baseline are equally likely to win a seed,
the count of SELF wins is Binomial(m, 1/2) over the m untied seeds.  The
reference is read, never written, so these tests can only fail on a change
that records it again.
"""

import json
import math
import os

import pytest

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench", "reference.json")
SIGN_TEST_LEVEL = 0.05
EXPERIMENTS = ("robust-cv", "ranking-cv", "histogram-cv")


def _reference():
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)


def sign_test_p(wins, trials):
    """One-sided sign-test p-value: P(W >= wins) for W ~ Binomial(trials, 1/2)."""
    return sum(math.comb(trials, k) for k in range(wins, trials + 1)) / 2 ** trials


def test_sign_test_p_values():
    assert sign_test_p(32, 32) == 2.0 ** -32
    assert sign_test_p(0, 32) == 1.0
    assert sign_test_p(31, 32) == 33 / 2 ** 32
    assert sign_test_p(5, 10) == pytest.approx(0.623046875, rel=1e-15)
    # the reference's robust-cv count sits near the level
    assert 0.010 < sign_test_p(23, 32) < 0.0101


def test_every_experiment_with_a_baseline_is_claimed():
    with_baseline = {name for name, seeds in _reference().items()
                     if all("baseline_loss" in r for r in seeds.values())}
    assert with_baseline == set(EXPERIMENTS)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_self_beats_its_baseline_by_a_one_sided_sign_test(name):
    seeds = list(_reference()[name].values())
    untied = [r for r in seeds if r["task_loss"] != r["baseline_loss"]]
    wins = sum(r["task_loss"] < r["baseline_loss"] for r in untied)
    assert len(seeds) >= 10
    assert sign_test_p(wins, len(untied)) <= SIGN_TEST_LEVEL, (name, wins, len(untied))

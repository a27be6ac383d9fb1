"""Ville answers from the certification walk when the walk decides it, and draws nothing then.

``ville_check`` marks the pairs of the certification walk that hold a
capital >= C.  If none does, no sample can reach C, and a start capital >= C
reaches it at the root; either way ``ville_check`` seeds no generator.  Every
other check samples as before, such as one whose only capital >= C lies past
a pair of capital 0.  A sample draws one variate per pair it passes, down to
its first marked pair, so never past the deepest depth that holds an
unmarked pair: a prefix of the N variates it would draw.
``certify_strategy`` returns a plain (ok, violations) tuple.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_calibration_fold import PROPERTY
from test_level_walk import reference_certify
from test_sampling import reference_frequency
from test_ville_walk import (STARTS, Phoenix, assert_doubling_hits_draw_k_variates,
                             assert_each_sample_draws_to_its_first_mark, logged_generators, systems, tabled_system)

from preqprob import strategies as strategies_module
from preqprob.core import ForecastingSystem, all_histories_below, history_at
from preqprob.strategies import CalibrationStrategy, DoublingStrategy, certify_strategy, ville_check

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


@pytest.fixture()
def draws(monkeypatch):
    """The generators ``ville_check`` seeds, as (seed, variates drawn), and its ``sample_outcomes`` and
    ``induced_path`` calls."""
    calls = {"generators": logged_generators(monkeypatch), "sample_outcomes": [], "induced_path": []}
    for name in ("sample_outcomes", "induced_path"):
        real = getattr(strategies_module, name)

        def logging(*args, real=real, name=name):
            calls[name].append(args[1:])
            return real(*args)

        monkeypatch.setattr(strategies_module, name, logging)
    return calls


NOTHING_DRAWN = {"generators": [], "sample_outcomes": [], "induced_path": []}


@pytest.mark.parametrize(
    "phi",
    [ForecastingSystem.constant(HALF, 6), tabled_system(5, 6, False), tabled_system(8, 5, True)],
    ids=["constant", "tabled", "tabled-spine"],
)
def test_no_certified_pair_reaching_c_draws_nothing(draws, phi):
    """Calibration capital stays far below C = 4 at N <= 6, so the frequency is 0.0 with no draw."""
    start = CalibrationStrategy(phi.horizon, ONE)
    threshold = Fraction(4)
    assert brute_force_largest_capital(start, phi) < threshold
    result = ville_check(phi, lambda: start, threshold, 5000, seed=17)
    assert result.frequency == 0.0
    assert draws == NOTHING_DRAWN
    assert result.frequency == reference_frequency(phi, start, threshold, 50, 17)


@pytest.mark.parametrize("threshold", [Fraction(1, 3), ONE], ids=["below", "at"])
def test_start_capital_at_c_draws_nothing(draws, threshold):
    """Every sample has reached C at the root: the frequency is 1.0 with no draw."""
    phi = ForecastingSystem.constant(HALF, 6)
    result = ville_check(phi, DoublingStrategy, threshold, 5000, seed=3)
    assert result.frequency == 1.0
    assert draws == NOTHING_DRAWN
    assert result.frequency == reference_frequency(phi, DoublingStrategy(), threshold, 50, 3)


@pytest.mark.parametrize("degenerate", [ZERO, ONE], ids=["p=0", "p=1"])
def test_capital_past_a_capital_0_pair_still_samples(draws, degenerate):
    """The spine of Phoenix peaks at 16 < 32, but a capital-0 pair's free child holds 64: every seed is drawn."""
    horizon, samples, seed = 4, 400, 7
    table = {h: HALF if all(h) else degenerate for h in all_histories_below(horizon)}
    phi = ForecastingSystem.from_table(table, horizon)
    threshold = Fraction(32)
    assert brute_force_largest_capital(Phoenix(), phi) == 64
    result = ville_check(phi, Phoenix, threshold, samples, seed)
    assert draws["sample_outcomes"] == draws["induced_path"] == []
    assert_each_sample_draws_to_its_first_mark(draws["generators"], phi, Phoenix(), threshold, samples, seed)
    assert result.frequency == reference_frequency(phi, Phoenix(), threshold, samples, seed)


@pytest.mark.parametrize("threshold, depth", [(2, 1), (4, 2), (8, 3), (256, 8)])
def test_doubling_draws_down_to_its_deepest_unmarked_pair(draws, threshold, depth):
    """Doubling at C = 2^k marks every pair of depth k, so a sample draws at most k variates, exactly k when it
    hits, and at most N = 8."""
    phi, samples, seed = ForecastingSystem.constant(HALF, 8), 100, 11
    result = ville_check(phi, DoublingStrategy, threshold, samples, seed)
    assert draws["sample_outcomes"] == draws["induced_path"] == []
    assert_each_sample_draws_to_its_first_mark(draws["generators"], phi, DoublingStrategy(), threshold, samples, seed)
    assert_doubling_hits_draw_k_variates(draws["generators"], depth, result, samples)
    assert result.frequency == reference_frequency(phi, DoublingStrategy(), threshold, samples, seed)


def brute_force_largest_capital(start, phi):
    """The largest capital over every history of length 0 .. N, each stepped from the root."""
    capitals = []
    for k in range(2 ** (phi.horizon + 1) - 1):
        history, strategy = history_at(k), start
        for i, y in enumerate(history):
            strategy = strategy.step(phi.forecast(history[:i]), y)
        capitals.append(strategy.capital)
    return max(capitals)


@PROPERTY
@given(systems, st.sampled_from(sorted([*STARTS, "phoenix"])))
def test_certify_strategy_returns_the_reference_pair_as_a_plain_tuple(phi, name):
    start = Phoenix() if name == "phoenix" else STARTS[name](phi.horizon)
    certificate = certify_strategy(lambda: start, phi)
    expected = reference_certify(lambda: start, phi)
    assert certificate == expected
    assert type(certificate) is tuple and len(certificate) == 2
    ok, violations = certificate
    assert (ok, violations) == expected
    assert type(ok) is bool

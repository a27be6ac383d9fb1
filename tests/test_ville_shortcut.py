"""Ville answers from the certification walk when the walk decides it, and draws nothing then.

``certify_strategy`` returns a ``Certificate``: its (ok, violations) pair,
carrying the largest capital of any pair it walked.  If that capital is below
C, no sample can reach C, and a start capital >= C reaches it at the root;
either way ``ville_check`` seeds no generator.  Every other check samples as
before, such as one whose only capital >= C lies past a node of capital 0.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_calibration_fold import PROPERTY
from test_level_walk import reference_certify
from test_sampling import reference_frequency
from test_ville_walk import STARTS, Phoenix, systems, tabled_system

from preqprob import strategies as strategies_module
from preqprob.core import ForecastingSystem, all_histories_below, history_at
from preqprob.strategies import CalibrationStrategy, DoublingStrategy, certify_strategy, ville_check

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


@pytest.fixture()
def draws(monkeypatch):
    """The seeds ``ville_check`` hands ``sample_outcomes``, and the histories it hands ``induced_path``."""
    calls = {"sample_outcomes": [], "induced_path": []}
    real_sample, real_path = strategies_module.sample_outcomes, strategies_module.induced_path

    def sampling(phi, n, seed):
        calls["sample_outcomes"].append(seed)
        return real_sample(phi, n, seed)

    def inducing(phi, omega):
        calls["induced_path"].append(omega)
        return real_path(phi, omega)

    monkeypatch.setattr(strategies_module, "sample_outcomes", sampling)
    monkeypatch.setattr(strategies_module, "induced_path", inducing)
    return calls


@pytest.mark.parametrize(
    "phi",
    [ForecastingSystem.constant(HALF, 6), tabled_system(5, 6, False), tabled_system(8, 5, True)],
    ids=["constant", "tabled", "tabled-spine"],
)
def test_no_certified_pair_reaching_c_draws_nothing(draws, phi):
    """Calibration capital stays far below C = 4 at N <= 6, so the frequency is 0.0 with no draw."""
    start = CalibrationStrategy(phi.horizon, ONE)
    threshold = Fraction(4)
    assert certify_strategy(lambda: start, phi).largest_capital < threshold
    result = ville_check(phi, lambda: start, threshold, 5000, seed=17)
    assert result.frequency == 0.0
    assert draws == {"sample_outcomes": [], "induced_path": []}
    assert result.frequency == reference_frequency(phi, start, threshold, 50, 17)


@pytest.mark.parametrize("threshold", [Fraction(1, 3), ONE], ids=["below", "at"])
def test_start_capital_at_c_draws_nothing(draws, threshold):
    """Every sample has reached C at the root: the frequency is 1.0 with no draw."""
    phi = ForecastingSystem.constant(HALF, 6)
    result = ville_check(phi, DoublingStrategy, threshold, 5000, seed=3)
    assert result.frequency == 1.0
    assert draws == {"sample_outcomes": [], "induced_path": []}
    assert result.frequency == reference_frequency(phi, DoublingStrategy(), threshold, 50, 3)


@pytest.mark.parametrize("degenerate", [ZERO, ONE], ids=["p=0", "p=1"])
def test_capital_past_a_capital_0_pair_still_samples(draws, degenerate):
    """The spine of Phoenix peaks at 16 < 32, but a capital-0 pair's free child holds 64: every seed is drawn."""
    horizon, samples, seed = 4, 400, 7
    table = {h: HALF if all(h) else degenerate for h in all_histories_below(horizon)}
    phi = ForecastingSystem.from_table(table, horizon)
    threshold = Fraction(32)
    assert certify_strategy(Phoenix, phi).largest_capital == 64
    result = ville_check(phi, Phoenix, threshold, samples, seed)
    assert draws["sample_outcomes"] == list(range(seed, seed + samples))
    assert result.frequency == reference_frequency(phi, Phoenix(), threshold, samples, seed)


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
def test_certificate_is_the_old_pair_carrying_the_largest_capital(phi, name):
    start = Phoenix() if name == "phoenix" else STARTS[name](phi.horizon)
    certificate = certify_strategy(lambda: start, phi)
    expected = reference_certify(lambda: start, phi)
    assert certificate == expected
    assert tuple(certificate) == expected and len(certificate) == 2
    ok, violations = certificate
    assert (ok, violations) == expected
    assert type(ok) is bool
    assert certificate.largest_capital == brute_force_largest_capital(start, phi)
    for again in (copy.copy(certificate), copy.deepcopy(certificate), pickle.loads(pickle.dumps(certificate))):
        assert type(again) is type(certificate) and again == certificate
        assert again.largest_capital == certificate.largest_capital

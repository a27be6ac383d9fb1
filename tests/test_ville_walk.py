"""The Ville walk: forecasts only for nodes no earlier sample stepped, and a stop at capital 0.

``ville_check``'s frequency must equal the one got by stepping every sample
from the root (``reference_frequency``), whatever the system, strategy and
threshold; the probes count how often it asks the system for forecasts.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_calibration_fold import PROPERTY
from test_sampling import reference_frequency

from preqprob import strategies as strategies_module
from preqprob.core import ForecastingSystem, all_histories_below
from preqprob.randgen import random_rational
from preqprob.strategies import (
    CalibrationStrategy,
    CertificationError,
    ConstantStrategy,
    DoublingStrategy,
    certify_strategy,
    ville_check,
)

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)

STARTS = {
    "constant": lambda horizon: ConstantStrategy(),
    "doubling": lambda horizon: DoublingStrategy(),
    "calibration": lambda horizon: CalibrationStrategy(horizon, ONE),
}


def tabled_system(seed: int, horizon: int, half_spine: bool) -> ForecastingSystem:
    """A ``randgen`` table of forecasts, optionally 1/2 along the all-ones histories.

    Doubling keeps capital only along the all-ones histories, so with a 1/2
    spine it certifies whatever the rest of the table holds.
    """
    rng = random.Random(seed)
    table = {h: random_rational(rng) for h in all_histories_below(horizon)}
    if half_spine:
        for depth in range(horizon):
            table[(1,) * depth] = HALF
    return ForecastingSystem.from_table(table, horizon)


systems = st.one_of(
    st.integers(1, 6).map(lambda horizon: ForecastingSystem.constant(HALF, horizon)),
    st.builds(tabled_system, st.integers(0, 10**6), st.integers(1, 6), st.booleans()),
)
# Threshold over start capital: below and at the start, reachable, and beyond any capital.
factors = st.sampled_from(
    [Fraction(1, 3), ONE, Fraction(3, 2), Fraction(2), Fraction(4), Fraction(2**7), Fraction(10**9)]
)


@PROPERTY
@given(systems, st.sampled_from(sorted(STARTS)), factors, st.integers(1, 60), st.integers(0, 10**6))
def test_frequency_matches_stepping_every_sample_from_the_root(phi, name, factor, samples, seed):
    start = STARTS[name](phi.horizon)
    threshold = start.capital * factor
    if not certify_strategy(lambda: start, phi)[0]:
        with pytest.raises(CertificationError):
            ville_check(phi, lambda: start, threshold, samples, seed)
        return
    result = ville_check(phi, lambda: start, threshold, samples, seed)
    assert result.frequency == reference_frequency(phi, start, threshold, samples, seed)


@pytest.fixture()
def induced_paths(monkeypatch):
    """The calls ``ville_check`` makes to ``induced_path``."""
    calls = []
    real = strategies_module.induced_path

    def counting(phi, omega):
        calls.append(omega)
        return real(phi, omega)

    monkeypatch.setattr(strategies_module, "induced_path", counting)
    return calls


def test_doubling_asks_for_forecasts_at_most_twice_per_step(induced_paths):
    """Capital 0 ends a sample, so only the all-ones spine and its 0 children are ever new nodes."""
    steps = []

    @dataclass(frozen=True)
    class CountingDoubling:
        capital: Fraction = ONE

        def step(self, p, y):
            steps.append((p, y))
            return CountingDoubling(2 * self.capital if y == 1 else ZERO)

    horizon = 6
    phi = ForecastingSystem.constant(HALF, horizon)
    assert certify_strategy(CountingDoubling, phi)[0]
    certifying = len(steps)
    steps.clear()
    result = ville_check(phi, CountingDoubling, 2 ** (horizon + 1), 3000, seed=0)
    assert result.frequency == 0.0
    assert len(induced_paths) <= 2 * horizon
    assert len(steps) - certifying <= 2 * horizon
    # No two calls are for one history: a call only comes with a node no earlier sample stepped.
    assert len(set(induced_paths)) == len(induced_paths)


def test_a_sample_through_kept_nodes_asks_for_no_forecasts(induced_paths):
    """Once every node is kept, further samples walk the dict alone."""
    phi = ForecastingSystem.constant(HALF, 3)
    start = CalibrationStrategy(3, ONE)
    ville_check(phi, lambda: start, 10**9, 500, seed=0)
    assert len(induced_paths) <= 2**3


@dataclass(frozen=True)
class Phoenix:
    """Certified, yet rises from capital 0 on an outcome that a forecast of 0 or 1 rules out.

    With capital it doubles at p = 1/2 and holds at any other p.  At capital
    0 the identity 0 = (1 - p) c0 + p c1 leaves c1 free at p = 0 and c0 free
    at p = 1; Phoenix sets that free child to 64.
    """

    capital: Fraction = ONE

    def step(self, p, y):
        if self.capital:
            if p != HALF:
                return self
            return Phoenix(2 * self.capital if y == 1 else ZERO)
        return Phoenix(Fraction(64) if (p, y) in ((ZERO, 1), (ONE, 0)) else ZERO)


@pytest.mark.parametrize("degenerate", [ZERO, ONE], ids=["p=0", "p=1"])
def test_capital_0_ends_a_sample_when_a_forecast_rules_out_the_rise(degenerate):
    """After the first outcome 0 the system forecasts ``degenerate``: the sampler never draws the rising bit."""
    horizon = 4
    table = {h: HALF if all(h) else degenerate for h in all_histories_below(horizon)}
    phi = ForecastingSystem.from_table(table, horizon)
    assert certify_strategy(Phoenix, phi)[0]
    for threshold in (Fraction(2), Fraction(32)):
        result = ville_check(phi, Phoenix, threshold, 400, seed=7)
        assert result.frequency == reference_frequency(phi, Phoenix(), threshold, 400, 7)

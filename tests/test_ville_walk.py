"""The Ville walk: samples follow the certification walk's links, and stop at capital 0.

``ville_check``'s frequency must equal the one got by stepping every sample
from the root (``reference_frequency``), whatever the system, strategy and
threshold: constant systems at every ``CUT_FORECASTS`` value, 0 and 1 among
them, tabled systems and the committed edge-forecast system.  The probes
count the strategy steps and the ``induced_path`` and ``sample_outcomes``
calls of a check, and log the generators it seeds and the variates each
draws: once the strategy is certified, its samples step no strategy value,
induce no path and call no sampler; sample i seeds seed + i and draws one
variate per pair it passes, up to its first pair of capital >= C or 0.
"""

import collections
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_calibration_fold import PROPERTY
from test_sampling import CUT_FORECASTS, reference_frequency

from preqprob import strategies as strategies_module
from preqprob.core import ForecastingSystem, all_histories_below, induced_path, sample_outcomes
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


EDGE = ForecastingSystem.from_json((Path(__file__).parent / "data" / "edge_forecasts_phi.json").read_text())
systems = st.one_of(
    st.builds(ForecastingSystem.constant, st.sampled_from(CUT_FORECASTS), st.integers(1, 6)),
    st.builds(tabled_system, st.integers(0, 10**6), st.integers(1, 6), st.booleans()),
    st.just(EDGE),
)
# Threshold over start capital: below and at the start, reachable, and beyond any capital.
factors = st.sampled_from(
    [Fraction(1, 3), ONE, Fraction(3, 2), Fraction(2), Fraction(4), Fraction(2**7), Fraction(10**9)]
)


@settings(PROPERTY, max_examples=120)
@given(systems, st.sampled_from(sorted([*STARTS, "phoenix"])), factors, st.integers(1, 60),
       st.one_of(st.integers(0, 10**6), st.integers(2**32, 2**32 + 100)))
def test_frequency_matches_stepping_every_sample_from_the_root(phi, name, factor, samples, seed):
    start = Phoenix() if name == "phoenix" else STARTS[name](phi.horizon)
    threshold = start.capital * factor
    if not certify_strategy(lambda: start, phi)[0]:
        with pytest.raises(CertificationError):
            ville_check(phi, lambda: start, threshold, samples, seed)
        return
    result = ville_check(phi, lambda: start, threshold, samples, seed)
    assert result.frequency == reference_frequency(phi, start, threshold, samples, seed)


def logged_generators(patch):
    """(seed, variates drawn) per generator ``ville_check`` seeds, logged by a stand-in for ``_MersenneTwister``."""
    log, real = [], strategies_module._MersenneTwister

    class Logged:
        def __init__(self, seed):
            self.variates, self.draw = [], real(seed).random
            log.append((seed, self.variates))

        def random(self):
            self.variates.append(self.draw())
            return self.variates[-1]

    patch.setattr(strategies_module, "_MersenneTwister", Logged)
    return log


def counted_calls(strategy_class, run):
    """``run()``'s result, a count of its ``strategy_class.step``, ``induced_path`` and ``sample_outcomes`` calls,
    and its generators' log."""
    calls = collections.Counter()
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in ((strategy_class, "step"), (strategies_module, "induced_path"),
                            (strategies_module, "sample_outcomes")):
            real = getattr(owner, name)

            def counting(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            patch.setattr(owner, name, counting)
        generators = logged_generators(patch)
        return run(), calls, generators


def sampling_calls(phi, start, threshold, samples, seed):
    """``ville_check``'s result from ``start``, its calls beyond those ``certify_strategy`` makes, and its generators."""
    _, certifying, _ = counted_calls(type(start), lambda: certify_strategy(lambda: start, phi))
    result, checking, generators = counted_calls(
        type(start), lambda: ville_check(phi, lambda: start, threshold, samples, seed)
    )
    checking.subtract(certifying)
    return result, +checking, generators


def draws_to_first_mark(phi, start, threshold, seed):
    """How many outcomes of ``sample_outcomes(phi, N, seed)`` the strategy steps from the root to capital >= C or 0."""
    strategy = start
    for depth, (p, y) in enumerate(induced_path(phi, sample_outcomes(phi, phi.horizon, seed))):
        if strategy.capital >= threshold or not strategy.capital:
            return depth
        strategy = strategy.step(p, y)
    return phi.horizon


def assert_each_sample_draws_to_its_first_mark(generators, phi, start, threshold, samples, seed):
    """Seeds seed .. seed + samples - 1 are each seeded once, in order, and none draws past its first marked pair."""
    assert [used for used, _ in generators] == list(range(seed, seed + samples))
    for used, variates in generators:
        assert len(variates) == draws_to_first_mark(phi, start, threshold, used)


def assert_doubling_hits_draw_k_variates(generators, k, result, samples):
    """Doubling at C = 2^k under 1/2: a sample hits iff it draws k variates, each below 1/2, and none draws more."""
    assert all(len(variates) <= k for _, variates in generators)
    hitting = [variates for _, variates in generators if len(variates) == k and all(x < 0.5 for x in variates)]
    assert len(hitting) / samples == result.frequency


def test_doubling_samples_step_no_strategy_and_induce_no_path():
    """All-ones reaches C = 2^N at 1/2^N of the samples; every sample follows the certified pairs' links."""
    horizon, samples = 6, 3000
    phi = ForecastingSystem.constant(HALF, horizon)
    result, calls, generators = sampling_calls(phi, DoublingStrategy(), 2**horizon, samples, 0)
    assert calls == {}
    assert 0 < result.frequency == reference_frequency(phi, DoublingStrategy(), 2**horizon, samples, 0)
    assert_each_sample_draws_to_its_first_mark(generators, phi, DoublingStrategy(), 2**horizon, samples, 0)
    assert_doubling_hits_draw_k_variates(generators, horizon, result, samples)


def test_calibration_samples_step_no_strategy_and_induce_no_path():
    """Calibration at N = 3, C = 1 peaks at capital 3/5 >= 1/2 after three ones at 1/2, so the check samples."""
    phi = ForecastingSystem.constant(HALF, 3)
    start, threshold, samples = CalibrationStrategy(3, ONE), HALF, 500
    result, calls, generators = sampling_calls(phi, start, threshold, samples, 0)
    assert calls == {}
    assert 0 < result.frequency == reference_frequency(phi, start, threshold, samples, 0)
    assert_each_sample_draws_to_its_first_mark(generators, phi, start, threshold, samples, 0)


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


@pytest.mark.parametrize("degenerate", [ZERO, ONE], ids=["p=0", "p=1"])
def test_a_phoenix_sample_stops_at_its_capital_0_pair(degenerate):
    """The only pair holding C = 32 is a capital-0 pair's free child, so the check samples, and no sample reaches it."""
    horizon, threshold, samples = 4, Fraction(32), 400
    table = {h: HALF if all(h) else degenerate for h in all_histories_below(horizon)}
    phi = ForecastingSystem.from_table(table, horizon)
    pairs, *_ = strategies_module._certification_walk(Phoenix, phi)
    assert max(strategy.capital for level in pairs for _, strategy in level) == 64
    result, calls, generators = sampling_calls(phi, Phoenix(), threshold, samples, 7)
    assert calls == {}
    assert result.frequency == 0.0 == reference_frequency(phi, Phoenix(), threshold, samples, 7)
    assert_each_sample_draws_to_its_first_mark(generators, phi, Phoenix(), threshold, samples, 7)

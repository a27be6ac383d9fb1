"""Sampling path: exact cut-off bits, per-node Ville stepping, and the checks it keeps."""

import _random
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preqprob import core
from preqprob.core import ForecastingSystem, HorizonError, induced_path, sample_outcomes
from preqprob.randgen import random_forecasting_system
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
ULP = Fraction(1, 2**53)

EDGE_FORECASTS = [
    ZERO,
    ONE,
    Fraction(1, 3),
    Fraction(7, 20),
    ULP,
    1 - ULP,
    Fraction(10**30 + 1, 3 * 10**30),
]


def reference_sample(phi, n, seed):
    """The sampler written straight from its definition: Fraction(x) < p per step."""
    rng = random.Random(seed)
    bits = ()
    for _ in range(n):
        bits += (1 if Fraction(rng.random()) < phi.forecast(bits) else 0,)
    return bits


def reference_frequency(phi, start, threshold, samples, seed):
    """Ville frequency by stepping every sample's strategy from the root."""
    hits = 0
    for i in range(samples):
        omega = reference_sample(phi, phi.horizon, seed + i)
        strategy = start
        peak = strategy.capital
        for p, y in induced_path(phi, omega):
            strategy = strategy.step(p, y)
            peak = max(peak, strategy.capital)
            if peak >= threshold:
                break
        if peak >= threshold:
            hits += 1
    return hits / samples


class TestIntegerCompare:
    @pytest.mark.parametrize("p", EDGE_FORECASTS, ids=str)
    def test_constant_systems_match_fraction_compare(self, p):
        phi = ForecastingSystem.constant(p, 4)
        for seed in range(2000):
            assert sample_outcomes(phi, 4, seed) == reference_sample(phi, 4, seed)

    def test_random_tabled_system_matches_fraction_compare(self):
        phi = random_forecasting_system(random.Random(11), 6, max_denominator=20)
        for seed in range(2000):
            assert sample_outcomes(phi, 6, seed) == reference_sample(phi, 6, seed)

    @pytest.mark.parametrize(
        "p, ms, bits",
        [
            (HALF, [2**52, 2**52 - 1, 0], (0, 1, 1)),
            (ULP, [0, 1], (1, 0)),
            (1 - ULP, [2**53 - 1, 2**53 - 2], (0, 1)),
            (Fraction(1, 3), [2**53 // 3, 2**53 // 3 + 1], (1, 0)),
        ],
        ids=["half", "ulp", "one-minus-ulp", "third"],
    )
    def test_variates_next_to_the_forecast(self, monkeypatch, p, ms, bits):
        """Variates m / 2^53 on and next to p: the bit is 1 exactly when x < p."""

        class Scripted:
            def __init__(self, seed):
                self.values = iter(m / 2**53 for m in ms)

            def random(self):
                return next(self.values)

        monkeypatch.setattr(core, "_MersenneTwister", Scripted)
        phi = ForecastingSystem.constant(p, len(ms))
        assert bits == tuple(1 if Fraction(m, 2**53) < p else 0 for m in ms)
        assert sample_outcomes(phi, len(ms), 0) == bits


# Forecasts at and next to the cut-offs that matter: 0, 1, 1/2 on the 2^-53 grid, and denominators above 2^53.
CUT_FORECASTS = [
    ZERO,
    ONE,
    HALF,
    ULP,
    1 - ULP,
    Fraction(2**52 + 1, 2**53),
    Fraction(2**52 - 1, 2**53),
    Fraction(1, 3),
    Fraction(1, 2**53 + 1),
    Fraction(2**60 - 1, 2**60),
]
SEEDS = [*range(2001), *(2**32 + k for k in range(50)), *(2**64 + k for k in range(50))]
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)


def tree_system(forecasts):
    """A stepping system over the level-order indices, handing out the objects ``forecasts[k]`` as they are."""
    horizon = (len(forecasts) + 1).bit_length() - 1
    return ForecastingSystem.stepping(horizon, 0, lambda k: (forecasts[k], 2 * k + 1, 2 * k + 2))


def copy(p):
    """An object equal to ``p`` but not ``p``."""
    return Fraction(p.numerator, p.denominator)


def depth_of(k):
    return (k + 1).bit_length() - 1


STEPPING_SYSTEMS = {
    # Each node's forecast differs from its parent's, so the cut-off moves at every step.
    "every-forecast": [CUT_FORECASTS[k % len(CUT_FORECASTS)] for k in range(255)],
    # Equal values held by distinct objects at consecutive depths.
    "equal-copies": [copy(CUT_FORECASTS[depth_of(k) // 2 + 2]) for k in range(255)],
    # One object repeated over two depths, then another.
    "one-object": [CUT_FORECASTS[(depth_of(k) // 2 * 3) % len(CUT_FORECASTS)] for k in range(255)],
    # One object at every node: 1/3, whose cut-off is rounded up.
    "constant-third": [CUT_FORECASTS[7]] * 255,
}


def reference_stepping_sample(phi, n, seed):
    """The sampler from its definition: ``random.Random(seed)`` and ``Fraction(x) < p``, stepping ``expand``."""
    rng, state, bits = random.Random(seed), phi.start, ()
    for _ in range(n):
        p, after0, after1 = phi.expand(state)
        y = 1 if Fraction(rng.random()) < p else 0
        bits, state = bits + (y,), after1 if y else after0
    return bits


@st.composite
def stepping_systems(draw):
    """A system of horizon at most 8 whose forecast at depth d after outcome b is ``picks[2 d + b]``.

    Each pick is a CUT_FORECASTS object, shared, or a copy of it.
    """
    horizon = draw(st.integers(1, 8))
    picks = draw(st.lists(st.tuples(st.sampled_from(CUT_FORECASTS), st.booleans()),
                          min_size=2 * horizon, max_size=2 * horizon))
    forecasts = [copy(p) if fresh else p for p, fresh in picks]
    return ForecastingSystem.stepping(horizon, (0, 0), lambda s: (forecasts[2 * s[0] + s[1]], (s[0] + 1, 0),
                                                                  (s[0] + 1, 1)))


class TestCutOff:
    @pytest.mark.parametrize("name", sorted(STEPPING_SYSTEMS))
    def test_stepping_systems_match_fraction_compare(self, name):
        phi = tree_system(STEPPING_SYSTEMS[name])
        for seed in SEEDS:
            assert sample_outcomes(phi, 8, seed) == reference_stepping_sample(phi, 8, seed)

    @PROPERTY
    @given(stepping_systems(), st.one_of(st.integers(0, 2000), st.integers(2**32, 2**32 + 2000),
                                         st.integers(2**64, 2**64 + 2000)))
    def test_drawn_systems_match_fraction_compare(self, phi, seed):
        assert sample_outcomes(phi, phi.horizon, seed) == reference_stepping_sample(phi, phi.horizon, seed)

    @pytest.mark.parametrize("p", CUT_FORECASTS, ids=str)
    def test_variates_on_each_side_of_the_cut_off(self, monkeypatch, p):
        """Variates m / 2^53 for m = T - 1, T, T + 1, T = ceil(p 2^53): the bit is 1 exactly when m < T.

        The forecast p alternates with 1/2, a new object each step, so each
        step's cut-off is computed for its own forecast.
        """
        t = -(-p.numerator * 2**53 // p.denominator)
        ms = [m for m in (t - 1, t, t + 1) if 0 <= m < 2**53]
        script = [v for m in ms for v in (m, 2**52 - 1)]  # each m at p, then 2^52 - 1 at 1/2: bit 1

        class Scripted:
            def __init__(self, seed):
                self.values = iter(m / 2**53 for m in script)

            def random(self):
                return next(self.values)

        monkeypatch.setattr(core, "_MersenneTwister", Scripted)
        n = len(script)
        phi = ForecastingSystem.stepping(n, 0, lambda k: (copy(p) if k % 2 == 0 else copy(HALF), k + 1, k + 1))
        bits = tuple(1 if Fraction(m, 2**53) < (p if i % 2 == 0 else HALF) else 0 for i, m in enumerate(script))
        assert bits[0::2] == tuple(int(m < t) for m in ms) and set(bits[1::2]) == {1}
        assert sample_outcomes(phi, n, 0) == bits

    def test_the_base_generator_draws_what_random_random_draws(self):
        for seed in [*range(300), *(2**32 + k for k in range(20)), *(2**64 + 3 + k for k in range(20)), 2**40]:
            base, derived = _random.Random(seed), random.Random(seed)
            assert [base.random() for _ in range(8)] == [derived.random() for _ in range(8)]


STRATEGIES = {
    "constant": lambda horizon: ConstantStrategy(),
    "doubling": lambda horizon: DoublingStrategy(),
    "calibration": lambda horizon: CalibrationStrategy(horizon, ONE),
}
SYSTEMS = {
    "fair": lambda: ForecastingSystem.constant(HALF, 6),
    "tabled": lambda: random_forecasting_system(random.Random(5), 6),
}


class TestVilleStepsEachNodeOnce:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize("threshold", [HALF, Fraction(2), Fraction(4), Fraction(8)], ids=str)
    def test_frequency_matches_stepping_from_the_root(self, system, strategy, threshold):
        phi = SYSTEMS[system]()
        start = STRATEGIES[strategy](phi.horizon)
        if not certify_strategy(lambda: start, phi)[0]:
            with pytest.raises(CertificationError):
                ville_check(phi, lambda: start, threshold, samples=10, seed=0)
            return
        for seed in (0, 1000, 2000):
            result = ville_check(phi, lambda: start, threshold, samples=150, seed=seed)
            assert result.frequency == reference_frequency(phi, start, threshold, 150, seed)

    @pytest.mark.parametrize("samples", [1, 100, 3000])
    def test_step_calls_are_bounded_by_the_tree(self, samples):
        """Certification and sampling each step a node at most once, whatever ``samples`` is."""
        steps = []

        @dataclass(frozen=True)
        class CountingDoubling:
            capital: Fraction = ONE

            def step(self, p, y):
                steps.append((p, y))
                return CountingDoubling(2 * self.capital if y == 1 else ZERO)

        horizon = 6
        phi = ForecastingSystem.constant(HALF, horizon)
        # Capital never exceeds 2^6, so no sample stops early.
        result = ville_check(phi, CountingDoubling, 2 ** (horizon + 1), samples, seed=3)
        assert result.frequency == 0.0
        assert len(steps) <= 2 * (2 ** (horizon + 1) - 2)


class TestChecksStillRun:
    @pytest.mark.parametrize("depth", [0, 2])
    def test_forecast_outside_unit_interval_is_refused(self, depth):
        phi = ForecastingSystem(3, lambda h: Fraction(3, 2) if len(h) == depth else HALF)
        with pytest.raises(ValueError, match="outside"):
            sample_outcomes(phi, 3, 0)
        with pytest.raises(ValueError, match="outside"):
            induced_path(phi, (0, 1, 1))

    def test_induced_path_refuses_a_bad_outcome(self):
        phi = ForecastingSystem.constant(HALF, 2)
        with pytest.raises(ValueError, match="outcome"):
            induced_path(phi, (0, 2))

    def test_certification_refuses_horizon_17_before_building_a_strategy(self):
        calls = []

        def factory():
            calls.append(1)
            return DoublingStrategy()

        phi = ForecastingSystem.constant(HALF, 17)
        with pytest.raises(HorizonError, match="262143"):
            certify_strategy(factory, phi)
        with pytest.raises(HorizonError, match="262143"):
            ville_check(phi, factory, 4, samples=1, seed=0)
        assert calls == []

"""Certification and the event probability walk merged (state, value) pairs: equal to the per-history walks.

The references below are the per-history loops the walker replaced, kept
here as oracles: one entry per outcome-tree node, in ``history_at`` order.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from preqprob.core import ForecastingSystem, history_at
from preqprob.events import WILDCARD, Box, EventUnion, StepConstraint
from preqprob.measureprob import exact_event_probability, measure_upper_probability
from preqprob.randgen import random_event, random_forecasting_system, random_rational
from preqprob.strategies import CalibrationState, ConstantStrategy, DoublingStrategy, certify_strategy

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)
ZERO, ONE, HALF = Fraction(0), Fraction(1), Fraction(1, 2)


def every_forecast(phi):
    """Each history's forecast in ``history_at`` order, one expand per history."""
    states, forecasts = [phi.start], []
    for k in range(2**phi.horizon - 1):
        p, after0, after1 = phi.expand(states[k])
        forecasts.append(p)
        states += (after0, after1)
    return forecasts


def reference_certify(strategy_factory, phi):
    """Step every node's strategy value into its two children and check each node."""
    forecasts = every_forecast(phi)
    violations = []
    values = [strategy_factory()]
    for k, strategy in enumerate(values):
        value = strategy.capital
        bad = value < ZERO
        if k < len(forecasts):
            p = forecasts[k]
            s0, s1 = strategy.step(p, 0), strategy.step(p, 1)
            values += (s0, s1)
            bad = bad or value != (ONE - p) * s0.capital + p * s1.capital
        if bad:
            violations.append(history_at(k))
    return not violations, violations


def reference_probability(phi, event):
    """Carry each surviving history's cylinder weight down the tree, pruning dead and weight-0 branches."""
    boxes = event.boxes
    level = [(phi.start, ONE, tuple(range(len(boxes))))] if boxes else []
    for depth in range(event.horizon):
        below = []
        for state, weight, live in level:
            p, after0, after1 = phi.expand(state)
            for y, w, after in ((0, ONE - p, after0), (1, p, after1)):
                if w == ZERO:
                    continue
                surviving = tuple(i for i in live if boxes[i].steps[depth].accepts(p, y))
                if surviving:
                    below.append((after, weight * w, surviving))
        level = below
    return sum((weight for _, weight, _ in level), ZERO)


@dataclass(frozen=True)
class BreaksAt:
    """Stakes half its capital on outcome 1 at the forecast's odds, a martingale under any forecast,
    except that at ``depth`` it adds a quarter of its capital on outcome 1: fair there only under forecast 0."""

    depth: int
    n: int = 0
    capital: Fraction = ONE

    def step(self, p, y):
        gain = self.capital / 2 * (y - p) + (self.capital / 4 if self.n == self.depth and y else ZERO)
        return BreaksAt(self.depth, self.n + 1, self.capital + gain)


def wide_event(rng, horizon):
    """One to four boxes of wide forecast intervals, so most systems give the event a positive probability."""
    boxes = []
    for _ in range(rng.randint(1, 4)):
        steps = []
        for _ in range(horizon):
            lo, hi = Fraction(rng.choice((0, 0, 1)), 4), Fraction(rng.choice((3, 4, 4)), 4)
            steps.append(StepConstraint(lo, hi, rng.choice((0, 1, WILDCARD))))
        boxes.append(Box(tuple(steps)))
    return EventUnion(horizon, tuple(boxes))


def merging(rng, horizon):
    """A stepping system whose state is (depth, ones mod k): many histories of a depth share a state."""
    k = rng.randint(1, 3)
    forecasts = {(d, r): random_rational(rng, 4) for d in range(horizon) for r in range(k)}
    return ForecastingSystem.stepping(
        horizon, (0, 0), lambda s: (forecasts[s], (s[0] + 1, s[1]), (s[0] + 1, (s[1] + 1) % k))
    )


def history_rule(rng, horizon):
    table = {h: random_rational(rng, 4) for h in map(history_at, range(2**horizon - 1))}
    return ForecastingSystem(horizon, table.__getitem__)


SYSTEMS = {
    "history-rule": history_rule,
    "stepping": merging,
    "from_table": lambda rng, horizon: random_forecasting_system(rng, horizon, 4),
    "constant": lambda rng, horizon: ForecastingSystem.constant(rng.choice([HALF, random_rational(rng, 4)]), horizon),
    "measure-witness": lambda rng, horizon: measure_upper_probability(random_event(rng, horizon=horizon))[1],
}

STRATEGIES = {
    "doubling": lambda rng, horizon: DoublingStrategy,
    "calibration": lambda rng, horizon: lambda: CalibrationState(horizon, random_rational(rng) or ONE),
    "constant": lambda rng, horizon: lambda: ConstantStrategy(rng.choice([ONE, -ONE, ZERO])),
    "breaks-at-one-depth": lambda rng, horizon: lambda: BreaksAt(rng.randrange(horizon)),
}


@PROPERTY
@given(st.sampled_from(sorted(SYSTEMS)), st.sampled_from(sorted(STRATEGIES)), st.integers(1, 6), st.integers(0, 2**32))
def test_certification_equals_the_per_history_walk(system, strategy, horizon, seed):
    rng = random.Random(seed)
    phi = SYSTEMS[system](rng, horizon)
    factory = STRATEGIES[strategy](rng, horizon)
    start = factory()
    assert certify_strategy(lambda: start, phi) == reference_certify(lambda: start, phi)


@PROPERTY
@given(st.sampled_from(sorted(SYSTEMS)), st.integers(1, 6), st.integers(0, 2**32))
def test_event_probability_equals_the_per_history_walk(system, horizon, seed):
    rng = random.Random(seed)
    phi = SYSTEMS[system](rng, horizon)
    event_horizon = rng.randint(1, horizon)
    event = wide_event(rng, event_horizon) if rng.random() < 0.7 else random_event(rng, horizon=event_horizon)
    assert exact_event_probability(phi, event) == reference_probability(phi, event)


def test_certification_steps_each_distinct_pair_once():
    """Doubling under constant 1/2 holds two capitals per depth, so horizon 16 steps 62 values, not 131,070."""
    steps = []

    class Counting(DoublingStrategy):
        def step(self, p, y):
            steps.append(self)
            return Counting(DoublingStrategy.step(self, p, y).capital)

    assert certify_strategy(Counting, ForecastingSystem.constant(HALF, 16)) == (True, [])
    assert len(steps) == 2 * (1 + 2 * 15)

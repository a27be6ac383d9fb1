"""The farthingale identity decided on integers equals its definition in Fractions.

``strategies._gap_sign`` gives the sign of parent - ((1 - p) v0 + p v1) by
cross-multiplying numerators and denominators; ``certify_strategy`` and
``check_farthingale`` decide the identity with it.  Each is compared here
with the definition, computed in ``Fraction`` arithmetic node by node.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from path_tables import path_dict, path_graph
from test_calibration_fold import PROPERTY

from preqprob.core import ForecastingSystem, history_at
from preqprob.gameprob import ValueFunction, witness_superfarthingale
from preqprob.randgen import random_event, random_forecasting_system, random_rational
from preqprob.strategies import (
    CalibrationState,
    ConstantStrategy,
    DoublingStrategy,
    _gap_sign,
    certify_strategy,
    check_farthingale,
    strategy_value_table,
)

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)


def sign(x) -> int:
    return (x > 0) - (x < 0)


def definition(parent, v0, v1, p) -> int:
    return sign(parent - ((1 - p) * v0 + p * v1))


# Values are ints and Fractions, negatives included; forecasts lie in [0, 1], the ends as ints and Fractions.
values = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)
forecasts = st.one_of(
    st.sampled_from([0, 1, ZERO, ONE, HALF]),
    st.integers(1, 10**4).flatmap(lambda q: st.integers(0, q).map(lambda a: Fraction(a, q))),
)


@PROPERTY
@given(values, values, values, forecasts, st.booleans())
@example(ZERO, ZERO, ZERO, ZERO, False)
@example(Fraction(1, 3), ONE, ZERO, Fraction(2, 3), False)  # equal: (1/3) 1 + (2/3) 0 = 1/3
@example(-1, 2, -3, 1, False)
@example(Fraction(-5, 3), Fraction(-5, 3), 7, Fraction(1, 9), True)
def test_gap_sign_is_the_sign_of_the_definition(parent, v0, v1, p, equal_children):
    """With equal children the sign is that of parent minus the child, whatever p."""
    if equal_children:
        v1 = v0
        assert _gap_sign(parent, v0, v1, p) == sign(parent - v0)
    assert _gap_sign(parent, v0, v1, p) == definition(parent, v0, v1, p)


def reference_certify(strategy_factory, phi):
    """Every node's value checked against its children's, in Fractions, in ``history_at`` order."""
    violations = []
    level = [((), phi.start, strategy_factory())]
    for depth in range(phi.horizon + 1):
        below = []
        for history, state, strategy in level:
            value = Fraction(strategy.capital)
            bad = value < 0
            if depth < phi.horizon:
                p, after0, after1 = phi.expand(state)
                s0, s1 = strategy.step(p, 0), strategy.step(p, 1)
                bad = bad or value != (1 - p) * Fraction(s0.capital) + p * Fraction(s1.capital)
                below += [(history + (0,), after0, s0), (history + (1,), after1, s1)]
            if bad:
                violations.append(history)
        level = below
    return not violations, violations


@dataclass(frozen=True)
class Stake:
    """Capital plus ``stake`` (y - p) per step: a martingale under every system, negative when it overreaches.

    With ``skew`` the outcome-1 capital is off by that amount at forecast
    ``at``, so the identity fails exactly where that forecast is made.
    """

    capital: Fraction
    stake: Fraction
    at: Fraction = HALF
    skew: Fraction = ZERO

    def step(self, p, y):
        capital = self.capital + self.stake * (y - p) + (self.skew if y and p == self.at else 0)
        return Stake(capital, self.stake, self.at, self.skew)


def tabled(rng, horizon):
    return random_forecasting_system(rng, horizon, rng.choice([2, 4, 8]))


def stakes(rng, horizon):
    return lambda: Stake(random_rational(rng), Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                         random_rational(rng), rng.choice([ZERO, ZERO, Fraction(1, 7), -ONE]))


SYSTEMS = {
    "tabled": tabled,
    "constant": lambda rng, horizon: ForecastingSystem.constant(rng.choice([ZERO, HALF, ONE, random_rational(rng)]),
                                                                horizon),
}
STRATEGIES = {
    "calibration": lambda rng, horizon: lambda: CalibrationState(horizon, random_rational(rng) or ONE),
    "doubling": lambda rng, horizon: DoublingStrategy,
    "constant": lambda rng, horizon: lambda: ConstantStrategy(rng.choice([ONE, -ONE, ZERO, 3, -2])),
    "stake": stakes,
}


@PROPERTY
@given(st.sampled_from(sorted(SYSTEMS)), st.sampled_from(sorted(STRATEGIES)), st.integers(1, 5),
       st.integers(0, 2**32))
def test_certification_equals_the_fraction_reference(system, strategy, horizon, seed):
    rng = random.Random(seed)
    phi = SYSTEMS[system](rng, horizon)
    start = STRATEGIES[strategy](rng, horizon)()
    assert certify_strategy(lambda: start, phi) == reference_certify(lambda: start, phi)


def test_the_stake_strategy_fails_where_it_is_skewed():
    """A skew at forecast 1/2 fails every node that forecasts 1/2, and nothing else."""
    phi = ForecastingSystem(3, lambda history: HALF if sum(history) % 2 else Fraction(1, 3))
    ok, violations = certify_strategy(lambda: Stake(ONE, HALF, HALF, Fraction(1, 7)), phi)
    assert (ok, violations) == reference_certify(lambda: Stake(ONE, HALF, HALF, Fraction(1, 7)), phi)
    assert violations == [history_at(k) for k in range(7) if sum(history_at(k)) % 2]


def reference_check(vf, mode):
    """(1 - p) v0 + p v1 in Fractions at every endpoint of every cell of every node, shortest paths first."""
    violations = []
    level = [()]
    for partition in vf.partitions:
        for path in level:
            parent = Fraction(vf.values[path])
            for ci, cell in enumerate(partition.cells):
                v0, v1 = Fraction(vf.values[path + ((ci, 0),)]), Fraction(vf.values[path + ((ci, 1),)])
                for p in cell.endpoints():
                    rhs = (1 - p) * v0 + p * v1
                    if (parent != rhs if mode == "exact" else parent < rhs) and (path, p) not in violations:
                        violations.append((path, p))
        level = [path + ((ci, bit),) for path in level for ci in range(len(partition.cells)) for bit in (0, 1)]
    return not violations, violations


def witness(rng):
    return witness_superfarthingale(random_event(rng, max_horizon=3, max_boxes=3))


def perturbed_witness(rng):
    """A witness table with a few values replaced by ints and Fractions, negatives included."""
    vf = witness(rng)
    table = path_dict(vf.partitions, vf.values)
    for path in rng.sample(sorted(table), min(len(table), rng.randint(1, 4))):
        table[path] = rng.choice([rng.randint(-2, 2), random_rational(rng), -random_rational(rng)])
    return ValueFunction(vf.horizon, vf.partitions, path_graph(vf.partitions, table))


def grid_table(rng):
    horizon = rng.randint(1, 2)
    grid = sorted({random_rational(rng) for _ in range(rng.randint(1, 3))})
    factory = rng.choice([lambda: CalibrationState(horizon, random_rational(rng) or ONE), stakes(rng, horizon),
                          DoublingStrategy])
    return strategy_value_table(factory, horizon, grid)


TABLES = {"witness": witness, "perturbed-witness": perturbed_witness, "strategy-grid": grid_table}


@settings(PROPERTY, max_examples=60)
@given(st.sampled_from(sorted(TABLES)), st.integers(0, 2**32))
def test_check_farthingale_equals_the_fraction_reference(table, seed):
    vf = TABLES[table](random.Random(seed))
    for mode in ("exact", "super"):
        assert check_farthingale(vf, mode) == reference_check(vf, mode)

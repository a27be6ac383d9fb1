"""The stepping form of forecasting systems: one expand per node, checks kept in every walker."""

import json
import random
from fractions import Fraction

import pytest

from preqprob.core import (
    ForecastingSystem,
    HorizonError,
    all_histories_below,
    cylinder_probability,
    induced_path,
    sample_outcomes,
)
from preqprob.events import EventUnion
from preqprob.measureprob import (
    exact_event_probability,
    measure_upper_probability,
    monte_carlo_probability,
)
from preqprob.randgen import random_event, random_forecasting_system, random_rational
from preqprob.strategies import ConstantStrategy, certify_strategy, ville_check

HALF = Fraction(1, 2)
BAD = Fraction(3, 2)


@pytest.fixture()
def expand_calls(monkeypatch):
    """Count the steps of systems built by ``ForecastingSystem._trusted``, the measure witness among them.

    The ``expand`` each such system is given is wrapped, so every walker's
    steps are counted, ``forecast``'s included.
    """
    calls = []
    trusted = ForecastingSystem._trusted.__func__

    def counting(cls, horizon, start, expand):
        def step(state):
            calls.append(state)
            return expand(state)

        return trusted(cls, horizon, start, step)

    monkeypatch.setattr(ForecastingSystem, "_trusted", classmethod(counting))
    return calls


def reference_doc(phi):
    """The table document built by asking ``forecast`` at each history separately."""
    table = {
        "".join(map(str, h)): str(phi.forecast(h)) for h in all_histories_below(phi.horizon)
    }
    return {"horizon": phi.horizon, "table": dict(sorted(table.items()))}


def test_witness_doc_equals_the_per_history_reference():
    rng = random.Random(808)
    for _ in range(30):
        event = random_event(rng, max_horizon=7, max_boxes=4)
        witness = measure_upper_probability(event)[1]
        doc = json.loads(witness.to_json())
        assert doc == reference_doc(witness)
        assert list(doc["table"]) == sorted(doc["table"])


def merging_system(rng, horizon, with_depth):
    """A stepping system whose state is the count of ones mod k, with the depth or without it.

    Many histories of a depth share a state, and without the depth equal
    states recur at every depth.
    """
    k = rng.randint(1, 3)
    forecasts = {(d, r): random_rational(rng) for d in range(horizon) for r in range(k)}
    if with_depth:
        return ForecastingSystem.stepping(
            horizon, (0, 0), lambda s: (forecasts[s], (s[0] + 1, s[1]), (s[0] + 1, (s[1] + 1) % k))
        )
    return ForecastingSystem.stepping(horizon, 0, lambda r: (forecasts[0, r], r, (r + 1) % k))


def random_rule(rng, horizon):
    """A history rule: every history is its own state."""
    table = {h: random_rational(rng) for h in all_histories_below(horizon)}
    return ForecastingSystem(horizon, table.__getitem__)


SYSTEMS = {
    "history-rule": random_rule,
    "merging-with-depth": lambda rng, horizon: merging_system(rng, horizon, True),
    "merging-without-depth": lambda rng, horizon: merging_system(rng, horizon, False),
    "from_table": random_forecasting_system,
    "constant": lambda rng, horizon: ForecastingSystem.constant(random_rational(rng), horizon),
    "measure-witness": lambda rng, horizon: measure_upper_probability(
        random_event(rng, horizon=horizon, max_boxes=4)
    )[1],
}


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_doc_equals_the_per_history_reference(kind):
    rng = random.Random(kind)
    for horizon in (1, 2, 3, 5, 8, 10):
        phi = SYSTEMS[kind](rng, horizon)
        doc = json.loads(phi.to_json())
        assert doc == reference_doc(phi)
        assert list(doc["table"]) == sorted(doc["table"])


@pytest.mark.parametrize("seed", range(6))
def test_witness_table_expands_each_history_once(expand_calls, seed):
    """A walk of every history expands each; ``to_json`` each distinct (depth, live-set) state once."""
    rng = random.Random(seed)
    event = random_event(rng, horizon=rng.randint(1, 10), max_boxes=4)
    witness = measure_upper_probability(event)[1]
    expand_calls.clear()
    json.loads(witness.to_json())
    per_state = sorted(expand_calls)
    expand_calls.clear()
    # Every history's state, in level order: the children of k are 2k+1 and 2k+2.
    states = [witness.start]
    for k in range(2**event.horizon - 1):
        states += witness.expand(states[k])[1:]
    assert len(expand_calls) == 2**event.horizon - 1
    assert per_state == sorted(set(expand_calls))


def test_a_depth_counter_writes_its_horizon_16_table_in_16_expands():
    calls = []

    def expand(depth):
        calls.append(depth)
        return Fraction(depth, 16), depth + 1, depth + 1

    doc = json.loads(ForecastingSystem.stepping(16, 0, expand).to_json())
    assert calls == list(range(16))
    # Every bit string of each length n < 16, sorted.
    keys = sorted(format(k, f"0{n}b") if n else "" for n in range(16) for k in range(2**n))
    assert len(keys) == 2**16 - 1
    texts = [str(Fraction(depth, 16)) for depth in range(16)]
    assert doc["table"] == {key: texts[len(key)] for key in keys}
    assert list(doc["table"]) == keys


def test_paths_of_a_horizon_16_witness_expand_once_per_step(expand_calls):
    event = random_event(random.Random(16), horizon=16, max_boxes=3)
    witness = measure_upper_probability(event)[1]
    for seed in range(5):
        expand_calls.clear()
        omega = sample_outcomes(witness, 16, seed)
        assert len(expand_calls) == 16
        expand_calls.clear()
        path = induced_path(witness, omega)
        assert len(expand_calls) == 16
        assert [p for p, _ in path] == [witness.forecast(omega[:i]) for i in range(16)]


def test_forecast_steps_once_per_bit_and_once_for_its_answer(expand_calls):
    event = random_event(random.Random(16), horizon=16, max_boxes=3)
    witness = measure_upper_probability(event)[1]
    for seed in range(5):
        omega = sample_outcomes(witness, 16, seed)
        for n in (0, 1, seed + 5, 15):
            expand_calls.clear()
            witness.forecast(omega[:n])
            assert len(expand_calls) == n + 1


def test_tabled_and_constant_systems_step_without_histories():
    phi = random_forecasting_system(random.Random(5), 4)
    table = {h: phi.forecast(h) for h in all_histories_below(4)}
    rebuilt = ForecastingSystem.from_table(table, 4)
    for h in all_histories_below(4):
        assert rebuilt.forecast(h) == table[h]
    constant = ForecastingSystem.constant(HALF, 40)
    assert constant.start is None and constant.expand(None) == (HALF, None, None)


def test_stepping_constructor_matches_the_history_rule():
    def rule(h):
        return Fraction(1 + sum(h), 2 + len(h))

    by_history = ForecastingSystem(5, rule)
    # State (ones, length) carries exactly what the rule reads.
    stepped = ForecastingSystem.stepping(
        5, (0, 0), lambda s: (Fraction(1 + s[0], 2 + s[1]), (s[0], s[1] + 1), (s[0] + 1, s[1] + 1))
    )
    histories = list(all_histories_below(5))
    assert [stepped.forecast(h) for h in histories] == [by_history.forecast(h) for h in histories]
    assert stepped.to_json() == by_history.to_json()
    for seed in range(20):
        omega = sample_outcomes(stepped, 5, seed)
        assert omega == sample_outcomes(by_history, 5, seed)
        assert cylinder_probability(stepped, omega) == cylinder_probability(by_history, omega)


def history_rule(depth):
    return ForecastingSystem(3, lambda h: BAD if len(h) == depth else HALF)


def stepped_rule(depth):
    return ForecastingSystem.stepping(3, 0, lambda d: (BAD if d == depth else HALF, d + 1, d + 1))


WALKERS = {
    "forecast": lambda phi: [phi.forecast(h) for h in ((), (1,), (1, 0))],
    "to_json": lambda phi: phi.to_json(),
    "sample_outcomes": lambda phi: sample_outcomes(phi, 3, 0),
    "induced_path": lambda phi: induced_path(phi, (0, 1, 1)),
    "cylinder_probability": lambda phi: cylinder_probability(phi, (1, 1, 0)),
    "certify_strategy": lambda phi: certify_strategy(ConstantStrategy, phi),
    "ville_check": lambda phi: ville_check(phi, ConstantStrategy, 4, 1, 0),
    "exact_event_probability": lambda phi: exact_event_probability(phi, EventUnion.full(3)),
    "monte_carlo_probability": lambda phi: monte_carlo_probability(phi, EventUnion.full(3), 1, 0),
}


@pytest.mark.parametrize("make", [history_rule, stepped_rule], ids=["history-rule", "stepping"])
@pytest.mark.parametrize("walker", sorted(WALKERS))
def test_forecast_outside_unit_interval_is_refused_by_every_walker(make, walker):
    for depth in (0, 2):
        with pytest.raises(ValueError, match="outside"):
            WALKERS[walker](make(depth))


def test_forecast_still_checks_the_history():
    phi = ForecastingSystem.constant(HALF, 3)
    with pytest.raises(HorizonError):
        phi.forecast((0, 0, 0))
    with pytest.raises(ValueError, match="outcome"):
        phi.forecast((0, 2))

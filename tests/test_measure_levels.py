"""The measure engine in level order: equal to the recursive program it replaced, with its own budget.

``measure_upper_probability`` collects the reachable (depth, live-set) pairs
going forward and values them going back, on integer numerators, scoring a
step's candidates once per live-set.  The property below compares it with
the recursive program on ``Fraction`` values and an ascending strict-``>``
scan over every candidate, value and witness bytes alike, so the smallest
maximizer may not move.  A second property does the same on events built
from the edges of a live-set of one box, which the pass scores at its
interval's first and last candidates only.
"""

import json
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from preqprob import core, gameprob, measureprob
from preqprob.core import ForecastingSystem
from preqprob.events import WILDCARD, Box, EventUnion, StepConstraint, event_from_json
from preqprob.gameprob import upper_game_probability
from preqprob.measureprob import MeasureBudgetError, exact_event_probability, measure_upper_probability
from preqprob.randgen import random_event
from test_step_memo import nested_event, run
from test_value_memo import PROPERTY

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def reference_measure(event: EventUnion):
    """The recursive program: Fraction values, and the first strict maximum over ascending candidates."""
    horizon = event.horizon
    candidates, accepts = [], []
    for depth in range(horizon):
        steps = [box.steps[depth] for box in event.boxes]
        points = sorted({ZERO, ONE, *(p for s in steps for p in (s.p_lo, s.p_hi))})
        by_bit = [sum(1 << i for i, s in enumerate(steps) if s.y is WILDCARD or s.y == y) for y in (0, 1)]
        inside = [0] * len(points)
        for i, s in enumerate(steps):
            for j in range(bisect_left(points, s.p_lo), bisect_right(points, s.p_hi)):
                inside[j] |= 1 << i
        candidates.append(points)
        accepts.append([(m & by_bit[0], m & by_bit[1]) for m in inside])
    memo = {}

    def best(depth, live):
        if not live:
            return ZERO, 0
        if depth == horizon:
            return ONE, 0
        if (depth, live) not in memo:
            value, winner = ZERO, 0
            for j, (p, (m0, m1)) in enumerate(zip(candidates[depth], accepts[depth])):
                if not live & (m0 | m1):
                    continue
                v0, v1 = best(depth + 1, live & m0)[0], best(depth + 1, live & m1)[0]
                if v0 + p * (v1 - v0) > value:
                    value, winner = v0 + p * (v1 - v0), j
            memo[depth, live] = value, winner
        return memo[depth, live]

    def expand(state):
        depth, live = state
        j = best(depth, live)[1]
        m0, m1 = accepts[depth][j]
        return candidates[depth][j], (depth + 1, live & m0), (depth + 1, live & m1)

    root = (1 << len(event.boxes)) - 1
    return best(0, root)[0], ForecastingSystem.stepping(horizon, (0, root), expand)


# Equal endpoints written differently, so equal forecasts arrive as distinct steps.
ENDPOINTS = ["0", "1", 0, 1, "1/2", "2/4", "0.5", "1/3", "2/3", "0.25", "3/4", "1/6", "5/6"]
# A point interval on which the box can only die: probability 0 whatever the forecast.
NULL_STEPS = [{"p": ["0", "0"], "y": 1}, {"p": ["1", "1"], "y": 0}]


@st.composite
def steps(draw):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(NULL_STEPS))
    a, b = draw(st.sampled_from(ENDPOINTS)), draw(st.sampled_from(ENDPOINTS))
    if draw(st.booleans()):
        b = a  # a point interval
    lo, hi = sorted((a, b), key=Fraction)
    return {"p": [lo, hi], "y": draw(st.sampled_from([0, 1, "*"]))}


# Steps at the edges of a live-set of one box: the outcome a point interval at 0
# or 1 cannot give, point intervals, each holding one candidate, two spellings
# of 1/2 among them, and [0, 1] under each outcome rule.
ONE_BOX_EDGES = [
    *NULL_STEPS,
    {"p": ["0", "0"], "y": "*"},
    {"p": ["1", "1"], "y": 1},
    {"p": ["1/3", "1/3"], "y": 0},
    {"p": ["1/2", "0.5"], "y": 1},
    {"p": ["2/3", "2/3"], "y": "*"},
    {"p": ["0", "1"], "y": "*"},
    {"p": ["0", 1], "y": 0},
    {"p": [0, "1"], "y": 1},
    {"p": ["1/3", "2/3"], "y": 1},
    {"p": ["0", "1/2"], "y": 0},
]


@st.composite
def event_docs(draw, step=steps(), max_boxes=4):
    """Up to four boxes over up to four steps; each step is one of at most three columns, so steps repeat."""
    horizon, n_boxes = draw(st.integers(1, 4)), draw(st.integers(0, max_boxes))
    columns = draw(st.lists(st.lists(step, min_size=n_boxes, max_size=n_boxes), min_size=1, max_size=3))
    order = draw(st.lists(st.integers(0, len(columns) - 1), min_size=horizon, max_size=horizon))
    boxes = [{"steps": [columns[c][i] for c in order]} for i in range(n_boxes)]
    return json.dumps({"horizon": horizon, "boxes": boxes})


def doc(horizon, *boxes):
    return json.dumps({"horizon": horizon, "boxes": [{"steps": list(box)} for box in boxes]})


@PROPERTY
@given(event_docs())
@example(doc(3))  # the empty event
# Outcome 0 with p <= 1/4 or outcome 1 with p >= 3/4: the candidates 0 and 1 tie.
@example(doc(1, [{"p": ["0", "1/4"], "y": 0}], [{"p": ["3/4", "1"], "y": 1}]))
@example(doc(2, [{"p": ["1/2", "1/2"], "y": 1}] * 2, [{"p": ["2/4", "0.5"], "y": "*"}] * 2))
def test_the_level_order_program_equals_the_recursive_one(text):
    event = event_from_json(text)
    value, witness = measure_upper_probability(event)
    expected_value, expected_witness = reference_measure(event)
    assert value == expected_value
    assert witness.to_json() == expected_witness.to_json()


@PROPERTY
@given(event_docs(st.sampled_from(ONE_BOX_EDGES), max_boxes=3))
@example(doc(2, [{"p": ["0", "0"], "y": 1}] * 2, [{"p": ["1", "1"], "y": 0}] * 2))
# One box at a time: a wildcard [0, 1] ties at every candidate, so the first wins.
@example(doc(3, [{"p": ["0", "1"], "y": "*"}, {"p": ["1/3", "1/3"], "y": 0}, {"p": ["0", "1"], "y": 1}]))
@example(doc(2, [{"p": ["1/2", "0.5"], "y": 1}, {"p": ["0", "1/2"], "y": 0}],
             [{"p": ["0", "1"], "y": "*"}, {"p": ["2/3", "2/3"], "y": "*"}]))
def test_a_live_set_of_one_box_reads_its_interval_ends(text):
    event = event_from_json(text)
    for depth in range(event.horizon):
        _, forecasts, rows, own = measureprob._forecast_candidates(event, depth)
        for i, box in enumerate(event.boxes):
            step = box.steps[depth]
            inside = [row for p, row in zip(forecasts, rows) if step.p_lo <= p <= step.p_hi]
            assert own[1 << i] == ((inside[0], inside[-1]) if len(inside) > 1 else (inside[0],))
    value, witness = measure_upper_probability(event)
    expected_value, expected_witness = reference_measure(event)
    assert value == expected_value
    assert json.loads(witness.to_json()) == json.loads(expected_witness.to_json())


class _Tripwire(int):
    """A step's denominator q that refuses to be multiplied, as only the backward pass does."""

    def __mul__(self, other):
        raise AssertionError("the backward pass ran")

    __rmul__ = __mul__


@pytest.fixture()
def tripwire(monkeypatch):
    build = measureprob._forecast_candidates

    def wired(event, depth):
        q, *rest = build(event, depth)
        return _Tripwire(q), *rest

    monkeypatch.setattr(measureprob, "_forecast_candidates", wired)


def test_the_budget_refuses_before_the_backward_pass(monkeypatch, tripwire):
    event = event_from_json(nested_event(4, 10))
    with pytest.raises(AssertionError, match="the backward pass ran"):
        measure_upper_probability(event)
    monkeypatch.setattr(core, "PAIR_BUDGET", 5)
    with pytest.raises(MeasureBudgetError, match="more than 5 .depth, live-set. pairs by step"):
        measure_upper_probability(event)


def test_past_the_budget_value_exits_2_with_one_line(capsys, monkeypatch, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text(nested_event(4, 10))
    monkeypatch.setattr(core, "PAIR_BUDGET", 5)
    code, out, err = run(capsys, "value", "--engine", "measure", "--event", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: the measure engine reaches more than 5 ") and err.count("\n") == 1


def test_the_budget_refusal_names_the_step_it_stops_at(monkeypatch):
    """A budget one short of the pairs the game engine reaches through step k is refused at step k."""
    event = event_from_json(nested_event(4, 10))
    upper_game_probability(event)
    reached = list(accumulate(len(level) - (0 in level) for level in gameprob._engine(event)._values))
    for step in range(1, 11):
        monkeypatch.setattr(core, "PAIR_BUDGET", reached[step] - 1)
        with pytest.raises(MeasureBudgetError, match=f"pairs by step {step} of 10;"):
            measure_upper_probability(event)


def test_the_measure_engine_reaches_no_more_pairs_than_the_game_engine(monkeypatch):
    rng = random.Random(151)
    for _ in range(60):
        event = random_event(rng, max_horizon=5, max_boxes=6)
        value = upper_game_probability(event)
        reached = sum(len(level) - (0 in level) for level in gameprob._engine(event)._values)
        with monkeypatch.context() as patch:  # the next event's game solve reads the same budget
            patch.setattr(core, "PAIR_BUDGET", reached)
            assert measure_upper_probability(event)[0] == value


def test_exact_probability_follows_one_live_path_past_any_recursion_limit():
    event = EventUnion(1200, (Box((StepConstraint(HALF, HALF, 1),) * 1200),))
    assert exact_event_probability(ForecastingSystem.constant(HALF, 1200), event) == Fraction(1, 2**1200)

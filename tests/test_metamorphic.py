"""Metamorphic agreement: maps that keep an event's upper probability keep both engines equal.

Each generated event is solved by the game engine and by the measure
engine, and again after a map the paper's game leaves unchanged:

* the mirror map y -> 1 - y with [lo, hi] -> [1 - hi, 1 - lo], which swaps
  the roles of the two outcomes and of forecasts p and 1 - p;
* a cylinder lift, which pads every box with free steps: forecasts anywhere
  in [0, 1] and either outcome, so the event is the same set of prefixes;
* a permutation and a duplication of the boxes, which keep the union.

Every value must equal the unmapped game value.  Free steps inserted
anywhere, in runs, keep the value too; there the game engine, which shares
one level across a free step, must also agree at every (depth, live-set)
and in its witness bytes with the Fraction program of ``test_game_levels``,
which values each (depth, live-set) on its own.

Both engines must also keep the union bounds v(a) <= v(a u b) <= v(a) +
v(b), give a single box the product over its steps of hi (outcome 1),
1 - lo (outcome 0) or 1 (either outcome), and pick the same forecast at
every node: the measure witness's forecast after a history is the game
engine's smallest maximizer at that history's induced path.  Along a
decreasing sequence of events, each interval [a, b] cut to
[a, a + (b - a)/2^k], both values fall toward the value of the limit event
[a, a], the capacity's continuity along decreasing compact sets.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preqprob import gameprob
from preqprob.core import all_histories_below, induced_path
from preqprob.events import WILDCARD, Box, EventUnion, StepConstraint
from preqprob.gameprob import optimal_forecast_at, upper_game_probability, witness_superfarthingale
from preqprob.measureprob import measure_upper_probability
from preqprob.randgen import random_event
from test_game_levels import Reference, unbudgeted_tree_nodes

ZERO = Fraction(0)
ONE = Fraction(1)
FREE = StepConstraint(ZERO, ONE, WILDCARD)
EVENTS = 300


def mirror(event: EventUnion) -> EventUnion:
    def flip(step: StepConstraint) -> StepConstraint:
        return StepConstraint(ONE - step.p_hi, ONE - step.p_lo, WILDCARD if step.y is WILDCARD else 1 - step.y)

    return EventUnion(event.horizon, tuple(Box(tuple(map(flip, box.steps))) for box in event.boxes))


def lift(event: EventUnion, free: int = 3) -> EventUnion:
    return EventUnion(event.horizon + free, tuple(Box(box.steps + (FREE,) * free) for box in event.boxes))


def permute(event: EventUnion) -> EventUnion:
    """The boxes in an order drawn by a generator seeded with the event's box count and horizon."""
    boxes = list(event.boxes)
    random.Random(len(boxes) * 100 + event.horizon).shuffle(boxes)
    return EventUnion(event.horizon, tuple(boxes))


def duplicate(event: EventUnion) -> EventUnion:
    """Every box twice, the copy next to the box."""
    return EventUnion(event.horizon, tuple(box for box in event.boxes for _ in range(2)))


@pytest.mark.parametrize("transform", [mirror, lift, permute, duplicate])
def test_both_engines_keep_the_value_under(transform):
    rng = random.Random(20)
    failures = []
    for index in range(EVENTS):
        event = random_event(rng, allow_empty=True)
        value = upper_game_probability(event)
        mapped = transform(event)
        values = (measure_upper_probability(event)[0], upper_game_probability(mapped),
                  measure_upper_probability(mapped)[0])
        if values != (value,) * 3:
            failures.append((index, value, values))
    assert failures == []


def test_the_maps_change_the_events():
    """Neither map is the identity on the generated events, so the test compares different inputs."""
    event = random_event(random.Random(20), allow_empty=True)
    assert mirror(event) != event and mirror(mirror(event)) == event
    assert lift(event).horizon == event.horizon + 3
    assert len(duplicate(event).boxes) == 2 * len(event.boxes)
    rng = random.Random(20)
    events = [random_event(rng, allow_empty=True) for _ in range(EVENTS)]
    assert any(permute(event) != event for event in events)


def both_values(event: EventUnion) -> tuple:
    return upper_game_probability(event), measure_upper_probability(event)[0]


def test_both_engines_keep_the_union_bounds():
    rng = random.Random(24)
    for _ in range(100):
        horizon = rng.randint(1, 3)
        a, b = random_event(rng, horizon=horizon), random_event(rng, horizon=horizon)
        whole = EventUnion(horizon, a.boxes + b.boxes)
        for va, vb, vab in zip(both_values(a), both_values(b), both_values(whole)):
            assert va <= vab <= va + vb


def test_both_engines_give_a_box_the_product_of_its_steps():
    rng = random.Random(25)
    for _ in range(100):
        box = random_event(rng, max_boxes=1).boxes[0]
        expected = ONE
        for step in box.steps:
            expected *= step.p_hi if step.y == 1 else ONE - step.p_lo if step.y == 0 else ONE
        assert both_values(EventUnion(box.horizon, (box,))) == (expected, expected)


def test_both_engines_pick_the_smallest_maximizer():
    rng = random.Random(0)
    for _ in range(400):
        event = random_event(rng, max_horizon=4, max_boxes=4)
        _, witness = measure_upper_probability(event)
        for history in all_histories_below(event.horizon):
            assert optimal_forecast_at(event, induced_path(witness, history)) == witness.forecast(history)


def shrink(event: EventUnion, k) -> EventUnion:
    """Every interval [a, b] of ``event`` cut to [a, a + (b - a)/2^k]; ``k=None`` gives the limit [a, a]."""

    def cut(step: StepConstraint) -> StepConstraint:
        hi = step.p_lo if k is None else step.p_lo + (step.p_hi - step.p_lo) / 2**k
        return StepConstraint(step.p_lo, hi, step.y)

    return EventUnion(event.horizon, tuple(Box(tuple(map(cut, box.steps))) for box in event.boxes))


SHRINKS = 4


@st.composite
def random_events(draw):
    return random_event(random.Random(draw(st.integers(0, 2**32 - 1))), max_boxes=draw(st.integers(1, 3)))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(random_events())
@example(EventUnion(1, (Box((StepConstraint(ZERO, ONE, 1),)),)))  # the gap bound holds with equality
def test_values_fall_to_the_limit_along_shrinking_intervals(event):
    values = [both_values(shrink(event, k)) for k in [*range(SHRINKS + 1), None]]
    assert all(game == measure for game, measure in values)
    *terms, limit = [game for game, _ in values]
    assert all(a >= b for a, b in zip(terms, terms[1:])) and terms[-1] >= limit
    if len(event.boxes) == 1:
        # A box's value is a product of factors in [0, 1], so it moves by at most the factors' total change.
        width = max(step.p_hi - step.p_lo for step in event.boxes[0].steps)
        assert all(value - limit <= event.horizon * width / 2**k for k, value in enumerate(terms))


def insert_free(event: EventUnion, gaps) -> EventUnion:
    """``event`` with a free step inserted before step g + 1 of every box for each g in ``gaps``."""

    def pad(steps):
        return sum(((FREE,) * gaps.count(g) + steps[g : g + 1] for g in range(event.horizon + 1)), ())

    return EventUnion(event.horizon + len(gaps), tuple(Box(pad(box.steps)) for box in event.boxes))


# Most tree nodes for which the property also compares witness bytes.
WITNESS_NODES = 5000


@st.composite
def events_with_free_runs(draw):
    horizon = draw(st.integers(1, 6))
    event = random_event(random.Random(draw(st.integers(0, 2**32 - 1))), horizon=horizon, allow_empty=True)
    return event, sorted(draw(st.lists(st.integers(0, horizon), max_size=12 - horizon)))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(events_with_free_runs())
@example((random_event(random.Random(3), horizon=3), [0, 0, 1, 3, 3, 3]))
@example((EventUnion(2, ()), [0, 1, 2]))
# Step 1 is one cell [0, 1] but not free: the two boxes ask different outcomes there.
@example((EventUnion(2, (Box((StepConstraint(ZERO, ONE, 1), StepConstraint(ZERO, ONE / 2, 1))),
                         Box((StepConstraint(ZERO, ONE, 0), StepConstraint(ONE / 2, ONE, 0))))), [1, 2]))
def test_free_runs_keep_both_values_and_every_level(case):
    event, gaps = case
    lifted = insert_free(event, gaps)
    value = upper_game_probability(event)
    assert upper_game_probability(lifted) == value
    assert measure_upper_probability(lifted)[0] == value
    engine = gameprob._engine(lifted)
    reference = Reference(lifted)  # memoized per (depth, live-set): no level is shared
    assert [set(level) | {0} for level in engine._values] == [set(level) | {0} for _, level in reference.prefixes()]
    for depth, level in enumerate(engine._values):
        for live in level:
            assert engine.value(depth, live) == reference.value(depth, live)
    if unbudgeted_tree_nodes(engine.partitions) <= WITNESS_NODES:
        assert witness_superfarthingale(lifted).to_json() == reference.witness_json()

"""Set-up and solve by runs of equal steps, equal to the per-depth programs they replaced.

``per_distinct_step`` finds where the column of box steps changes and calls
``build`` once per distinct column, at its first depth, filling each run
with that one result; ``_GameEngine._solve`` walks runs of one partition
object, a free run taking its level, value dict and denominator at once.
The properties below compare both with per-depth programs kept here, on
events with free runs, repeated and interleaved columns, no boxes and
horizon 1.  A budget refusal inside a free run must name the step a
per-depth count names.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preqprob import core, events, gameprob
from preqprob.events import WILDCARD, Box, EventUnion, StepConstraint, event_from_json, event_partitions
from test_value_memo import PROPERTY

NESTED = Path(__file__).parent / "data" / "nested_union_300.json"
FREE = StepConstraint(Fraction(0), Fraction(1), WILDCARD)


def reference_per_distinct_step(event: EventUnion, build) -> tuple:
    """``build(depth)`` at every depth, reused where an earlier depth holds the very same step objects."""
    first: dict = {}
    built: list = []
    for depth in range(event.horizon):
        j = first.setdefault(tuple(id(box.steps[depth]) for box in event.boxes), depth)
        built.append(built[j] if j < depth else build(depth))
    return tuple(built)


def reference_levels(partitions, full: int) -> list:
    """The live-sets reached at each depth, stepped through every cell of every depth."""
    levels = [{full} - {0}]
    for partition in partitions:
        levels.append({live & m for live in levels[-1] for pair in partition.masks for m in pair} - {0})
    return levels


def reference_solve(partitions, full: int) -> tuple[list, list]:
    """Each depth's numerators and denominator, every cell of every depth scored at both of its ends."""
    levels = reference_levels(partitions, full)
    below = {live: 1 for live in levels[-1]} | {0: 0}
    values, denominators = [below], [1]
    for depth in reversed(range(len(partitions))):
        q, rows = partitions[depth].scale, partitions[depth].rows
        here = {0: 0}
        for live in levels[depth]:
            scores = [
                q * below[live & m0] + a * (below[live & m1] - below[live & m0])
                for m0, m1, lo, hi in rows
                for a in (lo, hi)
            ]
            here[live] = max([0, *scores])
        values.append(here)
        denominators.append(q * denominators[-1])
        below = here
    return values[::-1], denominators[::-1]


ENDS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]


@st.composite
def step_constraints(draw):
    lo, hi = sorted([draw(st.sampled_from(ENDS)), draw(st.sampled_from(ENDS))])
    return StepConstraint(lo, hi, draw(st.sampled_from([WILDCARD, 0, 1])))


@st.composite
def run_events(draw):
    """Up to three boxes over runs of columns drawn from a pool of at most three, one of them free.

    A column is one step object per box; runs of one column repeat it, and
    the pool's columns come back after others (A B A).
    """
    n_boxes = draw(st.integers(0, 3))
    pool = [(FREE,) * n_boxes] + draw(
        st.lists(st.lists(step_constraints(), min_size=n_boxes, max_size=n_boxes).map(tuple), min_size=1, max_size=2)
    )
    runs = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 6)), min_size=1, max_size=6))
    columns = [pool[c] for c, length in runs for _ in range(length)]
    boxes = tuple(Box(tuple(column[i] for column in columns)) for i in range(n_boxes))
    return EventUnion(len(columns), boxes)


def one_column(n_boxes: int, horizon: int) -> EventUnion:
    step = StepConstraint(Fraction(1, 3), Fraction(1), 1)
    return EventUnion(horizon, tuple(Box((step,) * horizon) for _ in range(n_boxes)))


def interleaved() -> EventUnion:
    """Columns A A B A B B: A comes back after B, and B after A."""
    a, b = StepConstraint(Fraction(0), Fraction(1, 2), 0), StepConstraint(Fraction(1, 2), Fraction(1), 1)
    return EventUnion(6, (Box((a, a, b, a, b, b)), Box((b, b, FREE, b, FREE, FREE))))


def calls_and_sharing(setup, event: EventUnion):
    """The depths ``build`` is called at, and each depth's result as the index of the call that made it."""
    calls, made = [], []

    def build(depth):
        calls.append(depth)
        made.append(object())
        return made[-1]

    built = setup(event, build)
    return calls, [next(i for i, thing in enumerate(made) if thing is result) for result in built]


@settings(PROPERTY, max_examples=50)
@given(run_events())
@example(EventUnion(1, ()))  # no boxes, horizon 1
@example(EventUnion(5, ()))  # no boxes
@example(one_column(2, 1))  # horizon 1
@example(one_column(3, 7))  # one run over the whole horizon
@example(interleaved())
def test_per_distinct_step_equals_the_per_depth_reference(event):
    calls, sharing = calls_and_sharing(events.per_distinct_step, event)
    expected_calls, expected_sharing = calls_and_sharing(reference_per_distinct_step, event)
    assert calls == expected_calls  # once per distinct column, in increasing depth
    assert sharing == expected_sharing  # each depth gets the very same object
    assert len(sharing) == event.horizon
    partitions = event_partitions(event)
    expected = reference_per_distinct_step(event, lambda depth: events.forecast_partition(event, depth + 1))
    assert partitions == expected
    assert [partitions.index(p) for p in partitions] == [expected.index(p) for p in expected]


@settings(PROPERTY, max_examples=50)
@given(run_events())
@example(EventUnion(1, ()))
@example(EventUnion(5, ()))
@example(one_column(2, 1))
@example(one_column(3, 7))
@example(interleaved())
def test_the_run_solve_equals_the_per_depth_reference(event):
    engine = gameprob._GameEngine(event)
    values, denominators = reference_solve(engine.partitions, engine.all_live())
    assert engine._values == values
    assert engine._denominators == denominators
    assert engine.masks == tuple(partition.masks for partition in engine.partitions)


def per_depth_refusal(levels: list, budget: int):
    """The refusal text of a count of the (depth, live-set) pairs of ``levels``, depth by depth, or None within the budget."""
    count = 0
    for depth, level in enumerate(levels):
        count += len(level)
        if count > budget:
            return (
                f"the game engine reaches more than {budget} (depth, live-set) pairs by step {depth} "
                f"of {len(levels) - 1}; too many overlapping boxes"
            )
    return None


def test_a_refusal_inside_the_free_run_names_the_per_depth_step(monkeypatch):
    """The last 290 steps of the nested union share one level: every budget refusal there names the step a count per depth names."""
    event = event_from_json(NESTED.read_text())
    engine = gameprob._GameEngine(event)
    levels = reference_levels(engine.partitions, engine.all_live())
    assert len({id(p) for p in engine.partitions[10:]}) == 1 and engine.partitions[10].masks == (
        (engine.all_live(),) * 2,
    )
    counts = [sum(map(len, levels[: depth + 1])) for depth in range(len(levels))]
    # Past the count at the free run's first depths, in its middle and at its last step, and one short of it.
    budgets = [counts[d] + k for d in (10, 11, 12, 150, 298, 299) for k in (-1, 0, 1, len(levels[d]) - 1)]
    refused = set()
    for budget in budgets:
        monkeypatch.setattr(core, "PAIR_BUDGET", budget)
        expected = per_depth_refusal(levels, budget)
        try:
            gameprob._GameEngine(event)
        except gameprob.LiveSetBudgetError as exc:
            assert str(exc) == expected
            refused.add(str(exc).split(" pairs by ")[1])
        else:
            assert expected is None
    assert {"step 12 of 300; too many overlapping boxes", "step 151 of 300; too many overlapping boxes",
            "step 300 of 300; too many overlapping boxes"} <= refused


@pytest.mark.parametrize("name", ["horizon_400_event.json", "mixed_forms_event.json"])
def test_committed_events_solve_as_the_per_depth_reference(name):
    event = event_from_json((NESTED.parent / name).read_text())
    engine = gameprob._GameEngine(event)
    assert (engine._values, engine._denominators) == reference_solve(engine.partitions, engine.all_live())
    calls, sharing = calls_and_sharing(events.per_distinct_step, event)
    assert (calls, sharing) == calls_and_sharing(reference_per_distinct_step, event)

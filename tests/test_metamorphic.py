"""Metamorphic agreement: maps that keep an event's upper probability keep both engines equal.

Each generated event is solved by the game engine and by the measure
engine, and again after a map the paper's game leaves unchanged:

* the mirror map y -> 1 - y with [lo, hi] -> [1 - hi, 1 - lo], which swaps
  the roles of the two outcomes and of forecasts p and 1 - p;
* a cylinder lift, which pads every box with free steps: forecasts anywhere
  in [0, 1] and either outcome, so the event is the same set of prefixes.

Every value must equal the unmapped game value.
"""

import random
from fractions import Fraction

import pytest

from preqprob.events import WILDCARD, Box, EventUnion, StepConstraint
from preqprob.gameprob import upper_game_probability
from preqprob.measureprob import measure_upper_probability
from preqprob.randgen import random_event

ONE = Fraction(1)
FREE = StepConstraint(Fraction(0), ONE, WILDCARD)
EVENTS = 300


def mirror(event: EventUnion) -> EventUnion:
    def flip(step: StepConstraint) -> StepConstraint:
        return StepConstraint(ONE - step.p_hi, ONE - step.p_lo, WILDCARD if step.y is WILDCARD else 1 - step.y)

    return EventUnion(event.horizon, tuple(Box(tuple(map(flip, box.steps))) for box in event.boxes))


def lift(event: EventUnion, free: int = 3) -> EventUnion:
    return EventUnion(event.horizon + free, tuple(Box(box.steps + (FREE,) * free) for box in event.boxes))


@pytest.mark.parametrize("transform", [mirror, lift])
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

"""The Lévy strategy steps as its regime rules say, against a reference stepper written from them."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from preqprob.gameprob import LevyStrategy, conditional_upper_probability, levy_strategy_step
from preqprob.randgen import random_event

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)

PROPERTY = settings(derandomize=True, deadline=None, database=None)

thresholds = st.integers(2, 12).flatmap(lambda q: st.integers(1, q - 1).map(lambda a: Fraction(a, q)))
interior = st.integers(1, 60).flatmap(lambda q: st.integers(0, q).map(lambda a: Fraction(a, q)))


@st.composite
def events_and_paths(draw):
    """A random event (horizon at most 4, at most 3 boxes) and a full path through it.

    A path mostly follows one box, so rides can reach their milestones: each
    forecast is a bound or the midpoint of that box's interval, with the
    box's outcome.  Otherwise a forecast is a cell endpoint of its step (a
    box bound, 0 or 1), a midpoint between two neighbouring endpoints, or any
    rational in [0, 1], with any outcome.
    """
    event = random_event(random.Random(draw(st.integers(0, 2**32))), max_horizon=4, max_boxes=3)
    box = draw(st.sampled_from(event.boxes))
    path = []
    for t, step in enumerate(box.steps):
        if draw(st.integers(0, 3)):
            p = draw(st.sampled_from([step.p_lo, step.p_hi, (step.p_lo + step.p_hi) / 2]))
            y = step.y if step.y in (0, 1) else draw(st.integers(0, 1))
        else:
            bounds = sorted({ZERO, ONE}.union(*({b.steps[t].p_lo, b.steps[t].p_hi} for b in event.boxes)))
            midpoints = [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
            p, y = draw(st.one_of(st.sampled_from(bounds + midpoints), interior)), draw(st.integers(0, 1))
        path.append((p, y))
    return event, tuple(path)


def reference_trace(event, threshold, path):
    """(capital, milestones, conditional, regime, ride_base) at every depth of ``path``.

    Three branches, as the strategy is specified: a riding state rescales
    the conditional value w to capital milestone * w / ride_base and, once
    that reaches milestone / threshold, records it as a milestone and
    waits; a riding state below that keeps riding; a waiting state keeps its
    capital.  Then a waiting state with positive capital starts a ride from
    any w strictly between 0 and the threshold.
    """
    capital, milestone, regime, ride_base, milestones = ONE, ONE, "waiting", None, ()
    trace = []
    for depth in range(len(path) + 1):
        w = conditional_upper_probability(event, path[:depth])
        if regime == "riding":
            capital = milestone * w / ride_base
            if capital >= milestone / threshold:
                regime, milestone, ride_base, milestones = "waiting", capital, None, milestones + (capital,)
        if regime == "waiting" and ZERO < w < threshold and capital > ZERO:
            regime, milestone, ride_base = "riding", capital, w
        trace.append((capital, milestones, w, regime, ride_base))
    return trace


@PROPERTY
@given(events_and_paths(), thresholds)
def test_levy_strategy_steps_as_the_reference(case, threshold):
    event, path = case
    states = [LevyStrategy.start(event, threshold)]
    for pair in path:
        states.append(levy_strategy_step(states[-1], pair))
    observed = [(s.capital, s.milestones, s.conditional, s.regime, s.ride_base) for s in states]
    assert observed == reference_trace(event, threshold, path)
    assert levy_strategy_step(states[-1], (HALF, 1)) is states[-1]  # past the horizon

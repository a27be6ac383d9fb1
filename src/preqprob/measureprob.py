"""Measure-theoretic engine: event probabilities under forecasting systems.

A forecasting system induces a probability measure on outcome sequences; the
probability it assigns to a prequential event is the measure of the outcomes
whose induced forecast/outcome path lands in the event.  The upper
measure-theoretic probability is the supremum of that quantity over all
forecasting systems.

For box unions both quantities are exact.  ``exact_event_probability`` sums
cylinder weights down the binary outcome tree.  ``measure_upper_probability``
runs a dynamic program over the same tree: at each outcome history the
candidate forecasts are the box interval endpoints of the next step together
with 0 and 1 (between consecutive endpoints the objective is linear in the
forecast and its one-sided limits never beat the closed-endpoint values, so
the finite candidate set realizes the true supremum).  The boxes still
consistent with a history form its live-set, an ``int`` bitmask (bit i for
box i); the program is memoized on (depth, live-set).  Once per event it
precomputes, per step and candidate forecast, the masks of the boxes that
accept that forecast with outcome 0 and with outcome 1, so the live-sets
after a step are ``live & mask``; steps whose box constraints repeat an
earlier step's share its candidates and masks.  The memo is the witness: a
forecasting system in stepping form whose state is (depth, live-set), where
one step reads the memoized maximizer and its two masks.  A path of n steps
costs n memo lookups, the table of all histories 2^N - 1, and it is a table
only when written.  The masks come from this module's own interval tests, and the
engine shares no code with the game-theoretic engine in ``gameprob``; the
equality of the two roots on every box union is the coincidence theorem the
test suite verifies rather than assumes.

Box-union events induce finite unions of outcome cylinders, so no outer
measure subtleties arise: everything here is plainly measurable.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction

from .core import (
    ONE,
    ZERO,
    ForecastingSystem,
    InputError,
    all_histories_below,
    check_walk,
    cylinder_probability,
    induced_path,
    outcome_tree_nodes,
    sample_outcomes,
)
from .events import WILDCARD, ArityError, EventUnion, contains, per_distinct_step

# Refuse grid enumerations beyond this many forecasting systems.
GRID_ENUMERATION_LIMIT = 10**7


class EnumerationLimitError(InputError):
    """The requested brute-force enumeration exceeds the guarded size."""


def exact_event_probability(phi: ForecastingSystem, event: EventUnion) -> Fraction:
    """Exact probability that the induced path lies in the event.

    Tree recursion over outcome histories, stepping the system into each
    child; branches no box can accept are pruned with their whole cylinder
    weight dropped.
    """
    if phi.horizon < event.horizon:
        raise ArityError(
            f"system horizon {phi.horizon} below event horizon {event.horizon}"
        )
    boxes = event.boxes

    def walk(depth: int, state, live: tuple) -> Fraction:
        if not live:
            return ZERO
        if depth == event.horizon:
            return ONE
        p, after0, after1 = phi.expand(state)
        total = ZERO
        for y, weight, after in ((0, ONE - p, after0), (1, p, after1)):
            if weight == ZERO:
                continue
            surviving = tuple(i for i in live if boxes[i].steps[depth].accepts(p, y))
            total += weight * walk(depth + 1, after, surviving)
        return total

    return walk(0, phi.start, tuple(range(len(boxes))))


def _forecast_candidates(event: EventUnion, depth: int) -> tuple:
    points = {ZERO, ONE}
    for box in event.boxes:
        step = box.steps[depth]
        points.add(step.p_lo)
        points.add(step.p_hi)
    return tuple(sorted(points))


def measure_upper_probability(event: EventUnion) -> tuple[Fraction, ForecastingSystem]:
    """Maximize the exact event probability over forecasting systems.

    Returns the exact maximum and a witness system attaining it: the smallest
    maximizing forecast after a history, read from the memo at its live-set.
    The witness is in stepping form with state (depth, live-set), so each
    step is one memo lookup.
    """
    horizon = event.horizon
    # ``value`` prints the witness as a table over all 2^N histories, and
    # ``best`` recurses once per step; refuse before any work.
    check_walk(outcome_tree_nodes(horizon), f"the measure witness at horizon {horizon}")
    # Steps whose box constraints repeat an earlier step's share its candidates and masks.
    candidates = per_distinct_step(event, lambda depth: _forecast_candidates(event, depth))

    def step_masks(depth: int) -> list:
        points = candidates[depth]
        steps = [box.steps[depth] for box in event.boxes]
        by_bit = [
            sum(1 << i for i, step in enumerate(steps) if step.y is WILDCARD or step.y == y)
            for y in (0, 1)
        ]
        # The candidates are sorted, so those in [p_lo, p_hi] form one run.
        inside = [0] * len(points)
        for i, step in enumerate(steps):
            for j in range(
                bisect.bisect_left(points, step.p_lo), bisect.bisect_right(points, step.p_hi)
            ):
                inside[j] |= 1 << i
        return [(m & by_bit[0], m & by_bit[1]) for m in inside]

    # accepts[depth][j]: bitmasks of the boxes accepting (candidates[depth][j], 0) and (..., 1).
    accepts = per_distinct_step(event, step_masks)
    memo: list[dict] = [{} for _ in range(horizon)]

    def best(depth: int, live: int) -> tuple[Fraction, int]:
        """The maximal value at a node and the index of the smallest forecast attaining it."""
        if not live:
            return ZERO, 0
        if depth == horizon:
            return ONE, 0
        cached = memo[depth].get(live)
        if cached is not None:
            return cached
        value, winner = ZERO, 0
        # Ascending candidates, so the first strict maximum is the smallest maximizer.
        for j, (p, (m0, m1)) in enumerate(zip(candidates[depth], accepts[depth])):
            if not live & (m0 | m1):
                continue  # no box survives: the value 0 never beats the running maximum
            v0 = best(depth + 1, live & m0)[0]
            v1 = best(depth + 1, live & m1)[0]
            candidate = v0 if v0 == v1 else v0 + p * (v1 - v0)
            if candidate > value:
                value, winner = candidate, j
        memo[depth][live] = value, winner
        return value, winner

    root = (1 << len(event.boxes)) - 1
    value = best(0, root)[0]

    def expand(state: tuple) -> tuple:
        # best() evaluated both children of every winner (both are 0 when no box
        # survived), so stepping only reads the memo.
        depth, live = state
        j = best(depth, live)[1]
        m0, m1 = accepts[depth][j]
        return candidates[depth][j], (depth + 1, live & m0), (depth + 1, live & m1)

    return value, ForecastingSystem._trusted(horizon, (0, root), expand)


def grid_bruteforce(event: EventUnion, k: int) -> Fraction:
    """Maximum event probability over all forecasting systems on the grid {0, 1/k, ..., 1}.

    Exhaustive enumeration straight from the definitions (cylinder weights of
    outcomes whose induced path the event contains), kept independent of the
    dynamic programs so it can serve as their oracle.  Equals the true upper
    measure-theoretic probability whenever every box endpoint is a multiple of
    1/k; in general it is a lower bound, nondecreasing under grid refinement.
    """
    if k < 1:
        raise InputError("grid parameter k must be a positive integer")
    horizon = event.horizon
    positions = list(all_histories_below(horizon))
    system_count = (k + 1) ** len(positions)
    if system_count > GRID_ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"grid enumeration needs {system_count} systems "
            f"(limit {GRID_ENUMERATION_LIMIT}); shrink the horizon or the grid"
        )
    grid = [Fraction(j, k) for j in range(k + 1)]
    outcomes = list(itertools.product((0, 1), repeat=horizon))
    best = ZERO
    for assignment in itertools.product(grid, repeat=len(positions)):
        phi = ForecastingSystem.from_table(dict(zip(positions, assignment)), horizon)
        prob = ZERO
        for omega in outcomes:
            if contains(event, induced_path(phi, omega)):
                prob += cylinder_probability(phi, omega)
        if prob > best:
            best = prob
    return best


def monte_carlo_probability(
    phi: ForecastingSystem, event: EventUnion, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the exact event probability, with an error bar.

    Sample i uses ``sample_outcomes(phi, N, seed + i)``.  Returns the hit
    fraction and the half-width 4 * sqrt(est * (1 - est) / samples).
    """
    if samples < 1:
        raise InputError("samples must be at least 1")
    if phi.horizon < event.horizon:
        raise ArityError(
            f"system horizon {phi.horizon} below event horizon {event.horizon}"
        )
    hits = 0
    for i in range(samples):
        omega = sample_outcomes(phi, event.horizon, seed + i)
        if contains(event, induced_path(phi, omega)):
            hits += 1
    estimate = hits / samples
    half_width = 4.0 * math.sqrt(estimate * (1.0 - estimate) / samples)
    return estimate, half_width

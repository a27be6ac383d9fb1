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
after a step are ``live & mask``.  The memo is the witness: it follows the
memoized maximizers along a history, and is a table only when written.
The masks come from this module's own interval tests, and the
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
    MAX_TABLE_HORIZON,
    ONE,
    ZERO,
    BinaryHistory,
    ForecastingSystem,
    HorizonError,
    all_histories_below,
    cylinder_probability,
    induced_path,
    sample_outcomes,
)
from .events import WILDCARD, ArityError, EventUnion, contains

# Refuse grid enumerations beyond this many forecasting systems.
GRID_ENUMERATION_LIMIT = 10**7


class EnumerationLimitError(RuntimeError):
    """The requested brute-force enumeration exceeds the guarded size."""


def exact_event_probability(phi: ForecastingSystem, event: EventUnion) -> Fraction:
    """Exact probability that the induced path lies in the event.

    Tree recursion over outcome histories; branches no box can accept are
    pruned with their whole cylinder weight dropped.
    """
    if phi.horizon < event.horizon:
        raise ArityError(
            f"system horizon {phi.horizon} below event horizon {event.horizon}"
        )
    boxes = event.boxes

    def walk(history: BinaryHistory, live: tuple) -> Fraction:
        if not live:
            return ZERO
        if len(history) == event.horizon:
            return ONE
        depth = len(history)
        p = phi.forecast(history)
        total = ZERO
        for y, weight in ((0, ONE - p), (1, p)):
            if weight == ZERO:
                continue
            surviving = tuple(i for i in live if boxes[i].steps[depth].accepts(p, y))
            total += weight * walk(history + (y,), surviving)
        return total

    return walk((), tuple(range(len(boxes))))


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
    """
    horizon = event.horizon
    if horizon > MAX_TABLE_HORIZON:
        # ``value`` prints the witness as a table over all 2^N histories, and
        # ``best`` recurses once per step; refuse before any work.
        raise HorizonError(f"table form limited to horizon {MAX_TABLE_HORIZON}")
    candidates = [_forecast_candidates(event, depth) for depth in range(horizon)]
    # accepts[depth][j]: bitmasks of the boxes accepting (candidates[depth][j], 0) and (..., 1).
    accepts = []
    for depth in range(horizon):
        steps = [box.steps[depth] for box in event.boxes]
        by_bit = [
            sum(1 << i for i, step in enumerate(steps) if step.y is WILDCARD or step.y == y)
            for y in (0, 1)
        ]
        # The candidates are sorted, so those in [p_lo, p_hi] form one run.
        inside = [0] * len(candidates[depth])
        for i, step in enumerate(steps):
            for j in range(
                bisect.bisect_left(candidates[depth], step.p_lo),
                bisect.bisect_right(candidates[depth], step.p_hi),
            ):
                inside[j] |= 1 << i
        accepts.append([(m & by_bit[0], m & by_bit[1]) for m in inside])
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

    def rule(history: BinaryHistory) -> Fraction:
        # best() evaluated both children of every winner (both are 0 when no box
        # survived), so this walk only reads the memo.
        live = root
        for depth, y in enumerate(history):
            live &= accepts[depth][best(depth, live)[1]][y]
        depth = len(history)
        return candidates[depth][best(depth, live)[1]]

    return value, ForecastingSystem(horizon, rule)


def grid_bruteforce(event: EventUnion, k: int) -> Fraction:
    """Maximum event probability over all forecasting systems on the grid {0, 1/k, ..., 1}.

    Exhaustive enumeration straight from the definitions (cylinder weights of
    outcomes whose induced path the event contains), kept independent of the
    dynamic programs so it can serve as their oracle.  Equals the true upper
    measure-theoretic probability whenever every box endpoint is a multiple of
    1/k; in general it is a lower bound, nondecreasing under grid refinement.
    """
    if k < 1:
        raise ValueError("grid parameter k must be a positive integer")
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
        raise ValueError("samples must be at least 1")
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

"""Measure-theoretic engine: event probabilities under forecasting systems.

A forecasting system induces a probability measure on outcome sequences; the
probability it assigns to a prequential event is the measure of the outcomes
whose induced forecast/outcome path lands in the event.  The upper
measure-theoretic probability is the supremum of that quantity over all
forecasting systems.

For box unions both quantities are exact.  ``exact_event_probability`` sums
cylinder weights over the distinct (system state, surviving boxes) pairs of
each depth of the outcome tree, level by level.
``measure_upper_probability`` runs a dynamic program over the same tree: at
each outcome history the candidate forecasts are the box interval endpoints
of the next step together with 0 and 1 (between consecutive endpoints the
objective is linear in the forecast and its one-sided limits never beat the
closed-endpoint values, so the finite candidate set realizes the true
supremum).  The boxes still consistent with a history form its live-set, an
``int`` bitmask (bit i for box i), and a node's value depends only on its
(depth, live-set).  Once per distinct step the engine puts the candidates
on integers, a = p*q over the lcm q of the step's endpoint denominators, and
gives each the masks of the boxes accepting it with outcome 0 and with
outcome 1, so the live-sets after a step are ``live & mask``.  The masks
come from one sweep over the candidates: each box's bit flips on at its
interval's first candidate and off after its last, and a running XOR
gives every candidate's mask.  A live-set of one box scores 0 outside its
box's interval and linearly in a inside it, so the engine reads only the
interval's first and last candidates for it, and the box alone reaches
only itself.

The program runs in level order, without recursion.  A forward pass collects
the live-sets reachable through candidates with a survivor, counted by the
engine's own counter against ``core.PAIR_BUDGET`` and refused past it with
its own error; a backward pass fills in their values.  A value at depth d is
an integer numerator over one denominator per depth, the product of the q of
steps d..N-1, so the pass compares integers and builds no Fraction but the
root value.  The maximizers the backward pass keeps per (depth,
live-set) are the witness: a forecasting system in stepping form whose state
is (depth, live-set), where one step reads the maximizer and its two masks.
A path of n steps costs n lookups, and a whole-tree walk, such as ``to_json``,
one per distinct (depth, live-set) state.  The masks come from this module's
own interval tests, and the engine shares no code with the game-theoretic
engine in ``gameprob``; the equality of the two roots on every box union is
the coincidence theorem the test suite verifies rather than assumes.

Box-union events induce finite unions of outcome cylinders, so no outer
measure subtleties arise: everything here is plainly measurable.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from . import core
from .core import (ONE, ZERO, ForecastingSystem, InputError, check_samples, check_seed, check_walk, induced_path,
                   level_graph, outcome_tree_nodes, sample_outcomes)
from .events import WILDCARD, ArityError, EventUnion, contains, per_distinct_step

# Refuse grid enumerations beyond this many forecasting systems.
GRID_ENUMERATION_LIMIT = 10**7


class EnumerationLimitError(InputError):
    """The requested brute-force enumeration exceeds the guarded size."""


class MeasureBudgetError(InputError):
    """An event's measure program reaches more (depth, live-set) pairs than ``core.PAIR_BUDGET``."""


def exact_event_probability(phi: ForecastingSystem, event: EventUnion) -> Fraction:
    """Exact probability that the induced path lies in the event.

    ``level_graph`` walks (system state, surviving boxes) pairs, equal pairs
    of a depth being one, and counts them against ``core.PAIR_BUDGET``;
    branches no box can accept, or of weight 0, are pruned with their whole
    cylinder.  The cylinder weights then go forward over the links in one pass.
    """
    if phi.horizon < event.horizon:
        raise ArityError(f"system horizon {phi.horizon} below event horizon {event.horizon}")
    boxes, expand = event.boxes, phi.expand
    if not boxes:
        return ZERO

    def step(pair, depth) -> tuple:
        state, live = pair
        p, after0, after1 = expand(state)
        weights, children = [], []
        for y, w, after in ((0, ONE - p, after0), (1, p, after1)):
            surviving = tuple(i for i in live if boxes[i].steps[depth].accepts(p, y)) if w else ()
            if surviving:
                weights.append(w)
                children.append((after, surviving))
        return weights, children

    start = (phi.start, tuple(range(len(boxes))))
    pairs, weights, links = level_graph(start, step, event.horizon, "the outcome walk of the event")
    mass = [ONE]
    for states, level, kids in zip(pairs[1:], weights, links):
        below = [ZERO] * len(states)
        for m, ws, children in zip(mass, level, kids):
            for w, child in zip(ws, children):
                below[child] += m * w
        mass = below
    return sum(mass, ZERO)


def _forecast_candidates(event: EventUnion, depth: int) -> tuple:
    """A step's candidate forecasts on integers, each with its two box masks.

    Returns ``(q, forecasts, rows, own)``.  ``q`` is the lcm of the step's
    endpoint denominators, so each endpoint p is the integer a = p*q, and
    the candidates are the distinct such integers in ascending order, 0 and
    q among them.  Candidate j is the Fraction ``forecasts[j]``, for the
    witness, and the row ``rows[j]``, (j, a, q - a, m0, m1), with bit i of m0
    and m1 set when box i accepts the forecast together with outcome 0 and
    outcome 1 respectively.  Box i's bit flips on at its interval's first
    candidate and off after its last, and the running XOR of the flips is
    each candidate's mask.  ``own`` maps the live-set {i} of each box i to
    the rows of its interval's first and last candidates, one row for a
    point interval.
    """
    steps = [box.steps[depth] for box in event.boxes]
    endpoints = [p for step in steps for p in (step.p_lo, step.p_hi)]
    ratios = [p.as_integer_ratio() for p in endpoints]
    q = math.lcm(*[d for _, d in ratios])
    ends = [n * (q // d) for n, d in ratios]  # box i's interval is [ends[2i], ends[2i+1]]
    forecast = {0: ZERO, q: ONE}
    for a, p in zip(ends, endpoints):
        forecast.setdefault(a, p)
    ints = sorted(forecast)
    index = {a: j for j, a in enumerate(ints)}
    flips = [0] * (len(ints) + 1)
    by_bit = [0, 0]  # bit i: box i's step allows the outcome
    spans = {}  # {i} -> the indices of box i's interval's first and last candidates
    for i, step in enumerate(steps):
        bit, first, last = 1 << i, index[ends[2 * i]], index[ends[2 * i + 1]]
        flips[first] ^= bit
        flips[last + 1] ^= bit
        if step.y is WILDCARD or step.y == 0:
            by_bit[0] |= bit
        if step.y is WILDCARD or step.y == 1:
            by_bit[1] |= bit
        spans[bit] = first, last
    inside = itertools.accumulate(flips[:-1], operator.xor)  # bit i: box i's interval holds the candidate
    rows = [(j, a, q - a, m & by_bit[0], m & by_bit[1]) for j, (a, m) in enumerate(zip(ints, inside))]
    own = {bit: (rows[j], rows[k]) if j < k else (rows[j],) for bit, (j, k) in spans.items()}
    return q, [forecast[a] for a in ints], rows, own


def measure_upper_probability(event: EventUnion) -> tuple[Fraction, ForecastingSystem]:
    """Maximize the exact event probability over forecasting systems.

    Returns the exact maximum and a witness system attaining it: after a
    history, the smallest maximizing forecast at its (depth, live-set).  The
    live-sets are collected going forward and valued going back, on integer
    numerators; the witness is in stepping form with state (depth, live-set),
    so each step is one lookup of the maximizers the backward pass kept.
    """
    horizon, budget = event.horizon, core.PAIR_BUDGET
    # ``value`` prints the witness as a table over all 2^N histories; refuse before any work.
    check_walk(outcome_tree_nodes(horizon), f"the measure witness at horizon {horizon}")
    # Steps whose box constraints repeat an earlier step's share its candidates and masks.
    steps = per_distinct_step(event, lambda depth: _forecast_candidates(event, depth))
    root = (1 << len(event.boxes)) - 1

    levels = [{root} - {0}]
    count = len(levels[0])
    for depth in range(horizon):
        _, _, rows, own = steps[depth]
        masks = [m for row in rows for m in row[3:]]
        # Holding 0 from the start, len(reached) - 1 counts the non-empty live-sets.
        reached = {0}
        for live in levels[depth]:
            if live in own:  # a box alone: its interval holds a candidate with an outcome it allows
                reached.add(live)
            else:
                reached.update([live & m for m in masks])
            if count + len(reached) - 1 > budget:
                raise MeasureBudgetError(
                    f"the measure engine reaches more than {budget} (depth, live-set) "
                    f"pairs by step {depth + 1} of {horizon}; too many overlapping boxes"
                )
        reached.discard(0)
        count += len(reached)
        levels.append(reached)

    # below[live]: the value at the depth below, as a numerator over that depth's denominator.
    below = dict.fromkeys(levels[horizon], 1)
    below[0] = 0
    denominator = 1
    winners = [None] * horizon  # per depth, the index of the smallest maximizing candidate
    for depth in reversed(range(horizon)):
        q, _, rows, own = steps[depth]
        denominator *= q
        here, won = {0: 0}, {0: 0}
        for live in levels[depth]:
            # Candidate j scores (q - a)*n0 + a*n1.  The strict > keeps the smallest
            # index among the largest scores, and 0 when that score is 0.  A live-set
            # of one box scores 0 outside its interval and linearly in a inside it,
            # so its interval's first and last candidates, in that order, pick the
            # same winner: the first on a tie or a falling score, the last on a rising one.
            value = winner = 0
            for j, a, b, m0, m1 in own.get(live, rows):
                candidate = b * below[live & m0] + a * below[live & m1]
                if candidate > value:
                    value, winner = candidate, j
            here[live], won[live] = value, winner
        winners[depth] = won
        below = here
    value = Fraction(below[root], denominator)

    def expand(state: tuple) -> tuple:
        # The children of every maximizer were valued, so stepping only reads ``winners``.
        depth, live = state
        j = winners[depth][live]
        _, forecasts, rows, _ = steps[depth]
        m0, m1 = rows[j][3:]
        return forecasts[j], (depth + 1, live & m0), (depth + 1, live & m1)

    return value, ForecastingSystem._trusted(horizon, (0, root), expand)


def grid_bruteforce(event: EventUnion, k: int) -> Fraction:
    """Maximum event probability over all forecasting systems on the grid {0, 1/k, ..., 1}.

    Exhaustive enumeration straight from the definitions, kept independent
    of the dynamic programs so it can serve as their oracle.  Its
    (k+1)^(2^N - 1) systems are counted from the horizon before anything is
    built.  A system, one forecast per history read by the history's
    level-order position (node j's children are 2j+1 and 2j+2, as in
    ``history_at``), has its outcome tree walked once in level order: a node
    carries its position, its cylinder weight and the boxes whose steps
    accept its induced path so far, and the event's probability is the
    weight of the leaves some box accepts.  A node no box accepts, or of
    weight 0, is dropped with its subtree.  Equals the true upper
    measure-theoretic probability whenever every box endpoint is a multiple
    of 1/k; in general it is a lower bound, nondecreasing under grid
    refinement.
    """
    if k < 1:
        raise InputError("grid parameter k must be a positive integer")
    horizon = event.horizon
    fits = 0  # the most positions whose (k+1)^positions systems stay within the limit
    while (k + 1) ** (fits + 1) <= GRID_ENUMERATION_LIMIT:
        fits += 1
    if horizon >= (fits + 1).bit_length():  # 2^N - 1 > fits, read off bit lengths so 2^N is never formed
        # A grid too large for ``str``, as ``--grid`` may give, is named by its bit length.
        count = f"{k + 1}^(2^{horizon} - 1)" if k.bit_length() <= 64 else f"more than 2^{k.bit_length() - 1}"
        raise EnumerationLimitError(
            f"grid enumeration needs {count} systems "
            f"(limit {GRID_ENUMERATION_LIMIT}); shrink the horizon or the grid"
        )
    grid = [Fraction(j, k) for j in range(k + 1)]
    best = ZERO
    for forecasts in itertools.product(grid, repeat=2**horizon - 1):
        level = [(0, ONE, event.boxes)]  # (position, cylinder weight, boxes accepting its path)
        for depth in range(horizon):
            below = []
            for node, weight, alive in level:
                p = forecasts[node]
                for y, w in ((0, weight * (ONE - p)), (1, weight * p)):
                    accepting = [box for box in alive if box.steps[depth].accepts(p, y)]
                    if w and accepting:
                        below.append((2 * node + 1 + y, w, accepting))
            level = below
        prob = sum((weight for _, weight, _ in level), ZERO)
        if prob > best:
            best = prob
    return best


def monte_carlo_probability(
    phi: ForecastingSystem, event: EventUnion, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the exact event probability, with an error bar.

    Sample i uses ``sample_outcomes(phi, N, seed + i)``.  Returns the hit
    fraction and the half-width 4 * sqrt(est * (1 - est) / samples).  A
    negative seed raises InputError (``check_seed``).
    """
    check_samples(samples)
    check_seed(seed)
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

"""Exact game-theoretic engine: upper probabilities by backward induction.

The upper game-theoretic probability of an event is the cheapest initial
capital of a non-negative farthingale forced to reach 1 on every sequence in
the event.  For a box union at horizon N that infimum is computed exactly by
backward induction on the partition-refined game tree:

* leaves (level N) carry the membership indicator of their cell-path;
* an interior node carries sup over forecasts p of
  (1-p) * value(child p,0) + p * value(child p,1).

Within one partition cell the two child values are constant, so the objective
is linear in p and the supremum over the cell is reached at (or approached
arbitrarily closely near) a cell endpoint.  The per-cell maximization over
endpoints therefore turns the analytic supremum into finite exact rational
arithmetic.  Because all box constraints are closed, the node value is upper
semicontinuous in p and the global supremum is attained at a closed endpoint
of some cell, which is what ``optimal_forecast_at`` returns.

The value at a node depends on the prefix only through the set of boxes still
consistent with it, its live-set, kept as an ``int`` bitmask (bit i for box
i).  Every box test is constant on a cell, so the engine precomputes, once
per event, one pair of masks per step and cell: the boxes accepting the cell's
forecasts with outcome 0 and with outcome 1; steps whose box constraints
repeat an earlier step's share its partition and masks.  The live-sets of a
node's children are then ``live & mask``, with no rational comparison.  The
induction runs level by level, without recursion: a forward pass collects
the live-sets reachable at each depth, and a backward pass fills in their
values, so long horizons need no deep stack.  The forward pass counts the
(depth, live-set) pairs it reaches and refuses an event past
``LIVE_SET_BUDGET`` with ``LiveSetBudgetError`` (an input error), because
the count can double with every box; a horizon past the budget is refused
the same way before any step is set up, since every depth holds a level even
when no box is live.  Cells that lead to the same
two children share one linear objective, so each such group is evaluated
once, at its outermost endpoints.  The empty live-set has value zero.  All
operations are pure and the exact arithmetic makes results independent of
evaluation order.

Every walk of the partition-refined tree goes through ``cell_tree``, which
fixes the node order (level by level, children in (cell, bit) order) and the
cell-path layout, and sizes the tree against ``core.check_walk``'s node
budget before it starts; the value-table key format is built on that walk
too.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, lru_cache

from .core import ONE, ZERO, InputError, PrequentialPrefix, as_fraction, as_int, check_outcome, check_walk, reading
from .events import (
    WILDCARD,
    ArityError,
    Cell,
    EventUnion,
    ForecastPartition,
    event_partitions,
    per_distinct_step,
)

CellPath = tuple[tuple[int, int], ...]

# Most (depth, live-set) pairs the game engine's forward pass may reach; the
# count can double with every box, so it is checked as the pass goes.
LIVE_SET_BUDGET = 300_000


class LiveSetBudgetError(InputError):
    """An event's game tree reaches more live-sets than ``LIVE_SET_BUDGET``."""


def cell_tree(partitions, root, children):
    """Yield every node of the partition-refined tree as ``(path, state)``, level by level.

    The root is ``((), root)``.  A node at depth d has one child per cell of
    ``partitions[d]`` and outcome bit, in the order (0, 0), (0, 1), (1, 0), ...;
    a child's path is its parent's extended by ``(cell, bit)``.
    ``children(state, d)`` is called once per node at depth d and returns the
    states of all of that node's children, in that order.  The tree's size,
    1 + sum over d of prod over k <= d of 2 * cells(k), is checked with
    ``check_walk`` before the root is yielded.
    """
    nodes = width = 1
    for partition in partitions:
        width *= 2 * len(partition.cells)
        nodes += width
    check_walk(nodes, f"the cell-path tree at horizon {len(partitions)}")
    level = [((), root)]
    yield from level
    for depth, partition in enumerate(partitions):
        steps = [(ci, bit) for ci in range(len(partition.cells)) for bit in (0, 1)]
        level = [
            (path + (step,), state)
            for path, parent in level
            for step, state in zip(steps, children(parent, depth))
        ]
        yield from level


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """Rational values on every node of a partition-refined prequential tree.

    A node is addressed by its cell-path: per step, the index of the chosen
    forecast cell and the outcome bit.  Canonical string encoding of a path
    joins "cell-index:bit" items with commas; the root is the empty string.
    ``cell_tree`` fixes the nodes and their order, and the JSON form writes
    and reads the keys along that walk.
    """

    horizon: int
    partitions: tuple[ForecastPartition, ...]
    values: dict

    def value(self, path: CellPath) -> Fraction:
        return self.values[path]

    @property
    def root_value(self) -> Fraction:
        return self.values[()]

    def to_json(self) -> str:
        values = self.values
        doc = {
            "horizon": self.horizon,
            "partitions": [
                [
                    {
                        "lo": str(c.lo),
                        "hi": str(c.hi),
                        "lo_open": c.lo_open,
                        "hi_open": c.hi_open,
                    }
                    for c in partition.cells
                ]
                for partition in self.partitions
            ],
            "values": {key: str(values[path]) for path, key in _key_tree(self.partitions)},
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ValueFunction":
        """Parse and validate a table; ``verify`` trusts what this accepts.

        Every partition must be ascending, disjoint cells covering [0, 1], one
        per step of the horizon, and the values are read at exactly the nodes
        of their tree, level by level.  Each distinct value string is parsed once.
        """
        with reading("value-function"):
            doc = json.loads(text)
            partitions = []
            for step, cells_doc in enumerate(doc["partitions"], start=1):
                cells = tuple(_cell_from_json(step, c) for c in cells_doc)
                if not _covers_unit_interval(cells):
                    raise InputError(
                        f"partition {step}: cells must ascend, be disjoint and cover [0, 1]"
                    )
                breakpoints = tuple(sorted({c.lo for c in cells} | {c.hi for c in cells}))
                partitions.append(ForecastPartition(breakpoints, cells))
            horizon = as_int(doc["horizon"], "horizon")
            if horizon != len(partitions):
                raise InputError(f"horizon {horizon} but {len(partitions)} partitions")
            given = doc["values"]
            fraction = cache(as_fraction)
            # Only strings share the cache: as_fraction refuses 1.0, which equals 1 as a key.
            values = {
                path: fraction(v) if isinstance(v := given[key], str) else as_fraction(v)
                for path, key in _key_tree(partitions)
            }
            if len(given) != len(values):
                raise InputError(f"value function has {len(given) - len(values)} keys that are not tree nodes")
        return cls(horizon, tuple(partitions), values)


def _cell_from_json(step: int, doc) -> Cell:
    if not (isinstance(doc["lo_open"], bool) and isinstance(doc["hi_open"], bool)):
        raise InputError(f"partition {step}: lo_open and hi_open must be true or false")
    return Cell(as_fraction(doc["lo"]), as_fraction(doc["hi"]), doc["lo_open"], doc["hi_open"])


def _covers_unit_interval(cells: tuple[Cell, ...]) -> bool:
    """Whether the cells ascend and cover [0, 1], each point exactly once."""
    if not cells or cells[0].lo != ZERO or cells[0].lo_open:
        return False
    if cells[-1].hi != ONE or cells[-1].hi_open:
        return False
    # Neighbours meet at one point, which exactly one of them contains.
    return all(a.hi == b.lo and a.hi_open != b.lo_open for a, b in zip(cells, cells[1:]))


def _key_tree(partitions):
    """``cell_tree`` with each node's canonical key string as its state."""
    tokens = [[f"{ci}:{bit}" for ci in range(len(p.cells)) for bit in (0, 1)] for p in partitions]

    def children(key: str, depth: int) -> list:
        return [f"{key},{token}" for token in tokens[depth]] if key else tokens[depth]

    return cell_tree(partitions, "", children)


def encode_cell_path(path: CellPath) -> str:
    return ",".join(f"{ci}:{bit}" for ci, bit in path)


class _GameEngine:
    """Backward induction for one event, solved level by level on bitmask live-sets.

    Bit i of a live-set stands for box i.  ``masks[depth][cell]`` is the pair
    (m0, m1) of boxes whose step ``depth`` accepts every forecast in the cell
    together with outcome 0 and 1 respectively, so the survivors of a node are
    ``live & m0`` and ``live & m1``.  ``_values[depth]`` maps each live-set
    reachable at that depth, and the empty one, to its node value.
    """

    def __init__(self, event: EventUnion):
        # The passes keep one level per depth, empty or not, so a horizon past
        # the budget is refused before any step is set up.
        if event.horizon > LIVE_SET_BUDGET:
            raise LiveSetBudgetError(
                f"the game engine keeps one level per step; horizon {event.horizon} "
                f"is more than its budget of {LIVE_SET_BUDGET}"
            )
        self.event = event
        self.partitions = event_partitions(event)
        self.masks = per_distinct_step(
            event, lambda depth: self._step_masks(depth, self.partitions[depth])
        )
        self._values = self._solve()

    def _step_masks(self, depth: int, partition: ForecastPartition) -> tuple:
        steps = [box.steps[depth] for box in self.event.boxes]
        by_bit = [
            sum(1 << i for i, step in enumerate(steps) if step.y is WILDCARD or step.y == bit)
            for bit in (0, 1)
        ]
        # Representatives ascend with the cells, so the cells whose representative
        # satisfies p_lo <= rep <= p_hi form one run, found by bisection.
        reps = [cell.representative() for cell in partition.cells]
        inside = [0] * len(reps)
        for i, step in enumerate(steps):
            for ci in range(bisect_left(reps, step.p_lo), bisect_right(reps, step.p_hi)):
                inside[ci] |= 1 << i
        return tuple((m & by_bit[0], m & by_bit[1]) for m in inside)

    def _solve(self) -> list:
        """Collect the reachable live-sets going forward, then fill in values going back."""
        horizon = self.event.horizon
        levels = [{self.all_live()} - {0}]
        count = len(levels[0])
        for depth in range(horizon):
            step = [m for pair in self.masks[depth] for m in pair]
            # Holding 0 from the start, len(reached) - 1 counts the non-empty live-sets.
            reached = {0}
            for live in levels[depth]:
                reached.update([live & m for m in step])
                if count + len(reached) - 1 > LIVE_SET_BUDGET:
                    raise LiveSetBudgetError(
                        f"the game engine reaches more than {LIVE_SET_BUDGET} (depth, live-set) "
                        f"pairs by step {depth + 1} of {horizon}; too many overlapping boxes"
                    )
            reached.discard(0)
            count += len(reached)
            levels.append(reached)
        below = dict.fromkeys(levels[horizon], ONE)
        below[0] = ZERO
        values = [below]
        for depth in reversed(range(horizon)):
            cells = [
                (m0, m1, cell.lo, cell.hi)
                for (m0, m1), cell in zip(self.masks[depth], self.partitions[depth].cells)
            ]
            here = {0: ZERO}
            for live in levels[depth]:
                # Cells with the same two children share the objective v0 + p*(v1 - v0),
                # linear in p, so only their smallest lo and largest hi matter; cells
                # are in ascending order, so those are the first lo and the last hi.
                ends: dict = {}
                for m0, m1, lo, hi in cells:
                    children = (live & m0, live & m1)
                    ends[children] = (ends.get(children, (lo,))[0], hi)
                # Every candidate is a convex combination of values in [0, 1],
                # so the largest one is the node value.
                candidates = []
                for (c0, c1), (lo, hi) in ends.items():
                    v0, v1 = below[c0], below[c1]
                    if v1 is v0:  # among others, every group whose two children coincide
                        candidates.append(v0)
                    elif v1 > v0:
                        candidates.append(v0 + hi * (v1 - v0))
                    elif v1 < v0:
                        candidates.append(v0 + lo * (v1 - v0))
                    else:
                        candidates.append(v0)
                here[live] = max(candidates)
            values.append(here)
            below = here
        values.reverse()
        return values

    def all_live(self) -> int:
        return (1 << len(self.event.boxes)) - 1

    def survivors_at(self, live: int, depth: int, p: Fraction, y: int) -> int:
        # Every box test is constant on a cell, so the cell's mask decides them all.
        return live & self.masks[depth][self.partitions[depth].cell_index_of(p)][y]

    def live_for_prefix(self, prefix: PrequentialPrefix) -> int:
        live = self.all_live()
        for depth, (p, y) in enumerate(prefix):
            live = self.survivors_at(live, depth, p, check_outcome(y))  # survivors_at checks p
        return live

    def value(self, depth: int, live: int) -> Fraction:
        return self._values[depth][live]


@lru_cache(maxsize=256)
def _engine(event: EventUnion) -> _GameEngine:
    return _GameEngine(event)


def upper_game_probability(event: EventUnion) -> Fraction:
    """Root value of the backward induction: the exact upper game-theoretic probability."""
    eng = _engine(event)
    return eng.value(0, eng.all_live())


def conditional_upper_probability(event: EventUnion, x: PrequentialPrefix) -> Fraction:
    """Backward-induction value at the node reached by a prefix.

    At full length this is the membership indicator; the resulting function of
    the node is a superfarthingale.
    """
    if len(x) > event.horizon:
        raise ArityError(f"prefix length {len(x)} exceeds horizon {event.horizon}")
    eng = _engine(event)
    return eng.value(len(x), eng.live_for_prefix(x))


def witness_superfarthingale(event: EventUnion) -> ValueFunction:
    """The full cell-indexed table of conditional upper probabilities.

    Its root value equals ``upper_game_probability(event)``, its level-N values
    are the membership indicator, and it satisfies the superfarthingale
    inequality at every node and cell endpoint, which makes it the witness
    betting strategy achieving the upper probability.
    """
    eng = _engine(event)

    def children(live: int, depth: int) -> list:
        return [live & m for pair in eng.masks[depth] for m in pair]

    values = {
        path: eng.value(len(path), live)
        for path, live in cell_tree(eng.partitions, eng.all_live(), children)
    }
    return ValueFunction(event.horizon, eng.partitions, values)


def optimal_forecast_at(event: EventUnion, x: PrequentialPrefix) -> Fraction:
    """Smallest forecast attaining the per-node supremum (ties broken toward 0).

    Closedness of the box constraints guarantees the supremum is attained at a
    closed endpoint of some partition cell, so the minimum is over a finite
    set of rationals.
    """
    if len(x) >= event.horizon:
        raise ArityError("optimal forecast is defined at interior nodes only")
    eng = _engine(event)
    depth = len(x)
    live = eng.live_for_prefix(x)
    best = eng.value(depth, live)
    # Cells are ordered and disjoint, so closed endpoints come in ascending order.
    for (m0, m1), cell in zip(eng.masks[depth], eng.partitions[depth].cells):
        v0 = eng.value(depth + 1, live & m0)
        v1 = eng.value(depth + 1, live & m1)
        for p in cell.closed_endpoints():
            if (ONE - p) * v0 + p * v1 == best:
                return p
    # impossible for closed boxes; guards engine invariants
    raise RuntimeError("supremum not attained at any closed endpoint")


@dataclass(frozen=True)
class LevyStrategy:
    """Regime-switching betting strategy driving conditional values toward 1.

    Capital starts at 1 and is frozen while the conditional upper probability
    of the target event stays at or above the threshold.  When it dips below,
    the strategy rides the witness superfarthingale rescaled to current
    capital until capital grows by the factor 1/threshold, records that
    milestone, freezes again, and waits for the next dip.  On event members
    whose prefixes the witness values positively, each completed ride
    multiplies capital by more than 1/threshold; riding a zero-valued witness
    is replaced by freezing, which keeps the process a non-negative
    farthingale vacuously (e.g. on the empty event capital stays at 1).
    """

    event: EventUnion
    threshold: Fraction
    depth: int
    live: int  # bitmask of the boxes still consistent with the prefix
    capital: Fraction
    regime: str  # "waiting" or "riding"
    milestone: Fraction
    ride_base: Fraction | None
    conditional: Fraction
    engine: _GameEngine = field(compare=False, repr=False)  # the event's, solved once
    milestones: tuple[Fraction, ...] = ()

    @classmethod
    def start(cls, event: EventUnion, threshold) -> "LevyStrategy":
        threshold = as_fraction(threshold)
        if not ZERO < threshold < ONE:
            raise InputError("threshold must lie strictly between 0 and 1")
        eng = _engine(event)
        live = eng.all_live()
        w0 = eng.value(0, live)
        state = cls(
            event=event,
            threshold=threshold,
            depth=0,
            live=live,
            capital=ONE,
            regime="waiting",
            milestone=ONE,
            ride_base=None,
            conditional=w0,
            engine=eng,
        )
        return _maybe_trigger(state)

    def step(self, p, y) -> "LevyStrategy":
        return levy_strategy_step(self, (p, y))


def _maybe_trigger(state: LevyStrategy) -> LevyStrategy:
    if (
        state.regime == "waiting"
        and ZERO < state.conditional < state.threshold
        and state.capital > ZERO
    ):
        return replace(
            state, regime="riding", ride_base=state.conditional, milestone=state.capital
        )
    return state


def levy_strategy_step(state: LevyStrategy, step) -> LevyStrategy:
    """Advance the strategy by one (forecast, outcome) step.

    Steps past the horizon leave the state terminal with capital frozen.
    """
    if state.depth >= state.event.horizon:
        return state
    p, y = step
    eng = state.engine
    live = eng.survivors_at(state.live, state.depth, p, check_outcome(y))  # survivors_at checks p
    depth = state.depth + 1
    w = eng.value(depth, live)
    if state.regime == "riding":
        capital = state.milestone * w / state.ride_base
        if capital >= state.milestone / state.threshold:
            state = replace(
                state,
                depth=depth,
                live=live,
                conditional=w,
                capital=capital,
                regime="waiting",
                milestone=capital,
                ride_base=None,
                milestones=state.milestones + (capital,),
            )
        else:
            state = replace(state, depth=depth, live=live, conditional=w, capital=capital)
    else:
        state = replace(state, depth=depth, live=live, conditional=w)
    return _maybe_trigger(state)


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
forecasts with outcome 0 and with outcome 1.  The live-sets of a node's
children are then ``live & mask``, with no rational comparison.  The
induction runs level by level, without recursion: a forward pass collects
the live-sets reachable at each depth, and a backward pass fills in their
values, so long horizons need no deep stack.  Cells that lead to the same
two children share one linear objective, so each such group is evaluated
once, at its outermost endpoints.  The empty live-set has value zero.  All
operations are pure and the exact arithmetic makes results independent of
evaluation order.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .core import ONE, ZERO, PrequentialPrefix, as_fraction, check_forecast, check_outcome
from .events import (
    WILDCARD,
    ArityError,
    Cell,
    EventUnion,
    ForecastPartition,
    event_partitions,
)

CellPath = tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """Rational values on every node of a partition-refined prequential tree.

    A node is addressed by its cell-path: per step, the index of the chosen
    forecast cell and the outcome bit.  Canonical string encoding of a path
    joins "cell-index:bit" items with commas; the root is the empty string.
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
        items = _Memo(_encode_item)
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
            "values": {
                ",".join(map(items.__getitem__, p)): str(v) for p, v in self.values.items()
            },
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ValueFunction":
        """Parse and validate a table; ``verify`` trusts what this accepts.

        Every partition must be ascending, disjoint cells covering [0, 1], one
        per step of the horizon.  A table holds few distinct value strings and
        "ci:bit" tokens, so each is parsed once.
        """
        doc = json.loads(text)
        try:
            partitions = []
            for step, cells_doc in enumerate(doc["partitions"], start=1):
                cells = tuple(_cell_from_json(step, c) for c in cells_doc)
                if not _covers_unit_interval(cells):
                    raise ValueError(
                        f"partition {step}: cells must ascend, be disjoint and cover [0, 1]"
                    )
                breakpoints = tuple(sorted({c.lo for c in cells} | {c.hi for c in cells}))
                partitions.append(ForecastPartition(breakpoints, cells))
            horizon = int(doc["horizon"])
            if horizon != len(partitions):
                raise ValueError(f"horizon {horizon} but {len(partitions)} partitions")
            items = _Memo(_decode_item)
            fractions = _Memo(as_fraction)
            # Only strings share the memo: as_fraction refuses 1.0, which equals 1 as a key.
            values = {
                tuple(map(items.__getitem__, key.split(","))) if key else ():
                    fractions[v] if isinstance(v, str) else as_fraction(v)
                for key, v in doc["values"].items()
            }
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed value-function document: {exc}") from exc
        return cls(horizon, tuple(partitions), values)


class _Memo(dict):
    """``parse(key)`` for each key looked up, computed at the first lookup."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, key):
        value = self[key] = self.parse(key)
        return value


def _cell_from_json(step: int, doc) -> Cell:
    if not (isinstance(doc["lo_open"], bool) and isinstance(doc["hi_open"], bool)):
        raise ValueError(f"partition {step}: lo_open and hi_open must be true or false")
    return Cell(as_fraction(doc["lo"]), as_fraction(doc["hi"]), doc["lo_open"], doc["hi_open"])


def _covers_unit_interval(cells: tuple[Cell, ...]) -> bool:
    """Whether the cells ascend and cover [0, 1], each point exactly once."""
    if not cells or cells[0].lo != ZERO or cells[0].lo_open:
        return False
    if cells[-1].hi != ONE or cells[-1].hi_open:
        return False
    # Neighbours meet at one point, which exactly one of them contains.
    return all(a.hi == b.lo and a.hi_open != b.lo_open for a, b in zip(cells, cells[1:]))


def _encode_item(item: tuple[int, int]) -> str:
    return f"{item[0]}:{item[1]}"


def _decode_item(token: str) -> tuple[int, int]:
    ci, bit = token.split(":")
    return int(ci), int(bit)


def encode_cell_path(path: CellPath) -> str:
    return ",".join(map(_encode_item, path))


class _GameEngine:
    """Backward induction for one event, solved level by level on bitmask live-sets.

    Bit i of a live-set stands for box i.  ``masks[depth][cell]`` is the pair
    (m0, m1) of boxes whose step ``depth`` accepts every forecast in the cell
    together with outcome 0 and 1 respectively, so the survivors of a node are
    ``live & m0`` and ``live & m1``.  ``_values[depth]`` maps each live-set
    reachable at that depth, and the empty one, to its node value.
    """

    def __init__(self, event: EventUnion):
        self.event = event
        self.partitions = event_partitions(event)
        self.masks = tuple(
            self._step_masks(depth, partition)
            for depth, partition in enumerate(self.partitions)
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
        for depth in range(horizon):
            reached = {live & m for live in levels[depth] for pair in self.masks[depth] for m in pair}
            reached.discard(0)
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
                best = ZERO
                for (c0, c1), (lo, hi) in ends.items():
                    v0 = below[c0]
                    v1 = below[c1]
                    if v1 > v0:
                        candidate = v0 + hi * (v1 - v0)
                    elif v1 < v0:
                        candidate = v0 + lo * (v1 - v0)
                    else:
                        candidate = v0
                    if candidate > best:
                        best = candidate
                here[live] = best
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
            live = self.survivors_at(live, depth, check_forecast(p), check_outcome(y))
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
    values: dict = {}

    def walk(path: CellPath, depth: int, live: int):
        values[path] = eng.value(depth, live)
        if depth == event.horizon:
            return
        for ci, pair in enumerate(eng.masks[depth]):
            for bit, mask in enumerate(pair):
                walk(path + ((ci, bit),), depth + 1, live & mask)

    walk((), 0, eng.all_live())
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
    milestones: tuple[Fraction, ...] = ()

    @classmethod
    def start(cls, event: EventUnion, threshold) -> "LevyStrategy":
        threshold = as_fraction(threshold)
        if not ZERO < threshold < ONE:
            raise ValueError("threshold must lie strictly between 0 and 1")
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
    p = check_forecast(p)
    y = check_outcome(y)
    eng = _engine(state.event)
    live = eng.survivors_at(state.live, state.depth, p, y)
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


"""Computable compact prequential events: finite unions of closed boxes.

A box at horizon N constrains every forecast coordinate to a closed rational
interval and every outcome coordinate to a bit or a wildcard.  Finite unions
of such boxes are the events all exact engines operate on; closedness of the
intervals is what makes the per-step supremum over forecasts attainable, so
only closed constraints are admitted.

The forecast axis of each step is cut into a partition of maximal intervals on
which every box's interval test is constant.  Those cells are the columns of
the partition-refined game tree used by the backward-induction engines.
``forecast_partition`` cuts a step on integers: each endpoint p becomes
a = p*q over the lcm q of the step's endpoint denominators, the partition's
``scale``, so the endpoints are sorted and located as ints.  It gives each
cell its integer ends and the bitmasks of the boxes accepting it, which the
game engine reads as they are.

Long events repeat steps: ``event_from_json`` parses each distinct endpoint
string once, builds one ``StepConstraint`` per distinct raw step and shares
it, and ``per_distinct_step`` sets up a step (its partition, the measure
engine's candidates) once per distinct column of box steps, keyed on the
identity of those shared objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    ONE,
    ZERO,
    InputError,
    PrequentialPrefix,
    as_fraction,
    as_int,
    check_forecast,
    check_outcome,
    parse_once_per_string,
    reading,
)

WILDCARD = None


class ArityError(InputError):
    """Lengths or horizons of two prequential objects do not match."""


@dataclass(frozen=True)
class StepConstraint:
    """One step of a box: closed forecast interval [p_lo, p_hi], outcome bit or wildcard, kept as checked."""

    p_lo: Fraction
    p_hi: Fraction
    y: int | None = WILDCARD

    def __post_init__(self):
        set_field = object.__setattr__  # the frozen class's own refuses
        set_field(self, "p_lo", check_forecast(self.p_lo))
        set_field(self, "p_hi", check_forecast(self.p_hi))
        if self.p_lo > self.p_hi:
            raise InputError(f"empty interval [{self.p_lo}, {self.p_hi}]")
        if self.y is not WILDCARD:
            set_field(self, "y", check_outcome(self.y))

    def accepts(self, p: Fraction, y: int) -> bool:
        return self.p_lo <= p <= self.p_hi and (self.y is WILDCARD or self.y == y)


@dataclass(frozen=True)
class Box:
    steps: tuple[StepConstraint, ...]

    @property
    def horizon(self) -> int:
        return len(self.steps)

    @classmethod
    def from_point(cls, prefix: PrequentialPrefix) -> "Box":
        """Degenerate box containing exactly one prequential prefix."""
        return cls(tuple(StepConstraint(p, p, y) for p, y in prefix))

    def accepts(self, prefix: PrequentialPrefix) -> bool:
        """Membership of a prefix of Fraction forecasts and bits, as ``contains`` passes it."""
        return all(step.accepts(p, y) for step, (p, y) in zip(self.steps, prefix))


@dataclass(frozen=True)
class EventUnion:
    horizon: int
    boxes: tuple[Box, ...]

    def __post_init__(self):
        if self.horizon < 1:
            raise InputError("horizon must be a positive integer")
        for box in self.boxes:
            if box.horizon != self.horizon:
                raise ArityError(
                    f"box horizon {box.horizon} != event horizon {self.horizon}"
                )

    @classmethod
    def from_points(cls, horizon: int, points) -> "EventUnion":
        return cls(horizon, tuple(Box.from_point(pt) for pt in points))

    @classmethod
    def empty(cls, horizon: int) -> "EventUnion":
        return cls(horizon, ())

    @classmethod
    def full(cls, horizon: int) -> "EventUnion":
        return cls(horizon, (Box((StepConstraint(ZERO, ONE, WILDCARD),) * horizon),))


def contains(event: EventUnion, prefix: PrequentialPrefix) -> bool:
    """Membership of a full-length prefix in the box union."""
    if len(prefix) != event.horizon:
        raise ArityError(
            f"prefix length {len(prefix)} != event horizon {event.horizon}"
        )
    prefix = [(as_fraction(p), check_outcome(y)) for p, y in prefix]  # once for every box
    return any(box.accepts(prefix) for box in event.boxes)


def union(a: EventUnion, b: EventUnion) -> EventUnion:
    if a.horizon != b.horizon:
        raise ArityError(f"horizon mismatch: {a.horizon} != {b.horizon}")
    return EventUnion(a.horizon, a.boxes + b.boxes)


def intersection(a: EventUnion, b: EventUnion) -> EventUnion:
    """Pairwise box intersection; pairs with empty interval or clashing bits drop out."""
    if a.horizon != b.horizon:
        raise ArityError(f"horizon mismatch: {a.horizon} != {b.horizon}")
    boxes = []
    for box_a in a.boxes:
        for box_b in b.boxes:
            merged = _intersect_boxes(box_a, box_b)
            if merged is not None and merged not in boxes:
                boxes.append(merged)
    return EventUnion(a.horizon, tuple(boxes))


def _intersect_boxes(a: Box, b: Box) -> Box | None:
    steps = []
    for sa, sb in zip(a.steps, b.steps):
        lo = max(sa.p_lo, sb.p_lo)
        hi = min(sa.p_hi, sb.p_hi)
        if lo > hi:
            return None
        if sa.y is WILDCARD:
            y = sb.y
        elif sb.y is WILDCARD or sb.y == sa.y:
            y = sa.y
        else:
            return None
        steps.append(StepConstraint(lo, hi, y))
    return Box(tuple(steps))


@dataclass(frozen=True, slots=True)
class Cell:
    """A maximal interval of [0, 1] on which every relevant interval test is constant.

    Ends may be open after merging (e.g. the cell (1/2, 1] next to the point
    cell [1/2, 1/2]).  ``endpoints`` are the evaluation points for the
    piecewise-linear maximization: values at open ends are one-sided limits.
    ``grid_lo`` and ``grid_hi`` are lo and hi times the partition's
    ``scale``; only ``forecast_partition`` sets them.
    """

    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False
    grid_lo: int | None = field(default=None, compare=False, repr=False)
    grid_hi: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.lo > self.hi or (self.lo == self.hi and (self.lo_open or self.hi_open)):
            raise InputError("malformed cell")

    def __str__(self):
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, p: Fraction) -> bool:
        if p < self.lo or p > self.hi:
            return False
        if p == self.lo and self.lo_open:
            return False
        if p == self.hi and self.hi_open:
            return False
        return True

    def endpoints(self) -> tuple[Fraction, ...]:
        return (self.lo,) if self.is_point else (self.lo, self.hi)

    def closed_endpoints(self) -> tuple[Fraction, ...]:
        pts = []
        if not self.lo_open:
            pts.append(self.lo)
        if not self.hi_open and self.hi != self.lo:
            pts.append(self.hi)
        return tuple(pts)

    def representative(self) -> Fraction:
        """Any point of the cell: a forecast at which every test constant on the cell can be read."""
        if not self.lo_open:
            return self.lo
        if not self.hi_open:
            return self.hi
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class ForecastPartition:
    """Ordered, disjoint cells covering [0, 1] exactly.

    ``masks`` holds, per cell, the bitmasks (m0, m1) of the boxes accepting
    it with outcome 0 and with outcome 1, and ``scale`` the lcm of the
    cell ends' denominators.  Only ``forecast_partition`` sets them:
    ``point_partition`` grids and partitions read from a table have none.
    """

    cells: tuple[Cell, ...]
    masks: tuple[tuple[int, int], ...] = ()
    scale: int | None = None

    def cell_index_of(self, p: Fraction) -> int:
        p = check_forecast(p)
        for i, cell in enumerate(self.cells):
            if cell.contains(p):
                return i
        raise ValueError(f"no cell contains {p}")  # unreachable for valid partitions


def point_partition(points) -> ForecastPartition:
    """Partition of [0, 1] with a degenerate cell at each given forecast, a Fraction in [0, 1].

    The cell ends are the points plus 0 and 1; between consecutive ends
    lies one open cell.
    """
    pts = sorted({ZERO, ONE, *points})
    cells: list[Cell] = []
    for i, b in enumerate(pts):
        cells.append(Cell(b, b))
        if i + 1 < len(pts):
            cells.append(Cell(b, pts[i + 1], lo_open=True, hi_open=True))
    return ForecastPartition(tuple(cells))


def forecast_partition(event: EventUnion, step: int) -> ForecastPartition:
    """Partition of the forecast axis at a step (1-based) of the event, with its box masks.

    The cell ends are the box interval endpoints at that step plus 0 and 1;
    cells are the maximal intervals on which every box's interval test is
    constant (an unconstrained axis is the single cell [0, 1]).  Each cell's
    pair (m0, m1) in ``masks`` holds bit i when box i's step accepts the
    cell's forecasts together with outcome 0 and outcome 1 respectively.
    The cut runs on the integers a = p*q, q the partition's ``scale``.
    """
    if not 1 <= step <= event.horizon:
        raise ArityError(f"step {step} outside 1..{event.horizon}")
    steps = [box.steps[step - 1] for box in event.boxes]
    endpoints = [p for s in steps for p in (s.p_lo, s.p_hi)]
    ratios = [p.as_integer_ratio() for p in endpoints]
    q = math.lcm(*[d for _, d in ratios])
    ends = [n * (q // d) for n, d in ratios]  # box i's interval is [ends[2i], ends[2i+1]]
    point = {0: ZERO, q: ONE}  # each integer's cell end, the first Fraction given for it
    for a, p in zip(ends, endpoints):
        point.setdefault(a, p)
    grid = sorted(point)
    # Piece 2k is the point grid[k] and piece 2k+1 the open gap after it, so
    # the interval [grid[a], grid[b]] holds exactly the pieces 2a..2b: box
    # i's bit goes into each piece of its interval.
    position = {a: 2 * k for k, a in enumerate(grid)}
    inside = [0] * (2 * len(grid) - 1)
    by_bit = [0, 0]  # bit i: box i's step allows the outcome
    for i, s in enumerate(steps):
        bit = 1 << i
        for piece in range(position[ends[2 * i]], position[ends[2 * i + 1]] + 1):
            inside[piece] |= bit
        if s.y != 1:  # a wildcard or 0
            by_bit[0] |= bit
        if s.y != 0:
            by_bit[1] |= bit
    # The cells are the runs of equal masks: run k spans the pieces starts[k] .. starts[k + 1] - 1.
    starts = [0, *[b for b in range(1, len(inside)) if inside[b] != inside[b - 1]], len(inside)]
    cells, masks = [], []
    for a, end in zip(starts, starts[1:]):
        lo, hi = grid[a // 2], grid[end // 2]
        cells.append(_grid_cell(point[lo], point[hi], a % 2 == 1, end % 2 == 0, lo, hi))
        masks.append((inside[a] & by_bit[0], inside[a] & by_bit[1]))
    return ForecastPartition(tuple(cells), tuple(masks), q)


def _grid_cell(lo: Fraction, hi: Fraction, lo_open: bool, hi_open: bool, grid_lo: int, grid_hi: int) -> Cell:
    """A cell with its integer ends, refused as ``Cell.__post_init__`` refuses it, comparing the ints."""
    if grid_lo > grid_hi or (grid_lo == grid_hi and (lo_open or hi_open)):
        raise InputError("malformed cell")
    cell = object.__new__(Cell)
    set_field = object.__setattr__  # the frozen class's own refuses
    set_field(cell, "lo", lo)
    set_field(cell, "hi", hi)
    set_field(cell, "lo_open", lo_open)
    set_field(cell, "hi_open", hi_open)
    set_field(cell, "grid_lo", grid_lo)
    set_field(cell, "grid_hi", grid_hi)
    return cell


def per_distinct_step(event: EventUnion, build) -> tuple:
    """``build(depth)`` for every step (0-based), called once per distinct column of box steps.

    A step whose boxes hold the very same ``StepConstraint`` objects as an
    earlier step's reuses that step's result; ``event_from_json`` shares the
    constraint of identical raw steps, so a repeated step is set up once.
    The columns are keyed on object identity, so no Fraction is hashed.
    """
    first: dict = {}
    built: list = []
    for depth in range(event.horizon):
        j = first.setdefault(tuple(id(box.steps[depth]) for box in event.boxes), depth)
        built.append(built[j] if j < depth else build(depth))
    return tuple(built)


def event_partitions(event: EventUnion) -> tuple[ForecastPartition, ...]:
    """Every step's forecast partition, built once per distinct column of box steps."""
    return per_distinct_step(event, lambda depth: forecast_partition(event, depth + 1))


def counterexample_pair() -> tuple[EventUnion, EventUnion]:
    """The built-in two-point events at horizon 2 violating strong subadditivity."""
    half = Fraction(1, 2)
    a = EventUnion.from_points(
        2, [((ZERO, 0), (half, 0)), ((half, 0), (ZERO, 0))]
    )
    b = EventUnion.from_points(
        2, [((ZERO, 0), (half, 0)), ((half, 1), (ZERO, 0))]
    )
    return a, b


def event_to_json(event: EventUnion) -> str:
    doc = {
        "horizon": event.horizon,
        "boxes": [
            {
                "steps": [
                    {
                        "p": [str(s.p_lo), str(s.p_hi)],
                        "y": "*" if s.y is WILDCARD else s.y,
                    }
                    for s in box.steps
                ]
            }
            for box in event.boxes
        ],
    }
    return json.dumps(doc, sort_keys=True)


def event_from_json(text: str) -> EventUnion:
    """Parse an event document; identical raw steps share one ``StepConstraint``.

    Each distinct endpoint string is parsed once, into one Fraction that
    every step giving that string shares.  Only strings share a parse, and
    only steps whose bounds are both strings are shared: a key must not let
    a float such as 1.0, which ``as_fraction`` refuses, match the key of 1.
    """
    number = parse_once_per_string(as_fraction)
    shared: dict = {}  # (lo, hi, y) as written -> the step built from them
    with reading("event"):
        doc = json.loads(text)
        horizon = as_int(doc["horizon"], "horizon")
        boxes = []
        for box_doc in doc.get("boxes", []):
            steps = []
            for step_doc in box_doc["steps"]:
                p, y_raw = step_doc["p"], step_doc.get("y", "*")
                if type(p) is not list or len(p) != 2:
                    raise InputError(f"a step's p must be a pair [lo, hi], got {p!r}")
                plain = type(p[0]) is type(p[1]) is str and type(y_raw) in (str, int)
                key = (p[0], p[1], y_raw) if plain else None
                step = shared.get(key)
                if step is None:
                    y = WILDCARD if y_raw == "*" else as_int(y_raw, "outcome y")  # StepConstraint checks it
                    step = StepConstraint(number(p[0]), number(p[1]), y)
                    if key is not None:
                        shared[key] = step
                steps.append(step)
            boxes.append(Box(tuple(steps)))
    return EventUnion(horizon, tuple(boxes))

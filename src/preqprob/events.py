"""Computable compact prequential events: finite unions of closed boxes.

A box at horizon N constrains every forecast coordinate to a closed rational
interval and every outcome coordinate to a bit or a wildcard.  Finite unions
of such boxes are the events all exact engines operate on; closedness of the
intervals is what makes the per-step supremum over forecasts attainable, so
only closed constraints are admitted.

The forecast axis of each step is cut into a partition of maximal intervals on
which every box's interval test is constant.  Those cells are the columns of
the partition-refined game tree used by the backward-induction engines.

Long events repeat steps: ``event_from_json`` builds one ``StepConstraint``
per distinct raw step and shares it, and ``per_distinct_step`` sets up a
step (its partition, an engine's masks) once per distinct column of box
steps, keyed on the identity of those shared objects.  An event hashes each
distinct step object once and keeps its hash.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
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
    reading,
)

WILDCARD = None


class ArityError(InputError):
    """Lengths or horizons of two prequential objects do not match."""


@dataclass(frozen=True)
class StepConstraint:
    """One step of a box: closed forecast interval [p_lo, p_hi], outcome bit or wildcard."""

    p_lo: Fraction
    p_hi: Fraction
    y: int | None = WILDCARD

    def __post_init__(self):
        check_forecast(self.p_lo)
        check_forecast(self.p_hi)
        if self.p_lo > self.p_hi:
            raise InputError(f"empty interval [{self.p_lo}, {self.p_hi}]")
        if self.y is not WILDCARD:
            check_outcome(self.y)

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
        points = ((as_fraction(p), y) for p, y in prefix)  # StepConstraint checks p and y
        return cls(tuple(StepConstraint(p, p, y) for p, y in points))

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

    @functools.cached_property
    def _hash(self) -> int:
        # A function of the step values, so equal events hash equal; each
        # distinct step object is hashed once, since boxes share the
        # constraint of identical steps (see event_from_json).
        steps = {id(step): step for box in self.boxes for step in box.steps}
        hashes = {key: hash(step) for key, step in steps.items()}
        rows = tuple(tuple(hashes[id(step)] for step in box.steps) for box in self.boxes)
        return hash((self.horizon, rows))

    def __hash__(self) -> int:
        # Computed once per event: the game engine's cache hashes it on every call.
        return self._hash

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


@dataclass(frozen=True)
class Cell:
    """A maximal interval of [0, 1] on which every relevant interval test is constant.

    Ends may be open after merging (e.g. the cell (1/2, 1] next to the point
    cell [1/2, 1/2]).  ``endpoints`` are the evaluation points for the
    piecewise-linear maximization: values at open ends are one-sided limits.
    """

    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

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
        """Any point of the cell; used to read off the constant interval tests."""
        if not self.lo_open:
            return self.lo
        if not self.hi_open:
            return self.hi
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class ForecastPartition:
    """Ordered, disjoint cells covering [0, 1] exactly."""

    breakpoints: tuple[Fraction, ...]
    cells: tuple[Cell, ...]

    def cell_index_of(self, p: Fraction) -> int:
        p = check_forecast(p)
        for i, cell in enumerate(self.cells):
            if cell.contains(p):
                return i
        raise ValueError(f"no cell contains {p}")  # unreachable for valid partitions


def point_partition(points) -> ForecastPartition:
    """Partition of [0, 1] with a degenerate cell at each given forecast, a Fraction in [0, 1].

    The breakpoints are the points plus 0 and 1; between consecutive
    breakpoints lies one open cell.
    """
    pts = sorted({ZERO, ONE, *points})
    cells: list[Cell] = []
    for i, b in enumerate(pts):
        cells.append(Cell(b, b))
        if i + 1 < len(pts):
            cells.append(Cell(b, pts[i + 1], lo_open=True, hi_open=True))
    return ForecastPartition(tuple(pts), tuple(cells))


def forecast_partition(event: EventUnion, step: int) -> ForecastPartition:
    """Partition of the forecast axis at a step (1-based) of the event.

    Breakpoints are the box interval endpoints at that step plus 0 and 1;
    cells are the maximal intervals on which every box's interval test is
    constant (adjacent raw pieces with equal signatures are merged, so an
    unconstrained axis collapses to the single cell [0, 1]).
    """
    if not 1 <= step <= event.horizon:
        raise ArityError(f"step {step} outside 1..{event.horizon}")
    intervals = [(box.steps[step - 1].p_lo, box.steps[step - 1].p_hi) for box in event.boxes]
    pieces = point_partition(p for iv in intervals for p in iv)
    # Piece 2k is the point breakpoints[k] and piece 2k+1 the open gap after it, so
    # the interval [breakpoints[a], breakpoints[b]] holds exactly the pieces 2a..2b.
    position = {b: 2 * k for k, b in enumerate(pieces.breakpoints)}
    spans = [(position[lo], position[hi]) for lo, hi in intervals]

    merged: list[Cell] = []
    previous = None  # signature of merged[-1]; a merged cell keeps its pieces' signature
    for j, piece in enumerate(pieces.cells):
        current = tuple(a <= j <= b for a, b in spans)
        if current == previous:
            prev = merged.pop()
            piece = Cell(prev.lo, piece.hi, prev.lo_open, piece.hi_open)
        merged.append(piece)
        previous = current
    return ForecastPartition(pieces.breakpoints, tuple(merged))


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

    Only steps whose bounds are both strings are shared: a key must not let a
    float such as 1.0, which ``as_fraction`` refuses, match the key of 1.
    """
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
                    step = StepConstraint(as_fraction(p[0]), as_fraction(p[1]), y)
                    if key is not None:
                        shared[key] = step
                steps.append(step)
            boxes.append(Box(tuple(steps)))
    return EventUnion(horizon, tuple(boxes))

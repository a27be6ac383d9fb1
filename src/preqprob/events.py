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
``scale``, so the endpoints are sorted and located as ints.  The masks
come from one sweep: each box's bit flips on where its interval starts and
off just after it ends, and a running XOR of the flips gives every piece's
mask.  It keeps each cell as an integer row, the bitmasks of the boxes
accepting it and its integer ends, and each box's whole interval as one row
for the live-set of that box alone; the game engine reads the rows as they
are.  The ``Cell`` objects are built from the rows only when something
reads the partition's cells; ``Cell``'s own ``__init__`` sets the four
slots directly, past ``Frozen.__init__``'s generic loop.

Long events repeat steps: ``event_from_json`` reads and checks each
distinct endpoint string once as a forecast, builds one ``StepConstraint``
per distinct raw step straight from those checked bounds, with no
constructor call, and shares it, and ``per_distinct_step`` sets up a step
(its partition, the measure engine's candidates) once per distinct column
of box steps, keyed on the identity of those shared objects.  It finds the
runs of equal columns in C and costs one Python step per run, not per
depth, so the hundreds of free steps of a long horizon are set up at once.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from fractions import Fraction

from .core import (
    ONE,
    ZERO,
    Frozen,
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


class StepConstraint(Frozen):
    """One step of a box: closed forecast interval [p_lo, p_hi], outcome bit or wildcard, kept as checked."""

    _fields, _defaults = ("p_lo", "p_hi", "y"), (WILDCARD,)

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


class Box(Frozen):
    _fields = ("steps",)  # a tuple of StepConstraint

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


class EventUnion(Frozen):
    _fields = ("horizon", "boxes")  # an int and a tuple of Box

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


class Cell(Frozen):
    """A maximal interval of [0, 1] on which every relevant interval test is constant.

    Ends may be open after merging (e.g. the cell (1/2, 1] next to the point
    cell [1/2, 1/2]).  ``endpoints`` are the evaluation points for the
    piecewise-linear maximization: values at open ends are one-sided limits.
    """

    __slots__ = _fields = ("lo", "hi", "lo_open", "hi_open")  # two Fractions and two bools

    def __init__(self, lo: Fraction, hi: Fraction, lo_open: bool = False, hi_open: bool = False):
        # The slots are set directly, not by Frozen.__init__'s generic loop: cells are built by the thousand.
        set_field = object.__setattr__  # the class's own refuses
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "lo_open", lo_open)
        set_field(self, "hi_open", hi_open)
        self.__post_init__()

    def __reduce__(self):  # copy and pickle build a cell anew: its slots refuse assignment
        return Cell, (self.lo, self.hi, self.lo_open, self.hi_open)

    def __post_init__(self):
        # lo <= hi compared on integers: the ends times the product of their denominators.
        lo, hi = self.lo.numerator * self.hi.denominator, self.hi.numerator * self.lo.denominator
        if lo > hi or (lo == hi and (self.lo_open or self.hi_open)):
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


class ForecastPartition:
    """Ordered, disjoint cells covering [0, 1] exactly.

    ``forecast_partition`` keeps each cell as an integer row (m0, m1,
    grid_lo, grid_hi) in ``rows``: the bitmasks of the boxes accepting the
    cell with outcome 0 and with outcome 1, and the cell's ends times
    ``scale``, the lcm of the ends' denominators; ``masks`` holds each row's
    (m0, m1).  ``own`` maps the live-set {i} of each box i to one row
    (m0, m1, lo, hi) over its whole interval, m0 and m1 holding only bit i
    under box i's outcome rule: every cell outside the interval rejects box
    i, and every cell inside it has these masks for {i}.  Its ``cells`` are
    built from the rows when first read, and kept.  ``point_partition``
    grids and partitions read from a table are given their cells and have
    no rows, own rows, masks or scale.  Two partitions are equal when their
    cells, masks and scales are.
    """

    __slots__ = ("_cells", "_cut", "rows", "own", "masks", "scale")

    def __init__(self, cells: tuple[Cell, ...]):
        self._cells, self._cut, self.rows, self.own, self.masks, self.scale = cells, None, (), {}, (), None

    @classmethod
    def _on_grid(cls, rows: tuple, own: dict, scale: int, cut) -> "ForecastPartition":
        """A partition held as its rows and one-box rows; ``cut()`` builds its cells."""
        partition = cls(None)
        partition._cut, partition.rows, partition.own, partition.scale = cut, rows, own, scale
        partition.masks = tuple((m0, m1) for m0, m1, _, _ in rows)
        return partition

    @property
    def cells(self) -> tuple[Cell, ...]:
        if self._cells is None:
            self._cells, self._cut = self._cut(), None
        return self._cells

    def _key(self) -> tuple:
        return self.cells, self.masks, self.scale

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, ForecastPartition) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"ForecastPartition(cells={self.cells!r}, masks={self.masks!r}, scale={self.scale!r})"

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
    row (m0, m1, grid_lo, grid_hi) holds bit i in m0 and m1 when box i's
    step accepts the cell's forecasts together with outcome 0 and outcome 1
    respectively, and ``own[1 << i]`` is box i's one row (m0, m1, lo, hi)
    over its whole interval, with only bit i in m0 and m1.  The cut runs on
    the integers a = p*q, q the partition's ``scale``, sets every piece's
    mask in one XOR sweep, and builds no cell: ``cells`` does, when first
    read.
    """
    if not 1 <= step <= event.horizon:
        raise ArityError(f"step {step} outside 1..{event.horizon}")
    steps = [box.steps[step - 1] for box in event.boxes]
    endpoints = [p for s in steps for p in (s.p_lo, s.p_hi)]
    ratios = [p.as_integer_ratio() for p in endpoints]
    q = math.lcm(*[d for _, d in ratios])
    ends = [n * (q // d) for n, d in ratios]  # box i's interval is [ends[2i], ends[2i+1]]
    grid = sorted({0, q, *ends})
    # Piece 2k is the point grid[k] and piece 2k+1 the open gap after it, so
    # the interval [grid[a], grid[b]] holds exactly the pieces 2a..2b.  Box
    # i's bit flips on at its interval's first piece and off after its last,
    # and the running XOR of the flips is each piece's mask.
    position = {a: 2 * k for k, a in enumerate(grid)}
    flips = [0] * (2 * len(grid))
    by_bit = [0, 0]  # bit i: box i's step allows the outcome
    own = {}  # box i's live-set {i} -> the one row of its interval
    for i, s in enumerate(steps):
        bit, lo, hi = 1 << i, ends[2 * i], ends[2 * i + 1]
        flips[position[lo]] ^= bit
        flips[position[hi] + 1] ^= bit
        m0, m1 = bit if s.y != 1 else 0, bit if s.y != 0 else 0  # a wildcard allows both
        by_bit[0] |= m0
        by_bit[1] |= m1
        own[bit] = ((m0, m1, lo, hi),)
    inside = list(itertools.accumulate(flips[:-1], operator.xor))
    # The cells are the runs of equal masks: run k spans the pieces starts[k] .. starts[k + 1] - 1.
    starts = [0, *[b for b in range(1, len(inside)) if inside[b] != inside[b - 1]], len(inside)]
    rows = tuple(
        (inside[a] & by_bit[0], inside[a] & by_bit[1], grid[a // 2], grid[end // 2])
        for a, end in zip(starts, starts[1:])
    )

    def cut() -> tuple[Cell, ...]:
        point = {0: ZERO, q: ONE}  # each integer's cell end, the first Fraction given for it
        for a, p in zip(ends, endpoints):
            point.setdefault(a, p)
        return tuple(
            Cell(point[lo], point[hi], a % 2 == 1, end % 2 == 0)
            for (_, _, lo, hi), a, end in zip(rows, starts, starts[1:])
        )

    return ForecastPartition._on_grid(rows, own, q, cut)


def per_distinct_step(event: EventUnion, build) -> tuple:
    """``build(depth)`` for every step (0-based), called once per distinct column of box steps.

    A step whose boxes hold the very same ``StepConstraint`` objects as an
    earlier step's reuses that step's result; ``event_from_json`` shares the
    constraint of identical raw steps, so a repeated step is set up once.
    The columns are keyed on object identity, so no Fraction is hashed.
    The columns of ids are built in C, and so are the depths where a column
    differs from the one before it, the starts of the runs of equal columns.
    The loop then runs once per run, calling ``build`` at the first depth of
    each distinct column, and each result is repeated over its run.
    """
    horizon = event.horizon
    if not event.boxes:
        return (build(0),) * horizon
    columns = list(zip(*[map(id, box.steps) for box in event.boxes]))
    # A run of equal columns starts at depth 0 and wherever a column differs from the one before it.
    starts = [0, *itertools.compress(range(1, horizon), map(operator.ne, columns, columns[1:]))]
    first: dict = {}  # a column -> the index of its first run
    built: list = []  # one result per run
    for run, start in enumerate(starts):
        j = first.setdefault(columns[start], run)
        built.append(built[j] if j < run else build(start))
    if len(built) < horizon:  # some run is longer than one step: repeat each result over its run
        built = itertools.chain.from_iterable(
            map(itertools.repeat, built, map(operator.sub, [*starts[1:], horizon], starts))
        )
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


def _endpoint(value) -> tuple:
    """An endpoint as ``as_fraction`` reads it, its numerator and denominator, and whether it lies in [0, 1]."""
    p = as_fraction(value)
    n, d = p.as_integer_ratio()
    return p, n, d, 0 <= n <= d


def event_from_json(text: str) -> EventUnion:
    """Parse an event document; identical raw steps share one ``StepConstraint``.

    Each distinct endpoint string is read and checked as a forecast once,
    into one Fraction that every step giving it shares.  Only steps whose
    bounds are both strings are shared: a key must not let a float such as
    1.0, which ``as_fraction`` refuses, match the key of 1.  Steps and boxes
    are built from checked values with no constructor call, so only a step's
    bound order, on integer ratios, and its outcome are checked here; the
    refusals come in the order, and with the messages, of ``StepConstraint``.
    """
    known = parse_once_per_string(_endpoint)
    shared: dict = {}  # (lo, hi, y) as written -> the step built from them
    new = object.__new__
    with reading("event"):
        doc = json.loads(text)
        horizon = as_int(doc["horizon"], "horizon")
        boxes = []
        for box_doc in doc["boxes"]:
            steps = []
            for step_doc in box_doc["steps"]:
                p, y_raw = step_doc["p"], step_doc.get("y", "*")
                if type(p) is not list or len(p) != 2:
                    raise InputError(f"a step's p must be a pair [lo, hi], got {p!r}")
                plain = type(p[0]) is type(p[1]) is str and type(y_raw) in (str, int)
                key = (p[0], p[1], y_raw) if plain else None
                step = shared.get(key)
                if step is None:
                    y = WILDCARD if y_raw == "*" else as_int(y_raw, "outcome y")  # its value is checked last
                    lo, a, b, lo_in = known(p[0])
                    hi, c, d, hi_in = known(p[1])
                    if not (lo_in and hi_in):
                        raise InputError(f"forecast {hi if lo_in else lo} outside [0, 1]")
                    if a * d > c * b:
                        raise InputError(f"empty interval [{lo}, {hi}]")
                    if y not in (WILDCARD, 0, 1):
                        check_outcome(y)  # refuses it
                    step = new(StepConstraint)
                    fields = vars(step)  # set past the class's refusal, as its constructor sets them
                    fields["p_lo"], fields["p_hi"], fields["y"] = lo, hi, y
                    if key is not None:
                        shared[key] = step
                steps.append(step)
            box = new(Box)
            vars(box)["steps"] = tuple(steps)
            boxes.append(box)
    return EventUnion(horizon, tuple(boxes))

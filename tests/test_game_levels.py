"""The game engine on integers: equal to the Fraction program it replaced.

``forecast_partition`` cuts each step on the integers a = p*q over the
step's lcm q, and ``_GameEngine`` runs its backward pass on integer
numerators, building a Fraction only when a value is read.  The property
below compares both with a program on ``Fraction`` values: a cut that tests
one point inside each piece, and a recursion that scores every cell at both
of its endpoints with (1 - p)*v0 + p*v1.  Values, smallest maximizers and
witness bytes must all be equal.  A second property holds the program to
the same reference on events built from the edges of a live-set of one
box, which the pass reads as one row over the box's whole interval.
"""

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from preqprob import events, gameprob
from preqprob.core import InputError
from preqprob.events import WILDCARD, Cell, EventUnion, event_from_json, forecast_partition
from preqprob.gameprob import (
    ValueFunction,
    conditional_upper_probability,
    optimal_forecast_at,
    upper_game_probability,
    witness_superfarthingale,
)
from path_tables import node_paths, path_graph
from test_measure_levels import ONE_BOX_EDGES, doc, event_docs
from test_step_memo import run
from test_value_memo import PROPERTY

ZERO = Fraction(0)
ONE = Fraction(1)
LONG_EVENT = Path(__file__).parent / "data" / "horizon_400_event.json"
# Most tree nodes for which the property also compares witness bytes.
WITNESS_NODES = 3000


def reference_cut(event: EventUnion, depth: int):
    """The step's breakpoints and its cells with their masks, tested at a point inside each piece."""
    steps = [box.steps[depth] for box in event.boxes]
    points = sorted({ZERO, ONE, *(p for s in steps for p in (s.p_lo, s.p_hi))})
    pieces = []  # (lo, hi, open, point inside)
    for lo, hi in zip(points, points[1:]):
        pieces += [(lo, lo, False, lo), (lo, hi, True, (lo + hi) / 2)]
    pieces.append((ONE, ONE, False, ONE))
    by_bit = [sum(1 << i for i, s in enumerate(steps) if s.y is WILDCARD or s.y == y) for y in (0, 1)]
    cells = []
    for lo, hi, is_open, p in pieces:
        mask = sum(1 << i for i, s in enumerate(steps) if s.p_lo <= p <= s.p_hi)
        if cells and cells[-1][1] == mask:
            first = cells[-1][0]
            cells[-1] = (Cell(first.lo, hi, first.lo_open, is_open), mask)
        else:
            cells.append((Cell(lo, hi, is_open, is_open), mask))
    return points, [(cell, (mask & by_bit[0], mask & by_bit[1])) for cell, mask in cells]


def unbudgeted_tree_nodes(partitions) -> int:
    """``tree_nodes`` without its refusal past the walk budget."""
    return sum(math.prod(2 * len(p.cells) for p in partitions[:depth]) for depth in range(len(partitions) + 1))


class Reference:
    """The game program on Fractions: every cell scored at both endpoints, memoized per (depth, live-set)."""

    def __init__(self, event: EventUnion):
        self.event = event
        self.cuts = [reference_cut(event, depth)[1] for depth in range(event.horizon)]
        self.memo: dict = {}

    def value(self, depth: int, live: int) -> Fraction:
        if not live:
            return ZERO
        if depth == self.event.horizon:
            return ONE
        if (depth, live) not in self.memo:
            best = ZERO
            for cell, (m0, m1) in self.cuts[depth]:
                v0, v1 = self.value(depth + 1, live & m0), self.value(depth + 1, live & m1)
                best = max(best, *((ONE - p) * v0 + p * v1 for p in cell.endpoints()))
            self.memo[depth, live] = best
        return self.memo[depth, live]

    def optimal_forecast(self, depth: int, live: int) -> Fraction:
        """The smallest closed endpoint attaining the value, cells in ascending order."""
        best = self.value(depth, live)
        for cell, (m0, m1) in self.cuts[depth]:
            v0, v1 = self.value(depth + 1, live & m0), self.value(depth + 1, live & m1)
            for p in cell.closed_endpoints():
                if (ONE - p) * v0 + p * v1 == best:
                    return p
        raise AssertionError("no closed endpoint attains the value")

    def prefixes(self):
        """One prefix per reached (depth, live-set), with that live-set, level by level."""
        level = {(1 << len(self.event.boxes)) - 1: ()}
        for depth in range(self.event.horizon + 1):
            yield depth, level
            if depth == self.event.horizon:
                return
            below: dict = {}
            for live, prefix in level.items():
                for cell, masks in self.cuts[depth]:
                    p = cell.lo if cell.is_point else (cell.lo + cell.hi) / 2  # a point of the cell
                    for y, mask in enumerate(masks):
                        below.setdefault(live & mask, prefix + ((p, y),))
            level = below

    def witness_json(self) -> str:
        """The witness table over the reference cut, node by node, in the table format."""
        parts = [events.ForecastPartition(tuple(c for c, _ in cut)) for cut in self.cuts]
        values = {}
        for path in node_paths(parts):
            live = (1 << len(self.event.boxes)) - 1
            for depth, (ci, bit) in enumerate(path):
                live &= self.cuts[depth][ci][1][bit]
            values[path] = self.value(len(path), live)
        return ValueFunction(self.event.horizon, tuple(parts), path_graph(parts, values)).to_json()


@PROPERTY
@given(event_docs())
@example(doc(3))  # the empty event
# Equal endpoints written three ways in three boxes: one breakpoint, one cell.
@example(doc(2, [{"p": ["1/2", "1"], "y": 1}] * 2, [{"p": ["2/4", "1"], "y": 0}] * 2,
             [{"p": ["0", "0.5"], "y": "*"}] * 2))
@example(doc(1, [{"p": ["0", "1/4"], "y": 0}], [{"p": ["3/4", "1"], "y": 1}]))
def test_the_integer_program_equals_the_fraction_one(text):
    equals_the_reference(event_from_json(text))


@PROPERTY
@given(event_docs(st.sampled_from(ONE_BOX_EDGES), max_boxes=3))
@example(doc(2, [{"p": ["0", "0"], "y": 1}] * 2, [{"p": ["1", "1"], "y": 0}] * 2))
@example(doc(3, [{"p": ["0", "1"], "y": "*"}, {"p": ["1/3", "1/3"], "y": 0}, {"p": ["0", "1"], "y": 1}]))
@example(doc(2, [{"p": ["1/2", "0.5"], "y": 1}, {"p": ["0", "1/2"], "y": 0}],
             [{"p": ["0", "1"], "y": "*"}, {"p": ["2/3", "2/3"], "y": "*"}]))
def test_a_live_set_of_one_box_reads_its_interval_as_one_row(text):
    event = event_from_json(text)
    for depth in range(event.horizon):
        partition = forecast_partition(event, depth + 1)
        for i, box in enumerate(event.boxes):
            step, bit = box.steps[depth], 1 << i
            m0, m1 = (bit if step.y in (WILDCARD, y) else 0 for y in (0, 1))
            ends = (int(step.p_lo * partition.scale), int(step.p_hi * partition.scale))
            assert partition.own[bit] == ((m0, m1, *ends),)
    equals_the_reference(event)


def equals_the_reference(event: EventUnion):
    """The partitions, values, conditional values, optimal forecasts and witness bytes of the Fraction program."""
    reference = Reference(event)
    for depth in range(event.horizon):
        partition = forecast_partition(event, depth + 1)
        points, cells = reference_cut(event, depth)
        assert sorted({c.lo for c in partition.cells} | {c.hi for c in partition.cells}) == points
        assert [str(c) for c in partition.cells] == [str(c) for c, _ in cells]
        assert [(c.lo_open, c.hi_open) for c in partition.cells] == [(c.lo_open, c.hi_open) for c, _ in cells]
        assert list(partition.masks) == [masks for _, masks in cells]
    engine = gameprob._engine(event)
    for depth, level in enumerate(engine._values):
        for live in level:
            assert engine.value(depth, live) == reference.value(depth, live)
    for depth, level in reference.prefixes():
        for live, prefix in level.items():
            assert conditional_upper_probability(event, prefix) == reference.value(depth, live)
            if depth < event.horizon:
                assert optimal_forecast_at(event, prefix) == reference.optimal_forecast(depth, live)
    if unbudgeted_tree_nodes(engine.partitions) <= WITNESS_NODES:
        assert witness_superfarthingale(event).to_json() == reference.witness_json()


def test_a_horizon_400_root_equals_the_fraction_program():
    event = event_from_json(LONG_EVENT.read_text())
    assert event.horizon == 400
    reference = Reference(event)
    root = (1 << len(event.boxes)) - 1
    for depth in reversed(range(event.horizon)):  # from the leaves up, so no deep recursion
        for live in range(root + 1):
            reference.value(depth, live)
    assert upper_game_probability(event) == reference.value(0, root)
    # The numerators of the pass are far longer than the reduced root.
    assert gameprob._engine(event)._denominators[0].bit_length() > 2000


def test_cells_of_the_cut_are_refused_on_their_integer_ends():
    with pytest.raises(InputError, match="malformed cell"):
        Cell(ONE, ZERO)
    with pytest.raises(InputError, match="malformed cell"):
        Cell(ONE, ONE, True, False)
    assert Cell(ONE, ONE).is_point


def test_each_distinct_endpoint_string_is_parsed_once(monkeypatch):
    parsed = []
    as_fraction = events.as_fraction

    def counting(v):
        parsed.append(v)
        return as_fraction(v)

    steps = [{"p": ["1/2", "1"], "y": 1}, {"p": ["2/4", "1"], "y": 0}, {"p": ["0", "0.5"], "y": "*"}]
    text = doc(6, steps * 2, steps[::-1] * 2, [{"p": ["1/2", "1/2"], "y": 1}] * 6)
    monkeypatch.setattr(events, "as_fraction", counting)
    event = event_from_json(text)
    assert sorted(parsed) == ["0", "0.5", "1", "1/2", "2/4"]
    halves = {id(s.p_lo) for box in event.boxes for s in box.steps if s.p_lo == Fraction(1, 2) and s.y == 1}
    assert len(halves) == 1  # "1/2" is one object in every step that gives it


@pytest.mark.parametrize("bound", [1.0, "1e-30000000"], ids=["float", "long-exponent"])
def test_a_refused_endpoint_is_still_one_line_exit_2(capsys, tmp_path, bound):
    path = tmp_path / "event.json"
    path.write_text(doc(2, [{"p": ["0", "1"], "y": "*"}, {"p": ["0", bound], "y": 1}],
                        [{"p": ["0", "1"], "y": "*"}, {"p": ["0", "1"], "y": 1}]))
    code, out, err = run(capsys, "value", "--event", str(path), "--engine", "both")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


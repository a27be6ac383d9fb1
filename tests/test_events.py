"""Box-union events: membership, partitions, set algebra, serialization."""

import random
from fractions import Fraction

import pytest

from preqprob.events import (
    WILDCARD,
    ArityError,
    Box,
    EventUnion,
    StepConstraint,
    contains,
    counterexample_pair,
    event_from_json,
    event_to_json,
    forecast_partition,
    intersection,
    point_partition,
    union,
)
from preqprob.gameprob import upper_game_probability
from preqprob.measureprob import measure_upper_probability
from preqprob.randgen import random_event

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def prefix(*pairs):
    return tuple((Fraction(p), y) for p, y in pairs)


class TestContains:
    def test_member_of_two_point_event(self):
        a, _ = counterexample_pair()
        assert contains(a, prefix((0, 0), (HALF, 0)))
        assert contains(a, prefix((HALF, 0), (0, 0)))

    def test_last_bit_differs(self):
        a, _ = counterexample_pair()
        assert not contains(a, prefix((HALF, 0), (0, 1)))

    def test_empty_union(self):
        empty = EventUnion.empty(2)
        assert not contains(empty, prefix((HALF, 0), (HALF, 1)))

    def test_wildcard_and_interval(self):
        box = Box(
            (
                StepConstraint(ZERO, HALF, WILDCARD),
                StepConstraint(HALF, ONE, 1),
            )
        )
        event = EventUnion(2, (box,))
        assert contains(event, prefix((Fraction(1, 4), 1), (Fraction(3, 4), 1)))
        assert not contains(event, prefix((Fraction(3, 4), 1), (Fraction(3, 4), 1)))

    def test_length_mismatch(self):
        a, _ = counterexample_pair()
        with pytest.raises(ArityError):
            contains(a, prefix((0, 0)))


class TestForecastPartition:
    def test_counterexample_step_one(self):
        """Two point intervals {0} and {1/2} cut the axis into four cells."""
        a, _ = counterexample_pair()
        part = forecast_partition(a, 1)
        assert sorted({c.lo for c in part.cells} | {c.hi for c in part.cells}) == [ZERO, HALF, ONE]
        assert [str(c) for c in part.cells] == [
            "[0, 0]",
            "(0, 1/2)",
            "[1/2, 1/2]",
            "(1/2, 1]",
        ]

    def test_unconstrained_axis_is_one_cell(self):
        event = EventUnion.full(1)
        part = forecast_partition(event, 1)
        assert sorted({c.lo for c in part.cells} | {c.hi for c in part.cells}) == [ZERO, ONE]
        assert [str(c) for c in part.cells] == ["[0, 1]"]

    def test_empty_event_is_one_cell(self):
        part = forecast_partition(EventUnion.empty(2), 1)
        assert [str(c) for c in part.cells] == ["[0, 1]"]

    def test_interior_interval(self):
        box = Box((StepConstraint(Fraction(1, 4), Fraction(3, 4), WILDCARD),))
        part = forecast_partition(EventUnion(1, (box,)), 1)
        assert [str(c) for c in part.cells] == ["[0, 1/4)", "[1/4, 3/4]", "(3/4, 1]"]

    def test_cells_cover_and_are_disjoint(self):
        rng = random.Random(17)
        probes = [Fraction(i, 48) for i in range(49)]
        for _ in range(40):
            event = random_event(rng)
            for step in range(1, event.horizon + 1):
                part = forecast_partition(event, step)
                for p in probes:
                    owners = [c for c in part.cells if c.contains(p)]
                    assert len(owners) == 1

    def test_interval_tests_constant_on_cells(self):
        """Any two forecasts in a cell agree on every box's step-interval test."""
        rng = random.Random(23)
        for _ in range(40):
            event = random_event(rng)
            for step in range(1, event.horizon + 1):
                part = forecast_partition(event, step)
                for cell in part.cells:
                    samples = set(cell.closed_endpoints())
                    samples.add(cell.lo if cell.is_point else (cell.lo + cell.hi) / 2)
                    for box in event.boxes:
                        step_c = box.steps[step - 1]
                        answers = {
                            step_c.p_lo <= p <= step_c.p_hi for p in samples
                        }
                        assert len(answers) == 1

    def test_masks_are_the_boxes_accepting_each_cell(self):
        """Bit i of a cell's (m0, m1) is box i's test at the cell's points; neighbours differ."""
        rng = random.Random(29)
        for _ in range(40):
            event = random_event(rng)
            for step in range(1, event.horizon + 1):
                part = forecast_partition(event, step)
                assert len(part.masks) == len(part.cells)
                for cell, pair in zip(part.cells, part.masks):
                    for p in {*cell.closed_endpoints(), cell.lo if cell.is_point else (cell.lo + cell.hi) / 2}:
                        for bit in (0, 1):
                            accepting = [box.steps[step - 1].accepts(p, bit) for box in event.boxes]
                            assert accepting == [bool(pair[bit] >> i & 1) for i in range(len(event.boxes))]
                assert all(a != b for a, b in zip(part.masks, part.masks[1:]))
        assert point_partition([HALF]).masks == ()

    def test_step_out_of_range(self):
        a, _ = counterexample_pair()
        with pytest.raises(ArityError):
            forecast_partition(a, 3)


class TestSetOps:
    def test_intersection_of_counterexample(self):
        """A and B share exactly the point (0, 0, 1/2, 0)."""
        a, b = counterexample_pair()
        both = intersection(a, b)
        assert len(both.boxes) == 1
        assert contains(both, prefix((0, 0), (HALF, 0)))
        assert not contains(both, prefix((HALF, 0), (0, 0)))
        assert not contains(both, prefix((HALF, 1), (0, 0)))

    def test_union_with_empty_is_identity(self):
        a, _ = counterexample_pair()
        merged = union(a, EventUnion.empty(2))
        assert merged.boxes == a.boxes

    def test_incompatible_bits_drop_pair(self):
        box0 = Box((StepConstraint(ZERO, ONE, 0),))
        box1 = Box((StepConstraint(ZERO, ONE, 1),))
        both = intersection(EventUnion(1, (box0,)), EventUnion(1, (box1,)))
        assert both.boxes == ()

    def test_horizon_mismatch(self):
        with pytest.raises(ArityError):
            union(EventUnion.empty(1), EventUnion.empty(2))

    def test_membership_semantics_on_probe_grid(self):
        """union is OR and intersection is AND on a grid of probe prefixes."""
        rng = random.Random(31)
        for _ in range(25):
            horizon = rng.randint(1, 2)
            a = random_event(rng, max_boxes=2, horizon=horizon)
            b = random_event(rng, max_boxes=2, horizon=horizon)
            u = union(a, b)
            i = intersection(a, b)
            probes = [ZERO, Fraction(1, 3), HALF, Fraction(7, 8), ONE]
            for _ in range(40):
                pfx = tuple(
                    (rng.choice(probes), rng.randint(0, 1)) for _ in range(a.horizon)
                )
                in_a, in_b = contains(a, pfx), contains(b, pfx)
                assert contains(u, pfx) == (in_a or in_b)
                assert contains(i, pfx) == (in_a and in_b)


class TestStructure:
    def test_only_closed_intervals_exist(self):
        """Closedness is structural: constraints store closed bounds only."""
        rng = random.Random(41)
        for _ in range(20):
            event = random_event(rng)
            for box in event.boxes:
                for step in box.steps:
                    assert step.p_lo <= step.p_hi
                    assert ZERO <= step.p_lo and step.p_hi <= ONE

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            StepConstraint(HALF, ZERO, WILDCARD)

    def test_string_bounds_are_kept_as_the_fractions_they_name(self):
        """Both engines read a step built from strings, which used to reach them as str."""
        step = StepConstraint("0", "1", 1)
        assert (type(step.p_lo), type(step.p_hi)) == (Fraction, Fraction)
        event = EventUnion(1, (Box((step,)),))
        assert upper_game_probability(event) == measure_upper_probability(event)[0] == ONE

    def test_string_bounds_are_compared_as_rationals(self):
        """"1/2" > "1" as strings; as rationals [1/2, 1] is not empty."""
        assert StepConstraint("1/2", "1") == StepConstraint(HALF, ONE)

    def test_a_boolean_outcome_is_kept_as_a_bit(self):
        event = EventUnion(1, (Box((StepConstraint(ZERO, ONE, True),)),))
        assert type(event.boxes[0].steps[0].y) is int
        assert event_from_json(event_to_json(event)) == event

    def test_a_fraction_bound_is_kept_as_the_same_object(self):
        """``per_distinct_step`` and the witness writers key on the identity of the bounds."""
        lo, hi = Fraction(1, 3), Fraction(2, 3)
        step = StepConstraint(lo, hi, 0)
        assert step.p_lo is lo and step.p_hi is hi

    def test_box_horizon_must_match(self):
        box = Box((StepConstraint(ZERO, ONE, WILDCARD),))
        with pytest.raises(ArityError):
            EventUnion(2, (box,))


class TestEventJson:
    def test_round_trip(self):
        rng = random.Random(53)
        for _ in range(20):
            event = random_event(rng, allow_empty=True)
            again = event_from_json(event_to_json(event))
            assert again == event

    def test_documented_shape(self):
        import json

        a, _ = counterexample_pair()
        doc = json.loads(event_to_json(a))
        assert doc["horizon"] == 2
        assert doc["boxes"][0]["steps"][0] == {"p": ["0", "0"], "y": 0}

    def test_wildcard_spelled_star(self):
        import json

        doc = json.loads(event_to_json(EventUnion.full(1)))
        assert doc["boxes"][0]["steps"][0]["y"] == "*"

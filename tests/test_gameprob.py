"""Game-theoretic engine: exact values, witnesses, conditional tables, betting."""

import gc
import hashlib
import random
import weakref
from fractions import Fraction

import pytest
from path_tables import path_dict

from preqprob import gameprob
from preqprob.events import (
    ArityError,
    Box,
    EventUnion,
    StepConstraint,
    contains,
    counterexample_pair,
    intersection,
    union,
)
from preqprob.gameprob import (
    LevyStrategy,
    ValueFunction,
    conditional_upper_probability,
    levy_strategy_step,
    optimal_forecast_at,
    upper_game_probability,
    witness_superfarthingale,
)
from preqprob.randgen import random_event
from preqprob.strategies import check_farthingale

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def prefix(*pairs):
    return tuple((Fraction(p), y) for p, y in pairs)


def brute_upper_game(event, pfx=()):
    """Independent oracle: recursive supremum over endpoint forecasts.

    Works on raw prefixes with membership decided by ``contains`` alone; the
    objective is piecewise linear in the forecast with breakpoints at box
    endpoints, and closed constraints put the attained supremum on an
    endpoint, so maximizing over them is exact.
    """
    if len(pfx) == event.horizon:
        return ONE if contains(event, pfx) else ZERO
    candidates = {ZERO, ONE}
    for box in event.boxes:
        step = box.steps[len(pfx)]
        candidates.update((step.p_lo, step.p_hi))
    best = ZERO
    for p in sorted(candidates):
        value = (ONE - p) * brute_upper_game(event, pfx + ((p, 0),)) + p * (
            brute_upper_game(event, pfx + ((p, 1),))
        )
        best = max(best, value)
    return best


class TestUpperGameProbability:
    def test_counterexample_values(self):
        """The four exact values behind the strong-subadditivity violation."""
        a, b = counterexample_pair()
        assert upper_game_probability(a) == HALF
        assert upper_game_probability(b) == HALF
        assert upper_game_probability(union(a, b)) == ONE
        assert upper_game_probability(intersection(a, b)) == HALF

    def test_strict_subadditivity_violation(self):
        a, b = counterexample_pair()
        lhs = upper_game_probability(union(a, b)) + upper_game_probability(
            intersection(a, b)
        )
        rhs = upper_game_probability(a) + upper_game_probability(b)
        assert lhs == Fraction(3, 2)
        assert rhs == ONE
        assert lhs > rhs

    def test_full_and_empty(self):
        assert upper_game_probability(EventUnion.full(1)) == ONE
        assert upper_game_probability(EventUnion.empty(1)) == ZERO

    def test_half_interval_forced_one(self):
        """Box {p1 in [0,1/2], y1 = 1}: best forecast is 1/2, value p*1 = 1/2."""
        box = Box((StepConstraint(ZERO, HALF, 1),))
        assert upper_game_probability(EventUnion(1, (box,))) == HALF

    def test_agrees_with_brute_force(self):
        rng = random.Random(101)
        for _ in range(40):
            event = random_event(rng, max_horizon=2)
            assert upper_game_probability(event) == brute_upper_game(event)

    def test_box_order_is_irrelevant(self):
        rng = random.Random(57)
        for _ in range(20):
            event = random_event(rng, max_boxes=3)
            shuffled = list(event.boxes)
            rng.shuffle(shuffled)
            assert upper_game_probability(event) == upper_game_probability(
                EventUnion(event.horizon, tuple(shuffled))
            )

    def test_monotone_under_union(self):
        rng = random.Random(71)
        for _ in range(30):
            horizon = rng.randint(1, 3)
            a = random_event(rng, horizon=horizon)
            b = random_event(rng, horizon=horizon)
            assert upper_game_probability(a) <= upper_game_probability(union(a, b))

    def test_finite_subadditivity(self):
        rng = random.Random(73)
        for _ in range(30):
            horizon = rng.randint(1, 3)
            a = random_event(rng, horizon=horizon)
            b = random_event(rng, horizon=horizon)
            assert upper_game_probability(union(a, b)) <= upper_game_probability(
                a
            ) + upper_game_probability(b)

    def test_increasing_union_continuity(self):
        """On a nested finite chain the union's value is the last term's value."""
        rng = random.Random(79)
        for _ in range(15):
            horizon = rng.randint(1, 3)
            chain = random_event(rng, horizon=horizon, max_boxes=1)
            values = [upper_game_probability(chain)]
            for _ in range(3):
                chain = union(chain, random_event(rng, horizon=horizon, max_boxes=1))
                values.append(upper_game_probability(chain))
            assert values == sorted(values)
            assert values[-1] == upper_game_probability(chain)

    def test_decreasing_boxes_converge(self):
        """Shrinking closed intervals [0, 1/2 + 1/k] drive the value to 1/2."""
        limit = EventUnion(1, (Box((StepConstraint(ZERO, HALF, 1),)),))
        assert upper_game_probability(limit) == HALF
        for k in range(2, 13):
            shrunk = EventUnion(
                1, (Box((StepConstraint(ZERO, HALF + Fraction(1, k), 1),)),)
            )
            assert upper_game_probability(shrunk) == HALF + Fraction(1, k)


class TestConditionalUpperProbability:
    def test_after_first_point_of_a(self):
        a, _ = counterexample_pair()
        assert conditional_upper_probability(a, prefix((HALF, 0))) == ONE

    def test_dead_branch(self):
        a, _ = counterexample_pair()
        assert conditional_upper_probability(a, prefix((0, 1))) == ZERO

    def test_full_length_is_indicator(self):
        rng = random.Random(83)
        probes = [ZERO, Fraction(1, 3), HALF, ONE]
        for _ in range(20):
            event = random_event(rng, max_horizon=2)
            for _ in range(10):
                pfx = tuple(
                    (rng.choice(probes), rng.randint(0, 1))
                    for _ in range(event.horizon)
                )
                want = ONE if contains(event, pfx) else ZERO
                assert conditional_upper_probability(event, pfx) == want

    def test_root_matches_unconditional(self):
        rng = random.Random(89)
        for _ in range(20):
            event = random_event(rng)
            assert conditional_upper_probability(event, ()) == upper_game_probability(
                event
            )

    def test_too_long_prefix(self):
        a, _ = counterexample_pair()
        with pytest.raises(ArityError):
            conditional_upper_probability(a, prefix((0, 0), (HALF, 0), (0, 0)))


class TestWitnessSuperfarthingale:
    def test_root_value(self):
        a, _ = counterexample_pair()
        assert witness_superfarthingale(a).values[()] == HALF

    def test_level_one_value_on_winning_cell(self):
        """After (p1 in [1/2,1/2], y1 = 0) the second point of A is certain."""
        a, _ = counterexample_pair()
        vf = witness_superfarthingale(a)
        half_cell = [str(c) for c in vf.partitions[0].cells].index("[1/2, 1/2]")
        assert vf.values[((half_cell, 0),)] == ONE

    def test_empty_event_is_identically_zero(self):
        vf = witness_superfarthingale(EventUnion.empty(2))
        assert all(v == ZERO for v in path_dict(vf.partitions, vf.values).values())

    def test_passes_super_mode(self):
        a, b = counterexample_pair()
        for event in (a, b, union(a, b), intersection(a, b)):
            ok, violations = check_farthingale(witness_superfarthingale(event), "super")
            assert ok, violations

    def test_superfarthingale_law_on_random_events(self):
        """Conditional upper probability tables obey the inequality everywhere."""
        rng = random.Random(97)
        for _ in range(25):
            event = random_event(rng, max_horizon=2, max_boxes=2, max_denominator=6)
            ok, violations = check_farthingale(witness_superfarthingale(event), "super")
            assert ok, violations

    def test_leaves_equal_membership_indicator(self):
        rng = random.Random(103)
        for _ in range(15):
            event = random_event(rng, max_horizon=2, max_boxes=2)
            vf = witness_superfarthingale(event)
            for path, value in path_dict(vf.partitions, vf.values).items():
                if len(path) != event.horizon:
                    continue
                cells = [vf.partitions[i].cells[ci] for i, (ci, _) in enumerate(path)]
                pfx = tuple(
                    (cell.lo if cell.is_point else (cell.lo + cell.hi) / 2, bit)
                    for cell, (_, bit) in zip(cells, path)
                )
                want = ONE if contains(event, pfx) else ZERO
                assert value == want

    def test_json_round_trip(self):
        a, _ = counterexample_pair()
        vf = witness_superfarthingale(a)
        again = ValueFunction.from_json(vf.to_json())
        assert again.horizon == vf.horizon
        assert path_dict(again.partitions, again.values) == path_dict(vf.partitions, vf.values)
        assert [
            [str(c) for c in part.cells] for part in again.partitions
        ] == [[str(c) for c in part.cells] for part in vf.partitions]


    def test_json_bytes_are_pinned(self):
        """The table format is byte-stable, and parsing then writing gives the same bytes."""
        text = witness_superfarthingale(counterexample_pair()[0]).to_json()
        assert len(text) == 1669
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6e96b8a022a87e2fec421ea517562b8933eaf62ca8a3eaef9adc61e4f9b10817"
        )
        assert text.startswith('{"horizon": 2, "partitions": [[{"hi": "0", "hi_open": false')
        assert '"values": {"": "1/2", "0:0": "1/2", "0:0,0:0": "0"' in text
        assert ValueFunction.from_json(text).to_json() == text


class TestOptimalForecast:
    def test_tie_breaks_to_smallest(self):
        a, _ = counterexample_pair()
        assert optimal_forecast_at(a, ()) == ZERO

    def test_unique_maximizer(self):
        a, b = counterexample_pair()
        assert optimal_forecast_at(union(a, b), ()) == HALF

    def test_full_event_returns_zero(self):
        event = EventUnion.full(2)
        assert optimal_forecast_at(event, ()) == ZERO
        assert optimal_forecast_at(event, prefix((HALF, 1))) == ZERO

    def test_attains_the_node_value(self):
        rng = random.Random(107)
        for _ in range(25):
            event = random_event(rng, max_horizon=2)
            p = optimal_forecast_at(event, ())
            v0 = conditional_upper_probability(event, prefix((p, 0)))
            v1 = conditional_upper_probability(event, prefix((p, 1)))
            assert (ONE - p) * v0 + p * v1 == upper_game_probability(event)

    def test_interior_nodes_only(self):
        a, _ = counterexample_pair()
        with pytest.raises(ArityError):
            optimal_forecast_at(a, prefix((0, 0), (HALF, 0)))


class TestLevyStrategy:
    def test_ride_from_root_doubles_on_member(self):
        """UpProb(A) = 1/2 < 3/4 triggers at the root; the ride ends at capital 2."""
        a, _ = counterexample_pair()
        state = LevyStrategy.start(a, Fraction(3, 4))
        assert state.regime == "riding" and state.capital == ONE
        state = levy_strategy_step(state, (ZERO, 0))
        assert state.capital == ONE
        state = levy_strategy_step(state, (HALF, 0))
        assert state.capital == 2
        assert state.regime == "waiting"
        assert state.milestones == (Fraction(2),)
        assert state.capital >= Fraction(4, 3)

    def test_early_resolution_keeps_capital_above_one(self):
        a, _ = counterexample_pair()
        state = LevyStrategy.start(a, Fraction(3, 4))
        state = levy_strategy_step(state, (HALF, 0))
        assert state.capital == 2
        assert state.conditional == ONE
        state = levy_strategy_step(state, (ZERO, 0))
        assert state.capital >= ONE

    def test_empty_event_freezes_at_one(self):
        state = LevyStrategy.start(EventUnion.empty(2), Fraction(3, 4))
        assert state.capital == ONE
        state = state.step(HALF, 1)
        assert state.capital == ONE
        state = state.step(HALF, 0)
        assert state.capital == ONE

    def test_steps_past_horizon_freeze(self):
        a, _ = counterexample_pair()
        state = LevyStrategy.start(a, Fraction(3, 4))
        for pair in [(ZERO, 0), (HALF, 0), (HALF, 1), (HALF, 0)]:
            state = state.step(*pair)
        assert state.capital == 2

    def test_steps_use_the_engine_solved_at_start(self, monkeypatch):
        """Stepping reads the engine the start value carries; the event is never looked up again."""
        from preqprob import gameprob

        a, _ = counterexample_pair()
        state = LevyStrategy.start(a, Fraction(3, 4))

        def refuse(event):
            raise AssertionError("the engine was looked up again")

        monkeypatch.setattr(gameprob, "_engine", refuse)
        for pair in [(HALF, 0), (ZERO, 0)]:
            state = state.step(*pair)
        assert state.capital == 2
        assert state.conditional == ONE

    def test_engine_is_left_out_of_equality(self):
        a, _ = counterexample_pair()
        first = LevyStrategy.start(a, Fraction(3, 4))
        again = LevyStrategy(first.event, first.threshold, first.depth, first.live, first.capital, first.ride_base,
                             first.conditional, None, first.milestones)
        assert first == again and hash(first) == hash(again)
        assert "engine" not in repr(first)

    def test_threshold_must_be_interior(self):
        a, _ = counterexample_pair()
        with pytest.raises(ValueError):
            LevyStrategy.start(a, ONE)

    def test_capital_growth_on_sampled_members(self):
        """Along event members the completed rides push capital past 1/threshold."""
        from preqprob.core import induced_path, sample_outcomes
        from preqprob.measureprob import measure_upper_probability

        rng = random.Random(109)
        threshold = Fraction(3, 4)
        goal = ONE / threshold
        checked = 0
        while checked < 10:
            event = random_event(rng, max_horizon=3, max_boxes=2)
            value, witness = measure_upper_probability(event)
            if not ZERO < value < threshold:
                continue
            member = None
            for attempt in range(200):
                omega = sample_outcomes(witness, event.horizon, rng.randint(0, 10**9))
                candidate = induced_path(witness, omega)
                if contains(event, candidate):
                    member = candidate
                    break
            if member is None:
                continue
            state = LevyStrategy.start(event, threshold)
            for pair in member:
                state = state.step(*pair)
            assert state.capital >= goal
            assert state.conditional == ONE
            checked += 1


class TestEngineReuse:
    """The engine of the event object asked for last is kept, and no other."""

    @pytest.fixture()
    def solved(self, monkeypatch):
        """The events given to ``_GameEngine``, one per solve, starting from an empty slot."""
        events = []

        class Counting(gameprob._GameEngine):
            def __init__(self, event):
                events.append(event)
                super().__init__(event)

        monkeypatch.setattr(gameprob, "_GameEngine", Counting)
        monkeypatch.setattr(gameprob, "_solved", None)
        return events

    def test_one_event_object_is_solved_once(self, solved):
        a, _ = counterexample_pair()
        assert upper_game_probability(a) == HALF
        table = witness_superfarthingale(a)
        for x in [(), prefix((0, 0)), prefix((HALF, 0)), prefix((0, 0), (HALF, 0)), prefix((HALF, 1), (0, 0))]:
            assert conditional_upper_probability(a, x) in set(table.values.levels[len(x)])
        assert optimal_forecast_at(a, ()) == ZERO
        assert LevyStrategy.start(a, Fraction(3, 4)).conditional == HALF
        assert solved == [a]

    def test_an_equal_but_distinct_event_is_solved_again(self, solved):
        a, _ = counterexample_pair()
        twin, _ = counterexample_pair()
        assert twin == a and twin is not a
        assert upper_game_probability(a) == upper_game_probability(twin) == upper_game_probability(a)
        assert [id(event) for event in solved] == [id(a), id(twin), id(a)]

    def test_no_earlier_engine_is_kept(self):
        a, b = counterexample_pair()
        first = weakref.ref(gameprob._engine(a))
        assert first().event is a
        assert upper_game_probability(b) == HALF
        gc.collect()
        assert first() is None
        assert gameprob._engine(b) is gameprob._engine(b)

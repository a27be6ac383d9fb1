"""Measure-theoretic engine: exact probabilities, the coincidence of the two
upper probabilities, the grid oracle, and Monte Carlo cross-checks."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preqprob import core, measureprob
from preqprob.core import (
    ForecastingSystem,
    HorizonError,
    all_histories_below,
    cylinder_probability,
    induced_path,
    sample_outcomes,
)
from preqprob.events import (
    ArityError,
    Box,
    EventUnion,
    StepConstraint,
    contains,
    counterexample_pair,
    union,
)
from preqprob.gameprob import conditional_upper_probability, upper_game_probability
from preqprob.measureprob import (
    EnumerationLimitError,
    exact_event_probability,
    grid_bruteforce,
    measure_upper_probability,
    monte_carlo_probability,
)
from preqprob.randgen import (
    random_event,
    random_event_on_grid,
    random_forecasting_system,
)

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def enumerate_probability(phi, event):
    """Independent oracle: sum cylinder weights of outcomes the event captures."""
    total = ZERO
    for omega in itertools.product((0, 1), repeat=event.horizon):
        if contains(event, induced_path(phi, omega)):
            total += cylinder_probability(phi, omega)
    return total


class TestExactEventProbability:
    def test_system_steering_into_a(self):
        """phi(empty)=0, phi(0)=1/2 walks straight at the member (0,0,1/2,0)."""
        a, _ = counterexample_pair()
        phi = ForecastingSystem.from_table(
            {(): ZERO, (0,): HALF, (1,): ZERO}, 2
        )
        assert exact_event_probability(phi, a) == HALF

    def test_fair_coin_misses_a(self):
        """p1 = 1/2 forces the member (1/2,0,0,0), whose second forecast fails."""
        a, _ = counterexample_pair()
        phi = ForecastingSystem.constant(HALF, 2)
        assert exact_event_probability(phi, a) == ZERO

    def test_full_event_has_total_mass(self):
        rng = random.Random(3)
        phi = random_forecasting_system(rng, 2)
        assert exact_event_probability(phi, EventUnion.full(2)) == ONE

    def test_matches_enumeration_oracle(self):
        rng = random.Random(211)
        for _ in range(40):
            event = random_event(rng)
            phi = random_forecasting_system(rng, event.horizon)
            assert exact_event_probability(phi, event) == enumerate_probability(
                phi, event
            )

    def test_horizon_mismatch(self):
        a, _ = counterexample_pair()
        with pytest.raises(ArityError):
            exact_event_probability(ForecastingSystem.constant(HALF, 1), a)


class TestMeasureUpperProbability:
    def test_counterexample_a(self):
        a, _ = counterexample_pair()
        value, witness = measure_upper_probability(a)
        assert value == HALF
        assert witness.forecast(()) == ZERO

    def test_counterexample_union(self):
        a, b = counterexample_pair()
        value, witness = measure_upper_probability(union(a, b))
        assert value == ONE
        assert witness.forecast(()) == HALF

    def test_empty_event(self):
        value, _ = measure_upper_probability(EventUnion.empty(2))
        assert value == ZERO

    def test_witness_attains_the_value(self):
        rng = random.Random(223)
        for _ in range(30):
            event = random_event(rng)
            value, witness = measure_upper_probability(event)
            assert exact_event_probability(witness, event) == value

    def test_coincides_with_game_engine(self):
        """The central coincidence: both engines give the same exact value."""
        rng = random.Random(227)
        for _ in range(60):
            event = random_event(rng)
            value, _ = measure_upper_probability(event)
            assert value == upper_game_probability(event)

    def test_live_sets_wider_than_a_machine_word(self):
        """70 boxes put live-set bits past the 64th; both engines and the oracle agree."""
        grid = [Fraction(j, 8) for j in range(9)]
        points = [((p1, y1), (p2, 1)) for p1 in grid for y1 in (0, 1) for p2 in grid[:-1]]
        event = EventUnion.from_points(2, random.Random(0).sample(points, 70))
        value = upper_game_probability(event)
        assert value == measure_upper_probability(event)[0] == grid_bruteforce(event, 8)

        def reference(pfx):
            # Point boxes on the 1/8 grid: off-grid forecasts kill every box.
            if len(pfx) == 2:
                return ONE if any(box.accepts(pfx) for box in event.boxes) else ZERO
            return max(
                (ONE - p) * reference(pfx + ((p, 0),)) + p * reference(pfx + ((p, 1),))
                for p in grid
            )

        assert value == reference(())
        for pfx in [((p, y),) for p in grid for y in (0, 1)] + list(points[::13]):
            assert conditional_upper_probability(event, pfx) == reference(pfx)

    def test_horizon_guard_runs_before_the_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("forecast candidates built past the horizon guard")

        monkeypatch.setattr(measureprob, "_forecast_candidates", refuse)
        with pytest.raises(HorizonError, match="table form limited to horizon 16"):
            measure_upper_probability(EventUnion.full(40))

    @pytest.mark.parametrize(
        "seed, digest, length",
        [
            (None, "ab2b4cb99d99d84c6f86258c0ab9b3fb4c868fc699fff351e20c6aa287a1812e", 56),
            (5, "0d568f0e5e4968681b5fdf15a230227741e4b3b9e49e37eefe6e049cd8b65263", 408),
            (6, "a7e40543caaa462bb3571f4792aa8fd7fde6d7152b7ae33da5388ea4dd535a00", 410),
        ],
        ids=["counterexample-union", "random-seed-5", "random-seed-6"],
    )
    def test_witness_json_is_pinned(self, seed, digest, length):
        """The witness table, every history's forecast, is the one pinned here."""
        if seed is None:
            event = union(*counterexample_pair())
        else:
            event = random_event(random.Random(seed), max_horizon=5, max_boxes=4)
        text = measure_upper_probability(event)[1].to_json()
        assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == (digest, length)

    def test_witness_needs_no_history_walk(self, monkeypatch):
        """The witness reads the memo along one history; it never lists all 2^N of them."""

        def refuse(*args):
            raise AssertionError("walked every history")

        monkeypatch.setattr(core, "all_histories_below", refuse)
        value, witness = measure_upper_probability(EventUnion.full(16))
        assert value == ONE
        assert len(sample_outcomes(witness, 16, 0)) == 16

    def test_no_system_beats_the_game_value(self):
        """One-sided bound: any system's probability is at most the game value."""
        rng = random.Random(229)
        for _ in range(40):
            event = random_event(rng)
            phi = random_forecasting_system(rng, event.horizon)
            assert exact_event_probability(phi, event) <= upper_game_probability(event)


class TestGridBruteforce:
    def test_counterexample_on_halves(self):
        a, _ = counterexample_pair()
        assert grid_bruteforce(a, 2) == HALF

    def test_empty_and_full(self):
        assert grid_bruteforce(EventUnion.empty(1), 3) == ZERO
        assert grid_bruteforce(EventUnion.full(1), 3) == ONE

    def test_lower_bounds_the_supremum(self):
        rng = random.Random(233)
        for _ in range(10):
            event = random_event(rng, max_horizon=2, max_boxes=2)
            value, _ = measure_upper_probability(event)
            assert grid_bruteforce(event, 2) <= value

    def test_exact_on_grid_aligned_events(self):
        rng = random.Random(239)
        for _ in range(10):
            event = random_event_on_grid(rng, horizon=2, k=4)
            value, _ = measure_upper_probability(event)
            assert grid_bruteforce(event, 4) == value

    def test_refinement_is_monotone(self):
        box = Box((StepConstraint(ZERO, Fraction(3, 4), 1),))
        event = EventUnion(1, (box,))
        values = [grid_bruteforce(event, k) for k in (1, 2, 4, 8)]
        assert values == sorted(values)
        assert values[-1] == Fraction(3, 4)

    def test_size_guard(self):
        event = EventUnion.full(3)
        with pytest.raises(EnumerationLimitError):
            grid_bruteforce(event, 10)  # 11^7 systems > 10^7


    @pytest.mark.parametrize(
        "event, k, count",
        [
            (EventUnion.full(5), 1, "2^(2^5 - 1)"),
            (EventUnion.full(14), 1, "2^(2^14 - 1)"),
            (EventUnion.full(18), 1, "2^(2^18 - 1)"),
            (EventUnion(10**12, ()), 1, "2^(2^1000000000000 - 1)"),
            (EventUnion.full(4), 2, "3^(2^4 - 1)"),  # 3^15 > 10^7
            (EventUnion.full(1), 2**20000, "more than 2^20000"),  # k + 1 has more digits than str allows
        ],
        ids=["h5", "h14", "h18", "h10^12", "h4-k2", "k-past-str"],
    )
    def test_the_size_is_refused_from_the_horizon_as_a_power(self, event, k, count):
        """Sized before any history is listed or 2^N formed; the message names the count, not its digits."""
        with pytest.raises(EnumerationLimitError) as caught:
            grid_bruteforce(event, k)
        assert str(caught.value) == (
            f"grid enumeration needs {count} systems (limit 10000000); shrink the horizon or the grid"
        )

    def test_the_largest_grid_within_the_limit_still_runs(self):
        assert grid_bruteforce(EventUnion.full(3), 2) == ONE  # 3^7 systems


class TestMonteCarlo:
    def test_concentrates_near_half_on_witness(self):
        a, _ = counterexample_pair()
        _, witness = measure_upper_probability(a)
        estimate, half_width = monte_carlo_probability(witness, a, 100_000, seed=1)
        assert 0.49 <= estimate <= 0.51
        assert half_width > 0

    def test_zero_probability_is_exactly_zero(self):
        a, _ = counterexample_pair()
        phi = ForecastingSystem.constant(HALF, 2)
        estimate, half_width = monte_carlo_probability(phi, a, 2000, seed=2)
        assert estimate == 0.0
        assert half_width == 0.0

    def test_deterministic_event_is_exactly_one(self):
        box = Box((StepConstraint(ONE, ONE, 1),))
        event = EventUnion(1, (box,))
        phi = ForecastingSystem.constant(ONE, 1)
        estimate, _ = monte_carlo_probability(phi, event, 500, seed=3)
        assert estimate == 1.0

    def test_estimate_within_half_width_of_exact(self):
        """The reported error bar covers the exact value on seeded runs."""
        rng = random.Random(241)
        covered = 0
        runs = 40
        for i in range(runs):
            event = random_event(rng, max_horizon=2)
            phi = random_forecasting_system(rng, event.horizon)
            exact = exact_event_probability(phi, event)
            estimate, half_width = monte_carlo_probability(phi, event, 2000, seed=i)
            if abs(estimate - float(exact)) <= half_width + 1e-12:
                covered += 1
        assert covered >= int(0.99 * runs)

    def test_reproducible(self):
        a, _ = counterexample_pair()
        _, witness = measure_upper_probability(a)
        first = monte_carlo_probability(witness, a, 1000, seed=9)
        second = monte_carlo_probability(witness, a, 1000, seed=9)
        assert first == second


def grid_bruteforce_by_sequences(event, k):
    """The grid oracle as first written: a table system per grid assignment, every outcome sequence weighed."""
    positions = list(all_histories_below(event.horizon))
    grid = [Fraction(j, k) for j in range(k + 1)]
    return max(
        enumerate_probability(ForecastingSystem.from_table(dict(zip(positions, assignment)), event.horizon), event)
        for assignment in itertools.product(grid, repeat=len(positions))
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.sampled_from([(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1)]), st.integers(0, 2**32))
def test_the_level_order_grid_oracle_equals_the_sequence_by_sequence_one(size, seed):
    horizon, k = size
    event = random_event(random.Random(seed), horizon=horizon, max_boxes=3, max_denominator=4, allow_empty=True)
    assert grid_bruteforce(event, k) == grid_bruteforce_by_sequences(event, k)

"""Core prequential objects: induced paths, cylinder weights, sampling."""

import math
import random
from fractions import Fraction

import pytest

from preqprob.core import (
    ForecastingSystem,
    HorizonError,
    all_histories_below,
    cylinder_probability,
    induced_path,
    sample_outcomes,
)
from preqprob.randgen import random_forecasting_system

HALF = Fraction(1, 2)


def table_system(entries, horizon):
    return ForecastingSystem.from_table(
        {h: Fraction(v) for h, v in entries.items()}, horizon
    )


class TestInducedPath:
    def test_constant_half(self):
        phi = ForecastingSystem.constant(HALF, 2)
        assert induced_path(phi, (1, 0)) == ((HALF, 1), (HALF, 0))

    def test_table_system(self):
        phi = table_system({(): "3/10", (0,): "0", (1,): "7/10"}, 2)
        assert induced_path(phi, (1, 1)) == (
            (Fraction(3, 10), 1),
            (Fraction(7, 10), 1),
        )

    def test_empty_history(self):
        phi = ForecastingSystem.constant(HALF, 3)
        assert induced_path(phi, ()) == ()

    def test_horizon_exceeded(self):
        phi = ForecastingSystem.constant(HALF, 2)
        with pytest.raises(HorizonError):
            induced_path(phi, (0, 1, 0))

    def test_prefix_monotone(self):
        """induced_path of a shorter history is a prefix of the longer one."""
        rng = random.Random(11)
        for _ in range(50):
            phi = random_forecasting_system(rng, horizon=4)
            omega = tuple(rng.randint(0, 1) for _ in range(4))
            full = induced_path(phi, omega)
            for m in range(5):
                assert induced_path(phi, omega[:m]) == full[:m]


class TestCylinderProbability:
    def test_constant_half(self):
        phi = ForecastingSystem.constant(HALF, 2)
        assert cylinder_probability(phi, (1, 0)) == Fraction(1, 4)

    def test_empty_product(self):
        phi = ForecastingSystem.constant(HALF, 2)
        assert cylinder_probability(phi, ()) == 1

    def test_product_formula(self):
        phi = table_system({(): "3/10", (0,): "0", (1,): "7/10"}, 2)
        assert cylinder_probability(phi, (1, 1)) == Fraction(21, 100)

    def test_horizon_exceeded(self):
        phi = ForecastingSystem.constant(HALF, 1)
        with pytest.raises(HorizonError):
            cylinder_probability(phi, (0, 0))

    def test_additivity_exact(self):
        """Extending by 0 and by 1 splits the cylinder weight exactly."""
        rng = random.Random(5)
        for _ in range(30):
            phi = random_forecasting_system(rng, horizon=4)
            for x in all_histories_below(4):
                total = cylinder_probability(phi, x + (0,)) + cylinder_probability(
                    phi, x + (1,)
                )
                assert total == cylinder_probability(phi, x)


class TestSampleOutcomes:
    def test_degenerate_one(self):
        phi = ForecastingSystem.constant(1, 5)
        assert sample_outcomes(phi, 5, 123) == (1, 1, 1, 1, 1)

    def test_degenerate_zero(self):
        phi = ForecastingSystem.constant(0, 5)
        assert sample_outcomes(phi, 5, 123) == (0, 0, 0, 0, 0)

    def test_deterministic_given_seed(self):
        phi = ForecastingSystem.constant(HALF, 20)
        assert sample_outcomes(phi, 20, 42) == sample_outcomes(phi, 20, 42)

    def test_fair_coin_mean(self):
        """Mean of the first bit over 10^4 seeds stays within [0.48, 0.52]."""
        phi = ForecastingSystem.constant(HALF, 1)
        mean = sum(sample_outcomes(phi, 1, seed)[0] for seed in range(10_000)) / 10_000
        assert 0.48 <= mean <= 0.52

    @pytest.mark.parametrize("c", [Fraction(1, 4), Fraction(3, 4), Fraction(1, 8)])
    def test_constant_system_mean(self, c):
        """Empirical mean over 10^4 seeds within four binomial sigmas of c."""
        phi = ForecastingSystem.constant(c, 1)
        n = 10_000
        mean = sum(sample_outcomes(phi, 1, seed)[0] for seed in range(n)) / n
        band = 4 * math.sqrt(float(c) * (1 - float(c)) / n)
        assert abs(mean - float(c)) <= band

    def test_horizon_guard(self):
        phi = ForecastingSystem.constant(HALF, 3)
        with pytest.raises(HorizonError):
            sample_outcomes(phi, 4, 0)


class TestForecastingSystem:
    def test_table_must_be_total(self):
        with pytest.raises(ValueError):
            ForecastingSystem.from_table({(): HALF, (0,): HALF}, 2)

    def test_table_refuses_histories_past_horizon(self):
        table = {(): HALF, (0,): Fraction(1, 4), (1, 1): Fraction(3, 4)}
        with pytest.raises(ValueError, match="not histories"):
            ForecastingSystem.from_table(table, 1)
        with pytest.raises(ValueError, match="not histories"):
            ForecastingSystem.from_table({(): HALF, (2,): HALF}, 1)

    def test_forecast_validates_range(self):
        phi = ForecastingSystem(2, lambda h: Fraction(3, 2))
        with pytest.raises(ValueError):
            phi.forecast(())

    def test_json_round_trip(self):
        rng = random.Random(3)
        phi = random_forecasting_system(rng, horizon=3)
        again = ForecastingSystem.from_json(phi.to_json())
        assert again.table() == phi.table()

    def test_json_keys_are_bitstrings(self):
        phi = table_system({(): "1/2", (0,): "1/4", (1,): "3/4"}, 2)
        import json

        doc = json.loads(phi.to_json())
        assert doc == {
            "horizon": 2,
            "table": {"": "1/2", "0": "1/4", "1": "3/4"},
        }

    def test_rule_backed_system_works_beyond_table_horizon(self):
        phi = ForecastingSystem.constant(HALF, 100)
        assert len(sample_outcomes(phi, 100, 7)) == 100
        with pytest.raises(HorizonError):
            phi.table()

"""Calibration states step on integers and read as the Fraction sums of their definition.

A state holds n and its reduced sums in one integer tuple; ``bias`` and
``spread`` are Fractions built when read, and the capital is the one
Fraction a new state builds.
"""

import copy
import pickle
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from test_calibration_fold import PROPERTY, forecasts, stepped, streams, thresholds

from preqprob import strategies
from preqprob.core import check_forecast
from preqprob.strategies import CalibrationState, calibration_fold, calibration_step


def reference(horizon, c, pairs):
    """(n, bias, spread, capital) by the definitions, on Fractions."""
    bias = sum((y - check_forecast(p) for p, y in pairs), Fraction(0))
    spread = sum((check_forecast(p) * (1 - check_forecast(p)) for p, _ in pairs), Fraction(0))
    capital = (bias**2 - spread + Fraction(horizon, 4)) / (c**2 * horizon + Fraction(horizon, 4))
    return len(pairs), bias, spread, capital


@settings(PROPERTY, max_examples=50)
@given(streams, st.integers(0, 5), thresholds)
def test_stepped_and_folded_states_read_as_their_definition(pairs, spare, c):
    horizon = max(len(pairs) + spare, 1)
    start = CalibrationState(horizon, c)
    n, bias, spread, capital = reference(horizon, c, pairs)
    built = CalibrationState(horizon, c, n, bias, spread)
    by_step = start
    for p, y in pairs:
        by_step = by_step.step(check_forecast(p), y)
    for state in (by_step, stepped(start, pairs), calibration_fold(start, pairs)):
        assert repr(state) == repr(built)
        assert (state.n, state.bias, state.spread, state.capital) == (n, bias, spread, capital)
        assert type(state.bias) is type(state.spread) is type(state.capital) is Fraction
        assert state == built and hash(state) == hash(built)
        assert hash(state) == hash((n, bias.numerator, bias.denominator, spread.numerator, spread.denominator))


@settings(PROPERTY, max_examples=30)
@given(st.lists(st.tuples(forecasts, st.integers(0, 1)), min_size=1, max_size=20), thresholds)
def test_copies_and_pickles_of_an_unread_state_round_trip(pairs, c):
    state = calibration_fold(CalibrationState(len(pairs), c), pairs)
    twin = calibration_fold(CalibrationState(len(pairs), c), pairs)
    assert "bias" not in vars(state) and "spread" not in vars(state)
    for copied in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert copied == state and hash(copied) == hash(state)
        assert copied.capital == state.capital
        assert repr(copied) == repr(twin)


def spy_on_fractions(monkeypatch):
    built = []

    def spy(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(strategies, "Fraction", spy)
    return built


def test_a_step_builds_one_fraction_its_capital(monkeypatch):
    start = calibration_step(CalibrationState(4, Fraction(1, 2)), ("1/3", 1))[0]
    built = spy_on_fractions(monkeypatch)
    state = start.step(Fraction(2, 7), 0)
    assert len(built) == 1 and Fraction(*built[0]) == state.capital


def test_a_fold_builds_one_fraction_its_capital(monkeypatch):
    pairs = [(Fraction(1, 3), 1), (Fraction(2, 7), 0), (Fraction(3, 8), 1), (Fraction(1, 3), 0)]
    start = CalibrationState(6, Fraction(1))
    built = spy_on_fractions(monkeypatch)
    state = calibration_fold(start, pairs)
    assert len(built) == 1 and Fraction(*built[0]) == state.capital

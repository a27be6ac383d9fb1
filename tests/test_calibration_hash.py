"""Calibration states hash on integers: equal states hash equal however they were built."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
from test_calibration_fold import PROPERTY, forecasts, stepped, streams, thresholds

from preqprob import strategies
from preqprob.strategies import CalibrationState, calibration_fold, calibration_step

ONE = Fraction(1)


def assert_one_state(*states):
    first = states[0]
    for state in states[1:]:
        assert state == first
        assert hash(state) == hash(first)
    assert len(set(states)) == 1


@PROPERTY
@given(streams, st.randoms(use_true_random=False), thresholds)
def test_step_orders_and_folding_give_one_state(pairs, rng, c):
    start = CalibrationState(max(len(pairs), 1), c)
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert_one_state(stepped(start, pairs), stepped(start, shuffled), calibration_fold(start, pairs),
                     calibration_fold(start, shuffled))


@PROPERTY
@given(st.lists(forecasts, max_size=10), st.integers(0, 1))
def test_equal_forecasts_spelled_apart_give_one_state(prefix, y):
    start = stepped(CalibrationState(len(prefix) + 1, ONE), [(p, 1) for p in prefix])
    spellings = ["1/2", "2/4", "0.5", "5e-1", Fraction(1, 2), Fraction(2, 4)]
    assert_one_state(*(calibration_step(start, (p, y))[0] for p in spellings))


def test_sums_given_directly_hash_as_stepped_ones():
    stepped_state = stepped(CalibrationState(4, ONE), [("1/2", 1), ("2/4", 0)])
    built = CalibrationState(4, Fraction(2, 2), 2, Fraction(0, 7), Fraction(2, 4))
    assert_one_state(stepped_state, built)


def test_states_that_differ_only_outside_the_hash_stay_apart():
    """Horizon and threshold are not hashed; == still tells them apart."""
    states = {CalibrationState(4, ONE), CalibrationState(5, ONE), CalibrationState(4, Fraction(2))}
    assert len(states) == 3
    assert len({hash(state) for state in states}) == 1


def test_the_cached_capital_does_not_change_the_hash():
    state = stepped(CalibrationState(3, ONE), [("1/3", 1)])
    before = hash(state)
    assert state.capital > 0
    assert hash(state) == before == hash(stepped(CalibrationState(3, ONE), [("1/3", 1)]))


def test_a_state_holds_its_capital_once_built():
    """Built by the constructor, a step or a fold, a state holds its capital before anything reads it."""
    start = CalibrationState(3, ONE)
    for state in (start, start.step(Fraction(1, 3), 1), calibration_fold(start, [("1/4", 0), ("1/4", 1)])):
        assert "capital" in vars(state)
        assert state.capital == (state.bias**2 - state.spread + Fraction(3, 4)) / (3 + Fraction(3, 4))


def test_a_fold_computes_one_capital(monkeypatch):
    """A fold over several distinct forecasts builds one state, so its sums, which grow, are priced once."""
    priced, start = [], CalibrationState(6, ONE)
    capital = strategies._capital
    monkeypatch.setattr(strategies, "_capital", lambda state: priced.append(state) or capital(state))
    state = calibration_fold(start, [("1/3", 1), ("2/7", 0), ("3/8", 1), ("1/3", 0)])
    assert priced == [state]

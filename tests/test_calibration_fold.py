"""Folding equals stepping, the verdict follows its definition, and cached capital stays out of sight."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preqprob.core import HorizonError, check_forecast
from preqprob.strategies import CalibrationState, calibration_fold, calibration_step, calibration_verdict

ONE = Fraction(1)

PROPERTY = settings(derandomize=True, deadline=None, database=None)

# Forecasts with mixed denominators, the endpoints 0 and 1 as ints and
# Fractions, and strings the CLI would also accept.
forecasts = st.one_of(
    st.sampled_from([0, 1, Fraction(0), ONE, "1/3", "0.25", "0.999"]),
    st.integers(1, 1000).flatmap(lambda q: st.integers(0, q).map(lambda a: Fraction(a, q))),
)
streams = st.lists(st.tuples(forecasts, st.integers(0, 1)), max_size=40)
thresholds = st.sampled_from([Fraction(1, 2), ONE, Fraction(3, 2), Fraction(7)])


def stepped(state, pairs):
    for pair in pairs:
        state, capital = calibration_step(state, pair)
        assert capital == state.capital
    return state


@PROPERTY
@given(streams, st.integers(0, 40), st.integers(0, 5), thresholds)
def test_fold_equals_stepping(pairs, split, spare, c):
    """Folding the rest of a stream after stepping a prefix gives the stepped state."""
    split = min(split, len(pairs))
    start = stepped(CalibrationState(max(len(pairs) + spare, 1), c), pairs[:split])
    folded = calibration_fold(start, pairs[split:])
    expected = stepped(start, pairs[split:])
    assert (folded.n, folded.bias, folded.spread, folded.capital) == (
        expected.n,
        expected.bias,
        expected.spread,
        expected.capital,
    )
    assert folded == expected


@PROPERTY
@given(streams, st.integers(1, 5), forecasts)
def test_fold_past_the_horizon_is_refused_before_any_check(pairs, extra, p):
    """One pair too many raises HorizonError, even when a pair is malformed."""
    state = CalibrationState(len(pairs) + extra, ONE)
    too_many = pairs + [(p, 1)] * extra + [(Fraction(3, 2), 2)]
    with pytest.raises(HorizonError):
        calibration_fold(state, too_many)


@PROPERTY
@given(
    streams,
    st.integers(0, 40),
    st.sampled_from([(Fraction(3, 2), 1), (Fraction(-1, 5), 0), ("2", 0), ("1/2", 2), (ONE, 2)]),
)
def test_fold_refuses_a_bad_pair_as_stepping_does(pairs, at, bad):
    """A forecast outside [0, 1] or outcome 2 raises the ValueError stepping raises first."""
    pairs = pairs[:at] + [bad] + pairs[at:]
    state = CalibrationState(len(pairs), ONE)
    with pytest.raises(ValueError) as folding:
        calibration_fold(state, pairs)
    with pytest.raises(ValueError) as stepping:
        stepped(state, pairs)
    assert str(folding.value) == str(stepping.value)


@PROPERTY
@given(st.lists(st.tuples(forecasts, st.integers(0, 1)), min_size=1, max_size=40), thresholds)
@example([(0, 1), (0, 1), (1, 1), (1, 1)], ONE)  # S^2 = C^2 N = 4: on the boundary, rejected
def test_verdict_follows_its_definition(pairs, c):
    """The verdict by its definition, through folding and stepping.

    With S = sum(y - p) and A = sum p(1 - p) over N pairs:
    ratio = (S^2 - A + N/4) / (N/4), and reject iff S^2 >= C^2 N.
    """
    n = len(pairs)
    s = sum(y - check_forecast(p) for p, y in pairs)
    a = sum(check_forecast(p) * (1 - check_forecast(p)) for p, _ in pairs)
    expected = (s * s >= c * c * n, (s * s - a + Fraction(n, 4)) / Fraction(n, 4), s)
    start = CalibrationState(n, c)
    for state in (calibration_fold(start, pairs), stepped(start, pairs)):
        verdict = calibration_verdict(state)
        assert (verdict.reject, verdict.ratio, state.bias) == expected


def test_fold_of_nothing_is_the_state():
    state = CalibrationState(3, ONE, 1, Fraction(1, 2), Fraction(1, 4))
    assert calibration_fold(state, []) == state


def test_cached_capital_leaves_equality_hash_and_repr_alone():
    state = calibration_fold(CalibrationState(6, ONE), [("1/3", 1), ("2/7", 0), ("0.999", 1)])
    fresh = CalibrationState(6, ONE, state.n, state.bias, state.spread)
    before = repr(state)
    capital = state.capital
    assert state.capital is capital
    assert capital == (state.bias**2 - state.spread + Fraction(6, 4)) / (6 + Fraction(6, 4))
    assert state == fresh and hash(state) == hash(fresh)
    assert repr(state) == repr(fresh) == before
    fields = ("horizon", "threshold_c", "n", "bias", "spread")
    assert state._fields == fields
    assert [getattr(state, name) for name in fields] == [getattr(fresh, name) for name in fields]
    with pytest.raises(AttributeError):
        state.bias = Fraction(0)

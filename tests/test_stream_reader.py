"""The stream reader and the calibration fold equal their row-by-row references.

``parse_stream_csv`` strips each column in one pass and parses each distinct
string once, reading the rows one by one only when something fails;
``calibration_fold`` counts the pairs before it adds them.  Both must give
what reading and stepping each row in turn gives: the same pairs and state,
or the same first error.
"""

import csv
import io
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_calibration_fold import PROPERTY

from preqprob.core import as_int, check_forecast, check_outcome
from preqprob.strategies import (
    CalibrationState,
    StreamFormatError,
    calibration_fold,
    calibration_step,
    parse_stream_csv,
)

ONE = Fraction(1)


def reference_parse(text):
    """Each row read, checked and parsed in turn; the first bad row raises."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows or [field.strip() for field in rows[0]] != ["p", "y"]:
        raise StreamFormatError('stream must start with the header "p,y"')
    stream = []
    for index, row in enumerate(rows[1:], start=1):
        if len(row) != 2:
            raise StreamFormatError(f"row {index}: expected two fields, got {len(row)}")
        try:
            p = check_forecast(row[0].strip())
            y = check_outcome(as_int(row[1].strip(), "outcome"))
        except ValueError as exc:
            raise StreamFormatError(f"row {index}: {exc}") from exc
        stream.append((p, y))
    return stream


def outcome(call):
    """``call()``'s value, or the type and text of the error it raised."""
    try:
        return "value", call()
    except ValueError as exc:
        return type(exc), str(exc)


GOOD_FORECASTS = ["0.5", "1/2", "2/4", "5e-1", "0", "1", "0.25", "1/4", "3/4", "0.75", "1/3", "007/014"]
GOOD_OUTCOMES = ["0", "1", "01", "00"]
BAD_FORECASTS = ["3/2", "x", "-0.1", "1/0", "", "1.5e0"]
BAD_OUTCOMES = ["2", "x", "", "-1", "1.0"]
PADS = [("", ""), (" ", ""), ("", " "), ("  ", "\t"), ("\u2003", "\u00a0")]  # str.strip strips all five


def rows_of(forecasts, outcomes):
    """Every row of a forecast and an outcome, bare or with both fields padded."""
    return [f"{a}{p}{b},{a}{y}{b}" for p in forecasts for y in outcomes for a, b in PADS]


GOOD_ROWS = rows_of(GOOD_FORECASTS, GOOD_OUTCOMES)
BAD_VALUES = rows_of(BAD_FORECASTS, GOOD_OUTCOMES) + rows_of(GOOD_FORECASTS, BAD_OUTCOMES)
good_rows = st.sampled_from(GOOD_ROWS)
bad_rows = st.one_of(
    st.sampled_from(BAD_VALUES + rows_of(BAD_FORECASTS, BAD_OUTCOMES)),
    st.sampled_from(GOOD_FORECASTS),  # one field
    st.sampled_from(["1/2,1,0", " 0.5 ,0,", ",,", "1,1,1,1"]),  # three or more fields
)
headers = st.sampled_from(["p,y", " p , y ", "p,y,", "y,p", "p"])


def stream_text(header, rows):
    return "\n".join([header, *rows]) + "\n"


valid_texts = st.builds(stream_text, st.just("p,y"), st.lists(st.one_of(good_rows, st.just("")), max_size=30))
texts = st.builds(
    stream_text,
    headers,
    st.lists(st.one_of(good_rows, good_rows, good_rows, bad_rows, st.just("")), max_size=30),
)


def stepped(state, pairs):
    for pair in pairs:
        state, _ = calibration_step(state, pair)
    return state


@PROPERTY
@given(st.one_of(texts, valid_texts), st.integers(0, 3), st.sampled_from([Fraction(1, 2), ONE, Fraction(3)]))
@example("p,y\n1/2,1\n3/2,0\n1/2,1,0\n1/2,1\n", 0, ONE)  # a bad forecast at row 2 before a three-field row
@example("p,y\n\n 0.5 , 1\n1/2,01\n2/4,0\n5e-1,1\n", 0, ONE)
@example("p,y\n1/2,1\n1/2,1,0\n", 0, ONE)  # every field parses: only the count is wrong
@example("p,y\n", 0, ONE)
@example("", 0, ONE)
def test_parse_and_fold_equal_the_row_by_row_references(text, spare, c):
    """The same pairs or the same first error, and folding the pairs gives the stepped state.

    Equal forecast strings, once stripped, share one Fraction.
    """
    got, want = outcome(lambda: parse_stream_csv(text)), outcome(lambda: reference_parse(text))
    assert got == want
    if got[0] != "value":
        return
    pairs = got[1]
    assert [type(y) for _, y in pairs] == [int] * len(pairs)
    objects = {}
    for (p, _), row in zip(pairs, [row for row in csv.reader(io.StringIO(text)) if row][1:]):
        assert objects.setdefault(row[0].strip(), p) is p
    start = CalibrationState(len(pairs) + spare or 1, c)
    folded, expected = calibration_fold(start, pairs), stepped(start, pairs)
    assert folded == expected
    assert (folded.n, folded.bias, folded.spread, folded.capital) == (
        expected.n,
        expected.bias,
        expected.spread,
        expected.capital,
    )


raw_forecasts = st.sampled_from([Fraction(1, 2), ONE, 0, 1, "0.5", "1/2", "2/4", Fraction(3, 2), Fraction(-1, 5), "x"])
raw_outcomes = st.sampled_from([0, 1, 0, 1, 2, -1, "1", None])


@PROPERTY
@given(st.lists(st.tuples(raw_forecasts, raw_outcomes), min_size=1, max_size=30))
@example([(Fraction(1, 2), 2), (Fraction(3, 2), 1)])  # the first bad pair's outcome, not the second's forecast
@example([(Fraction(1, 2), 1), ("x", 2), (Fraction(1, 2), None)])
def test_fold_raises_what_stepping_raises_first(pairs):
    """Good or bad, raw pairs give the stepped state or the first error stepping raises."""
    start = CalibrationState(len(pairs), ONE)
    assert outcome(lambda: calibration_fold(start, pairs)) == outcome(lambda: stepped(start, pairs))


@pytest.mark.parametrize(
    "text, message",
    [
        ("p,y\n1/2,1\n3/2,0\n1/2,1,0\n", "row 2: forecast 3/2 outside [0, 1]"),
        ("p,y\n1/2,1\n1/2\n3/2,0\n", "row 2: expected two fields, got 1"),
        ("p,y\n\n1/2,2\n", "row 1: outcome must be 0 or 1, got 2"),
        ("p,y\nx,x\n", "row 1: cannot interpret 'x' as an exact rational"),
    ],
)
def test_the_first_bad_row_is_named(text, message):
    with pytest.raises(StreamFormatError) as refusal:
        parse_stream_csv(text)
    assert str(refusal.value) == message

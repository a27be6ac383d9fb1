"""The stream reader and the calibration fold equal their row-by-row references.

``parse_stream_csv`` checks each distinct row once and parses each distinct
string once, reading the rows one by one only when something fails;
``calibration_fold`` counts the pairs before it adds them, and
``count_stream_csv``, what ``preq test-stream`` reads, counts the rows
themselves and builds no pair per row.  All must give what reading and
stepping each row in turn gives: the same pairs and state, or the same
first error.
"""

import contextlib
import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_calibration_fold import PROPERTY

from preqprob import cli, strategies
from preqprob.core import as_int, check_forecast, check_outcome
from preqprob.strategies import (
    CalibrationState,
    StreamFormatError,
    calibration_fold,
    calibration_fold_counts,
    calibration_step,
    count_stream_csv,
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


# Quoted fields, one holding a line end that stripping removes, and quoted rows that are bad.
QUOTED_ROWS = ['"0.5",1', '" 1/2 ","0"', '"1/4\n",1', '"3/4","01"', '2/4,"1"']
BAD_QUOTED_ROWS = ['"1/2,1"', '"x",0', '"1/2\n,1"']
# A pool of a few dozen rows, so rows repeat: every forecast spelling, padded and bare, quoted rows and a blank line.
counted_rows = st.lists(st.sampled_from(GOOD_ROWS[:8] + GOOD_ROWS[::13] + QUOTED_ROWS + [""]), max_size=12)


@pytest.fixture(scope="module")
def stream_file(tmp_path_factory):
    return tmp_path_factory.mktemp("streams") / "s.csv"


def run_test_stream(path, cut, c):
    """``preq test-stream``'s exit code, stdout and stderr on the stream at ``path``."""
    argv = ["test-stream", "--stream", str(path), "-C", str(c), "--json"] + ([] if cut is None else ["-N", str(cut)])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@PROPERTY
@given(
    st.sampled_from(["p,y", "p,y", " p , y ", "y,p"]),
    counted_rows,
    st.one_of(st.none(), st.none(), st.sampled_from(BAD_VALUES + BAD_QUOTED_ROWS)),
    st.integers(0, 12),
    st.one_of(st.none(), st.integers(1, 14)),
    st.sampled_from([Fraction(1, 2), ONE, Fraction(3)]),
)
@example("p,y", ["0.5,1", " 1/2 , 0", "", "2/4,01", "5e-1,1", "0.25 ,0", "1/4,1"], None, 0, 4, ONE)  # cut after 1/2s
@example("p,y", ["1/2,1", "1/2,0"], "3/2,1", 2, 2, ONE)  # a bad row past the cut
@example("p,y", ["1/2,1", "1/2,0"], "1/2,0,1", 2, 1, ONE)  # a three-field row past the cut
@example("p,y", ['"1/4\n",1', "1/4,1"], None, 0, None, ONE)  # a quoted line end, stripped: one forecast
@example("p,y", [], None, 0, None, ONE)
def test_counted_stream_folds_to_the_parsed_and_stepped_state(stream_file, header, rows, bad, at, cut, c):
    """Counting rows gives the state of folding, and of stepping, the parsed stream's first N pairs.

    ``preq test-stream`` prints that state, or the reference's first error
    (a ``bad`` row inserted at ``at``, before or past the cut), or refuses a
    stream of no rows or fewer than N, as reading every row in turn would.
    """
    text = stream_text(header, rows if bad is None else rows[:at] + [bad] + rows[at:])
    want = outcome(lambda: reference_parse(text))
    got = outcome(lambda: count_stream_csv(text, cut))
    stream_file.write_text(text, newline="")
    code, out, err = run_test_stream(stream_file, cut, c)
    if want[0] != "value":
        assert got == want
        assert (code, out, err) == (2, "", f"error: {want[1]}\n")
        return
    pairs = want[1]
    rows, counted = got[1]
    horizon = len(pairs) if cut is None else cut
    assert rows == len(pairs)
    if not pairs or rows < horizon:
        refusal = "stream has no rows" if not pairs else f"stream has {rows} rows, need {horizon}"
        assert (code, out, err) == (2, "", f"error: {refusal}\n")
        return
    assert sum(count for _, count in counted) == horizon
    start = CalibrationState(horizon, c)
    state = calibration_fold_counts(start, counted)
    assert state == calibration_fold(start, parse_stream_csv(text)[:horizon]) == stepped(start, pairs[:horizon])
    results = json.loads(out)["results"]
    assert (code, err) == (3 if results["verdict"] == "reject" else 0, "")
    assert (results["bias_sum"], results["final_capital"]) == (str(state.bias), str(state.capital))


def test_test_stream_checks_each_distinct_forecast_string_once_and_builds_no_pair_per_row(monkeypatch, tmp_path):
    """Without -N, 2,000 rows of five forecast strings and three values: five checks and one update of three tallies.

    The stream is biased (S = 300), so it is rejected.
    """
    rows = ["0.5,1", " 1/2 ,0", "1/4,1", "0.25,0", "3/4,1"] * 400
    path = tmp_path / "s.csv"
    path.write_text(stream_text("p,y", rows))
    checked, added = [], []
    real_check, real_add = strategies.check_forecast, CalibrationState._add

    def check(p):
        checked.append(p)
        return real_check(p)

    def add(state, tallies):
        added.append(list(tallies))
        return real_add(state, added[-1])

    def refuse(*args):
        raise AssertionError("test-stream built a pair per row")

    monkeypatch.setattr(strategies, "check_forecast", check)
    monkeypatch.setattr(CalibrationState, "_add", add)
    for name in ("parse_stream_csv", "calibration_fold", "calibration_step"):
        monkeypatch.setattr(strategies, name, refuse)
    code, out, err = run_test_stream(path, None, ONE)
    assert (code, err) == (3, "")
    assert sorted(checked) == ["0.25", "0.5", "1/2", "1/4", "3/4"]
    assert added == [[(Fraction(1, 2), 800, 400), (Fraction(1, 4), 800, 400), (Fraction(3, 4), 400, 400)]]

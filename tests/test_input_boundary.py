"""One input boundary: every refused input is an ``InputError``, and only that (or OSError) exits 2.

Values are checked once, where they enter.  Any other exception raised
inside the program is a fault of the tool and propagates out of ``main``.
"""

import ast
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from preqprob import cli, core, gameprob, measureprob, randgen
from preqprob.core import ForecastingSystem, InputError
from preqprob.events import (
    ArityError,
    Box,
    EventUnion,
    contains,
    counterexample_pair,
    event_from_json,
    event_to_json,
    intersection,
)
from preqprob.gameprob import LiveSetBudgetError, ValueFunction
from preqprob.measureprob import EnumerationLimitError, MeasureBudgetError, measure_upper_probability
from preqprob.randgen import random_event, random_forecasting_system
from preqprob.strategies import (
    CalibrationState,
    CertificationError,
    DoublingStrategy,
    StreamFormatError,
    parse_stream_csv,
    ville_check,
)

HALF = Fraction(1, 2)
GOOD_EVENT = event_to_json(counterexample_pair()[0])
GOOD_TABLE = {
    "horizon": 1,
    "partitions": [[{"lo": "0", "hi": "1", "lo_open": False, "hi_open": False}]],
    "values": {"": "0", "0:0": "0", "0:1": "0"},
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_with_cell(**cell):
    doc = json.loads(json.dumps(GOOD_TABLE))
    doc["partitions"][0][0] = cell
    return json.dumps(doc)


def event_steps(*steps):
    return json.dumps({"horizon": 1, "boxes": [{"steps": list(steps)}]})


def table_with_root(value):
    doc = json.loads(json.dumps(GOOD_TABLE))
    doc["values"][""] = value
    return json.dumps(doc)


# Deeper than ``json.loads`` can recurse.
DEEPLY_NESTED = "[" * 100_000 + "]" * 100_000
# A rational whose exponent is over the interpreter's digit limit; Fraction would build 10^30000000.
HUGE_EXPONENT = "1e-30000000"
# 10^limit (10^4300 by default) has one digit more than ``str`` prints.
UNPRINTABLE = f"1e{sys.get_int_max_str_digits()}"
UNPRINTABLE_FORECAST = f"1e-{sys.get_int_max_str_digits()}"
# 10^-2200 at the default limit 4300: it prints, but its square, which results computed from it carry, does not.
UNPRINTABLE_SQUARE = f"1e-{sys.get_int_max_str_digits() // 2 + 50}"
# Two steps that each ask p = 10^-2200 and outcome 1: the event's upper probability is 10^-4400.
UNPRINTABLE_VALUE = json.dumps({"horizon": 2, "boxes": [{"steps": [{"p": [UNPRINTABLE_SQUARE] * 2, "y": 1}] * 2}]})
# Arabic-Indic digits, which ``int`` and ``Fraction`` would read as 0, 1, 2 and 3.
AR0, AR1, AR2, AR3 = "\u0660", "\u0661", "\u0662", "\u0663"
# 10^300000 if the exponent were read; the exponent guard only knows ASCII digits.
UNICODE_EXPONENT = f"1e{AR3}{AR0 * 5}"


CASES = {
    "event-invalid-json": (["value", "--event", "{file}"], "{"),
    "event-missing-horizon": (["value", "--event", "{file}"], '{"boxes": []}'),
    "event-missing-steps": (["value", "--event", "{file}"], '{"horizon": 1, "boxes": [{}]}'),
    "event-missing-p": (["value", "--event", "{file}"], event_steps({"y": 1})),
    "event-p-one-bound": (["value", "--event", "{file}"], event_steps({"p": ["0"]})),
    "event-p-three-bounds": (["value", "--event", "{file}"], event_steps({"p": ["0", "1", "1"]})),
    "event-p-not-a-rational": (["value", "--event", "{file}"], event_steps({"p": ["0", "x"]})),
    "event-outcome-not-an-integer": (["value", "--event", "{file}"], event_steps({"p": ["0", "1"], "y": "x"})),
    "event-bounds-boolean": (["value", "--event", "{file}"], event_steps({"p": [False, True]})),
    "event-reversed-interval": (["value", "--event", "{file}"], event_steps({"p": ["1", "0"]})),
    "event-horizon-zero": (["value", "--event", "{file}"], '{"horizon": 0, "boxes": []}'),
    "event-box-horizon-differs": (
        ["value", "--event", "{file}"], event_steps({"p": ["0", "1"]}).replace('"horizon": 1', '"horizon": 2')
    ),
    "phi-invalid-json": (["ville", "--phi", "{file}"], "not json"),
    "phi-missing-table": (["ville", "--phi", "{file}"], '{"horizon": 1}'),
    "phi-key-not-bits": (["ville", "--phi", "{file}"], '{"horizon": 1, "table": {"": "1/2", "x": "1/2"}}'),
    "phi-key-aliases-a-bit": (
        ["ville", "--strategy", "constant", "--samples", "50", "--phi", "{file}"],
        '{"horizon": 2, "table": {"": "1/2", "0": "1/4", "1": "3/4", "\\u0660": "1"}}',
    ),
    "phi-horizon-zero": (["ville", "--phi", "{file}"], '{"horizon": 0, "table": {}}'),
    "phi-forecast-boolean": (["ville", "--phi", "{file}"], '{"horizon": 1, "table": {"": true}}'),
    "phi-forecast-not-a-rational": (["ville", "--phi", "{file}"], '{"horizon": 1, "table": {"": "half"}}'),
    "value-function-invalid-json": (["verify", "--value-function", "{file}"], "[1"),
    "value-function-cell-reversed": (
        ["verify", "--value-function", "{file}"], table_with_cell(lo="1", hi="0", lo_open=False, hi_open=False)
    ),
    "value-function-cell-missing-lo": (
        ["verify", "--value-function", "{file}"], table_with_cell(hi="1", lo_open=False, hi_open=False)
    ),
    "stream-field-over-csv-limit": (["test-stream", "--stream", "{file}"], "p,y\n" + "1" * 200_000 + ",1\n"),
    "stream-too-short": (["test-stream", "--stream", "{file}", "-N", "3"], "p,y\n1/2,1\n"),
    "ville-samples-zero": (["ville", "--samples", "0"], None),
    "ville-samples-over-the-limit": (["ville", "-N", "2", "--samples", "100000000000000000000"], None),
    "ville-threshold-zero": (["ville", "-C", "0"], None),
    "ville-threshold-not-a-rational": (["ville", "-C", "abc"], None),
    "ville-horizon-zero": (["ville", "-N", "0"], None),
    "ville-uncertified-strategy": (["ville", "-N", "2", "--strategy", "doubling", "--phi", "{file}"],
                                   '{"horizon": 1, "table": {"": "1/4"}}'),
    "test-stream-horizon-zero": (["test-stream", "--stream", "{file}", "-N", "0"], "p,y\n1/2,1\n"),
    "test-stream-threshold-zero": (["test-stream", "--stream", "{file}", "-C", "0"], "p,y\n1/2,1\n"),
    "levy-threshold-above-one": (["levy-trace", "--event", "{file}", "--threshold", "2"], GOOD_EVENT),
    "event-deeply-nested": (["value", "--event", "{file}"], DEEPLY_NESTED),
    "value-function-deeply-nested": (["verify", "--value-function", "{file}"], DEEPLY_NESTED),
    "phi-deeply-nested": (["ville", "--phi", "{file}"], DEEPLY_NESTED),
    "stream-huge-exponent": (["test-stream", "--stream", "{file}"], f"p,y\n{HUGE_EXPONENT},1\n"),
    "event-bound-huge-exponent": (["value", "--event", "{file}"], event_steps({"p": [HUGE_EXPONENT, "1"]})),
    "value-function-huge-exponent": (["verify", "--value-function", "{file}"], table_with_root(HUGE_EXPONENT)),
    "ville-threshold-huge-exponent": (["ville", "-C", HUGE_EXPONENT], None),
    "ville-threshold-too-long-to-print": (
        ["ville", "-C", UNPRINTABLE, "-N", "3", "--samples", "5", "--json"], None
    ),
    "stream-forecast-too-long-to-print": (
        ["test-stream", "--stream", "{file}", "-N", "1"], f"p,y\n{UNPRINTABLE_FORECAST},1\n"
    ),
    "stream-capital-too-long-to-print": (
        ["test-stream", "--stream", "{file}", "-N", "1"], f"p,y\n{UNPRINTABLE_SQUARE},1\n"
    ),
    "stream-capital-too-long-to-print-json": (
        ["test-stream", "--stream", "{file}", "-N", "1", "--json"], f"p,y\n{UNPRINTABLE_SQUARE},1\n"
    ),
    "value-game-too-long-to-print": (["value", "--event", "{file}", "--engine", "game", "--json"], UNPRINTABLE_VALUE),
    "value-measure-too-long-to-print": (
        ["value", "--event", "{file}", "--engine", "measure", "--json"], UNPRINTABLE_VALUE
    ),
    "value-table-too-long-to-print": (
        ["value", "--event", "{file}", "--engine", "game", "--table-out", "{file}.table"], UNPRINTABLE_VALUE
    ),
    "stream-unicode-digits": (["test-stream", "--stream", "{file}", "-N", "1"], f"p,y\n{AR1}/{AR2},{AR1}\n"),
    "event-unicode-digits": (
        ["value", "--event", "{file}"],
        json.dumps({"horizon": AR2, "boxes": [{"steps": [{"p": [AR0, "1"], "y": "*"}] * 2}]}),
    ),
    "event-bound-unicode-digit": (["value", "--event", "{file}"], event_steps({"p": [AR0, "1"], "y": "*"})),
    "ville-threshold-unicode-exponent": (["ville", "-C", UNICODE_EXPONENT], None),
    "ville-bound-overflows-a-float": (["ville", "-C", "1e-400", "--samples", "10"], None),
    "event-without-boxes": (["value", "--event", "{file}"], '{"horizon": 2}'),
    "event-is-a-game-table": (["value", "--event", "{file}"], json.dumps(GOOD_TABLE)),
    "value-table-out-with-measure-engine": (
        ["value", "--event", "{file}", "--engine", "measure", "--table-out", "{file}.table"], GOOD_EVENT
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_refused_input_exits_2_with_one_line(capsys, tmp_path, name):
    argv, document = CASES[name]
    path = tmp_path / "input"
    if document is not None:
        path.write_text(document)
    code, out, err = run(capsys, *(arg.replace("{file}", str(path)) for arg in argv))
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_table_too_long_to_print_leaves_no_file(capsys, tmp_path):
    event, table = tmp_path / "event.json", tmp_path / "table.json"
    event.write_text(UNPRINTABLE_VALUE)
    code, out, err = run(capsys, "value", "--event", str(event), "--engine", "game", "--table-out", str(table))
    assert (code, out, table.exists()) == (2, "", False)
    assert err.startswith("error: a table value has more than") and err.count("\n") == 1


@pytest.mark.parametrize("engine", ["measure", "both"])
def test_a_value_too_long_to_print_leaves_no_witness_file(capsys, tmp_path, engine):
    event, witness = tmp_path / "event.json", tmp_path / "witness.json"
    event.write_text(UNPRINTABLE_VALUE)
    code, out, err = run(capsys, "value", "--event", str(event), "--engine", engine, "--witness-out", str(witness))
    assert (code, out, witness.exists()) == (2, "", False)
    assert err.startswith("error: upper_") and "cannot be printed" in err and err.count("\n") == 1


NOT_UTF8 = {
    "value-event": ["value", "--event", "{bad}"],
    "verify-value-function": ["verify", "--value-function", "{bad}"],
    "test-stream-stream": ["test-stream", "--stream", "{bad}"],
    "ville-phi": ["ville", "--phi", "{bad}"],
    "levy-trace-event": ["levy-trace", "--event", "{bad}"],
    "levy-trace-stream": ["levy-trace", "--event", "{good}", "--stream", "{bad}"],
}


@pytest.mark.parametrize("name", sorted(NOT_UTF8))
def test_a_file_that_is_not_utf8_exits_2_naming_it(capsys, tmp_path, name):
    bad, good = tmp_path / "latin1", tmp_path / "event.json"
    bad.write_bytes(b"p,y\n\xff,1\n")
    good.write_text(GOOD_EVENT)
    argv = [arg.format(bad=bad, good=good) for arg in NOT_UTF8[name]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed {bad} document: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


# A stream and an event document spread over lines; the event has one box per line.
LINED = {
    "test-stream": ("p,y\n1/2,1\n1/3,0\n", ["test-stream", "--stream", "{path}", "--json"]),
    "value": (GOOD_EVENT.replace("{\"steps", "\n{\"steps") + "\n", ["value", "--event", "{path}", "--json"]),
}


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("name", sorted(LINED))
def test_line_ends_do_not_change_a_report_but_its_digest(capsys, tmp_path, name, newline):
    """A file is read once: its report digest is the SHA-256 of exactly the bytes parsed."""
    text, argv = LINED[name]
    reports = []
    for twin, line_end in (("lf", "\n"), ("other", newline)):
        path = tmp_path / twin
        path.write_bytes(text.replace("\n", line_end).encode())
        code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["inputs"].pop("digest") == hashlib.sha256(path.read_bytes()).hexdigest()
        doc["inputs"].pop(next(key for key, value in doc["inputs"].items() if value == str(path)))
        reports.append(doc)
    assert reports[0] == reports[1]


# Every file the CLI reads, each with a command that reads it.
READ = {
    **LINED,
    "verify": (json.dumps(GOOD_TABLE), ["verify", "--value-function", "{path}", "--json"]),
    "ville-phi": ('{"horizon": 1, "table": {"": "1/2"}}', ["ville", "--phi", "{path}", "--samples", "5", "--json"]),
}


@pytest.mark.parametrize("name", sorted(READ))
def test_a_byte_order_mark_does_not_change_a_report_but_its_digest(capsys, tmp_path, name):
    text, argv = READ[name]
    reports = []
    for twin, head in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path = tmp_path / twin
        path.write_bytes(head + text.encode())
        code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        digest = None if name == "ville-phi" else hashlib.sha256(path.read_bytes()).hexdigest()  # of the raw bytes
        assert doc["inputs"].pop("digest", None) == digest
        doc["inputs"] = {key: value for key, value in doc["inputs"].items() if value != str(path)}
        reports.append(doc)
    assert reports[0] == reports[1]


def test_exponents_within_the_digit_limit_still_parse():
    assert core.as_fraction("1e-3") == Fraction(1, 1000)
    assert core.as_fraction("2.5E2") == 250
    # 10^(limit - 1) has exactly ``limit`` digits, the most ``str`` prints; 10^limit has one more.
    limit = sys.get_int_max_str_digits()
    assert str(core.as_fraction(f"1e-{limit - 1}").denominator) == "1" + "0" * (limit - 1)
    for refused in (f"1e-{limit}", f"1e{limit}", f"10e{limit - 1}", f"0.1e-{limit - 1}"):
        with pytest.raises(InputError, match=f"more than {limit} digits"):
            core.as_fraction(refused)


def test_a_unicode_exponent_is_refused_before_fraction_reads_it(monkeypatch):
    parsed = []

    class Recording(Fraction):
        def __new__(cls, *args):
            parsed.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(core, "Fraction", Recording)
    with pytest.raises(InputError, match="outside ASCII"):
        core.as_fraction(UNICODE_EXPONENT)
    with pytest.raises(InputError, match="must be an integer"):
        core.as_int(AR2, "horizon")
    assert parsed == []
    assert (core.as_fraction(" 1_0/4 "), core.as_fraction("2.5e-1"), core.as_int(" +7 ", "n")) == (
        Fraction(5, 2), Fraction(1, 4), 7)


def test_unparsable_seed_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("PREQ_SEED", "x")
    code, out, err = run(capsys, "ville", "--samples", "1")
    assert (code, out) == (2, "")
    assert err == "error: $PREQ_SEED must be an integer, got 'x'\n"


def test_a_malformed_document_is_named():
    with pytest.raises(InputError, match=r"^malformed event document: missing 'horizon'$"):
        event_from_json('{"boxes": []}')
    with pytest.raises(InputError, match=r"^malformed forecasting-system document: missing 'table'$"):
        ForecastingSystem.from_json('{"horizon": 1}')
    with pytest.raises(InputError, match=r"^malformed value-function document: missing '0:1'$"):
        doc = dict(GOOD_TABLE, values={"": "0", "0:0": "0"})
        ValueFunction.from_json(json.dumps(doc))
    with pytest.raises(InputError, match=r"^malformed stream document: "):
        parse_stream_csv(5)


def test_the_committed_missing_node_table_is_refused(capsys):
    """The python-floor CI job verifies ``tests/data/missing_node_table.json``: the reader refuses it with exit 2."""
    path = Path(__file__).parent / "data" / "missing_node_table.json"
    assert json.loads(path.read_text()) == dict(GOOD_TABLE, values={"": "0", "0:0": "0"})
    assert run(capsys, "verify", "--value-function", str(path), "--json") == (
        2, "", "error: malformed value-function document: missing '0:1'\n")


def test_an_event_needs_its_boxes_and_may_have_none():
    with pytest.raises(InputError, match=r"^malformed event document: missing 'boxes'$"):
        event_from_json('{"horizon": 2}')
    empty = event_from_json('{"horizon": 2, "boxes": []}')
    assert empty == EventUnion(2, ()) and measure_upper_probability(empty)[0] == 0


def test_a_float_value_is_refused_after_an_equal_int():
    """Each distinct value is parsed once, but 1.0 does not share the parse of 1."""
    doc = dict(GOOD_TABLE, values={"": 1, "0:0": 1, "0:1": 1.0})
    with pytest.raises(InputError, match="1.0"):
        ValueFunction.from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "error",
    [core.HorizonError, ArityError, LiveSetBudgetError, MeasureBudgetError, StreamFormatError, CertificationError,
     EnumerationLimitError],
)
def test_every_refusal_is_an_input_error(error):
    assert issubclass(error, InputError) and issubclass(error, ValueError)


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_duality_sweep_refuses_a_grid_below_one_before_any_engine_runs(capsys, monkeypatch, grid):
    def engine(event):
        raise AssertionError("an engine ran")

    monkeypatch.setattr(gameprob, "upper_game_probability", engine)
    monkeypatch.setattr(measureprob, "measure_upper_probability", engine)
    code, out, err = run(capsys, "duality-sweep", "--count", "3", "--grid", grid)
    assert (code, out) == (2, "")
    assert err == f"error: --grid must be a positive integer, got {grid}\n"


@pytest.mark.parametrize("count", ["0", "-1"])
def test_duality_sweep_refuses_a_count_below_one_before_any_event(capsys, monkeypatch, count):
    def generate(rng):
        raise AssertionError("an event was generated")

    monkeypatch.setattr(randgen, "random_event", generate)
    code, out, err = run(capsys, "duality-sweep", "--count", count)
    assert (code, out) == (2, "")
    assert err == f"error: --count must be a positive integer, got {count}\n"


@pytest.mark.parametrize("count", ["1000001", "100000000000000000000"])
def test_duality_sweep_refuses_a_count_over_its_limit_before_any_event(capsys, monkeypatch, count):
    def generate(rng):
        raise AssertionError("an event was generated")

    monkeypatch.setattr(randgen, "random_event", generate)
    code, out, err = run(capsys, "duality-sweep", "--count", count)
    assert (code, out) == (2, "")
    assert err == f"error: --count must be at most 1000000, got {count}\n"


def test_duality_sweep_grid_one_is_checked(capsys):
    code, out, _ = run(capsys, "duality-sweep", "--count", "2", "--grid", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["grid"] == 1 and "grid_bound_violations" in doc["results"]


@pytest.fixture()
def event_path(tmp_path):
    path = tmp_path / "event.json"
    path.write_text(GOOD_EVENT)
    return str(path)


ENGINE_SITES = {
    "game": (gameprob, "upper_game_probability"),
    "measure": (measureprob, "measure_upper_probability"),
}


@pytest.mark.parametrize("site", sorted(ENGINE_SITES))
@pytest.mark.parametrize("fault", [ValueError, KeyError])
def test_a_fault_inside_an_engine_is_not_an_input_error(capsys, monkeypatch, event_path, site, fault):
    module, name = ENGINE_SITES[site]

    def broken(event):
        raise fault("engine bug")

    monkeypatch.setattr(module, name, broken)
    with pytest.raises(fault, match="engine bug"):
        cli.main(["value", "--event", event_path])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("site", sorted(ENGINE_SITES))
def test_an_input_error_from_the_same_site_exits_2(capsys, monkeypatch, event_path, site):
    module, name = ENGINE_SITES[site]

    def refusing(event):
        raise InputError("refused")

    monkeypatch.setattr(module, name, refusing)
    assert run(capsys, "value", "--event", event_path) == (2, "", "error: refused\n")


def test_cli_maps_only_input_errors_and_os_errors_to_exit_2():
    tree = ast.parse(Path(cli.__file__).read_text())
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    caught = sorted(ast.unparse(handler.type) for handler in handlers)
    assert caught == ["(InputError, OSError)", "measureprob.EnumerationLimitError"]


@pytest.fixture()
def check_calls(monkeypatch):
    """Count calls of ``core.check_forecast``, wherever the package makes them."""
    calls = []
    check = core.check_forecast

    def counting(p):
        calls.append(p)
        return check(p)

    monkeypatch.setattr(core, "check_forecast", counting)
    return calls


def witness_at_10():
    event = random_event(random.Random(10), horizon=10, max_boxes=4)
    return measure_upper_probability(event)[1]


BUILT_CHECKED = {
    "constant": lambda: ForecastingSystem.constant(HALF, 10),
    "from_table": lambda: random_forecasting_system(random.Random(3), 10),
    "measure-witness": witness_at_10,
}
# Each caller-code system with the checks its to_json makes, one per expand of a distinct state of
# a depth: the history rule's state is the history, the stepping system's its depth.
CALLER_CODE = {
    "history-rule": (lambda: ForecastingSystem(10, lambda h: Fraction(1 + sum(h), 2 + len(h))), 2**10 - 1),
    "stepping": (lambda: ForecastingSystem.stepping(10, 0, lambda n: (HALF, n + 1, n + 1)), 10),
}


@pytest.mark.parametrize("kind", sorted(BUILT_CHECKED))
def test_systems_checked_when_built_are_trusted_downstream(check_calls, kind):
    phi = BUILT_CHECKED[kind]()
    check_calls.clear()
    json.loads(phi.to_json())
    assert check_calls == []


@pytest.mark.parametrize("kind", sorted(CALLER_CODE))
def test_caller_code_has_each_forecast_checked(check_calls, kind):
    make, checks = CALLER_CODE[kind]
    phi = make()
    check_calls.clear()
    json.loads(phi.to_json())
    assert len(check_calls) == checks


def test_box_from_point_coerces_and_checks():
    box = Box.from_point((("1/2", 1), (0, 0)))
    assert [(s.p_lo, s.p_hi, s.y) for s in box.steps] == [(HALF, HALF, 1), (0, 0, 0)]
    assert type(box.steps[0].p_lo) is Fraction
    with pytest.raises(InputError, match="outside"):
        Box.from_point(((Fraction(3, 2), 1),))
    with pytest.raises(InputError, match="outcome"):
        Box.from_point(((HALF, 2),))


def test_contains_coerces_a_prefix_once_for_every_box():
    a, _ = counterexample_pair()
    assert contains(a, (("0", 0), ("1/2", 0))) and not contains(a, (("0", 0), ("1/3", 0)))
    with pytest.raises(InputError, match="outcome"):
        contains(a, ((0, 0), (HALF, 2)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: measureprob.grid_bruteforce(counterexample_pair()[0], 0), InputError, "positive integer"),
        (lambda: measureprob.monte_carlo_probability(
            ForecastingSystem.constant(HALF, 2), counterexample_pair()[0], 0, 0), InputError, "at least 1"),
        (lambda: measureprob.monte_carlo_probability(
            ForecastingSystem.constant(HALF, 1), counterexample_pair()[0], 10, 0), ArityError, "system horizon 1"),
        (lambda: CalibrationState(0, Fraction(1)), InputError, "positive integer"),
        (lambda: intersection(EventUnion.full(1), EventUnion.full(2)), ArityError, "horizon mismatch: 1 != 2"),
        # Doubling is no martingale under forecasts 1/4: the bound is refused before certification.
        (lambda: ville_check(ForecastingSystem.constant(Fraction(1, 4), 3), DoublingStrategy, Fraction(1, 10**400),
                             10, 0), InputError, "too large for a float"),
        (lambda: core.sample_outcomes(ForecastingSystem.constant(HALF, 2), -2, 0), core.HorizonError,
         "cannot sample -2 outcomes at horizon 2"),
        (lambda: core.sample_outcomes(ForecastingSystem.constant(HALF, 2), 1.5, 0), core.HorizonError,
         "cannot sample 1.5 outcomes at horizon 2"),
        (lambda: core.sample_outcomes(ForecastingSystem.constant(HALF, 2), True, 0), core.HorizonError,
         "cannot sample True outcomes at horizon 2"),
    ],
    ids=["grid-below-one", "no-samples", "short-system", "calibration-horizon-0", "intersection-horizons",
         "ville-bound-overflows-a-float", "sample-a-negative-length", "sample-a-fractional-length",
         "sample-a-boolean-length"],
)
def test_library_refusals_raise_their_input_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.fixture()
def parsed_strings(monkeypatch):
    """The strings ``core.as_fraction`` parses, wherever the package calls it."""
    parsed = []
    parse = core.as_fraction

    def counting(value):
        if isinstance(value, str):
            parsed.append(value)
        return parse(value)

    monkeypatch.setattr(core, "as_fraction", counting)
    return parsed


def test_a_phi_document_parses_each_distinct_forecast_string_once(capsys, tmp_path, parsed_strings):
    phi = tmp_path / "phi.json"
    table = {"": "1/2", "0": "1/2", "1": "0.5", "00": "1/3", "01": "1/2", "10": "1/3", "11": "0.5"}
    phi.write_text(json.dumps({"horizon": 3, "table": table}))
    code, _, err = run(capsys, "ville", "--phi", str(phi), "--strategy", "doubling", "--samples", "50", "--json")
    assert code == 0, err
    assert sorted(parsed_strings) == ["0.5", "1/2", "1/3"]
    system = ForecastingSystem.from_json(phi.read_text())
    assert system.forecast(()) is system.forecast((0,))  # one Fraction for every entry giving "1/2"


def test_a_stream_parses_each_distinct_forecast_string_once(parsed_strings):
    stream = parse_stream_csv("p,y\n1/2,1\n0.5,0\n1/2,0\n1/3,1\n 1/3 ,0\n")
    assert sorted(parsed_strings) == ["0.5", "1/2", "1/3"]
    assert stream[0][0] is stream[2][0] and stream[3][0] is stream[4][0]


def parser_refusal(capsys, *argv):
    """The exit status and the stdout and stderr text of an argv that argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["ville", "-N", "٣", "--samples", "٥", "--json"], "-N"),
        (["duality-sweep", "--count", "٢"], "--count"),
        (["test-stream", "--stream", "s.csv", "-N", "٣"], "-N"),
        (["ville", "--samples", "٥"], "--samples"),
        (["duality-sweep", "--grid", "٢"], "--grid"),
        (["ville", "--seed", "١"], "--seed"),
    ],
)
def test_an_integer_option_of_unicode_digits_is_one_line_naming_it(capsys, argv, option):
    """Documents and streams refuse digits outside ASCII, and so do the integer options."""
    code, out, err = parser_refusal(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: argument {option}: invalid int value: {argv[argv.index(option) + 1]!r}\n"


@pytest.mark.parametrize("spelling, horizon", [("3", 3), ("+3", 3), (" 3 ", 3), ("0_3", 3)])
def test_integer_options_still_read_every_ascii_spelling_of_int(capsys, spelling, horizon):
    code, out, err = run(capsys, "ville", "-N", spelling, "--samples", "5", "--json")
    assert code == 0, err
    assert json.loads(out)["inputs"]["horizon"] == horizon


@pytest.mark.parametrize(
    "argv",
    [
        ["value"],
        ["value", "--event", "e.json", "--engine", "neither"],
        ["ville", "-N", "abc"],
        ["no-such-command"],
        [],
        ["value", "--event", "e.json", "--bogus"],
        ["--json", "value", "--event", "e.json"],
    ],
    ids=["missing-required-option", "bad-engine-choice", "non-integer-N", "bad-subcommand", "no-subcommand",
         "unrecognized-after-subcommand", "option-before-subcommand"],
)
def test_an_argparse_refusal_is_one_error_line_and_exit_2(capsys, argv):
    code, out, err = parser_refusal(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "usage:" not in err


def test_a_negative_seed_would_repeat_a_non_negative_seeds_samples():
    """``random.Random(-k)`` draws what ``random.Random(k)`` draws: seeds -3 .. 6 hold three copies."""
    phi = ForecastingSystem.constant(HALF, 20)
    assert core.sample_outcomes(phi, 20, -3) == core.sample_outcomes(phi, 20, 3)
    assert len({core.sample_outcomes(phi, 20, seed) for seed in range(-3, 7)}) == 7


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["ville", "--seed", "-3", "--samples", "10", "--json"], None, "--seed must be non-negative, got -3"),
        (["ville", "--samples", "10"], "-2", "$PREQ_SEED must be non-negative, got -2"),
        (["duality-sweep", "--count", "1", "--seed", "-1"], None, "--seed must be non-negative, got -1"),
        (["levy-trace", "--event", "{file}", "--seed", "-1"], None, "--seed must be non-negative, got -1"),
        (["levy-trace", "--event", "{file}"], "-4", "$PREQ_SEED must be non-negative, got -4"),
    ],
    ids=["ville-option", "ville-variable", "duality-sweep-option", "levy-trace-option", "levy-trace-variable"],
)
def test_a_negative_seed_exits_2_before_any_work(capsys, monkeypatch, tmp_path, argv, env, message):
    event = tmp_path / "event.json"
    event.write_text(GOOD_EVENT)
    if env is not None:
        monkeypatch.setenv("PREQ_SEED", env)

    def boom(*args, **kwargs):
        raise AssertionError("ran before the seed was checked")

    for module, name in ((cli.strategies, "ville_check"), (randgen, "random_event"), (cli, "event_from_json")):
        monkeypatch.setattr(module, name, boom)
    code, out, err = run(capsys, *[arg.replace("{file}", str(event)) for arg in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_zero_seed_is_still_read(capsys, monkeypatch):
    monkeypatch.setenv("PREQ_SEED", "0")
    code, out, err = run(capsys, "ville", "--samples", "3", "--json")
    assert code == 0, err
    assert json.loads(out)["seed"] == 0


def test_library_samplers_refuse_a_negative_seed_before_any_work(monkeypatch):
    calls = []

    def factory():
        calls.append("factory")
        return DoublingStrategy()

    for sampler in ("sample_outcomes", "sample_path"):
        monkeypatch.setattr(measureprob, sampler, lambda *args: calls.append("sample"))
    with pytest.raises(InputError, match=r"^seed must be non-negative, got -1$"):
        ville_check(ForecastingSystem.constant(HALF, 3), factory, 4, 10, -1)
    with pytest.raises(InputError, match=r"^seed must be non-negative, got -3$"):
        measureprob.monte_carlo_probability(ForecastingSystem.constant(HALF, 2), counterexample_pair()[0], 10, -3)
    assert calls == []


def test_library_samplers_refuse_too_many_samples_before_any_work(monkeypatch):
    calls = []

    def factory():
        calls.append("factory")
        return DoublingStrategy()

    for sampler in ("sample_outcomes", "sample_path"):
        monkeypatch.setattr(measureprob, sampler, lambda *args: calls.append("sample"))
    too_many = core.SAMPLE_LIMIT + 1
    with pytest.raises(InputError, match=r"^samples must be at most 10000000$"):
        ville_check(ForecastingSystem.constant(HALF, 3), factory, 4, too_many, 0)
    with pytest.raises(InputError, match=r"^samples must be at most 10000000$"):
        measureprob.monte_carlo_probability(ForecastingSystem.constant(HALF, 2), counterexample_pair()[0], too_many, 0)
    assert calls == []
    assert core.check_samples(core.SAMPLE_LIMIT) == 10**7

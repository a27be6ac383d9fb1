"""One input boundary: every refused input is an ``InputError``, and only that (or OSError) exits 2.

Values are checked once, where they enter.  Any other exception raised
inside the program is a fault of the tool and propagates out of ``main``.
"""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from preqprob import cli, core, gameprob, measureprob
from preqprob.core import ForecastingSystem, InputError
from preqprob.events import ArityError, Box, contains, counterexample_pair, event_from_json, event_to_json
from preqprob.gameprob import LiveSetBudgetError, ValueFunction
from preqprob.measureprob import EnumerationLimitError, measure_upper_probability
from preqprob.randgen import random_event, random_forecasting_system
from preqprob.strategies import (
    CertificationError,
    IncompleteTableError,
    StreamFormatError,
    parse_stream_csv,
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
    "ville-threshold-zero": (["ville", "-C", "0"], None),
    "ville-threshold-not-a-rational": (["ville", "-C", "abc"], None),
    "ville-horizon-zero": (["ville", "-N", "0"], None),
    "ville-uncertified-strategy": (["ville", "-N", "2", "--strategy", "doubling", "--phi", "{file}"],
                                   '{"horizon": 1, "table": {"": "1/4"}}'),
    "test-stream-horizon-zero": (["test-stream", "--stream", "{file}", "-N", "0"], "p,y\n1/2,1\n"),
    "test-stream-threshold-zero": (["test-stream", "--stream", "{file}", "-C", "0"], "p,y\n1/2,1\n"),
    "levy-threshold-above-one": (["levy-trace", "--event", "{file}", "--threshold", "2"], GOOD_EVENT),
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


def test_a_float_value_is_refused_after_an_equal_int():
    """Each distinct value is parsed once, but 1.0 does not share the parse of 1."""
    doc = dict(GOOD_TABLE, values={"": 1, "0:0": 1, "0:1": 1.0})
    with pytest.raises(InputError, match="1.0"):
        ValueFunction.from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "error",
    [core.HorizonError, ArityError, LiveSetBudgetError, StreamFormatError,
     IncompleteTableError, CertificationError, EnumerationLimitError],
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
CALLER_CODE = {
    "history-rule": lambda: ForecastingSystem(10, lambda h: Fraction(1 + sum(h), 2 + len(h))),
    "stepping": lambda: ForecastingSystem.stepping(10, 0, lambda n: (HALF, n + 1, n + 1)),
}


@pytest.mark.parametrize("kind", sorted(BUILT_CHECKED))
def test_systems_checked_when_built_are_trusted_downstream(check_calls, kind):
    phi = BUILT_CHECKED[kind]()
    check_calls.clear()
    phi.to_doc()
    assert check_calls == []


@pytest.mark.parametrize("kind", sorted(CALLER_CODE))
def test_caller_code_has_each_forecast_checked(check_calls, kind):
    phi = CALLER_CODE[kind]()
    check_calls.clear()
    phi.to_doc()
    assert len(check_calls) == 2**10 - 1


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

"""Event set-up on integers: each endpoint string checked once, cells built only when read.

``event_from_json`` reads each distinct endpoint string once as a forecast
and builds a new step from its checked bounds, so only their order and the
outcome are left to check.  The property below compares it with a parser
kept here that builds every step through the public ``StepConstraint``:
equal events, the same sharing of step objects and the same refusal text.
``forecast_partition`` keeps each cell as an integer row and builds its
cells when they are first read; they must equal a cut made from the
definitions.  The game engine solves on the rows and builds no cell.
"""

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from preqprob import gameprob
from preqprob.core import InputError, as_fraction, as_int, parse_once_per_string, reading
from preqprob.events import WILDCARD, Box, Cell, EventUnion, StepConstraint, event_from_json, forecast_partition
from preqprob.randgen import random_event
from test_game_levels import equals_the_reference, reference_cut
from test_measure_levels import reference_measure
from test_step_memo import run
from test_value_memo import PROPERTY

DATA = Path(__file__).parent / "data"


def reference_parse(text: str) -> EventUnion:
    """The parser with every new step built by ``StepConstraint``, which checks both bounds again."""
    number = parse_once_per_string(as_fraction)
    shared: dict = {}
    with reading("event"):
        doc = json.loads(text)
        horizon = as_int(doc["horizon"], "horizon")
        boxes = []
        for box_doc in doc.get("boxes", []):
            steps = []
            for step_doc in box_doc["steps"]:
                p, y_raw = step_doc["p"], step_doc.get("y", "*")
                if type(p) is not list or len(p) != 2:
                    raise InputError(f"a step's p must be a pair [lo, hi], got {p!r}")
                plain = type(p[0]) is type(p[1]) is str and type(y_raw) in (str, int)
                key = (p[0], p[1], y_raw) if plain else None
                step = shared.get(key)
                if step is None:
                    y = WILDCARD if y_raw == "*" else as_int(y_raw, "outcome y")
                    step = StepConstraint(number(p[0]), number(p[1]), y)
                    if key is not None:
                        shared[key] = step
                steps.append(step)
            boxes.append(Box(tuple(steps)))
    return EventUnion(horizon, tuple(boxes))


def parsed(parse, text: str):
    """(event, None) or (None, the refusal's type and text)."""
    try:
        return parse(text), None
    except InputError as exc:
        return None, (type(exc).__name__, str(exc))


def sharing(event: EventUnion) -> list:
    """Each step as the index of its object in order of first appearance."""
    first: dict = {}
    return [[first.setdefault(id(step), len(first)) for step in box.steps] for box in event.boxes]


GOOD = ["0", "1", 0, 1, "1/2", "2/4", "0.5", "5e-1", "1/3", "3/4"]
# A float, a long exponent, a non-ASCII digit, bounds outside [0, 1], text and null.
BAD = [1.0, "1e-30000000", "١", "3/2", "-1/4", "x", None]
BAD_Y = ["0", "1", 2, -1, True, False, "x", 1.0, None]
NOT_PAIRS = ["0", 0, {"lo": "0"}, ["0"], ["0", "1", "1"]]


@st.composite
def step_docs(draw):
    kind = draw(st.integers(0, 11))
    if kind == 0:
        p = draw(st.sampled_from(NOT_PAIRS))
    else:
        pool = GOOD + BAD if kind == 1 else GOOD
        p = [draw(st.sampled_from(pool)), draw(st.sampled_from(pool))]
        if kind > 3 and all(type(b) in (int, str) and b in GOOD for b in p):
            p.sort(key=Fraction)  # mostly ordered: lo > hi is refused
    step = {"p": p}
    if draw(st.integers(0, 7)):  # a missing y is a wildcard
        step["y"] = draw(st.sampled_from(BAD_Y if draw(st.integers(0, 5)) == 0 else [0, 1, "*"]))
    return step


@st.composite
def documents(draw):
    """Up to three boxes over up to three steps, each step drawn from a pool of at most four, so steps repeat."""
    horizon, n_boxes = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    pool = draw(st.lists(step_docs(), min_size=1, max_size=4))
    boxes = [{"steps": [draw(st.sampled_from(pool)) for _ in range(horizon)]} for _ in range(n_boxes)]
    return json.dumps({"horizon": horizon, "boxes": boxes})


def doc(*steps):
    return json.dumps({"horizon": len(steps), "boxes": [{"steps": list(steps)}]})


@PROPERTY
@given(documents())
@example(doc({"p": ["0", 1.0], "y": 1}))  # a float
@example(doc({"p": ["0", "1e-30000000"], "y": 1}))  # a long exponent
@example(doc({"p": ["١", "1"], "y": 1}))  # a non-ASCII digit
@example(doc({"p": ["1/2", "3/2"], "y": 1}))  # a bound outside [0, 1]
@example(doc({"p": ["-1/2", "x"], "y": 1}))  # outside [0, 1] before an unparsable bound
@example(doc({"p": ["3/4", "1/2"], "y": 2}))  # lo > hi before a bad outcome
@example(doc({"p": ["0", "1"], "y": 2}))  # a bad y
@example(doc({"p": ["0", "1"], "y": True}))  # a bool y
@example(doc({"p": ["3/2", "1"], "y": "x"}))  # the outcome's type before the bounds
@example(doc({"p": "0", "y": 1}))  # a p that is not a list
@example(doc({"p": ["1/2", "1"], "y": 1}, {"p": ["2/4", "1"], "y": 1}, {"p": ["1/2", "1"], "y": 1}))
# A fault in each of two boxes: the first box's, checked last within its step, is the one named.
@example(json.dumps({"horizon": 1, "boxes": [{"steps": [{"p": ["0", "1"], "y": 2}]}, {"steps": [{"p": ["x", "1"]}]}]}))
@example(doc({"p": ["1/4", 1]}, {"p": ["1/4", "1"]}))  # a mixed step, then a plain one with the same endpoint string
def test_the_parse_equals_the_reference_parse(text):
    event, refusal = parsed(event_from_json, text)
    expected, expected_refusal = parsed(reference_parse, text)
    assert refusal == expected_refusal
    if event is not None:
        assert event == expected
        assert sharing(event) == sharing(expected)
        bounds = [b for box in event.boxes for s in box.steps for b in (s.p_lo, s.p_hi)]
        assert all(type(b) is Fraction for b in bounds)


def test_the_public_constructor_still_checks_and_normalises():
    step = StepConstraint("1/2", 1, True)
    assert (step.p_lo, step.p_hi, step.y) == (Fraction(1, 2), Fraction(1), 1)
    with pytest.raises(InputError, match=r"forecast 3/2 outside \[0, 1\]"):
        StepConstraint(Fraction(1, 2), Fraction(3, 2))


@pytest.mark.parametrize("seed", range(12))
def test_cells_built_when_read_equal_the_cut_from_the_definitions(monkeypatch, seed):
    event = random_event(random.Random(seed))
    built = []
    post_init = Cell.__post_init__
    monkeypatch.setattr(Cell, "__post_init__", lambda cell: built.append(cell) or post_init(cell))
    for depth in range(event.horizon):
        points, cut = reference_cut(event, depth)
        expected = [cell for cell, _ in cut]
        built.clear()  # the reference cut's own cells
        partition = forecast_partition(event, depth + 1)
        assert built == []  # the cut builds no cell
        assert list(partition.cells) == expected
        assert partition.cells is partition.cells and len(built) == len(expected)  # built once
        scale = partition.scale
        assert scale == math.lcm(*(p.denominator for p in points))
        assert list(partition.masks) == [masks for _, masks in cut]
        assert list(partition.rows) == [(m0, m1, c.lo * scale, c.hi * scale) for c, (m0, m1) in cut]
        again = forecast_partition(event, depth + 1)
        assert again == partition and hash(again) == hash(partition)


def refuse(*args, **kwargs):
    raise AssertionError("a cell was built")


@pytest.mark.parametrize(
    "name",
    ["three_box_event.json", "many_cells_event.json", "horizon_400_event.json", "mixed_forms_event.json",
     "one_box_edges_event.json"],
)
def test_the_game_engine_builds_no_cell(capsys, monkeypatch, name):
    monkeypatch.setattr(Cell, "__post_init__", refuse)
    code, out, err = run(capsys, "value", "--event", str(DATA / name), "--engine", "game", "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["results"]["upper_game"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "name, pin",
    [
        ("three_box_event.json", "83c3aa20a92e7a0269e030d5a3f0583392f531926bb3f37d79493ef8e3640010"),
        ("many_cells_event.json", "706bbd1d59e9e5ba31a806543365141c607d6464c299f8f0c48558fc30ca8343"),
    ],
)
def test_table_out_bytes_are_pinned(capsys, tmp_path, name, pin):
    table = tmp_path / "table.json"
    code, _, _ = run(capsys, "value", "--event", str(DATA / name), "--engine", "game", "--table-out", str(table))
    assert code == 0 and digest(table.read_text()) == pin


@pytest.mark.parametrize(
    "event, more, pin",
    [
        ("three_box_event.json", ["--seed", "4"], "065efb6d412a2a014231334a1215944fc83c4524cad1d9170737631ed9e8a231"),
        ("horizon_400_event.json", ["--stream", str(DATA / "fair_coin_stream.csv")],
         "0c7a1217613cb9d696e099987053315142ccb1d43115a25cae00c0b674df8cef"),
    ],
)
def test_levy_trace_results_are_pinned(capsys, event, more, pin):
    code, out, _ = run(capsys, "levy-trace", "--event", str(DATA / event), *more, "--json")
    assert code == 0 and digest(json.dumps(json.loads(out)["results"], sort_keys=True)) == pin


def test_the_mixed_forms_event_shares_its_repeated_step(capsys):
    """The event the python-floor CI job runs: four spellings of 1/2, JSON integers, a repeated and a free step."""
    event = event_from_json((DATA / "mixed_forms_event.json").read_text())
    assert sharing(event) == [[0, 1, 2, 1], [3, 4, 5, 4]]
    assert {b for box in event.boxes for s in box.steps for b in (s.p_lo, s.p_hi)} == {0, Fraction(1, 2), 1}
    code, out, _ = run(capsys, "value", "--event", str(DATA / "mixed_forms_event.json"), "--engine", "both", "--json")
    results = json.loads(out)["results"]
    assert code == 0 and results["upper_game"] == results["upper_measure"] == "1/4"


def test_the_one_box_edges_event_equals_both_references(capsys):
    """The event the python-floor CI job runs: one-box edges, endpoints written "0", "007/014", "12/12", "0.5" and 1."""
    event = event_from_json((DATA / "one_box_edges_event.json").read_text())
    assert {b for box in event.boxes for s in box.steps for b in (s.p_lo, s.p_hi)} == {0, Fraction(1, 2), 1}
    code, out, _ = run(capsys, "value", "--event", str(DATA / "one_box_edges_event.json"), "--engine", "both", "--json")
    results = json.loads(out)["results"]
    assert code == 0 and results["upper_game"] == results["upper_measure"] == "3/4"
    assert results["witness_system"] == json.loads(reference_measure(event)[1].to_json())
    equals_the_reference(event)
    one_box = {live for level in gameprob._engine(event)._values for live in level if live.bit_count() == 1}
    assert one_box == {1, 2, 4, 8}

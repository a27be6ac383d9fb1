"""The game engine's survivors on integers, equal to the cell masks they replaced.

``_GameEngine.survivors_at`` tests each live box's closed interval against
the box's own row, lo*b <= a*q <= hi*b for the forecast a/b and the step's
scale q, instead of finding the forecast's cell.  The property below holds
it to the cell's masks at every reached live-set, at every cell end, every
gap midpoint and random rationals, for both outcomes; a Lévy trace, which
steps by ``survivors_at``, builds no ``Cell``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preqprob import gameprob
from preqprob.core import InputError
from preqprob.events import Cell, event_from_json
from test_measure_levels import ONE_BOX_EDGES, doc, event_docs
from test_step_memo import run
from test_value_memo import PROPERTY

DATA = Path(__file__).parent / "data"


def by_cell(engine, live: int, depth: int, p: Fraction, y: int) -> int:
    partition = engine.partitions[depth]
    return live & partition.masks[partition.cell_index_of(p)][y]


@settings(PROPERTY, max_examples=50)
@given(
    st.one_of(event_docs(), event_docs(st.sampled_from(ONE_BOX_EDGES), max_boxes=3)),
    st.lists(st.fractions(0, 1, max_denominator=60), max_size=3),
)
@example(doc(3), [])  # no boxes
@example(doc(2, [{"p": ["0", "0"], "y": 1}] * 2, [{"p": ["1", "1"], "y": 0}] * 2), [Fraction(1, 2)])
@example(doc(1, [{"p": ["1/3", "2/3"], "y": "*"}], [{"p": ["1/2", "1"], "y": 0}], [{"p": ["0", "1/2"], "y": 1}]), [])
def test_survivors_on_integers_equal_the_cell_masks(text, extra):
    event = event_from_json(text)
    engine = gameprob._GameEngine(event)
    for depth, partition in enumerate(engine.partitions):
        ends = sorted({end for cell in partition.cells for end in (cell.lo, cell.hi)})
        points = [*ends, *((lo + hi) / 2 for lo, hi in zip(ends, ends[1:])), *extra]
        for live in engine._values[depth]:  # every live-set reached, and the empty one
            for p in points:
                for y in (0, 1):
                    assert engine.survivors_at(live, depth, p, y) == by_cell(engine, live, depth, p, y)


def test_survivors_check_the_forecast_as_the_cell_search_did():
    engine = gameprob._GameEngine(event_from_json((DATA / "three_box_event.json").read_text()))
    full = engine.all_live()
    assert engine.survivors_at(full, 0, "2/4", 1) == by_cell(engine, full, 0, Fraction(1, 2), 1)
    for live in (full, 0):
        with pytest.raises(InputError, match=r"^forecast 3/2 outside \[0, 1\]$"):
            engine.survivors_at(live, 0, Fraction(3, 2), 0)


def refuse(*args, **kwargs):
    raise AssertionError("a cell was built")


@pytest.mark.parametrize(
    "event, more",
    [("three_box_event.json", ["--seed", "4"]), ("horizon_400_event.json", ["--stream", str(DATA / "fair_coin_stream.csv")])],
    ids=["sampled", "stream"],
)
def test_levy_trace_builds_no_cell(capsys, monkeypatch, event, more):
    monkeypatch.setattr(Cell, "__post_init__", refuse)
    code, out, err = run(capsys, "levy-trace", "--event", str(DATA / event), *more, "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["results"]["capital_trajectory"]

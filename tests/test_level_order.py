"""Value tables in level order: built, written, read and checked by position.

Tables the library builds hold their node values as one list in
``cell_tree`` order behind a read-only ``LevelValues`` view, which decodes a
cell-path by mixed radix.  ``to_json`` pairs the list with the key strings
by position and never looks a value up by path, so a slip in the decoding
would mislabel nodes in silence; the property below compares the view with
a dict built along ``cell_tree``.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from preqprob import cli, gameprob, strategies
from preqprob.core import InputError
from preqprob.events import point_partition
from preqprob.gameprob import LevelValues, ValueFunction, encode_cell_path, witness_superfarthingale
from preqprob.randgen import random_event
from preqprob.strategies import CalibrationState, DoublingStrategy, check_farthingale, strategy_value_table
from test_strategies import reference_check
from test_value_memo import (
    MODES,
    PROPERTY,
    TAMPERED_VIOLATIONS,
    WITNESS_PINS,
    node_paths,
    partitions,
    tampered_table,
)


@st.composite
def level_tables(draw):
    """Up to three steps of ``partitions()`` and a view holding one distinct value per node."""
    parts = tuple(draw(st.lists(partitions(), max_size=3)))
    count = len(node_paths(parts))
    return parts, LevelValues(parts, [Fraction(i, 7) for i in range(count)])


@PROPERTY
@given(level_tables())
def test_the_view_agrees_with_the_path_dict(table):
    parts, view = table
    paths = node_paths(parts)  # along cell_tree
    by_path = dict(zip(paths, view.nodes))
    assert len(by_path) == len(view) == len(paths)
    assert list(view) == list(by_path)
    assert all(view[path] is value for path, value in by_path.items())
    assert ValueFunction(len(parts), parts, by_path).nodes == view.nodes


@PROPERTY
@given(level_tables(), st.data())
def test_a_key_that_is_not_a_node_raises_key_error(table, data):
    parts, view = table
    path = data.draw(st.sampled_from(node_paths(parts)))
    refused = [[path], "", None, len(path), path + ((0, 0),) * (len(parts) - len(path) + 1)]
    if path:
        step = data.draw(st.integers(0, len(path) - 1))
        cells = len(parts[step].cells)
        ci, bit = path[step]
        for bad in ((cells, bit), (-1, bit), (ci, 2), (ci, -1), (ci,), "0:0"):
            refused.append(path[:step] + (bad,) + path[step + 1 :])
    for key in refused:
        with pytest.raises(KeyError):
            view[key]
        assert key not in view


def test_a_view_must_hold_one_value_per_node():
    parts = (point_partition([]),)
    with pytest.raises(ValueError, match="2 values for a tree of 7 nodes"):
        LevelValues(parts, [Fraction(0)] * 2)


def test_a_negative_horizon_is_refused_before_the_factory_is_called():
    def factory():
        raise AssertionError("strategy built for a negative horizon")

    with pytest.raises(InputError, match="horizon must be non-negative, got -1"):
        strategy_value_table(factory, -1, [])
    root_only = strategy_value_table(DoublingStrategy, 0, [])
    assert ValueFunction.from_json(root_only.to_json()).values == {(): Fraction(1)}


@pytest.fixture()
def no_cell_paths(monkeypatch):
    def refuse(*args):
        raise AssertionError("a table walk built cell-paths")

    for module in (gameprob, strategies):
        monkeypatch.setattr(module, "cell_tree", refuse, raising=False)


def test_table_walks_build_no_cell_path(no_cell_paths, capsys, monkeypatch, tmp_path):
    vf = witness_superfarthingale(random_event(random.Random(5)))
    text = vf.to_json()
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == WITNESS_PINS[5]
    again = ValueFunction.from_json(text)
    assert again.nodes == vf.nodes and again.to_json() == text
    tampered = ValueFunction.from_json(tampered_table())
    for mode in MODES:
        assert check_farthingale(again, mode) == reference_check(vf, mode)
        _, violations = check_farthingale(tampered, mode)
        lines = "\n".join(f"{encode_cell_path(path)} {p}" for path, p in violations)
        assert hashlib.sha256(lines.encode()).hexdigest() == TAMPERED_VIOLATIONS[mode]
    calibration = strategy_value_table(lambda: CalibrationState(3, Fraction(1)), 3, [Fraction(1, 3)])
    assert check_farthingale(calibration, "exact") == (True, [])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.json").write_text(text)
    assert cli.main(["verify", "--value-function", "table.json", "--mode", "super", "--json"]) == 0
    assert '"nodes":297' in capsys.readouterr().out

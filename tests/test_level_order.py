"""Value tables as levels of states: built, written, read and checked without cell-paths.

Tables the library builds hold a read-only ``StateGraph``: per depth, the
values of its distinct states and each state's child-state indices.  A
path is followed along the child indices.  ``to_json`` writes each state's
subtree text once and never looks a value up by path, so a slip in the
hash-consing would mislabel nodes in silence; the property below compares
the view with a dict built in level order.
"""

import hashlib
import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from preqprob import cli, gameprob, strategies
from preqprob.core import InputError
from preqprob.events import EventUnion, event_partitions, point_partition
from preqprob.gameprob import StateGraph, ValueFunction, encode_cell_path, witness_superfarthingale
from preqprob.randgen import random_event
from preqprob.strategies import (
    CalibrationState,
    ConstantStrategy,
    DoublingStrategy,
    check_farthingale,
    strategy_value_table,
)
from path_tables import node_paths, path_dict, path_graph
from test_strategies import reference_check
from test_value_memo import (
    MODES,
    POOL,
    PROPERTY,
    TAMPERED_VIOLATIONS,
    WITNESS_PINS,
    even_partition,
    partitions,
    tampered_table,
)


@st.composite
def level_tables(draw):
    """Up to three steps of ``partitions()``, node values in level order, and their view.

    The values are one distinct object per node, or objects of ``POOL``, so
    that nodes share states.
    """
    parts = tuple(draw(st.lists(partitions(), max_size=3)))
    count = len(node_paths(parts))
    if draw(st.booleans()):
        nodes = [Fraction(i, 7) for i in range(count)]
    else:
        nodes = [POOL[i] for i in draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))]
    return parts, nodes, StateGraph.from_nodes(parts, nodes)


@PROPERTY
@given(level_tables())
def test_the_view_agrees_with_the_path_dict(table):
    parts, nodes, view = table
    paths = node_paths(parts)  # in level order
    by_path = dict(zip(paths, nodes))
    assert len(by_path) == len(view) == len(paths)
    assert all(view[path] is value for path, value in by_path.items())
    again = path_graph(parts, by_path)
    assert (again.levels, again.children) == (view.levels, view.children)


@PROPERTY
@given(level_tables(), st.data())
def test_a_key_that_is_not_a_node_raises_key_error(table, data):
    parts, _, view = table
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


@st.composite
def small_graphs(draw):
    """Horizon 0 to 3 over partitions of 1 to 4 cells, values from ``POOL``: the graph and its per-node dict.

    The graph reads only each step's cell count, so equal-width cells serve.
    """
    parts = tuple(draw(st.lists(st.integers(1, 4).map(even_partition), max_size=3)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    paths = node_paths(parts)
    nodes = [rng.choice(POOL[:3]) for _ in paths]
    return parts, dict(zip(paths, nodes)), StateGraph.from_nodes(parts, nodes)


@PROPERTY
@given(small_graphs(), st.data())
def test_the_graph_reads_its_shape_from_its_children(table, data):
    parts, by_path, graph = table
    assert len(graph) == len(by_path)
    assert all(graph[path] is value for path, value in by_path.items())
    # A key that is not a node raises KeyError; any other error escapes.
    for path in by_path:
        if len(path) == len(parts):
            with pytest.raises(KeyError):
                graph[path + ((0, 0),)]
        if path:
            ci, bit = path[-1]
            cells = len(parts[len(path) - 1].cells)
            for bad in ((cells, bit), (ci, 2), (-1, bit)):
                with pytest.raises(KeyError):
                    graph[path[:-1] + (bad,)]

    def state_of(path):
        state = 0
        for (ci, bit), below in zip(path, graph.children):
            state = below[state][2 * ci + bit]
        return state

    depths = data.draw(st.integers(1, len(parts) + 1))
    marks = [
        {s: f"{depth}:{s}" for s in data.draw(st.sets(st.integers(0, len(graph.levels[depth]) - 1)))}
        for depth in range(depths)
    ]
    brute = [(path, marks[len(path)][state_of(path)]) for path in by_path
             if len(path) < depths and state_of(path) in marks[len(path)]]
    assert graph.marked_nodes(marks) == brute
    everything = [dict.fromkeys(range(len(level)), depth) for depth, level in enumerate(graph.levels)]
    assert graph.marked_nodes(everything) == [(path, len(path)) for path in by_path]


def test_the_builder_needs_one_value_per_node():
    parts = (point_partition([]),)
    with pytest.raises(ValueError, match="2 values for a tree of 7 nodes"):
        StateGraph.from_nodes(parts, [Fraction(0)] * 2)


@pytest.mark.parametrize(
    "horizon, parts, graph_parts",
    [
        # The three cells of step 1 give each state 6 children; a one-cell step needs 2.
        (1, event_partitions(EventUnion.full(1)), (point_partition([]),)),
        # Two levels for a horizon-2 table, and three for a table over one partition.
        (2, (even_partition(1),) * 2, (even_partition(1),)),
        (1, (even_partition(1),), (even_partition(1),) * 2),
    ],
    ids=["children-per-state", "too-few-levels", "too-many-levels"],
)
def test_a_state_graph_that_does_not_fit_the_partitions_is_refused(horizon, parts, graph_parts):
    graph = StateGraph.from_nodes(graph_parts, [Fraction(k, 7) for k in range(len(node_paths(graph_parts)))])
    with pytest.raises(InputError, match="does not fit a horizon"):
        ValueFunction(horizon, parts, graph)
    assert len(ValueFunction(len(graph_parts), graph_parts, graph).values) == len(node_paths(graph_parts))


def test_a_horizon_other_than_the_partition_count_is_refused():
    """Whatever holds the values: ``from_json`` would refuse the table such a horizon writes.

    Values that are not a ``StateGraph``, a dict of paths say, are refused at the right horizon too.
    """
    parts = (point_partition([]),)
    paths = node_paths(parts)
    values = dict(zip(paths, [Fraction(k, len(paths)) for k in range(len(paths))]))
    graph = StateGraph.from_nodes(parts, list(values.values()))
    for table in (values, graph):
        with pytest.raises(InputError, match=r"^horizon 2 but 1 partitions$"):
            ValueFunction(2, parts, table)
    for table in (values, MappingProxyType(values)):
        with pytest.raises(InputError, match=rf"^a value table holds a StateGraph, not a {type(table).__name__}$"):
            ValueFunction(1, parts, table)
    assert ValueFunction.from_json(ValueFunction(1, parts, graph).to_json()).horizon == 1


def test_a_negative_horizon_is_refused_before_the_factory_is_called():
    def factory():
        raise AssertionError("strategy built for a negative horizon")

    with pytest.raises(InputError, match="horizon must be non-negative, got -1"):
        strategy_value_table(factory, -1, [])
    root_only = strategy_value_table(DoublingStrategy, 0, [])
    again = ValueFunction.from_json(root_only.to_json())
    assert path_dict(again.partitions, again.values) == {(): Fraction(1)}


@pytest.fixture()
def decoded_paths(monkeypatch):
    """The number of cell-paths ``gameprob.marked_paths`` decodes, the one way a table walk names nodes."""
    decoded = [0]
    real = gameprob.marked_paths

    def counting(*args):
        found = real(*args)
        decoded[0] += len(found)
        return found

    monkeypatch.setattr(gameprob, "marked_paths", counting)
    return decoded


def test_table_walks_build_no_cell_path(decoded_paths, capsys, monkeypatch, tmp_path):
    """A check decodes the path of each node holding a failing state and no other: none on a clean table."""

    def checked(table, mode):
        decoded_paths[0] = 0
        ok, violations = check_farthingale(table, mode)
        assert decoded_paths == [len({path for path, _ in violations})]
        return ok, violations

    vf = witness_superfarthingale(random_event(random.Random(5)))
    text = vf.to_json()
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == WITNESS_PINS[5]
    again = ValueFunction.from_json(text)
    assert all(again.values[path] == vf.values[path] for path in node_paths(vf.partitions))
    assert again.to_json() == text
    assert checked(again, "super") == (True, [])
    tampered = ValueFunction.from_json(tampered_table())
    for mode in MODES:
        assert checked(again, mode) == reference_check(vf, mode)
        _, violations = checked(tampered, mode)
        lines = "\n".join(f"{encode_cell_path(path)} {p}" for path, p in violations)
        assert hashlib.sha256(lines.encode()).hexdigest() == TAMPERED_VIOLATIONS[mode]
    calibration = strategy_value_table(lambda: CalibrationState(3, Fraction(1)), 3, [Fraction(1, 3)])
    assert checked(calibration, "exact") == (True, [])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.json").write_text(text)
    assert cli.main(["verify", "--value-function", "table.json", "--mode", "super", "--json"]) == 0
    assert '"nodes":297' in capsys.readouterr().out
    assert decoded_paths == [0]  # still, after verify's check of the clean table


@pytest.mark.parametrize("seed", range(12))
def test_a_witness_has_one_state_per_live_set_reached(seed):
    event = random_event(random.Random(seed))
    engine = gameprob._engine(event)
    graph = witness_superfarthingale(event).values
    lives = {engine.all_live()}
    for depth, masks in enumerate(engine.masks):
        assert len(graph.levels[depth]) == len(lives)
        lives = {live & m for live in lives for pair in masks for m in pair}
    assert len(graph.levels[-1]) == len(lives)


def test_the_witness_is_built_without_walking_the_tree(monkeypatch):
    """``gameprob._node_keys``, the whole-tree key walk ``from_json`` reads by, is refused while a witness is built."""

    def refuse(*args):
        raise AssertionError("the witness walked the cell tree")

    monkeypatch.setattr(gameprob, "_node_keys", refuse)
    event = random_event(random.Random(5))
    vf = witness_superfarthingale(event)
    text = vf.to_json()
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == WITNESS_PINS[5]


@pytest.mark.parametrize("document", ["witness", "tampered"])
def test_each_state_and_cell_is_checked_once(monkeypatch, document):
    text = witness_superfarthingale(random_event(random.Random(5))).to_json()
    vf = ValueFunction.from_json(text if document == "witness" else tampered_table())
    graph = vf.values
    bound = sum(len(graph.levels[d]) * len(p.cells) for d, p in enumerate(vf.partitions))
    interior_cells = sum(len(vf.partitions[len(path)].cells) for path in node_paths(vf.partitions[:-1]))
    calls = []
    failing_endpoints = strategies._failing_endpoints

    def counting(*args):
        calls.append(args)
        return failing_endpoints(*args)

    monkeypatch.setattr(strategies, "_failing_endpoints", counting)
    for mode in MODES:
        calls.clear()
        assert check_farthingale(vf, mode) == reference_check(vf, mode)
        assert 0 < len(calls) <= bound < interior_cells


def test_a_strategy_held_at_several_nodes_is_stepped_once(monkeypatch):
    """Grid {1/3}: cells {0}, (0, 1/3), {1/3}, (1/3, 1), {1}, so a node's four gap children hold its own strategy."""
    stepped = []
    step = CalibrationState.step
    monkeypatch.setattr(CalibrationState, "step", lambda self, p, y: stepped.append(self) or step(self, p, y))
    vf = strategy_value_table(lambda: CalibrationState(3, Fraction(1)), 3, [Fraction(1, 3)])
    monkeypatch.undo()
    # Each distinct strategy value above the leaves is stepped at its three point cells, once: 18 of them.
    assert len(stepped) == 6 * len({id(s) for s in stepped}) == 6 * 18
    cells = vf.partitions[0].cells
    for path in node_paths(vf.partitions):
        strategy = CalibrationState(3, Fraction(1))
        for ci, bit in path:
            strategy = strategy.step(cells[ci].lo, bit) if cells[ci].is_point else strategy
        assert vf.values[path] == strategy.capital
    assert check_farthingale(vf, "exact") == (True, [])


# Strategy kind -> factory at a table horizon; calibration's own horizon is at least 1.
FACTORIES = {
    "calibration": lambda horizon, c: (lambda: CalibrationState(max(horizon, 1), c)),
    "doubling": lambda horizon, c: DoublingStrategy,
    "constant": lambda horizon, c: ConstantStrategy,
}


def replayed(factory, horizon, grid):
    """A plain dict of each node's capital, replayed from the factory along its path, and each depth's values."""
    partition = point_partition(grid)
    parts = tuple(partition for _ in range(horizon))
    table, values = {}, [set() for _ in range(horizon + 1)]
    for path in node_paths(parts):
        strategy = factory()
        for ci, bit in path:
            cell = partition.cells[ci]
            strategy = strategy.step(cell.lo, bit) if cell.is_point else strategy
        table[path] = strategy.capital
        values[len(path)].add(strategy)
    return ValueFunction(horizon, parts, path_graph(parts, table)), values


@PROPERTY
@given(
    st.sampled_from(sorted(FACTORIES)),
    st.integers(0, 3),
    st.lists(st.sampled_from([Fraction(k, 6) for k in range(7)]), max_size=3, unique=True),
    st.fractions(Fraction(1, 4), 3, max_denominator=4),
)
def test_a_strategy_table_has_one_state_per_distinct_value(kind, horizon, grid, c):
    factory = FACTORIES[kind](horizon, c)
    vf = strategy_value_table(factory, horizon, grid)
    reference, values = replayed(factory, horizon, grid)
    assert vf.to_json() == reference.to_json()
    for mode in MODES:
        assert check_farthingale(vf, mode) == check_farthingale(reference, mode)
    assert list(map(len, vf.values.levels)) == list(map(len, values))


def test_equal_calibration_states_reached_along_different_paths_are_one():
    vf = strategy_value_table(lambda: CalibrationState(3, Fraction(1)), 3, [Fraction(1, 3)])
    assert list(map(len, vf.values.levels)) == [1, 6, 18, 40]

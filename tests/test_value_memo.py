"""Value tables work once per distinct value object.

``check_farthingale`` decides each (depth, state, cell) check once, nodes
holding the same value object over the same children being one state, and
``ValueFunction.to_json`` formats and writes each state once.  Results
stay those of the plain per-node loop ``reference_check``, the table bytes
those of a node-by-node writer, and the table bytes and ``verify`` reports
are pinned to the values they had before tables were shared.
"""

import collections
import hashlib
import json
import random
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preqprob import cli, gameprob, strategies
from preqprob.events import Cell, ForecastPartition
from preqprob.gameprob import StateGraph, ValueFunction, encode_cell_path, witness_superfarthingale
from preqprob.randgen import random_event
from preqprob.strategies import CalibrationState, DoublingStrategy, check_farthingale, strategy_value_table
from path_tables import node_paths, path_graph
from test_strategies import MIXED, POINTS, WHOLE, reference_check

ZERO = Fraction(0)
ONE = Fraction(1)
PROPERTY = settings(derandomize=True, deadline=None, database=None)
MODES = ("super", "exact")
# Each distinct value is one object; tables draw from it by index.
POOL = tuple(Fraction(k, 4) for k in range(-1, 6))


@st.composite
def partitions(draw):
    """A partition of [0, 1] mixing point, open, half-open and closed cells.

    Each breakpoint is either a point cell of its own (its neighbours open
    there) or closes the cell on its "left" or "right".
    """
    inner = sorted(draw(st.sets(st.sampled_from([Fraction(k, 6) for k in range(1, 6)]), max_size=3)))
    bounds = [ZERO, *inner, ONE]
    kinds = [draw(st.sampled_from(["point", "right"]))]
    kinds += [draw(st.sampled_from(["point", "left", "right"])) for _ in inner]
    kinds.append(draw(st.sampled_from(["point", "left"])))
    cells = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if kinds[i] == "point":
            cells.append(Cell(lo, lo))
        cells.append(Cell(lo, hi, kinds[i] in ("point", "left"), kinds[i + 1] in ("point", "right")))
    if kinds[-1] == "point":
        cells.append(Cell(ONE, ONE))
    return ForecastPartition(tuple(cells))


@st.composite
def shared_tables(draw):
    """A 1- or 2-step table whose values are objects of ``POOL``."""
    step = st.one_of(partitions(), st.sampled_from([MIXED, POINTS, WHOLE]))
    parts = tuple(draw(st.lists(step, min_size=1, max_size=2)))
    paths = node_paths(parts)
    picks = draw(st.lists(st.integers(0, len(POOL) - 1), min_size=len(paths), max_size=len(paths)))
    return ValueFunction(len(parts), parts, path_graph(parts, {path: POOL[i] for path, i in zip(paths, picks)}))


def fresh(v: Fraction) -> Fraction:
    """An equal value held by a new object."""
    return Fraction(v.numerator, v.denominator)


class FreshValues(Mapping):
    """A value mapping that hands out a new object on every lookup."""

    def __init__(self, values):
        self._values = values

    def __getitem__(self, path):
        return fresh(self._values[path])

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)


def copied(vf):
    """The table hash-consed from a dict that holds a new, equal object at every node."""
    values = {path: fresh(vf.values[path]) for path in node_paths(vf.partitions)}
    return ValueFunction(vf.horizon, vf.partitions, path_graph(vf.partitions, values))


def looked_up(vf):
    """The table hash-consed from a mapping that hands out a new, equal object on every lookup."""
    return ValueFunction(vf.horizon, vf.partitions, path_graph(vf.partitions, FreshValues(vf.values)))


def state_graph(vf):
    """The same table read back by path and hash-consed again into a ``StateGraph``."""
    return ValueFunction(vf.horizon, vf.partitions, path_graph(vf.partitions, vf.values))


@PROPERTY
@given(shared_tables())
@pytest.mark.parametrize(
    "form", [lambda vf: vf, copied, looked_up, state_graph], ids=["shared", "copied", "fresh-lookups", "state-graph"]
)
def test_memo_matches_the_reference(form, vf):
    """Equal values held by distinct objects hash-cons by value: every form has the same states and verdicts."""
    table = form(vf)
    assert (table.values.levels, table.values.children) == (vf.values.levels, vf.values.children)
    for mode in MODES:
        assert check_farthingale(table, mode) == reference_check(vf, mode)


@pytest.mark.parametrize("mode", MODES)
def test_every_path_sharing_a_failing_triple_is_reported_in_level_order(mode):
    """Every depth-1 node holds the same (parent, v0, v1) = (1/4, 0, 1) over one closed cell.

    It fails at p = 1 in "super" mode and at both ends in "exact" mode; each
    node reports its own violations, after the root's, in level order.
    """
    quarter = Fraction(1, 4)
    values = {(): ONE}
    depth1 = [((ci, bit),) for ci in range(len(POINTS.cells)) for bit in (0, 1)]
    for path in depth1:
        values[path] = quarter
        values[path + ((0, 0),)] = ZERO
        values[path + ((0, 1),)] = ONE
    vf = ValueFunction(2, (POINTS, WHOLE), path_graph((POINTS, WHOLE), values))
    ok, violations = check_farthingale(vf, mode)
    assert (ok, violations) == reference_check(vf, mode)
    ends = (ONE,) if mode == "super" else (ZERO, ONE)
    below = [(path, p) for path in depth1 for p in ends]
    # The root (value 1 over children 1/4) dominates, so only "exact" fails there, at every breakpoint.
    cell_ends = sorted({c.lo for c in POINTS.cells} | {c.hi for c in POINTS.cells})
    root = [((), p) for p in cell_ends] if mode == "exact" else []
    assert violations == root + below


def counting_fraction():
    """A Fraction subclass that counts its ``__str__`` calls, and the counter."""
    calls = collections.Counter()

    class Counting(Fraction):
        def __str__(self):
            calls["str"] += 1
            return Fraction.__str__(self)

    return Counting, calls


@pytest.fixture()
def counted_witness():
    """A witness table (2857 nodes, 13 states) rebuilt on counting values, object for object."""
    counting, calls = counting_fraction()
    vf = witness_superfarthingale(random_event(random.Random(0), max_horizon=4, max_boxes=3))
    graph = vf.values
    twins = StateGraph([list(map(counting, level)) for level in graph.levels], graph.children)
    table = ValueFunction(vf.horizon, vf.partitions, twins)
    return vf, table, calls


def test_each_distinct_check_runs_once(counted_witness, monkeypatch):
    """``check_farthingale`` calls ``_failing_endpoints`` at most once per distinct (cell, parent, v0, v1)."""
    vf, table, _ = counted_witness
    calls = []
    failing_endpoints = strategies._failing_endpoints
    monkeypatch.setattr(strategies, "_failing_endpoints", lambda *args: calls.append(args) or failing_endpoints(*args))
    values = table.values
    checks = set()
    cell_checks = 0
    for path in node_paths(vf.partitions[:-1]):
        for ci, cell in enumerate(vf.partitions[len(path)].cells):
            v0, v1 = values[path + ((ci, 0),)], values[path + ((ci, 1),)]
            checks.add((id(cell), id(values[path]), id(v0), id(v1)))
            cell_checks += 1
    for mode in MODES:
        calls.clear()
        assert check_farthingale(table, mode) == reference_check(vf, mode)
        assert 0 < len(calls) <= len(checks) < cell_checks // 10


def test_to_json_formats_each_object_once(counted_witness):
    vf, table, calls = counted_witness
    calls.clear()
    assert table.to_json() == vf.to_json()
    assert calls["str"] == sum(map(len, table.values.levels)) == 13


def test_from_json_parses_each_distinct_string_once(monkeypatch):
    """Cell endpoints go through the value cache: "1/2" is parsed once for every cell and value."""
    parsed = []
    as_fraction = gameprob.as_fraction

    def counting(v):
        parsed.append(v)
        return as_fraction(v)

    cells = [
        {"lo": "0", "hi": "1/2", "lo_open": False, "hi_open": False},
        {"lo": "1/2", "hi": "1", "lo_open": True, "hi_open": False},
    ]
    half = Fraction(1, 2)
    parts = (ForecastPartition((Cell(ZERO, half), Cell(half, ONE, lo_open=True))),) * 2
    values = {encode_cell_path(path): "1/2" for path in node_paths(parts)}
    doc = {"horizon": 2, "partitions": [cells, cells], "values": values}
    monkeypatch.setattr(gameprob, "as_fraction", counting)
    vf = ValueFunction.from_json(json.dumps(doc))
    assert sorted(parsed) == ["0", "1", "1/2"]
    assert vf.partitions[0].cells[0].hi is vf.partitions[1].cells[1].lo is vf.values[()]


def test_a_float_endpoint_is_refused_after_an_equal_int():
    """The int endpoint 1 of step 1 does not let the endpoint 1.0 of step 2 share its parse."""
    whole = {"lo": 0, "hi": 1, "lo_open": False, "hi_open": False}
    doc = {
        "horizon": 2,
        "partitions": [[whole], [dict(whole, hi=1.0)]],
        "values": {encode_cell_path(path): "0" for path in node_paths((WHOLE, WHOLE))},
    }
    with pytest.raises(ValueError, match="1.0"):
        ValueFunction.from_json(json.dumps(doc))
    doc["partitions"][1] = [whole]
    assert ValueFunction.from_json(json.dumps(doc)).horizon == 2


# SHA-256 and length of witness_superfarthingale(random_event(random.Random(seed))).to_json().
WITNESS_PINS = {
    0: ("8a0029f8fb0725b632600bda7630202bb8e34881dc084af6184b33b5645c4173", 1685),
    5: ("e5abb827057df72aa8f71430e96341b9b2f7317a2553968a19332934f7789bab", 6407),
    6: ("086d56438de1be89d3742badd3da954db1d28308a1b56e67efdf2804d08c4cdf", 5591),
    9: ("61d8cff5d8c37aeb268f680fc1fff734ac75396410b35c420d04be6ec2678d19", 1994),
}


@pytest.mark.parametrize("seed", sorted(WITNESS_PINS))
def test_witness_table_bytes_are_pinned(seed):
    text = witness_superfarthingale(random_event(random.Random(seed))).to_json()
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == WITNESS_PINS[seed]
    assert ValueFunction.from_json(text).to_json() == text


def tampered_table() -> str:
    """The seed-5 witness table with every leaf "0" raised to "1"."""
    doc = json.loads(witness_superfarthingale(random_event(random.Random(5))).to_json())
    for key, value in doc["values"].items():
        if key.count(",") == 2 and value == "0":
            doc["values"][key] = "1"
    return json.dumps(doc, sort_keys=True)


TAMPERED_DIGEST = "3217d54877ce50c50473198bce430a07cf18c9e8f4d4cf8a8d2e0c72746b053a"
TAMPERED_REPORTS = {
    "super": (
        '{"checks":[{"detail":"first violation at node \'0:0,0:0\' p=0","name":"super_farthingale",'
        '"status":"FAIL"}],"command":"verify","inputs":{"digest":"' + TAMPERED_DIGEST + '","mode":"super",'
        '"value_function":"tampered.json"},"results":{"nodes":297,"violations":124}}\n'
    ),
    "exact": (
        '{"checks":[{"detail":"first violation at node \'\' p=0","name":"exact_farthingale",'
        '"status":"FAIL"}],"command":"verify","inputs":{"digest":"' + TAMPERED_DIGEST + '","mode":"exact",'
        '"value_function":"tampered.json"},"results":{"nodes":297,"violations":129}}\n'
    ),
}
# SHA-256 of the violation list, one "path p" line per violation.
TAMPERED_VIOLATIONS = {
    "super": "794f44a32e5f06e7f9babfc2d06e9b26706cfb65b5ec653ad82d7fe299347180",
    "exact": "c54e355051f7d2891382649fd8d92a987e65d1fd6ff2e914b8d14687a2b93359",
}


@pytest.mark.parametrize("mode", MODES)
def test_tampered_table_report_is_pinned(capsys, monkeypatch, tmp_path, mode):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tampered.json").write_text(tampered_table())
    code = cli.main(["verify", "--value-function", "tampered.json", "--mode", mode, "--json"])
    assert (code, capsys.readouterr().out) == (1, TAMPERED_REPORTS[mode])
    _, violations = check_farthingale(ValueFunction.from_json(tampered_table()), mode)
    text = "\n".join(f"{encode_cell_path(path)} {p}" for path, p in violations)
    assert hashlib.sha256(text.encode()).hexdigest() == TAMPERED_VIOLATIONS[mode]


def test_the_committed_tampered_table_is_the_generated_one():
    """The python-floor CI job verifies ``tests/data/tampered_table.json``: it must be this module's table."""
    assert (Path(__file__).parent / "data" / "tampered_table.json").read_bytes() == tampered_table().encode()


def even_partition(cells: int) -> ForecastPartition:
    """[0, 1] cut into ``cells`` half-open cells of equal width, the last one closed."""
    return ForecastPartition(
        tuple(Cell(Fraction(i, cells), Fraction(i + 1, cells), False, i < cells - 1) for i in range(cells))
    )


def reference_json(vf) -> str:
    """The table document written node by node: every cell-path's key, then one sorted dump."""
    doc = {
        "horizon": vf.horizon,
        "partitions": [
            [{"lo": str(c.lo), "hi": str(c.hi), "lo_open": c.lo_open, "hi_open": c.hi_open} for c in p.cells]
            for p in vf.partitions
        ],
        "values": {encode_cell_path(path): str(vf.values[path]) for path in node_paths(vf.partitions)},
    }
    return json.dumps(doc, sort_keys=True)


@st.composite
def wide_tables(draw):
    """A 0- to 2-step table whose steps may have 10 or more cells, so "10:0" sorts before "2:0"."""
    step = st.one_of(st.sampled_from([1, 2, 10, 11, 12]).map(even_partition), partitions())
    parts = tuple(draw(step) for _ in range(draw(st.sampled_from([0, 1, 2, 2]))))
    paths = node_paths(parts)
    picks = draw(st.lists(st.integers(0, 2), min_size=len(paths), max_size=len(paths)))
    return ValueFunction(len(parts), parts, path_graph(parts, {path: POOL[i] for path, i in zip(paths, picks)}))


@settings(PROPERTY, max_examples=60)
@given(wide_tables())
@pytest.mark.parametrize("form", [copied, state_graph], ids=["dict", "state-graph"])
def test_to_json_matches_the_node_by_node_writer(form, vf):
    """A table built from a dict with one object per node writes the same bytes as the node-by-node writer."""
    table = form(vf)
    assert table.to_json() == reference_json(vf)


@pytest.mark.parametrize(
    "factory, horizon, grid",
    [
        (DoublingStrategy, 1, [Fraction(1, 2)]),
        (lambda: CalibrationState(3, Fraction(1)), 3, [Fraction(1, 3), Fraction(2, 3)]),
        (DoublingStrategy, 2, [Fraction(k, 14) for k in range(1, 14)]),  # 27 cells a step
    ],
    ids=["doubling-1", "calibration-3", "doubling-27-cells"],
)
def test_strategy_tables_match_the_node_by_node_writer(factory, horizon, grid):
    table = strategy_value_table(factory, horizon, grid)
    assert table.to_json() == reference_json(table)


def test_to_json_walks_no_node(monkeypatch):
    """The seed-5 witness is written from its states alone: neither the level walk nor the key list runs."""

    def refuse(*args):
        raise AssertionError("to_json walked the tree node by node")

    vf = witness_superfarthingale(random_event(random.Random(5)))
    monkeypatch.setattr(gameprob, "_node_keys", refuse)
    text = vf.to_json()
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == WITNESS_PINS[5]


def test_a_table_with_two_digit_cell_indices_round_trips(capsys, tmp_path):
    """The round trip the python-floor CI job compares: step 1 has 11 cells, so "10:0" sorts before "2:0"."""
    event = Path(__file__).parent / "data" / "many_cells_event.json"
    table = tmp_path / "table.json"
    assert cli.main(["value", "--event", str(event), "--engine", "game", "--table-out", str(table), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["upper_game"] == "3/4"
    assert cli.main(["verify", "--value-function", str(table), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"] == {"nodes": 243, "violations": 0}
    assert report["inputs"]["digest"] == "706bbd1d59e9e5ba31a806543365141c607d6464c299f8f0c48558fc30ca8343"


def halves_table(change) -> str:
    """A horizon-2 table over two half cells a step, every value "0" until ``change`` edits the values."""
    cells = [{"lo": "0", "hi": "1/2", "lo_open": False, "hi_open": False},
             {"lo": "1/2", "hi": "1", "lo_open": True, "hi_open": False}]
    keys = [encode_cell_path(path) for path in node_paths((even_partition(2),) * 2)]
    values = dict.fromkeys(keys, "0")
    change(values)
    return json.dumps({"horizon": 2, "partitions": [cells, cells], "values": values})


def integer_values(values):
    values.update(dict.fromkeys(values, 0))


def bad_values_at_two_depths(values):
    # "0:0,0:0" sorts first, but "1:1" comes first in level order, a level higher.
    values.update({"0:0,0:0": "bad1", "1:1": "bad2"})


INT_REPORT = (
    '{"checks":[{"detail":"","name":"super_farthingale","status":"PASS"}],"command":"verify","inputs":{"digest":'
    '"62dc536d33ce4e72de38c66b37c293e8a52b7e595ab59ecfcd53f9582663797d","mode":"super","value_function":'
    '"table.json"},"results":{"nodes":21,"violations":0}}\n'
)


@pytest.mark.parametrize(
    "change, code, out, err",
    [
        (integer_values, 0, INT_REPORT, ""),
        (lambda values: values.update({"0:1": [1]}), 2, "", "error: cannot interpret [1] as an exact rational\n"),
        (bad_values_at_two_depths, 2, "", "error: cannot interpret 'bad2' as an exact rational\n"),
        # Every key is looked up before any value is parsed, so the bad "0:1" is not named.
        (lambda values: values.update({"0:1": "bad"}) or values.pop("1:0,0:1"), 2, "",
         "error: malformed value-function document: missing '1:0,0:1'\n"),
        (lambda values: values.update({"1:0,0:1,0:0": "0"}), 2, "",
         "error: value function has 1 keys that are not tree nodes\n"),
    ],
    ids=["int-values", "list-value", "first-bad-in-level-order", "missing-key", "extra-key"],
)
def test_verify_reads_tables_as_it_did_node_by_node(capsys, monkeypatch, tmp_path, change, code, out, err):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.json").write_text(halves_table(change))
    assert cli.main(["verify", "--value-function", "table.json", "--json"]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize(
    "name, change", [("integer_table.json", integer_values), ("unparsable_table.json", bad_values_at_two_depths)]
)
def test_the_committed_reader_tables_are_the_generated_ones(name, change):
    """The python-floor CI job verifies these two tables: they must be ``halves_table``'s, checked above."""
    assert (Path(__file__).parent / "data" / name).read_bytes() == halves_table(change).encode()

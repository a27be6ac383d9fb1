"""``ValueFunction.from_json`` against a reader that works node by node.

The library reader looks every key up in one ``map`` pass, hash-conses the
nodes on their value strings, and parses each state's string once.
``node_by_node`` below reads the same document one node at a time: it looks
every key up, parses every value, and numbers each depth's (JSON value, child
states) pairs in order of first appearance.  The two must build the same
states, write the same bytes, and refuse a document with the same message.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from preqprob.core import InputError, as_fraction
from preqprob.gameprob import ValueFunction, encode_cell_path
from path_tables import node_paths, path_graph
from test_value_memo import PROPERTY, even_partition, reference_json

STRINGS = ["0", "1", "1/2", "2/4", "0.5", "3/4"]
INTEGERS = [0, 1, 2]
# Refused by ``as_fraction``: a float equal to an accepted int, a boolean and a list.
REFUSED = [1.0, True, [1]]


def node_by_node(parts, given):
    """(levels, children) of the table ``given`` over ``parts``, or the message that refuses it."""
    paths = node_paths(parts)
    try:
        raw = [given[encode_cell_path(path)] for path in paths]
        values = [as_fraction(v) for v in raw]
    except KeyError as exc:
        return f"malformed value-function document: missing {exc}"
    except InputError as exc:
        return str(exc)
    if len(given) != len(paths):
        return f"value function has {len(given) - len(paths)} keys that are not tree nodes"
    state, levels, children = {}, [], []
    for depth in reversed(range(len(parts) + 1)):
        index, level, kids = {}, [], []
        for path, value, text in zip(paths, values, raw):
            if len(path) != depth:
                continue
            below = ()
            if depth < len(parts):
                cells = len(parts[depth].cells)
                below = tuple(state[path + ((ci, bit),)] for ci in range(cells) for bit in (0, 1))
            if (text, below) not in index:
                index[(text, below)] = len(index)
                level.append(value)
                kids.append(below)
            state[path] = index[(text, below)]
        levels.append(level)
        children.append(kids)
    return levels[::-1], children[1:][::-1]


@st.composite
def documents(draw):
    """A table over up to three steps of 1 to 3 equal cells, its values a document of one kind.

    Kinds: all strings, all integers, strings and integers mixed, a value
    refused by ``as_fraction`` at any node, unparsable strings at two
    depths, a missing key, and a key that is not a node.
    """
    parts = tuple(draw(st.lists(st.integers(1, 3).map(even_partition), max_size=3)))
    paths = node_paths(parts)
    kind = draw(st.sampled_from(["strings", "integers", "mixed", "refused", "two-bad", "missing", "extra"]))
    pool = {"integers": INTEGERS, "mixed": STRINGS + INTEGERS}.get(kind, STRINGS)
    values = [draw(st.sampled_from(pool)) for _ in paths]
    if kind == "refused":
        values[draw(st.integers(0, len(paths) - 1))] = draw(st.sampled_from(REFUSED))
    given = {encode_cell_path(path): value for path, value in zip(paths, values)}
    if kind == "two-bad" and parts:
        first = draw(st.sampled_from([path for path in paths if len(path) < len(parts)]))
        second = draw(st.sampled_from([path for path in paths if len(path) > len(first)]))
        # The deeper bad value may sort first by key, and its string sorts first too.
        given[encode_cell_path(first)] = "bad-2"
        given[encode_cell_path(second)] = "bad-1"
    if kind == "missing":
        del given[encode_cell_path(draw(st.sampled_from(paths)))]
    if kind == "extra":
        given[encode_cell_path(paths[-1] + ((0, 0),))] = "0"
    text = json.dumps({
        "horizon": len(parts),
        "partitions": [
            [{"lo": str(c.lo), "hi": str(c.hi), "lo_open": c.lo_open, "hi_open": c.hi_open} for c in p.cells]
            for p in parts
        ],
        "values": given,
    })
    return parts, given, text


@PROPERTY
@given(documents())
def test_the_reader_matches_the_node_by_node_reader(document):
    parts, given, text = document
    expected = node_by_node(parts, given)
    if isinstance(expected, str):
        with pytest.raises(InputError) as refused:
            ValueFunction.from_json(text)
        assert str(refused.value) == expected
        return
    vf = ValueFunction.from_json(text)
    assert (vf.values.levels, vf.values.children) == expected
    paths = node_paths(parts)
    values = {path: as_fraction(given[encode_cell_path(path)]) for path in paths}
    by_path = ValueFunction(len(parts), parts, path_graph(parts, values))
    assert vf.to_json() == reference_json(by_path)


def test_equal_values_written_apart_stay_two_states():
    """The strings "1/2" and "2/4" give one number but two states, each state its own Fraction."""
    whole = [{"lo": "0", "hi": "1", "lo_open": False, "hi_open": False}]
    doc = {"horizon": 1, "partitions": [whole], "values": {"": "1/2", "0:0": "1/2", "0:1": "2/4"}}
    vf = ValueFunction.from_json(json.dumps(doc))
    assert vf.values.levels == [[Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    assert vf.values.children == [[(0, 1)]]
    assert vf.values[()] is vf.values[((0, 0),)] is not vf.values[((0, 1),)]

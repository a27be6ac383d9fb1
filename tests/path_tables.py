"""Value tables built by hand: node paths in level order, and a path dict as a ``StateGraph`` and back."""

import itertools

from preqprob.gameprob import StateGraph


def node_paths(parts):
    """Every node of the tree over ``parts``, in level order: per depth, children in (cell, bit) order."""
    steps = [[(ci, bit) for ci in range(len(p.cells)) for bit in (0, 1)] for p in parts]
    return [path for depth in range(len(parts) + 1) for path in itertools.product(*steps[:depth])]


def path_graph(parts, values):
    """The table ``values``, a dict from every node's cell-path to its value, as ``StateGraph.from_nodes`` builds it.

    Nodes with equal values over the same child states are one state, which
    holds the first of those values in level order; a missing node raises
    ``KeyError``.
    """
    return StateGraph.from_nodes(parts, [values[path] for path in node_paths(parts)])


def path_dict(parts, graph):
    """The table ``graph`` over ``parts`` as a dict from every node's cell-path to its value, in level order."""
    return {path: graph[path] for path in node_paths(parts)}

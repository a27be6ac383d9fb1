"""The order of the partition-refined tree lives in ``gameprob`` alone.

``_tokens`` lists each depth's children in (cell, bit) order, and
``StateGraph`` follows that order in its children and decodes a reported
node's path by mixed radix.  ``strategies`` builds and checks tables
through ``StateGraph`` and must not name ``_tokens``, so a second copy of
the order cannot grow there.
"""

import ast
from pathlib import Path

import preqprob

PACKAGE = Path(preqprob.__file__).resolve().parent
TREE_ORDER = {"_tokens"}


def names_used(path: Path) -> set[str]:
    """Every name a source file binds, imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_strategies_names_no_part_of_the_tree_order():
    assert not names_used(PACKAGE / "strategies.py") & TREE_ORDER


def test_gameprob_holds_the_tree_order():
    assert TREE_ORDER <= names_used(PACKAGE / "gameprob.py")


def test_every_way_to_name_the_tree_order_is_seen(tmp_path):
    """An import under another name, an attribute of the module and a bare name: each one alone is seen."""
    probe = tmp_path / "probe.py"
    for source in (
        "from .gameprob import _tokens as order\n",
        "from . import gameprob\ntokens = gameprob._tokens(partitions)\n",
        "order = _tokens\n",
    ):
        probe.write_text(source)
        assert names_used(probe) & TREE_ORDER == TREE_ORDER


def test_strategy_tables_are_reached_not_hash_consed_from_nodes():
    names = names_used(PACKAGE / "strategies.py")
    assert "reach" in names and "from_nodes" not in names

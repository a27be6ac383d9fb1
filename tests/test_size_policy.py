"""The size policy lives in one place, ``core``.

Every walk that materializes a tree node by node is sized against one node
budget, derived from ``core.MAX_TABLE_HORIZON``.  No module but ``core``
reads that constant, and inside ``core`` only ``check_walk`` does, so a
second limit with its own message cannot creep back in.  Every level walk,
the engines' forward passes among them, counts its (depth, state) pairs
against one pair budget, ``core.PAIR_BUDGET``: no other module sets a
budget, and none imports it by name, which would freeze it at import.
"""

import ast
from pathlib import Path

import pytest

import preqprob

PACKAGE = Path(preqprob.__file__).resolve().parent
CONSTANT = "MAX_TABLE_HORIZON"


def readers(source: str) -> list:
    """The enclosing function (None at module level) of every read of the constant.

    A read is a loaded name, an attribute of that name, or an import of it,
    so a comparison against the constant is a read too.
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Name) and node.id == CONSTANT and isinstance(node.ctx, ast.Load):
            found.append(function)
        elif isinstance(node, ast.Attribute) and node.attr == CONSTANT:
            found.append(function)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend(function for alias in node.names if alias.name.endswith(CONSTANT))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "core")
)
def test_no_module_but_core_reads_the_table_horizon(module):
    assert readers((PACKAGE / f"{module}.py").read_text()) == []


def test_only_check_walk_reads_the_table_horizon_in_core():
    found = readers((PACKAGE / "core.py").read_text())
    assert found and set(found) == {"check_walk"}


def test_every_read_is_seen():
    probe = (
        "from .core import MAX_TABLE_HORIZON\n"
        "def f(h):\n"
        "    return h > core.MAX_TABLE_HORIZON\n"
        "def g():\n"
        "    return 2 ** MAX_TABLE_HORIZON\n"
        "MAX_TABLE_HORIZON = 3\n"
    )
    assert readers(probe) == [None, "f", "g"]


def budgets(source: str) -> list:
    """Module-level names ending in ``_BUDGET`` that a module assigns, then ``PAIR_BUDGET`` imports by name."""
    tree = ast.parse(source)
    assigned = [
        name.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for name in ast.walk(node)
        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store) and name.id.endswith("_BUDGET")
    ]
    imported = [
        f"import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "PAIR_BUDGET"
    ]
    return assigned + imported


def test_only_core_sets_a_budget_and_no_module_imports_it_by_name():
    found = {path.stem: budgets(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {"core": ["PAIR_BUDGET"]}


def test_every_budget_is_seen():
    probe = (
        "from .core import PAIR_BUDGET\n"
        "LIVE_BUDGET = 3\n"
        "TYPED_BUDGET: int = 4\n"
        "ONE, PAIRED_BUDGET = 1, 2\n"
        "def f():\n"
        "    from .core import PAIR_BUDGET\n"
        "    LOCAL_BUDGET = 5\n"
        "    return core.PAIR_BUDGET\n"
    )
    assert budgets(probe) == ["LIVE_BUDGET", "TYPED_BUDGET", "PAIRED_BUDGET"] + ["import PAIR_BUDGET"] * 2

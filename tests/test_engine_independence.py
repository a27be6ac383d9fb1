"""The two exact engines share no code, so their agreement is evidence.

``measureprob`` must not import the game engine, directly or through
``strategies``, which builds on it; ``gameprob`` must not import the measure
engine.  Both may use ``core`` and ``events``.
"""

import ast
from pathlib import Path

import pytest

import preqprob

PACKAGE = Path(preqprob.__file__).resolve().parent


def imported_modules(path: Path) -> set[str]:
    """The modules a source file imports, package modules without the ``preqprob.`` prefix."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module not in (None, "preqprob"):
            names.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            # "from . import x" and "from preqprob import x" import the module x.
            names.update(alias.name for alias in node.names)
    return {name.removeprefix("preqprob.") for name in names}


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("measureprob", {"gameprob", "strategies"}),
        ("gameprob", {"measureprob"}),
    ],
)
def test_engines_import_nothing_from_each_other(module, forbidden):
    modules = imported_modules(PACKAGE / f"{module}.py")
    assert "core" in modules and "events" in modules
    assert not {name.split(".")[0] for name in modules} & forbidden


def test_absolute_and_relative_imports_are_both_seen(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import gameprob\n"
        "from .strategies import x\n"
        "import preqprob.measureprob\n"
        "from preqprob import cli\n"
        "from preqprob.events import y\n"
    )
    assert imported_modules(probe) == {"gameprob", "strategies", "measureprob", "cli", "events"}

"""The two exact engines share no code, so their agreement is evidence.

``measureprob`` must not import the game engine, directly or through
``strategies``, which builds on it; ``gameprob`` must not import the measure
engine.  Both may use ``core`` and ``events``, but the box masks, the
integer rows, the one-box rows and the grid that
``events.forecast_partition`` builds are the game engine's: the measure
engine derives its own.
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


# What the game engine takes from ``events`` and the measure engine must not:
# the partitions, their masks, their integer rows, one-box rows and grid.
GAME_PARTITIONS = {"forecast_partition", "event_partitions"}
GAME_ATTRIBUTES = {".masks", ".rows", ".own", ".scale", ".grid_lo", ".grid_hi"}


def partition_uses(path: Path) -> set[str]:
    """The names of ``GAME_PARTITIONS`` a source file uses, and each attribute of ``GAME_ATTRIBUTES`` it reads."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Attribute):
            used.add("." + node.attr if "." + node.attr in GAME_ATTRIBUTES else node.attr)
    return used & (GAME_PARTITIONS | GAME_ATTRIBUTES)


def test_measure_engine_derives_its_own_masks():
    assert partition_uses(PACKAGE / "measureprob.py") == set()


def test_every_way_to_use_the_game_partitions_is_seen(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .events import forecast_partition as cut\n"
        "import preqprob.events\n"
        "parts = preqprob.events.event_partitions(event)\n"
        "pairs = parts[0].masks\n"
        "masks = 0\n"
    )
    assert partition_uses(probe) == {"forecast_partition", "event_partitions", ".masks"}


def test_reading_the_integer_grid_is_seen(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "q = partition.scale\nends = [(cell.grid_lo, cell.grid_hi) for cell in partition.cells]\nrows = partition.rows\n"
        "own = partition.own\n"
    )
    assert partition_uses(probe) == {".scale", ".grid_lo", ".grid_hi", ".rows", ".own"}

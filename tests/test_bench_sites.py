"""The benchmark's spans find every binding site they wrap in the program.

``perfbench/spans.py`` wraps public functions where their callers look them
up.  A binding site it cannot find is skipped and its layer metric reads
zero, so a rename or a changed call path must fail here instead.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "core", "events", "gameprob", "measureprob", "strategies")


def test_every_traced_binding_site_exists():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    program = {name: importlib.import_module(f"preqprob.{name}") for name in MODULES}
    tracer = spans.Tracer()
    patches = spans.instrument(tracer, program)
    try:
        assert tracer.missing == []
    finally:
        patches.restore()

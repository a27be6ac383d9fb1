"""The package's value classes: construction, repr, ==, hash, copies and immutability.

Each case builds one value up to three ways, by position, by keyword and
with the defaults left out where a class has them, and names its fields in
order with their values and its repr.  ``==`` holds between two values of
one class with equal fields and defers (``NotImplemented``) to any other
class; the hash is the field tuple's.  The exceptions are pinned on their
own: ``CalibrationState`` hashes its sums' integers, ``LevyStrategy``
leaves its engine out, ``ValueFunction`` compares by identity, and
``Report`` is a mutable, unhashable record.  None of them needs
``dataclasses``, so importing the CLI loads neither it nor ``inspect`` nor
``typing``.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest

import preqprob
from preqprob.cli import Report
from preqprob.events import Box, Cell, EventUnion, StepConstraint
from preqprob.gameprob import LevyStrategy, ValueFunction
from preqprob.strategies import (CalibrationState, CalibrationVerdict, CapitalProcess, ConstantStrategy,
                                 DoublingStrategy, VilleResult)
from path_tables import path_graph

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)
STEP = StepConstraint(HALF, ONE)
BOX = Box((STEP,))
STEP_REPR = "StepConstraint(p_lo=Fraction(1, 2), p_hi=Fraction(1, 1), y=None)"
BOX_REPR = f"Box(steps=({STEP_REPR},))"
FULL_REPR = ("EventUnion(horizon=1, boxes=(Box(steps=(StepConstraint(p_lo=Fraction(0, 1), p_hi=Fraction(1, 1), "
             "y=None),)),))")

# (class, positional arguments, keyword arguments, arguments with the defaults left out, fields, repr)
CASES = [
    (StepConstraint, ("1/2", 1, 0), {"p_lo": HALF, "p_hi": ONE, "y": 0}, None,
     {"p_lo": HALF, "p_hi": ONE, "y": 0}, "StepConstraint(p_lo=Fraction(1, 2), p_hi=Fraction(1, 1), y=0)"),
    (StepConstraint, (HALF, ONE, None), {"p_hi": ONE, "p_lo": HALF}, (HALF, ONE),
     {"p_lo": HALF, "p_hi": ONE, "y": None}, STEP_REPR),
    (Box, ((STEP,),), {"steps": (STEP,)}, None, {"steps": (STEP,)}, BOX_REPR),
    (EventUnion, (1, (BOX,)), {"horizon": 1, "boxes": (BOX,)}, None,
     {"horizon": 1, "boxes": (BOX,)}, f"EventUnion(horizon=1, boxes=({BOX_REPR},))"),
    (Cell, (ZERO, HALF, False, False), {"lo": ZERO, "hi": HALF}, (ZERO, HALF),
     {"lo": ZERO, "hi": HALF, "lo_open": False, "hi_open": False},
     "Cell(lo=Fraction(0, 1), hi=Fraction(1, 2), lo_open=False, hi_open=False)"),
    (Cell, (ZERO, HALF, True, True), {"hi_open": True, "lo": ZERO, "hi": HALF, "lo_open": True}, None,
     {"lo": ZERO, "hi": HALF, "lo_open": True, "hi_open": True},
     "Cell(lo=Fraction(0, 1), hi=Fraction(1, 2), lo_open=True, hi_open=True)"),
    (CapitalProcess, (ONE, (HALF, ZERO)), {"initial_capital": ONE, "trajectory": (HALF, ZERO)}, None,
     {"initial_capital": ONE, "trajectory": (HALF, ZERO)},
     "CapitalProcess(initial_capital=Fraction(1, 1), trajectory=(Fraction(1, 2), Fraction(0, 1)))"),
    (CalibrationState, (3, ONE, 0, ZERO, ZERO), {"threshold_c": ONE, "horizon": 3}, (3, ONE),
     {"horizon": 3, "threshold_c": ONE, "n": 0, "bias": ZERO, "spread": ZERO},
     "CalibrationState(horizon=3, threshold_c=Fraction(1, 1), n=0, bias=Fraction(0, 1), spread=Fraction(0, 1))"),
    (CalibrationState, (3, ONE, 1, HALF, Fraction(1, 4)),
     {"horizon": 3, "threshold_c": ONE, "n": 1, "bias": HALF, "spread": Fraction(1, 4)}, None,
     {"horizon": 3, "threshold_c": ONE, "n": 1, "bias": HALF, "spread": Fraction(1, 4)},
     "CalibrationState(horizon=3, threshold_c=Fraction(1, 1), n=1, bias=Fraction(1, 2), spread=Fraction(1, 4))"),
    (CalibrationVerdict, (True, ONE), {"ratio": ONE, "reject": True}, None, {"reject": True, "ratio": ONE},
     "CalibrationVerdict(reject=True, ratio=Fraction(1, 1))"),
    (ConstantStrategy, (ONE,), {"capital": ONE}, (), {"capital": ONE}, "ConstantStrategy(capital=Fraction(1, 1))"),
    (DoublingStrategy, (ONE,), {"capital": ONE}, (), {"capital": ONE}, "DoublingStrategy(capital=Fraction(1, 1))"),
    (DoublingStrategy, (2,), {"capital": 2}, None, {"capital": 2}, "DoublingStrategy(capital=2)"),
    (VilleResult, (0.5, 0.25, True), {"frequency": 0.5, "bound": 0.25, "passed": True}, None,
     {"frequency": 0.5, "bound": 0.25, "passed": True}, "VilleResult(frequency=0.5, bound=0.25, passed=True)"),
]

# Values of other classes with field tuples equal to some of the above.
OTHERS = [ConstantStrategy(ONE), DoublingStrategy(ONE), Box((STEP,)), CalibrationVerdict(True, ONE),
          CapitalProcess(ONE, (HALF, ZERO)), 1, (ONE,), "x"]


def built(case):
    cls, args, kwargs, short, _, _ = case
    return [cls(*args), cls(**kwargs)] + ([] if short is None else [cls(*short)])


@pytest.mark.parametrize("case", CASES, ids=lambda case: case[0].__name__)
def test_positional_keyword_and_default_construction_agree(case):
    fields = case[4]
    for value in built(case):
        assert {name: getattr(value, name) for name in fields} == fields
        assert all(type(getattr(value, name)) is type(fields[name]) for name in fields)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case[0].__name__)
def test_repr_names_every_field_in_order(case):
    assert {repr(value) for value in built(case)} == {case[5]}


@pytest.mark.parametrize("case", CASES, ids=lambda case: case[0].__name__)
def test_equal_fields_are_equal_values_and_other_classes_defer(case):
    first, *rest = built(case)
    assert all(first == value and not first != value for value in rest)
    for other in OTHERS:
        if type(other) is not case[0]:
            assert first != other and not first == other
            assert first.__eq__(other) is NotImplemented
    assert first == mock.ANY  # NotImplemented hands == to the other operand
    changed = [c for c in CASES if c[0] is case[0] and c is not case]
    assert all(first != value for c in changed for value in built(c))


@pytest.mark.parametrize("case", [c for c in CASES if c[0] is not CalibrationState], ids=lambda case: case[0].__name__)
def test_the_hash_is_the_field_tuples(case):
    for value in built(case):
        assert hash(value) == hash(tuple(case[4].values()))


def test_a_calibration_state_hashes_its_sums_integers():
    state = CalibrationState(3, ONE, 1, HALF, Fraction(1, 4))
    assert hash(state) == hash((1, 1, 2, 1, 4))
    assert "capital" in vars(state) and state.capital == (Fraction(1, 4) - Fraction(1, 4) + Fraction(3, 4)) / (
        3 + Fraction(3, 4))


@pytest.mark.parametrize("case", CASES, ids=lambda case: case[0].__name__)
def test_fields_can_be_neither_assigned_nor_deleted(case):
    value = built(case)[0]
    # Any other name is refused too; a Cell has no slot for one.
    for name in [*case[4]] + ([] if case[0] is Cell else ["capital", "other"]):
        with pytest.raises(AttributeError):
            setattr(value, name, ZERO)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert {name: getattr(value, name) for name in case[4]} == case[4]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case[0].__name__)
def test_copies_and_pickles_are_equal_values(case):
    value = built(case)[0]
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(again) is case[0] and again == value and repr(again) == repr(value)


def test_a_cell_has_slots_and_no_dict():
    cell = Cell(ZERO, HALF)
    assert not hasattr(cell, "__dict__")
    assert set(Cell.__slots__) == {"lo", "hi", "lo_open", "hi_open"}


@pytest.mark.parametrize("call", [
    lambda: StepConstraint(HALF),
    lambda: StepConstraint(HALF, ONE, 0, 1),
    lambda: StepConstraint(HALF, ONE, wild=0),
    lambda: StepConstraint(HALF, ONE, p_lo=HALF),
    lambda: Cell(ZERO),
    lambda: CalibrationState(threshold_c=ONE),
    lambda: VilleResult(0.5, 0.25),
])
def test_a_wrong_call_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_a_value_function_compares_by_identity():
    graph = path_graph((), {(): ONE})
    table = ValueFunction(0, (), graph)
    again = ValueFunction(horizon=0, partitions=(), values=graph)
    assert table == table and table != again and not table == again
    assert hash(table) == object.__hash__(table)
    assert repr(table) == repr(again) == f"ValueFunction(horizon=0, partitions=(), values={graph!r})"
    with pytest.raises(AttributeError):
        table.horizon = 1
    with pytest.raises(ValueError):
        ValueFunction(1, (), {})


def test_a_levy_strategy_leaves_its_engine_out():
    event = EventUnion.full(1)
    start = LevyStrategy.start(event, HALF)
    fields = (event, HALF, 0, 1, ONE, None, ONE, ())
    assert (start.event, start.threshold, start.depth, start.live, start.capital, start.ride_base,
            start.conditional, start.milestones) == fields
    same = LevyStrategy(event, HALF, 0, 1, ONE, None, ONE, None)
    keyed = LevyStrategy(event=event, threshold=HALF, depth=0, live=1, capital=ONE, ride_base=None,
                         conditional=ONE, engine=object(), milestones=())
    assert start == same == keyed and hash(start) == hash(same) == hash(fields)
    assert same.engine is None and start.engine is not None
    assert repr(start) == repr(same) == (f"LevyStrategy(event={FULL_REPR}, threshold=Fraction(1, 2), depth=0, "
                                         "live=1, capital=Fraction(1, 1), ride_base=None, conditional=Fraction(1, 1), "
                                         "milestones=())")
    assert start != LevyStrategy(event, HALF, 0, 1, ONE, None, ONE, None, (ONE,))
    with pytest.raises(AttributeError):
        start.engine = None
    with pytest.raises(TypeError):
        LevyStrategy(event, HALF, 0, 1, ONE, None, ONE)


def test_a_report_is_a_mutable_unhashable_record():
    report = Report("value")
    assert repr(report) == ("Report(command='value', inputs={}, results={}, checks=[], seed=None, rejected=False, "
                            "files={})")
    assert report == Report("value", {}, {}, [], None, False, {}) and report != Report("ville")
    assert report.__eq__(DoublingStrategy()) is NotImplemented
    other = Report("value")
    assert other.inputs is not report.inputs and other.checks is not report.checks
    report.seed = 3
    report.results["x"] = 1
    assert (report.seed, report.results) == (3, {"x": 1}) and report != other
    with pytest.raises(TypeError):
        hash(report)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    """In a clean interpreter (no ``site``, which may import ``typing`` itself), with no bytecode written."""
    src = os.path.dirname(os.path.dirname(preqprob.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import preqprob.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-S", "-I", "-B", "-c", code], capture_output=True, text=True,
                           timeout=60, check=True)
    assert child.stdout == "[]\n"

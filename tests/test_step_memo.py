"""Per-distinct-step set-up: shared step constraints, partitions and masks; the live-set budget."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from preqprob import cli, core, events, gameprob
from preqprob.events import (
    WILDCARD,
    Box,
    EventUnion,
    StepConstraint,
    event_from_json,
    event_partitions,
    event_to_json,
    forecast_partition,
)
from preqprob.gameprob import LiveSetBudgetError, _GameEngine, upper_game_probability
from preqprob.measureprob import measure_upper_probability
from preqprob.randgen import random_rational
from preqprob.strategies import CalibrationState, calibration_step

ZERO = Fraction(0)
ONE = Fraction(1)
# nested_event(10, 300), one line: steps 11 to 300 are free.
NESTED_UNION = Path(__file__).parent / "data" / "nested_union_300.json"


def random_step(rng):
    if rng.random() < 0.3:
        return StepConstraint(ZERO, ONE, WILDCARD)
    a, b = sorted((random_rational(rng, 6), random_rational(rng, 6)))
    return StepConstraint(a, b, rng.choice((0, 1, WILDCARD)))


def event_with_repeated_steps(rng, horizon, n_boxes):
    """Columns of box steps drawn from a small pool, so most steps repeat an earlier one."""
    pool = [tuple(random_step(rng) for _ in range(n_boxes)) for _ in range(rng.randint(1, 3))]
    columns = [rng.choice(pool) for _ in range(horizon)]
    boxes = tuple(Box(tuple(column[i] for column in columns)) for i in range(n_boxes))
    return EventUnion(horizon, boxes)


def nested_event(k, horizon):
    """Box j asks outcome 1 with p <= (j+1)/(k+1) at steps 0..j and is free after."""
    boxes = [
        {
            "steps": [
                {"p": ["0", f"{j + 1}/{k + 1}"], "y": 1} if i <= j else {"p": ["0", "1"], "y": "*"}
                for i in range(horizon)
            ]
        }
        for j in range(k)
    ]
    return json.dumps({"horizon": horizon, "boxes": boxes})


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("parsed", [False, True], ids=["built", "parsed"])
def test_shared_partitions_and_masks_equal_the_per_step_ones(parsed):
    rng = random.Random(41)
    for _ in range(40):
        event = event_with_repeated_steps(rng, rng.randint(1, 8), rng.randint(1, 4))
        if parsed:
            event = event_from_json(event_to_json(event))
        partitions = event_partitions(event)
        engine = _GameEngine(event)
        for depth in range(event.horizon):
            alone = forecast_partition(event, depth + 1)
            assert partitions[depth] == alone
            assert engine.masks[depth] == alone.masks
        assert upper_game_probability(event) == measure_upper_probability(event)[0]


def test_identical_raw_steps_share_one_constraint():
    doc = nested_event(3, 6)
    event = event_from_json(doc)
    free = [step for box in event.boxes for step in box.steps if step.y is WILDCARD]
    assert len(free) == 3 * 6 - 6 and all(step is free[0] for step in free)
    assert event == event_from_json(doc) and hash(event) == hash(event_from_json(doc))
    unshared = EventUnion(6, (Box(tuple(StepConstraint(ZERO, ONE) for _ in range(6))),))
    assert unshared == EventUnion.full(6) and hash(unshared) == hash(EventUnion.full(6))


@pytest.mark.parametrize("build", ["parsed", "full"])
def test_a_repeated_step_is_partitioned_once(monkeypatch, build):
    calls = []

    def counting(event, step):
        calls.append(step)
        return forecast_partition(event, step)

    if build == "parsed":
        event = event_from_json(event_to_json(EventUnion(1500, (Box((StepConstraint(ZERO, ONE),) * 1500),))))
    else:
        event = EventUnion.full(1500)
    monkeypatch.setattr(events, "forecast_partition", counting)
    partitions = event_partitions(event)
    assert calls == [1]
    assert len(partitions) == 1500 and all(p is partitions[0] for p in partitions)


@pytest.mark.parametrize("twin", [["0", "1"], [0, 1]], ids=["strings", "integers"])
def test_a_float_bound_after_its_exact_twin_is_still_refused(capsys, tmp_path, twin):
    path = tmp_path / "event.json"
    steps = [{"p": twin, "y": "*"}, {"p": [0.0, twin[1]], "y": "*"}]
    path.write_text(json.dumps({"horizon": 2, "boxes": [{"steps": steps}]}))
    code, out, err = run(capsys, "value", "--event", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_nested_boxes_past_the_live_set_budget_are_one_line_input_error(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text(nested_event(20, 300))
    code, out, err = run(capsys, "value", "--engine", "game", "--event", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(core.PAIR_BUDGET) in err


def test_the_live_set_budget_refusal_names_its_step(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text(nested_event(20, 300))
    assert run(capsys, "value", "--engine", "game", "--event", str(path)) == (2, "", (
        "error: the game engine reaches more than 300000 (depth, live-set) pairs by step 16 of 300; "
        "too many overlapping boxes\n"
    ))


def test_a_free_step_counts_its_live_sets_toward_the_budget(monkeypatch):
    """Steps 5 to 10 of the nested event are free; a budget one short of the count at each is refused there."""
    event = event_from_json(nested_event(4, 10))
    engine = _GameEngine(event)
    full = engine.all_live()
    levels = [{full}]
    for masks in engine.masks:
        levels.append({live & m for live in levels[-1] for pair in masks for m in pair} - {0})
    for step in range(5, 11):
        assert engine.masks[step - 1] == ((full, full),)
        monkeypatch.setattr(core, "PAIR_BUDGET", sum(map(len, levels[: step + 1])) - 1)
        with pytest.raises(LiveSetBudgetError, match=f"pairs by step {step} of 10;"):
            _GameEngine(event)


def test_a_long_free_run_has_the_value_of_its_truncation(capsys, tmp_path):
    """No box constrains a step past step 10, so horizon 300 has the value of horizon 11."""
    text = NESTED_UNION.read_text()
    assert text == nested_event(10, 300) + "\n"
    doc = json.loads(text)
    doc["horizon"] = 11
    for box in doc["boxes"]:
        box["steps"] = box["steps"][:11]
    truncated = tmp_path / "nested_11.json"
    truncated.write_text(json.dumps(doc))
    results = []
    for path in (NESTED_UNION, truncated):
        code, out, err = run(capsys, "value", "--engine", "game", "--event", str(path), "--json")
        assert (code, err) == (0, "")
        results.append(json.loads(out)["results"])
    assert results[0] == results[1] == {"upper_game": str(Fraction(10**10, 11**10))}


def test_live_set_budget_counts_the_forward_pass(monkeypatch):
    event = event_from_json(nested_event(4, 10))
    value = upper_game_probability(event)
    assert value == measure_upper_probability(event)[0]
    reached = sum(len(level) - (0 in level) for level in gameprob._engine(event)._values)
    event = event_from_json(nested_event(4, 10))
    monkeypatch.setattr(core, "PAIR_BUDGET", reached - 1)
    with pytest.raises(LiveSetBudgetError):
        upper_game_probability(event)
    monkeypatch.setattr(core, "PAIR_BUDGET", reached)
    assert upper_game_probability(event) == value


def test_a_constrained_step_may_reach_the_budget_exactly(monkeypatch):
    """Box 4 constrains the last step: a forward pass of exactly the budget's pairs is solved, one more is refused."""
    event = event_from_json(nested_event(4, 4))
    engine = _GameEngine(event)
    full = engine.all_live()
    assert engine.masks[-1] != ((full, full),)
    reached = sum(len(level) - (0 in level) for level in engine._values)
    monkeypatch.setattr(core, "PAIR_BUDGET", reached)
    assert _GameEngine(event)._values == engine._values
    monkeypatch.setattr(core, "PAIR_BUDGET", reached - 1)
    with pytest.raises(LiveSetBudgetError, match="pairs by step 4 of 4;"):
        _GameEngine(event)


def test_a_horizon_past_the_budget_is_refused_before_any_step_is_set_up(monkeypatch):
    """Every depth keeps a level, even with no box: horizon 10 fits a budget of 10, horizon 11 is refused up front."""
    monkeypatch.setattr(core, "PAIR_BUDGET", 10)
    assert upper_game_probability(EventUnion(10, ())) == 0

    def refuse(event):
        raise AssertionError("a step was set up past the horizon guard")

    monkeypatch.setattr(gameprob, "event_partitions", refuse)
    with pytest.raises(LiveSetBudgetError, match=r"^the game engine keeps one level per step; "
                                                 r"horizon 11 is more than its budget of 10$"):
        upper_game_probability(EventUnion(11, ()))


class TestCalibrationSums:
    def test_sum_bounds_are_inclusive_and_exact(self):
        n = 3
        eps = Fraction(1, 10**30)
        CalibrationState(5, ONE, n=n, bias=Fraction(n), spread=Fraction(n, 4))
        CalibrationState(5, ONE, n=n, bias=Fraction(-n), spread=ZERO)
        for bias, spread in [(n + eps, ZERO), (-n - eps, ZERO), (ZERO, Fraction(n, 4) + eps), (ZERO, -eps)]:
            with pytest.raises(ValueError, match="inconsistent"):
                CalibrationState(5, ONE, n=n, bias=bias, spread=spread)

    def test_capital_matches_its_formula_along_a_stream(self):
        rng = random.Random(9)
        for horizon, c in [(1, ONE), (7, Fraction(1, 2)), (40, Fraction(3)), (5, Fraction(7, 3))]:
            state = CalibrationState(horizon, c)
            for _ in range(horizon):
                state, capital = calibration_step(state, (random_rational(rng, 10), rng.randint(0, 1)))
                n4 = Fraction(horizon, 4)
                assert capital == (state.bias**2 - state.spread + n4) / (c**2 * horizon + n4)

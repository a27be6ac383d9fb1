"""Acceptance suite: one test per criterion, one pass/fail line per criterion.

Criteria 1-4 are the machine verification of the coincidence of game-theoretic
and measure-theoretic upper probability at desk scale; 5-9 are property-based
acceptance for the constructive ingredients (Ville's inequality, the
superfarthingale law, the calibration witness, capacity continuity shadows,
and the regime-switching strategy).  Every tolerance is pinned here.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

from preqprob import cli
from preqprob.core import ForecastingSystem, induced_path, sample_outcomes
from preqprob.events import Box, EventUnion, StepConstraint, contains, union
from preqprob.gameprob import (
    LevyStrategy,
    upper_game_probability,
    witness_superfarthingale,
)
from preqprob.measureprob import (
    exact_event_probability,
    grid_bruteforce,
    measure_upper_probability,
)
from preqprob.randgen import random_event, random_event_on_grid, random_forecasting_system
from preqprob.strategies import (
    CalibrationState,
    CalibrationStrategy,
    ConstantStrategy,
    DoublingStrategy,
    calibration_step,
    calibration_verdict,
    check_farthingale,
    run_stream,
    strategy_value_table,
    ville_check,
)

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def report(name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"


def test_criterion_1_counterexample_exactness(capsys):
    """Exact values 1/2, 1/2, 1, 1/2 and the violation 3/2 > 1, under 1 second."""
    started = time.perf_counter()
    code = cli.main(["counterexample", "--json"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    import json

    doc = json.loads(out)
    values = doc["results"]
    ok = (
        code == 0
        and values["upper(A)"] == "1/2"
        and values["upper(B)"] == "1/2"
        and values["upper(A|B)"] == "1"
        and values["upper(A&B)"] == "1/2"
        and values["union_plus_intersection"] == "3/2"
        and values["sum_of_parts"] == "1"
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(
            "criterion 1 counterexample exactness",
            ok,
            f"values {values['upper(A)']},{values['upper(B)']},"
            f"{values['upper(A|B)']},{values['upper(A&B)']} in {elapsed:.3f}s",
        )


def test_criterion_2_duality_at_desk_scale():
    """Game and measure engines agree exactly on 200 random events, under 60 s."""
    rng = random.Random(20_260_809)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        event = random_event(rng, max_horizon=3, max_boxes=3, max_denominator=8)
        game = upper_game_probability(event)
        measure, _witness = measure_upper_probability(event)
        if game != measure:
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        "criterion 2 duality on 200 random events",
        mismatches == 0 and elapsed < 60.0,
        f"{mismatches} mismatches in {elapsed:.2f}s",
    )


def test_criterion_3_one_sided_bound():
    """No forecasting system assigns an event more than its game value (200 pairs)."""
    rng = random.Random(31_337)
    violations = 0
    for _ in range(200):
        event = random_event(rng, max_horizon=3, max_boxes=3, max_denominator=8)
        phi = random_forecasting_system(rng, event.horizon)
        if exact_event_probability(phi, event) > upper_game_probability(event):
            violations += 1
    report(
        "criterion 3 measure value never exceeds game value",
        violations == 0,
        f"{violations} violations in 200 pairs",
    )


def test_criterion_4_grid_oracle_agreement():
    """Brute-force grid maximum equals the exact supremum on aligned events, under 120 s."""
    rng = random.Random(424_242)
    started = time.perf_counter()
    disagreements = 0
    for _ in range(50):
        event = random_event_on_grid(rng, horizon=2, k=4)
        value, _ = measure_upper_probability(event)
        if grid_bruteforce(event, 4) != value:
            disagreements += 1
    elapsed = time.perf_counter() - started
    report(
        "criterion 4 grid oracle agreement",
        disagreements == 0 and elapsed < 120.0,
        f"{disagreements} disagreements in {elapsed:.2f}s",
    )


def test_criterion_5_ville_inequality():
    """Doubling under the fair coin hits 4 a quarter of the time; matrix stays bounded."""
    phi = ForecastingSystem.constant(HALF, 10)
    result = ville_check(phi, DoublingStrategy, 4, samples=10_000, seed=99)
    ok = 0.23 <= result.frequency <= 0.27 and result.passed
    details = [f"doubling C=4 freq {result.frequency:.4f} vs bound {result.bound:.4f}"]

    phi_matrix = ForecastingSystem.constant(HALF, 8)
    factories = {
        "constant": ConstantStrategy,
        "doubling": DoublingStrategy,
        "calibration": lambda: CalibrationStrategy(8, ONE),
    }
    for name, factory in factories.items():
        for c in (2, 4, 8):
            cell = ville_check(phi_matrix, factory, c, samples=2000, seed=7)
            ok = ok and cell.passed
            if not cell.passed:
                details.append(f"{name} C={c} freq {cell.frequency} > bound {cell.bound}")
    report("criterion 5 Ville inequality", ok, "; ".join(details))


def test_criterion_6_superfarthingale_law():
    """Conditional-value tables satisfy the inequality at every node and endpoint."""
    rng = random.Random(606)
    failures = 0
    for index in range(100):
        if index < 80:
            event = random_event(rng, max_horizon=2, max_boxes=2, max_denominator=6)
        else:
            event = random_event(rng, horizon=3, max_boxes=2, max_denominator=6)
        ok, _violations = check_farthingale(witness_superfarthingale(event), "super")
        if not ok:
            failures += 1
    report(
        "criterion 6 superfarthingale law on 100 events",
        failures == 0,
        f"{failures} failing tables",
    )


def test_criterion_7_calibration_witness():
    """Calibration capital is an exact farthingale; the biased fixture pays 401/5."""
    rng = random.Random(707)
    failures = 0
    for _ in range(100):
        horizon = rng.randint(1, 3)
        c = rng.choice((HALF, ONE, Fraction(2)))
        stream = [
            (Fraction(rng.randint(0, 4), 4), rng.randint(0, 1)) for _ in range(horizon)
        ]
        grid = {p for p, _y in stream}
        vf = strategy_value_table(
            lambda: CalibrationStrategy(horizon, c), horizon, grid
        )
        ok, _ = check_farthingale(vf, "exact")
        process = run_stream(CalibrationStrategy(horizon, c), stream)
        partition = vf.partitions[0]
        path = ()
        matches = True
        for i, (p, y) in enumerate(stream):
            path = path + ((partition.cell_index_of(p), y),)
            matches = matches and vf.value(path) == process.trajectory[i]
        if not (ok and matches):
            failures += 1

    state = CalibrationState(100, ONE)
    for _ in range(100):
        state, capital = calibration_step(state, (ZERO, 1))
    verdict = calibration_verdict(state)
    fixture_ok = (
        capital == Fraction(401, 5) and verdict.ratio == 401 and verdict.ratio >= 4
    )
    report(
        "criterion 7 calibration witness",
        failures == 0 and fixture_ok,
        f"{failures} table failures; fixture capital {capital}, ratio {verdict.ratio}",
    )


def test_criterion_8_capacity_continuity_shadows():
    """Nested unions keep the last value; shrinking boxes converge to the limit."""
    rng = random.Random(808)
    union_ok = True
    for _ in range(20):
        horizon = rng.randint(1, 3)
        chain = random_event(rng, horizon=horizon, max_boxes=1)
        values = [upper_game_probability(chain)]
        for _ in range(4):
            chain = union(chain, random_event(rng, horizon=horizon, max_boxes=1))
            values.append(upper_game_probability(chain))
        union_ok = union_ok and values == sorted(values)
        union_ok = union_ok and values[-1] == upper_game_probability(chain)

    box_ok = True
    for horizon in (1, 2, 3):
        def shrinking(hi):
            steps = [StepConstraint(ZERO, hi, 1)]
            steps += [StepConstraint(ZERO, ONE, None) for _ in range(horizon - 1)]
            return EventUnion(horizon, (Box(tuple(steps)),))

        limit_value = upper_game_probability(shrinking(HALF))
        box_ok = box_ok and limit_value == HALF
        for k in range(2, 13):
            value = upper_game_probability(shrinking(HALF + Fraction(1, k)))
            box_ok = box_ok and value - limit_value == Fraction(1, k)
    report(
        "criterion 8 capacity continuity shadows",
        union_ok and box_ok,
        "increasing unions and shrinking boxes behave",
    )


def test_criterion_9_levy_strategy():
    """Along 50 sampled members of sub-threshold events capital reaches 1/a."""
    rng = random.Random(909)
    threshold = Fraction(3, 4)
    goal = ONE / threshold
    checked = 0
    failures = 0
    attempts = 0
    while checked < 50 and attempts < 3000:
        attempts += 1
        event = random_event(rng, max_horizon=3, max_boxes=2)
        value, witness = measure_upper_probability(event)
        if not ZERO < value < threshold:
            continue
        member = None
        for _ in range(300):
            omega = sample_outcomes(witness, event.horizon, rng.randint(0, 10**9))
            candidate = induced_path(witness, omega)
            if contains(event, candidate):
                member = candidate
                break
        if member is None:
            continue
        state = LevyStrategy.start(event, threshold)
        for pair in member:
            state = state.step(*pair)
        if not (state.capital >= goal and state.conditional == ONE):
            failures += 1
        checked += 1
    report(
        "criterion 9 regime-switching strategy growth",
        checked == 50 and failures == 0,
        f"{checked} members checked, {failures} failures",
    )

"""Farthingale checking, the calibration test, Ville verification, streams."""

import json
import random
from fractions import Fraction

import pytest

from preqprob import strategies
from preqprob.core import ForecastingSystem, HorizonError, InputError
from preqprob.events import Cell, ForecastPartition, counterexample_pair
from preqprob.gameprob import StateGraph, ValueFunction, witness_superfarthingale
from preqprob.randgen import random_event, random_forecasting_system
from preqprob.strategies import (
    CalibrationState,
    CalibrationStrategy,
    CapitalProcess,
    CertificationError,
    ConstantStrategy,
    DoublingStrategy,
    StreamFormatError,
    calibration_step,
    calibration_verdict,
    certify_strategy,
    check_farthingale,
    parse_stream_csv,
    point_partition,
    run_stream,
    strategy_value_table,
    ville_check,
)
from path_tables import path_dict, path_graph

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def constant_table(horizon, value):
    partition = point_partition([HALF])
    partitions = tuple(partition for _ in range(horizon))
    values = {}
    level = [()]
    values[()] = value
    for _ in range(horizon):
        level = [
            path + ((ci, bit),)
            for path in level
            for ci in range(len(partition.cells))
            for bit in (0, 1)
        ]
        for path in level:
            values[path] = value
    return ValueFunction(horizon, partitions, path_graph(partitions, values))


class TestCheckFarthingale:
    def test_constant_one_is_exact(self):
        ok, violations = check_farthingale(constant_table(2, ONE), "exact")
        assert ok and violations == []

    def test_witness_is_super(self):
        a, _ = counterexample_pair()
        ok, violations = check_farthingale(witness_superfarthingale(a), "super")
        assert ok, violations

    def test_inflated_child_detected_at_p_one(self):
        """V=1 with children (0 on outcome 0, 2 on outcome 1) fails at p = 1."""
        partition = point_partition([])
        values = {(): ONE}
        for ci in range(len(partition.cells)):
            values[((ci, 0),)] = ZERO
            values[((ci, 1),)] = Fraction(2)
        vf = ValueFunction(1, (partition,), path_graph((partition,), values))
        ok, violations = check_farthingale(vf, "super")
        assert not ok
        assert violations == [((), ONE)]

    def test_incomplete_table_rejected(self):
        """A table missing a node never reaches the check: the reader refuses it, and so does ``from_nodes``."""
        vf = constant_table(1, ONE)
        doc = json.loads(vf.to_json())
        del doc["values"]["0:1"]
        with pytest.raises(InputError, match=r"^malformed value-function document: missing '0:1'$"):
            ValueFunction.from_json(json.dumps(doc))
        values = path_dict(vf.partitions, vf.values)
        del values[((0, 1),)]
        with pytest.raises(KeyError):
            path_graph(vf.partitions, values)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            check_farthingale(constant_table(1, ONE), "strict")

    @pytest.mark.parametrize("mode", ["exact", "super"])
    def test_root_only_table_holds(self, mode):
        """A table with no partitions has no interior node, so nothing can fail."""
        vf = ValueFunction.from_json('{"horizon": 0, "partitions": [], "values": {"": "1"}}')
        assert check_farthingale(vf, mode) == (True, [])

    def test_root_only_table_needs_its_root(self):
        """With no root value there is no table: the reader and the constructor both refuse it."""
        with pytest.raises(InputError, match=r"^malformed value-function document: missing ''$"):
            ValueFunction.from_json('{"horizon": 0, "partitions": [], "values": {}}')
        with pytest.raises(InputError, match=r"^the state graph does not fit a horizon-0 table"):
            ValueFunction(0, (), StateGraph([], []))


def reference_check(vf, mode):
    """check_farthingale as a plain loop: (1-p) v0 + p v1 at every endpoint of every cell."""
    violations = []
    level = [()]
    for partition in vf.partitions:
        for path in level:
            parent = vf.values[path]
            for ci, cell in enumerate(partition.cells):
                v0 = vf.values[path + ((ci, 0),)]
                v1 = vf.values[path + ((ci, 1),)]
                for p in cell.endpoints():
                    rhs = (ONE - p) * v0 + p * v1
                    bad = parent != rhs if mode == "exact" else parent < rhs
                    if bad and (path, p) not in violations:
                        violations.append((path, p))
        level = [
            path + ((ci, bit),)
            for path in level
            for ci in range(len(partition.cells))
            for bit in (0, 1)
        ]
    return not violations, violations


QUARTER = Fraction(1, 4)
# Open, half-open, closed and point cells.
MIXED = ForecastPartition(
    (
        Cell(ZERO, QUARTER, hi_open=True),
        Cell(QUARTER, Fraction(3, 4)),
        Cell(Fraction(3, 4), ONE, lo_open=True),
    ),
)
POINTS = point_partition([QUARTER, HALF])
WHOLE = ForecastPartition((Cell(ZERO, ONE),))


def one_step_table(partition, parent, children):
    """Horizon-1 table: the root's value and (v0, v1) per cell."""
    values = {(): Fraction(parent)}
    for ci, (v0, v1) in enumerate(children):
        values[((ci, 0),)] = Fraction(v0)
        values[((ci, 1),)] = Fraction(v1)
    return ValueFunction(1, (partition,), path_graph((partition,), values))


class TestCheckFarthingaleAgainstReference:
    @pytest.mark.parametrize(
        "partition, children, expected",
        [
            (WHOLE, [(0, 1)], [ONE]),  # rising: the violation is at hi only
            (WHOLE, [(1, 0)], [ZERO]),  # falling: at lo only
            (WHOLE, [(1, 1)], [ZERO, ONE]),  # equal: at both
            (WHOLE, [(HALF, HALF)], []),
            (WHOLE, [(0, HALF)], []),
            (WHOLE, [(2, -1)], [ZERO]),
            # Open cells at (0, 1/4) and (1/4, 1/2), points at 0, 1/4, 1/2 and 1.
            (
                POINTS,
                [(1, 1), (0, 4), (0, 0), (1, 0), (HALF, HALF), (2, 0), (0, 0)],
                [ZERO, QUARTER, HALF],
            ),
            (
                POINTS,
                [(0, 0), (HALF, HALF), (1, 1), (0, 2), (0, 0), (HALF, HALF), (0, 1)],
                [QUARTER, HALF, ONE],
            ),
            (MIXED, [(0, 4), (1, 0), (1, 1)], [QUARTER, Fraction(3, 4), ONE]),
            (MIXED, [(HALF, HALF), (0, 1), (1, 0)], [Fraction(3, 4)]),
        ],
    )
    def test_super_mode_endpoints(self, partition, children, expected):
        vf = one_step_table(partition, HALF, children)
        want = [((), p) for p in expected]
        assert check_farthingale(vf, "super") == (not want, want)
        assert check_farthingale(vf, "super") == reference_check(vf, "super")
        assert check_farthingale(vf, "exact") == reference_check(vf, "exact")

    def test_random_tables_match_reference(self):
        rng = random.Random(41)
        levels = [ZERO, QUARTER, HALF, Fraction(3, 4), ONE]
        found = {"super": 0, "exact": 0}
        for index in range(120):
            partitions = (MIXED, POINTS) if index % 2 else (POINTS, MIXED)
            values = {(): rng.choice(levels)}
            level = [()]
            for partition in partitions:
                level = [
                    path + ((ci, bit),)
                    for path in level
                    for ci in range(len(partition.cells))
                    for bit in (0, 1)
                ]
                for path in level:
                    values[path] = rng.choice(levels)
            vf = ValueFunction(2, partitions, path_graph(partitions, values))
            for mode in ("super", "exact"):
                got = check_farthingale(vf, mode)
                assert got == reference_check(vf, mode)
                found[mode] += len(got[1])
        assert found["super"] > 0 and found["exact"] > found["super"]

    def test_witness_tables_match_reference(self):
        rng = random.Random(43)
        for _ in range(20):
            vf = witness_superfarthingale(random_event(rng, max_horizon=3, max_boxes=3))
            for mode in ("super", "exact"):
                assert check_farthingale(vf, mode) == reference_check(vf, mode)

    @pytest.mark.parametrize("partition", [WHOLE, POINTS, MIXED], ids=["whole", "points", "mixed"])
    @pytest.mark.parametrize("parent", [Fraction(3, 4), HALF, QUARTER], ids=["above", "equal", "below"])
    def test_a_cell_whose_children_are_one_state_is_one_compare(self, monkeypatch, partition, parent):
        """Each cell's children hold one value, so one state: the cell fails at every endpoint or at none."""
        values = {(): parent}
        for ci in range(len(partition.cells)):
            values[((ci, 0),)] = values[((ci, 1),)] = HALF
        vf = ValueFunction(1, (partition,), path_graph((partition,), values))
        ends = list(dict.fromkeys(p for cell in partition.cells for p in cell.endpoints()))
        expected = {"super": ends if parent < HALF else [], "exact": ends if parent != HALF else []}

        def scan(*args):
            raise AssertionError("a cell with one child state had its endpoints scanned")

        monkeypatch.setattr(strategies, "_failing_endpoints", scan)
        for mode in ("super", "exact"):
            want = [((), p) for p in expected[mode]]
            assert check_farthingale(vf, mode) == (not want, want) == reference_check(vf, mode)

    @pytest.mark.parametrize("parent", [Fraction(3, 4), HALF, QUARTER], ids=["above", "equal", "below"])
    def test_cells_with_one_child_state_mix_with_cells_with_two(self, parent):
        """Two steps over ``POINTS``: an odd cell's children are 0 and 1, an even cell's are one value.

        That value is the parent's own under the root, and 1/2 under every depth-1 node.
        """
        values = {(): parent}
        level = [()]
        for shared in (parent, HALF):
            for path in level:
                for ci in range(len(POINTS.cells)):
                    for bit in (0, 1):
                        values[path + ((ci, bit),)] = (ZERO, ONE)[bit] if ci % 2 else shared
            level = [path + ((ci, bit),) for path in level for ci in range(len(POINTS.cells)) for bit in (0, 1)]
        vf = ValueFunction(2, (POINTS, POINTS), path_graph((POINTS, POINTS), values))
        for mode in ("super", "exact"):
            assert check_farthingale(vf, mode) == reference_check(vf, mode)


class TestCalibration:
    def test_initial_capital(self):
        """At N=100, C=1 the initial capital (N/4)/(C^2 N + N/4) is 1/5."""
        state = CalibrationState(100, ONE)
        assert state.capital == Fraction(1, 5)

    def test_maximally_biased_stream(self):
        """100 steps of (p=0, y=1): S=100, A=0, final capital 401/5."""
        state = CalibrationState(100, ONE)
        capital = state.capital
        for _ in range(100):
            state, capital = calibration_step(state, (ZERO, 1))
        assert capital == Fraction(401, 5)
        verdict = calibration_verdict(state)
        assert verdict.reject
        assert verdict.ratio == Fraction(401)
        assert verdict.ratio >= 4

    def test_perfect_forecasts_never_move(self):
        state = CalibrationState(100, ONE)
        for _ in range(100):
            state, capital = calibration_step(state, (ONE, 1))
            assert capital == Fraction(1, 5)
        assert not calibration_verdict(state).reject

    def test_boundary_rejection(self):
        """At N=4, C=1 a stream reaching S=2 sits on the boundary and rejects."""
        state = CalibrationState(4, ONE)
        for pair in [(ZERO, 1), (ZERO, 1), (ONE, 1), (ONE, 1)]:
            state, _ = calibration_step(state, pair)
        verdict = calibration_verdict(state)
        assert state.bias == 2
        assert verdict.reject
        assert verdict.ratio >= 4

    def test_rejection_guarantees_ratio(self):
        """Whenever |S_N| >= C sqrt(N), final/initial capital >= 4 C^2."""
        rng = random.Random(13)
        grid = [ZERO, Fraction(1, 4), HALF, ONE]
        rejections = 0
        for _ in range(300):
            n = rng.choice((4, 9, 16))
            c = rng.choice((HALF, ONE))
            state = CalibrationState(n, c)
            for _ in range(n):
                state, _ = calibration_step(state, (rng.choice(grid), rng.randint(0, 1)))
            verdict = calibration_verdict(state)
            if verdict.reject:
                rejections += 1
                assert verdict.ratio >= 4 * c**2
        assert rejections > 10

    def test_capital_never_negative(self):
        rng = random.Random(19)
        for _ in range(100):
            n = rng.randint(1, 12)
            state = CalibrationState(n, rng.choice((HALF, ONE, Fraction(2))))
            for _ in range(n):
                p = Fraction(rng.randint(0, 8), 8)
                state, capital = calibration_step(state, (p, rng.randint(0, 1)))
                assert capital >= 0

    def test_is_exact_farthingale_on_grids(self):
        """The capital table on any forecast grid passes the exact check."""
        rng = random.Random(29)
        for _ in range(10):
            horizon = rng.randint(1, 3)
            c = rng.choice((HALF, ONE, Fraction(3, 2)))
            grid = {Fraction(rng.randint(0, 6), 6) for _ in range(2)}
            vf = strategy_value_table(
                lambda: CalibrationStrategy(horizon, c), horizon, grid
            )
            ok, violations = check_farthingale(vf, "exact")
            assert ok, violations

    def test_horizon_exhausted(self):
        state = CalibrationState(1, ONE)
        state, _ = calibration_step(state, (HALF, 1))
        with pytest.raises(HorizonError):
            calibration_step(state, (HALF, 1))

    def test_verdict_needs_full_stream(self):
        with pytest.raises(ValueError):
            calibration_verdict(CalibrationState(4, ONE))


class TestRunStream:
    def test_constant_strategy(self):
        process = run_stream(ConstantStrategy(), [(HALF, 1), (HALF, 0)])
        assert process.initial_capital == ONE
        assert process.trajectory == (ONE, ONE)

    def test_calibration_final_value(self):
        stream = [(ZERO, 1)] * 100
        process = run_stream(CalibrationStrategy(100, ONE), stream)
        assert process.final_capital == Fraction(401, 5)

    def test_empty_stream(self):
        process = run_stream(ConstantStrategy(), [])
        assert process.trajectory == ()
        assert process.final_capital == ONE

    def test_malformed_row_reports_index(self):
        with pytest.raises(StreamFormatError, match="row 1"):
            run_stream(ConstantStrategy(), [(HALF, 1), (Fraction(2), 0)])

    def test_strategies_see_only_the_pairs(self):
        """Prequential principle: a probe strategy receives (p, y) and nothing else."""

        seen = []

        class Probe:
            capital = ONE

            def step(self, p, y):
                seen.append((p, y))
                return self

        stream = [(HALF, 1), (Fraction(1, 4), 0)]
        run_stream(Probe(), stream)
        assert seen == stream

    def test_negative_capital_rejected(self):
        with pytest.raises(ValueError):
            CapitalProcess(ONE, (Fraction(-1),))


class TestStrategyValueTable:
    def test_matches_run_stream_on_grid_forecasts(self):
        rng = random.Random(37)
        grid = [ZERO, Fraction(1, 4), HALF, ONE]
        for _ in range(10):
            horizon = rng.randint(1, 3)
            vf = strategy_value_table(
                lambda: CalibrationStrategy(horizon, ONE), horizon, grid
            )
            partition = vf.partitions[0]
            stream = [
                (rng.choice(grid), rng.randint(0, 1)) for _ in range(horizon)
            ]
            process = run_stream(CalibrationStrategy(horizon, ONE), stream)
            path = ()
            for i, (p, y) in enumerate(stream):
                path = path + ((partition.cell_index_of(p), y),)
                assert vf.values[path] == process.trajectory[i]

    def test_doubling_table_is_exact_under_no_bet_gaps(self):
        vf = strategy_value_table(DoublingStrategy, 2, [HALF])
        ok, violations = check_farthingale(vf, "exact")
        # doubling is only a martingale at p = 1/2; gap cells freeze, point
        # cells at 0 and 1 break the exact identity
        assert not ok
        assert all(p in (ZERO, ONE) for _node, p in violations)


class TestCertification:
    def test_doubling_is_martingale_under_fair_coin(self):
        phi = ForecastingSystem.constant(HALF, 6)
        ok, violations = certify_strategy(DoublingStrategy, phi)
        assert ok, violations

    def test_doubling_fails_under_biased_coin(self):
        phi = ForecastingSystem.constant(Fraction(1, 3), 4)
        ok, _ = certify_strategy(DoublingStrategy, phi)
        assert not ok

    def test_calibration_is_martingale_under_any_system(self):
        rng = random.Random(43)
        for _ in range(10):
            phi = random_forecasting_system(rng, rng.randint(1, 4))
            ok, violations = certify_strategy(
                lambda: CalibrationStrategy(phi.horizon, ONE), phi
            )
            assert ok, violations


class TestVilleCheck:
    def test_doubling_reaches_four_a_quarter_of_the_time(self):
        """Reaching capital 4 needs two leading 1s: probability exactly 1/4."""
        phi = ForecastingSystem.constant(HALF, 10)
        result = ville_check(phi, DoublingStrategy, 4, samples=10_000, seed=0)
        assert 0.23 <= result.frequency <= 0.27
        assert result.bound == 0.25
        assert result.passed

    def test_vacuous_when_threshold_below_initial(self):
        phi = ForecastingSystem.constant(HALF, 5)
        result = ville_check(phi, DoublingStrategy, HALF, samples=200, seed=1)
        assert result.bound >= 1.0
        assert result.passed

    def test_constant_strategy_never_moves(self):
        phi = ForecastingSystem.constant(HALF, 5)
        result = ville_check(phi, ConstantStrategy, 2, samples=500, seed=2)
        assert result.frequency == 0.0
        assert result.passed

    def test_inflated_strategy_is_refused(self):
        """Ad hoc capital inflation is caught by certification, not sampled."""

        class Inflator:
            def __init__(self, capital=ONE):
                self.capital = capital

            def step(self, p, y):
                return Inflator(2 * self.capital)

        phi = ForecastingSystem.constant(HALF, 5)
        with pytest.raises(CertificationError):
            ville_check(phi, Inflator, 4, samples=100, seed=3)


class TestStreamCsv:
    def test_round_trip(self):
        stream = [(HALF, 1), (Fraction(1, 4), 0), (ZERO, 1)]
        assert parse_stream_csv("p,y\n1/2,1\n1/4,0\n0,1\n") == stream

    def test_decimal_forecasts(self):
        stream = parse_stream_csv("p,y\n0.5,1\n0.25,0\n")
        assert stream == [(HALF, 1), (Fraction(1, 4), 0)]

    def test_header_required(self):
        with pytest.raises(StreamFormatError):
            parse_stream_csv("0.5,1\n")

    def test_bad_row_reports_index(self):
        with pytest.raises(StreamFormatError, match="row 2"):
            parse_stream_csv("p,y\n0.5,1\n0.5,2\n")

"""Command-line surface: exact values, theorem verification, stream testing.

Exit codes: 0 success, 1 invariant violation (a bug, e.g. the two engines
disagree), 2 input error (an ``InputError`` or ``OSError``, on one ``error:``
line), 3 statistical rejection (a finding about the forecasts, not a tool
failure); any other exception is a tool fault: a traceback and exit 1.
Reports are deterministic given flags and seed; --json is byte-stable, with
rationals as "num/den" strings and floats at 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import gameprob, measureprob, randgen, strategies
from .core import ForecastingSystem, InputError, as_fraction, as_int, induced_path, sample_outcomes
from .events import (
    contains,
    counterexample_pair,
    event_from_json,
    event_to_json,
    intersection,
    union,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_REJECT = 3


def _render(value):
    if isinstance(value, str):  # most values, e.g. every entry of a witness table
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return [_render(v) for v in value]
    if isinstance(value, dict):
        return {k: _render(v) for k, v in value.items()}
    return value


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    seed: int | None = None

    def add_check(self, name: str, passed: bool, detail: str = ""):
        status = "PASS" if passed else "FAIL"
        if not passed and not detail:
            detail = "check failed"
        self.checks.append({"name": name, "status": status, "detail": detail})

    @property
    def all_passed(self) -> bool:
        return all(c["status"] == "PASS" for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "inputs": _render(self.inputs),
            "results": _render(self.results),
            "checks": self.checks,
        }
        if self.seed is not None:
            doc["seed"] = self.seed
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def emit(self, as_json: bool):
        if as_json:
            sys.stdout.write(self.to_json())
            return
        print(f"command: {self.command}")
        for key, value in self.inputs.items():
            print(f"input {key} = {_render(value)}")
        if self.seed is not None:
            print(f"seed = {self.seed}")
        for key, value in self.results.items():
            print(f"{key} = {_render(value)}")
        for check in self.checks:
            detail = f" ({check['detail']})" if check["detail"] else ""
            print(f"check {check['name']}: {check['status']}{detail}")


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return as_int(os.environ.get("PREQ_SEED", "0"), "$PREQ_SEED")


def cmd_value(args) -> int:
    if args.table_out and args.engine == "measure":
        raise InputError("--table-out needs the game engine: use --engine game or both")
    event = event_from_json(_read(args.event))
    report = Report("value", inputs={"event": args.event, "digest": _digest(args.event), "engine": args.engine})
    exit_code = EXIT_OK
    if args.engine in ("game", "both"):
        report.results["upper_game"] = gameprob.upper_game_probability(event)
        if args.table_out:
            table = gameprob.witness_superfarthingale(event)
            with open(args.table_out, "w", encoding="utf-8") as handle:
                handle.write(table.to_json())
            report.results["table_out"] = args.table_out
    if args.engine in ("measure", "both"):
        value, witness = measureprob.measure_upper_probability(event)
        report.results["upper_measure"] = value
        witness_doc = report.results["witness_system"] = witness.to_doc()
        if args.witness_out:
            with open(args.witness_out, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(witness_doc, sort_keys=True))
            report.results["witness_out"] = args.witness_out
    if args.engine == "both":
        equal = report.results["upper_game"] == report.results["upper_measure"]
        report.add_check(
            "game_equals_measure",
            equal,
            "engines agree exactly" if equal else
            f"game {report.results['upper_game']} != measure {report.results['upper_measure']}",
        )
        if not equal:
            exit_code = EXIT_VIOLATION
    report.emit(args.json)
    return exit_code


def cmd_counterexample(args) -> int:
    a, b = counterexample_pair()
    if args.measure:
        def up(event):
            return measureprob.measure_upper_probability(event)[0]
    else:
        up = gameprob.upper_game_probability
    values = {
        "upper(A)": up(a),
        "upper(B)": up(b),
        "upper(A|B)": up(union(a, b)),
        "upper(A&B)": up(intersection(a, b)),
    }
    report = Report("counterexample", inputs={"engine": "measure" if args.measure else "game"})
    report.results.update(values)
    expected = {
        "upper(A)": Fraction(1, 2),
        "upper(B)": Fraction(1, 2),
        "upper(A|B)": Fraction(1),
        "upper(A&B)": Fraction(1, 2),
    }
    for name, want in expected.items():
        report.add_check(
            f"{name} == {want}", values[name] == want, f"got {values[name]}"
        )
    lhs = values["upper(A|B)"] + values["upper(A&B)"]
    rhs = values["upper(A)"] + values["upper(B)"]
    report.results["union_plus_intersection"] = lhs
    report.results["sum_of_parts"] = rhs
    report.add_check(
        "strong_subadditivity_violated", lhs > rhs, f"{lhs} > {rhs}"
    )
    report.emit(args.json)
    return EXIT_OK if report.all_passed else EXIT_VIOLATION


def cmd_test_stream(args) -> int:
    stream = strategies.parse_stream_csv(_read(args.stream))
    horizon = len(stream) if args.horizon is None else args.horizon
    if horizon < 1 or len(stream) < horizon:
        raise InputError(f"stream has {len(stream)} rows, need {horizon}")
    threshold_c = as_fraction(args.threshold_c)
    start = strategies.CalibrationState(horizon, threshold_c)
    state = strategies.calibration_fold(start, stream[:horizon])
    verdict = strategies.calibration_verdict(state)
    report = Report(
        "test-stream",
        inputs={
            "stream": args.stream,
            "digest": _digest(args.stream),
            "N": horizon,
            "C": threshold_c,
        },
    )
    report.results["bias_sum"] = verdict.bias
    report.results["initial_capital"] = start.capital
    report.results["final_capital"] = state.capital
    report.results["capital_ratio"] = verdict.ratio
    report.results["verdict"] = "reject" if verdict.reject else "no_reject"
    report.emit(args.json)
    return EXIT_REJECT if verdict.reject else EXIT_OK


# Strategy name -> its start value at a horizon.
_STRATEGIES = {
    "constant": lambda horizon: strategies.ConstantStrategy(),
    "doubling": lambda horizon: strategies.DoublingStrategy(),
    "calibration": lambda horizon: strategies.CalibrationStrategy(horizon, Fraction(1)),
}


def cmd_ville(args) -> int:
    seed = _default_seed(args)
    if args.phi:
        phi = ForecastingSystem.from_json(_read(args.phi))
    else:
        phi = ForecastingSystem.constant(Fraction(1, 2), args.horizon)
    threshold = as_fraction(args.threshold_c)
    start = _STRATEGIES[args.strategy](phi.horizon)
    result = strategies.ville_check(phi, lambda: start, threshold, args.samples, seed)
    report = Report(
        "ville",
        inputs={
            "strategy": args.strategy,
            "C": threshold,
            "samples": args.samples,
            "horizon": phi.horizon,
        },
        seed=seed,
    )
    report.results["frequency"] = result.frequency
    report.results["bound"] = result.bound
    report.add_check(
        "frequency_within_bound",
        result.passed,
        f"frequency {result.frequency:.6g} vs bound {result.bound:.6g} plus sampling slack",
    )
    report.emit(args.json)
    return EXIT_OK if result.passed else EXIT_VIOLATION


def cmd_duality_sweep(args) -> int:
    if args.grid is not None and args.grid < 1:
        raise InputError(f"--grid must be a positive integer, got {args.grid}")
    seed = _default_seed(args)
    rng = random.Random(seed)
    report = Report(
        "duality-sweep",
        inputs={"count": args.count, "grid": args.grid},
        seed=seed,
    )
    mismatches = 0
    grid_violations = 0
    grid_skipped = 0
    for index in range(args.count):
        event = randgen.random_event(rng)
        game = gameprob.upper_game_probability(event)
        measure, _witness = measureprob.measure_upper_probability(event)
        if game != measure:
            mismatches += 1
            report.add_check(
                f"event_{index}_duality",
                False,
                f"game {game} != measure {measure} on {event_to_json(event)}",
            )
        if args.grid is not None:
            try:
                grid_value = measureprob.grid_bruteforce(event, args.grid)
            except measureprob.EnumerationLimitError:
                grid_skipped += 1
                continue
            if grid_value > measure:
                grid_violations += 1
                report.add_check(
                    f"event_{index}_grid_bound",
                    False,
                    f"grid {grid_value} exceeds measure {measure}",
                )
    report.results["events"] = args.count
    report.results["duality_mismatches"] = mismatches
    report.add_check("duality_holds_on_sweep", mismatches == 0, f"{mismatches} mismatches")
    if args.grid is not None:
        report.results["grid_bound_violations"] = grid_violations
        report.results["grid_skipped"] = grid_skipped
        report.add_check(
            "grid_values_bounded",
            grid_violations == 0,
            f"{grid_violations} violations, {grid_skipped} skipped",
        )
    report.emit(args.json)
    return EXIT_OK if report.all_passed else EXIT_VIOLATION


def cmd_levy_trace(args) -> int:
    event = event_from_json(_read(args.event))
    threshold = as_fraction(args.threshold)
    seed = _default_seed(args)
    report = Report(
        "levy-trace",
        inputs={
            "event": args.event,
            "digest": _digest(args.event),
            "threshold": threshold,
        },
    )
    if args.stream:
        stream = strategies.parse_stream_csv(_read(args.stream))[: event.horizon]
        report.inputs["stream"] = args.stream
    else:
        value, witness = measureprob.measure_upper_probability(event)
        if value == 0:
            raise InputError("event has upper probability 0; no member to sample")
        report.seed = seed
        for attempt in range(1000):
            omega = sample_outcomes(witness, event.horizon, seed + attempt)
            candidate = induced_path(witness, omega)
            if contains(event, candidate):
                stream = list(candidate)
                break
        else:
            raise InputError("failed to sample an event member")
    state = gameprob.LevyStrategy.start(event, threshold)
    trajectory = [state.capital]
    for p, y in stream:
        state = state.step(p, y)
        trajectory.append(state.capital)
    report.results["capital_trajectory"] = trajectory
    report.results["final_capital"] = state.capital
    report.results["milestones"] = list(state.milestones)
    report.results["final_conditional"] = state.conditional
    report.emit(args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    vf = gameprob.ValueFunction.from_json(_read(args.value_function))
    ok, violations = strategies.check_farthingale(vf, args.mode)
    report = Report(
        "verify",
        inputs={
            "value_function": args.value_function,
            "digest": _digest(args.value_function),
            "mode": args.mode,
        },
    )
    report.results["nodes"] = len(vf.values)
    report.results["violations"] = len(violations)
    detail = "" if ok else (
        f"first violation at node '{gameprob.encode_cell_path(violations[0][0])}' "
        f"p={violations[0][1]}"
    )
    report.add_check(f"{args.mode}_farthingale", ok, detail)
    report.emit(args.json)
    return EXIT_OK if ok else EXIT_VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``preq`` parser, built at the first call and shared by later ones.

    ``parse_args`` returns a fresh namespace per call, so no option carries
    over from one ``main`` call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="preq",
        description="Exact finite-horizon prequential probability toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=False):
        p.add_argument("--json", action="store_true", help="emit a machine-readable report")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="RNG seed (default: $PREQ_SEED or 0)")

    p = sub.add_parser("value", help="upper probability of an event file")
    p.add_argument("--event", required=True, help="event JSON file")
    p.add_argument("--engine", choices=("game", "measure", "both"), default="both")
    p.add_argument("--witness-out", default=None, help="write the maximizing forecasting system here")
    p.add_argument("--table-out", default=None, help="write the witness value table here (verify reads it)")
    common(p)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("counterexample", help="built-in strong-subadditivity counterexample")
    p.add_argument("--measure", action="store_true", help="use the measure engine")
    common(p)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("test-stream", help="calibration test of a forecast stream")
    p.add_argument("--stream", required=True, help="CSV stream file with header p,y")
    p.add_argument("-N", dest="horizon", type=int, default=None, help="test horizon (default: stream length)")
    p.add_argument("-C", dest="threshold_c", default="1", help="bias threshold C (rational, default 1)")
    common(p)
    p.set_defaults(func=cmd_test_stream)

    p = sub.add_parser("ville", help="empirical capital/probability inequality check")
    p.add_argument("--phi", default=None, help="forecasting system JSON (default: constant 1/2)")
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="doubling")
    p.add_argument("-C", dest="threshold_c", default="4", help="capital threshold (rational, default 4)")
    p.add_argument("-N", dest="horizon", type=int, default=10, help="default system's horizon (default 10)")
    p.add_argument("--samples", type=int, default=10000)
    common(p, seed=True)
    p.set_defaults(func=cmd_ville)

    p = sub.add_parser("duality-sweep", help="game vs measure equality on random events")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--grid", type=int, default=None, help="also bound-check the grid oracle with this k")
    common(p, seed=True)
    p.set_defaults(func=cmd_duality_sweep)

    p = sub.add_parser("levy-trace", help="trace the regime-switching strategy's capital")
    p.add_argument("--event", required=True)
    p.add_argument("--threshold", default="3/4", help="dip threshold in (0,1)")
    p.add_argument("--stream", default=None, help="CSV stream to trace (default: sample a member)")
    common(p, seed=True)
    p.set_defaults(func=cmd_levy_trace)

    p = sub.add_parser("verify", help="check a value-function file for the (super)farthingale law")
    p.add_argument("--value-function", required=True, dest="value_function")
    p.add_argument("--mode", choices=("exact", "super"), default="super")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

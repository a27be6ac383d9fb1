"""Command-line surface: exact values, theorem verification, stream testing.

Each ``cmd_*`` maps parsed arguments to a ``Report`` and writes nothing;
``main`` alone prints it, writes its ``files`` (``value``'s witnesses) and
returns ``Report.exit_code``: 1 if any check failed (an invariant violation
or a failed certificate, e.g. the engines disagree or ``verify`` reads a
negative value), else 3 for a statistical rejection (a finding about the
forecasts, not a tool failure), else 0.  Exit 2 is an input error on one
``error:`` line: an ``InputError`` or ``OSError``, or a command line argparse
refuses.  An argv that starts with a subcommand goes straight to that
subcommand's parser, any other to the whole parser, with the same refusals.
Integer options are read by ``as_int``'s rule (ASCII digits only), and
``ville`` refuses ``-N`` together with ``--phi``.  Any other exception is a
tool fault: a traceback and exit 1.  Reports are deterministic given flags
and seed; --json is byte-stable, with rationals as "num/den" strings and
floats at 12 significant digits.  ``main`` renders a report whole before it
writes a file or prints a byte, and a computed rational too long for ``str``
(``core.digits_beyond_limit``) is an ``InputError`` naming it, so the
command writes and prints nothing and exits 2.  It opens every output file
before it writes any, so an output that cannot be opened leaves the others
as they were.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
from fractions import Fraction

from . import gameprob, measureprob, randgen, strategies
from .core import (
    ForecastingSystem,
    Frozen,
    InputError,
    as_fraction,
    as_int,
    check_seed,
    digits_beyond_limit,
    induced_path,
    reading,
    sample_outcomes,
)
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

# Most events ``duality-sweep`` draws in one run, minutes of work.
SWEEP_LIMIT = 10**6


class Written(str):
    """A result already written as compact JSON text: ``to_json`` splices it in, ``to_text`` prints it parsed."""


# Built once: json.dumps given keywords builds an encoder per call.
_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _object(texts: dict) -> str:
    """The compact JSON object of keys and their values' written texts, the keys sorted as ``_compact`` sorts them."""
    return "{" + ",".join(f"{_compact(key)}:{text}" for key, text in sorted(texts.items())) + "}"


def _render(value, name: str):
    """``value`` as a report prints it; a rational too long to print is an ``InputError`` naming ``name``."""
    if isinstance(value, Written):
        return json.loads(value)
    if isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        limit = sys.get_int_max_str_digits()
        if digits_beyond_limit(value, limit):
            raise InputError(
                f"{name} has a numerator or denominator of more than {limit} digits, "
                f"the interpreter's limit on integer digits, so it cannot be printed"
            )
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return [_render(v, name) for v in value]
    if isinstance(value, dict):
        return {k: _render(v, name) for k, v in value.items()}
    return value


class Report(Frozen):
    """A command's report: unlike the other values its fields can be set, and it is unhashable.

    ``rejected`` is a statistical rejection of the forecasts; ``files`` maps
    each path ``main`` writes to its text.
    """

    _fields = ("command", "inputs", "results", "checks", "seed", "rejected", "files")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, command, inputs=None, results=None, checks=None, seed=None, rejected=False, files=None):
        """A missing dict or list is a new empty one."""
        super().__init__(command, {} if inputs is None else inputs, {} if results is None else results,
                         [] if checks is None else checks, seed, rejected, {} if files is None else files)

    def add_check(self, name: str, passed: bool, detail: str):
        self.checks.append({"name": name, "status": "PASS" if passed else "FAIL", "detail": detail})

    @property
    def exit_code(self) -> int:
        if any(c["status"] == "FAIL" for c in self.checks):
            return EXIT_VIOLATION
        return EXIT_REJECT if self.rejected else EXIT_OK

    def to_json(self) -> str:
        """The report as compact JSON, keys sorted, a ``Written`` result's text spliced in as it stands."""
        doc = {
            "command": self.command,
            "inputs": {key: _render(value, f"input {key}") for key, value in self.inputs.items()},
            "checks": self.checks,
        }
        if self.seed is not None:
            doc["seed"] = self.seed
        texts = {key: _compact(value) for key, value in doc.items()}
        texts["results"] = _object({
            key: value if isinstance(value, Written) else _compact(_render(value, key))
            for key, value in self.results.items()
        })
        return _object(texts) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        lines += (f"input {key} = {_render(value, f'input {key}')}" for key, value in self.inputs.items())
        if self.seed is not None:
            lines.append(f"seed = {self.seed}")
        lines += (f"{key} = {_render(value, key)}" for key, value in self.results.items())
        for check in self.checks:
            detail = f" ({check['detail']})" if check["detail"] else ""
            lines.append(f"check {check['name']}: {check['status']}{detail}")
        return "\n".join(lines) + "\n"


def _read(path: str) -> tuple[str, str]:
    """An input file's text, line ends read as in text mode, and the SHA-256 of its bytes, read once.

    A leading byte-order mark is not text; bytes that are not UTF-8 are an ``InputError`` naming the file."""
    with open(path, "rb") as handle:
        data = handle.read()
    with reading(path, UnicodeDecodeError):
        text = data.decode("utf-8-sig")
    # hashlib, not the built-in _sha256: OpenSSL hashes 5-7 times faster per byte, worth its dearer import.
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text, hashlib.sha256(data).hexdigest()


def _int_option(text: str) -> int:
    """An integer option, read by ``as_int``'s rule: ``int``'s spellings in ASCII only.

    A refusal is an ``InputError``, a ``ValueError``, which argparse reports
    as ``argument -N: invalid int value: ...``.
    """
    return as_int(text, "option")


_int_option.__name__ = "int"  # the type name in argparse's refusal


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose refusal is one ``error:`` line and exit 2, as any input error's is."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n")


def _default_seed(args) -> int:
    """``--seed``, else ``$PREQ_SEED``, else 0, refused if negative by ``check_seed``."""
    if args.seed is not None:
        return check_seed(args.seed, "--seed")
    return check_seed(as_int(os.environ.get("PREQ_SEED", "0"), "$PREQ_SEED"), "$PREQ_SEED")


def _one_file(a: str, b: str) -> bool:
    """Whether two paths name one file: equal real paths, or both there and one file, as a hard link is."""
    same = os.path.realpath(a) == os.path.realpath(b)
    return same or (os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b))  # stats, reads nothing


def cmd_value(args) -> Report:
    if args.table_out and args.engine == "measure":
        raise InputError("--table-out needs the game engine: use --engine game or both")
    if args.witness_out and args.engine == "game":
        raise InputError("--witness-out needs the measure engine: use --engine measure or both")
    if args.table_out and args.witness_out and _one_file(args.table_out, args.witness_out):
        raise InputError(f"--table-out and --witness-out name one file, {args.witness_out}: give each its own")
    for flag, out in (("--table-out", args.table_out), ("--witness-out", args.witness_out)):
        # An output not there yet is not the event, which is read: one stat instead of two realpath walks.
        if out and os.path.exists(out) and _one_file(out, args.event):
            raise InputError(f"{flag} names the event file, {out}: write it elsewhere")
    text, digest = _read(args.event)
    event = event_from_json(text)
    report = Report("value", inputs={"event": args.event, "digest": digest, "engine": args.engine})
    if args.engine in ("game", "both"):
        report.results["upper_game"] = gameprob.upper_game_probability(event)
        if args.table_out:
            report.files[args.table_out] = gameprob.witness_superfarthingale(event).to_json()
            report.results["table_out"] = args.table_out
    if args.engine in ("measure", "both"):
        value, witness = measureprob.measure_upper_probability(event)
        report.results["upper_measure"] = value
        report.results["witness_system"] = Written(witness.to_json((",", ":")))
        if args.witness_out:
            report.files[args.witness_out] = witness.to_json()
            report.results["witness_out"] = args.witness_out
    if args.engine == "both":
        equal = report.results["upper_game"] == report.results["upper_measure"]
        report.add_check(
            "game_equals_measure",
            equal,
            "engines agree exactly" if equal else
            f"game {report.results['upper_game']} != measure {report.results['upper_measure']}",
        )
    return report


def cmd_counterexample(args) -> Report:
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
    return report


def cmd_test_stream(args) -> Report:
    if args.horizon is not None and args.horizon < 1:
        raise InputError(f"-N must be a positive integer, got {args.horizon}")
    text, digest = _read(args.stream)
    rows, counted = strategies.count_stream_csv(text, args.horizon)
    if not rows:
        raise InputError("stream has no rows")
    horizon = rows if args.horizon is None else args.horizon
    if rows < horizon:
        raise InputError(f"stream has {rows} rows, need {horizon}")
    threshold_c = as_fraction(args.threshold_c)
    start = strategies.CalibrationState(horizon, threshold_c)
    state = strategies.calibration_fold_counts(start, counted)
    verdict = strategies.calibration_verdict(state)
    report = Report(
        "test-stream",
        inputs={
            "stream": args.stream,
            "digest": digest,
            "N": horizon,
            "C": threshold_c,
        },
        rejected=verdict.reject,
    )
    report.results["bias_sum"] = state.bias
    report.results["initial_capital"] = start.capital
    report.results["final_capital"] = state.capital
    report.results["capital_ratio"] = verdict.ratio
    report.results["verdict"] = "reject" if verdict.reject else "no_reject"
    return report


# Strategy name -> its start value at a horizon.
_STRATEGIES = {
    "constant": lambda horizon: strategies.ConstantStrategy(),
    "doubling": lambda horizon: strategies.DoublingStrategy(),
    "calibration": lambda horizon: strategies.CalibrationStrategy(horizon, Fraction(1)),
}


def cmd_ville(args) -> Report:
    seed = _default_seed(args)
    if args.phi:
        if args.horizon is not None:
            raise InputError("-N sets the default system's horizon; a --phi system has its own")
        phi = ForecastingSystem.from_json(_read(args.phi)[0])
    else:
        phi = ForecastingSystem.constant(Fraction(1, 2), 10 if args.horizon is None else args.horizon)
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
    return report


def cmd_duality_sweep(args) -> Report:
    if args.count < 1:
        raise InputError(f"--count must be a positive integer, got {args.count}")
    if args.count > SWEEP_LIMIT:
        raise InputError(f"--count must be at most {SWEEP_LIMIT}, got {args.count}")
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
    return report


def cmd_levy_trace(args) -> Report:
    seed = _default_seed(args)
    text, digest = _read(args.event)
    event = event_from_json(text)
    threshold = as_fraction(args.threshold)
    report = Report(
        "levy-trace",
        inputs={
            "event": args.event,
            "digest": digest,
            "threshold": threshold,
        },
    )
    if args.stream:
        stream = strategies.parse_stream_csv(_read(args.stream)[0])[: event.horizon]
        report.inputs["stream"] = args.stream
    else:
        value, witness = measureprob.measure_upper_probability(event)
        if value == 0:
            raise InputError("event has upper probability 0; no member to sample")
        report.seed = seed
        draws = 1000
        for attempt in range(draws):
            omega = sample_outcomes(witness, event.horizon, seed + attempt)
            candidate = induced_path(witness, omega)
            if contains(event, candidate):
                stream = list(candidate)
                break
        else:
            raise InputError(
                f"no event member in {draws} draws from the witness system (upper probability "
                f"{_render(value, 'the upper probability')}); give a member with --stream"
            )
    state = gameprob.LevyStrategy.start(event, threshold)
    trajectory = [state.capital]
    for p, y in stream:
        state = state.step(p, y)
        trajectory.append(state.capital)
    report.results["capital_trajectory"] = trajectory
    report.results["final_capital"] = state.capital
    report.results["milestones"] = list(state.milestones)
    report.results["final_conditional"] = state.conditional
    return report


def cmd_verify(args) -> Report:
    text, digest = _read(args.value_function)
    vf = gameprob.ValueFunction.from_json(text)
    _, violations = strategies.check_farthingale(vf, args.mode)
    report = Report(
        "verify",
        inputs={
            "value_function": args.value_function,
            "digest": digest,
            "mode": args.mode,
        },
    )
    report.results["nodes"] = len(vf.values)
    report.results["violations"] = len(violations)
    details = []
    if violations:
        path, p = violations[0]
        details.append(f"first violation at node '{gameprob.encode_cell_path(path)}' p={p}")
    # A table certifies an upper probability only as a non-negative (super)farthingale.
    graph = vf.values
    negative = [{state: v for state, v in enumerate(level) if v < 0} for level in graph.levels]
    depth = next((d for d, marked in enumerate(negative) if marked), None)
    if depth is not None:
        path, value = graph.marked_nodes(negative[: depth + 1])[0]
        details.append(f"negative value {value} at node '{gameprob.encode_cell_path(path)}'")
    report.add_check(f"{args.mode}_farthingale", not details, "; ".join(details))
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``preq`` parser, built at the first call and shared by later ones.

    ``parse_args`` returns a fresh namespace per call, so no option carries
    over from one ``main`` call to the next.  Its ``commands`` maps each
    subcommand to its own parser.
    """
    parser = _Parser(
        prog="preq",
        description="Exact finite-horizon prequential probability toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.commands = sub.choices

    def common(p, seed=False):
        p.add_argument("--json", action="store_true", help="emit a machine-readable report")
        if seed:
            p.add_argument(
                "--seed", type=_int_option, default=None, help="non-negative RNG seed (default: $PREQ_SEED or 0)"
            )

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
    p.add_argument("-N", dest="horizon", type=_int_option, default=None, help="test horizon (default: stream length)")
    p.add_argument("-C", dest="threshold_c", default="1", help="bias threshold C (rational, default 1)")
    common(p)
    p.set_defaults(func=cmd_test_stream)

    p = sub.add_parser("ville", help="empirical capital/probability inequality check")
    p.add_argument("--phi", default=None, help="forecasting system JSON (default: constant 1/2)")
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="doubling")
    p.add_argument("-C", dest="threshold_c", default="4", help="capital threshold (rational, default 4)")
    p.add_argument("-N", dest="horizon", type=_int_option, default=None, help="default system's horizon (default 10)")
    p.add_argument("--samples", type=_int_option, default=10000)
    common(p, seed=True)
    p.set_defaults(func=cmd_ville)

    p = sub.add_parser("duality-sweep", help="game vs measure equality on random events")
    p.add_argument("--count", type=_int_option, default=200)
    p.add_argument("--grid", type=_int_option, default=None, help="also bound-check the grid oracle with this k")
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


def _open_all(paths) -> list:
    """A handle on each of ``paths``, opened for appending before any is written, so none is truncated yet.

    If one fails to open, the others are closed and the files this call
    created are removed before the error propagates, so every path is left
    as it was.
    """
    opened = []  # (handle, created)
    try:
        for path in paths:
            created = not os.path.lexists(path)
            opened.append((open(path, "a", encoding="utf-8"), created))
    finally:
        if len(opened) < len(paths):
            for handle, created in opened:
                handle.close()
                if created:
                    os.remove(handle.name)
    return [handle for handle, _ in opened]


def main(argv=None) -> int:
    argv, parser = sys.argv[1:] if argv is None else argv, build_parser()
    # A leading subcommand's parser reads the rest: the top-level pass would only find it and hand the rest on.
    command = parser.commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    try:
        report = args.func(args)
        # Rendered whole first, so a value that cannot be printed writes and prints nothing.
        text = report.to_json() if args.json else report.to_text()
        for handle, contents in zip(_open_all(report.files), report.files.values()):
            with handle:
                if handle.seekable() and handle.tell():  # an existing file's old bytes; a device has none
                    handle.truncate(0)
                handle.write(contents)
        sys.stdout.write(text)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the `preq` command on seeded corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nothing is installed.  A run builds the workload's
corpus for the seed (see corpus.py), then executes its operations one after
another in this process, a closed loop with one client and no think time:
each operation is an in-process call to ``preqprob.cli.main(argv)`` with
standard output captured, or, for the calibration-table operation, the
library calls it stands for.  Every output is checked, and the last line
printed is one JSON object with the metrics.

Times are normalised to a reference speed.  Shared 2-vCPU VMs change speed
by up to a quarter within seconds, for every process alike, so a fixed
stdlib workload (``reference_work``) is timed before every operation and each
operation's wall time is multiplied by REF_NOMINAL_NS over the median of the
reference times next to it.  A normalised millisecond is a millisecond at the
speed at which ``reference_work`` takes REF_NOMINAL_NS.  Raw wall times are
printed on the line above the result.

With ``--trace 1`` the run executes the corpus twice, first untraced (for
the tracing overhead) and then, after clearing the program's function caches,
with spans around the program's public functions (see spans.py), and reports
the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import corpus
import spans

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
PINS = Path(__file__).resolve().parent / "pins.json"

# Time of reference_work on an uncontended 2-vCPU x86-64 VM under Python 3.11.
REF_NOMINAL_NS = 520_000
SETUP_REPEATS = 9
MODULES = ("cli", "core", "events", "gameprob", "measureprob", "strategies")


def reference_work():
    """Fixed stdlib work of the kind the program does: exact rationals, frozensets, dicts."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 90):
        f = Fraction(i, i + 7)
        acc += f * Fraction(3, i + 1)
        key = frozenset((i % 5, i % 7, i % 11))
        seen[key] = seen.get(key, 0) + (f < acc)
    return acc, len(seen)


class Speedometer:
    """Reference timings taken between operations, with the time each started."""

    def __init__(self):
        self.starts: list = []
        self.samples: list = []

    def sample(self):
        start = time.perf_counter_ns()
        reference_work()
        self.samples.append(time.perf_counter_ns() - start)
        self.starts.append(start)

    def scale(self, start: int, end: int) -> float:
        """REF_NOMINAL_NS over the median reference time around the interval start..end (ns).

        The window holds the samples just before and just after the interval
        and all within the interval's length of either end.  Speed changes
        within tens of milliseconds, so a short operation is scaled by its
        two neighbours only; a long one by the speed over a stretch as long
        as itself.
        """
        reach = end - start
        first = min(bisect.bisect_left(self.starts, start - reach), bisect.bisect_left(self.starts, start) - 1)
        last = max(bisect.bisect_right(self.starts, end + reach), bisect.bisect_left(self.starts, end) + 1)
        return REF_NOMINAL_NS / statistics.median(self.samples[max(first, 0) : last])


def load_program() -> dict:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        program = {name: importlib.import_module(f"preqprob.{name}") for name in MODULES}
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import preqprob from {src}: {exc}")
    if src not in Path(program["cli"].__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported {program['cli'].__file__}, not the checkout in {ROOT}")
    return program


def clear_caches(program: dict):
    """Empty every functools cache of the program's modules, such as ``gameprob._engine``."""
    for module in program.values():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


# ---------------------------------------------------------------- set-up

# Imports the program in a fresh interpreter; prints its start and end (ns).
TIME_IMPORT = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter_ns()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module('preqprob.' + name)\n"
    "print(start, time.perf_counter_ns())\n"
)


def import_seconds(speed: Speedometer) -> list:
    """Normalised seconds of SETUP_REPEATS imports of the program, each in a fresh interpreter.

    The program's set-up is its import: the modules and the standard library
    they pull in.  The child's clock is the same monotonic clock as ours.
    """
    seconds = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        child = subprocess.run([sys.executable, "-I", "-c", TIME_IMPORT, str(ROOT / "src"), *MODULES],
                               capture_output=True, text=True, timeout=60, check=True)
        speed.sample()
        start, end = map(int, child.stdout.split())
        seconds.append((end - start) / 1e9 * speed.scale(start, end))
    return seconds


def write_corpus(workload: str, key: str, n_ops: int, work: Path):
    """Build the corpus twice, require identical bytes, write its input files to ``work``."""
    body = corpus.build(workload, key, n_ops)
    if corpus.build(workload, key, n_ops).digest() != body.digest():
        raise SystemExit(f"perfbench: corpus generation is not deterministic for {workload}/{key}")
    keys = body.event_keys()
    if len(set(keys)) != len(keys):
        raise SystemExit("perfbench: an event repeats; the game engine's cache would serve it")
    for name, data in body.files.items():
        (work / name).write_bytes(data)
    return body


# ---------------------------------------------------------------- operations


def calibration_table(strategies, expect) -> str:
    """The library path of the calibration witness: capital table, then exact check."""
    horizon = expect["horizon"]
    table = strategies.strategy_value_table(
        lambda: strategies.CalibrationStrategy(horizon, Fraction(1)), horizon, expect["grid"]
    )
    ok, violations = strategies.check_farthingale(table, "exact")
    return json.dumps({"ok": ok, "violations": len(violations), "nodes": len(table.values),
                       "root": str(table.values[()])}, sort_keys=True)


def execute(op, work: str, main, strategies) -> tuple:
    """Run one operation; return (exit code or None, stdout, error text, start ns, wall ns)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter_ns()
    try:
        if op.kind == "calibration-table":
            out.write(calibration_table(strategies, op.expect))
            code = 0
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([arg.replace("{work}", work) for arg in op.argv])
    except SystemExit as exc:  # argparse rejecting the argv
        code, error = exc.code, err.getvalue()
    except Exception as exc:  # any raise out of the program is a failed operation
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), error, start, elapsed


def check(op, code, out: str) -> str | None:
    """Why the output of ``op`` is wrong, or None."""
    expect = op.expect
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    if code not in (0, 3):
        return "report printed on an input error" if out else None
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if op.kind == "calibration-table":
        want = {"ok": True, "violations": 0, "nodes": expect["nodes"], "root": str(expect["root"])}
        return None if doc == want else f"table {doc}, expected {want}"
    failed = [c["name"] for c in doc.get("checks", []) if c["status"] != "PASS"]
    if failed:
        return f"failed checks {failed}"
    results = doc["results"]
    if op.kind.startswith("value-"):
        engine = op.kind[len("value-"):]
        names = {"game": ["upper_game"], "measure": ["upper_measure"],
                 "both": ["upper_game", "upper_measure"]}[engine]
        if engine == "both" and [c["name"] for c in doc["checks"]] != ["game_equals_measure"]:
            return "engine agreement was not checked"
        for name in names:
            value = Fraction(results[name])
            if "exact" in expect and value != expect["exact"]:
                return f"{name} {value}, analytic value {expect['exact']}"
            if not expect["lo"] <= value <= expect["hi"]:
                return f"{name} {value} outside [{expect['lo']}, {expect['hi']}]"
    elif op.kind == "levy-trace":
        path = [Fraction(v) for v in results["capital_trajectory"]]
        if len(path) != expect["horizon"] + 1 or path[0] != 1 or min(path) < 0:
            return f"capital trajectory {results['capital_trajectory']}"
    elif op.kind == "verify":
        if (results["nodes"], results["violations"]) != (expect["nodes"], 0):
            return f"{results['nodes']} nodes, {results['violations']} violations; expected {expect['nodes']}, 0"
    elif op.kind == "ville":
        if abs(float(results["bound"]) - float(expect["bound"])) > 1e-12:
            return f"bound {results['bound']}, expected {float(expect['bound'])}"
    elif op.kind == "test-stream":
        for name in ("bias_sum", "final_capital", "verdict"):
            if results[name] != str(expect[name]):
                return f"{name} {results[name]}, expected {expect[name]}"
    return None


class Pass:
    """One pass over a corpus: latencies of the timed operations, output digest, failures."""

    def __init__(self):
        self.wall_ns: list = []
        self.scaled_ns: list = []
        self.failures: list = []
        self.outputs = hashlib.sha256()

    @property
    def ops_per_s(self) -> float:
        return len(self.scaled_ns) / (sum(self.scaled_ns) / 1e9)


def run_pass(body, work: Path, program, speed: Speedometer, tracer=None) -> Pass:
    main, strategies = program["cli"].main, program["strategies"]
    patches = None
    if tracer is not None:
        main = tracer.wrap("cli.main", main)
        patches = spans.instrument(tracer, program)
    result = Pass()
    starts, walls = [], []
    try:
        for index, op in enumerate(body.ops):
            speed.sample()
            code, out, error, start, elapsed = execute(op, str(work), main, strategies)
            starts.append(start)
            walls.append(elapsed)
            if tracer is not None:
                spans.count_report(tracer, out)
                tracer.end_op()
            result.outputs.update(f"{op.kind} exit={code}\n".encode())
            result.outputs.update(out.replace(str(work), "{work}").encode())
            try:
                problem = error or check(op, code, out)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"report lacks an expected field: {exc!r}"
            if problem:
                result.failures.append(f"op {index} {op.kind} {op.argv}: {problem}")
    finally:
        if patches is not None:
            patches.restore()
    speed.sample()
    scales = [speed.scale(start, start + wall) for start, wall in zip(starts, walls)]
    if tracer is not None:
        tracer.scales = scales
    for op, wall, scale in zip(body.ops, walls, scales):
        if op.timed:
            result.wall_ns.append(wall)
            result.scaled_ns.append(wall * scale)
    return result


TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)


def tail(values) -> tuple:
    """The highest of TAIL_PERCENTILES with at least ten values above it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    percentile = max([p for p in TAIL_PERCENTILES if n - math.ceil(n * p / 100) >= 10],
                     default=50.0)
    return ordered[math.ceil(n * percentile / 100) - 1], percentile


def pinned_digest(workload: str, seed: int, seconds: int) -> str | None:
    pins = json.loads(PINS.read_text())
    if (pins["seed"], pins["seconds"]) != (seed, seconds):
        return None
    return pins["outputs_sha256"].get(workload)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def benchmark(args) -> dict:
    speed = Speedometer()
    speed.sample()  # the first run of reference_work is slower than the rest
    speed.sample()
    program = load_program()  # also compiles the modules once, before their imports are timed
    setup_s = statistics.median(import_seconds(speed))

    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE))
    try:
        body = write_corpus(args.workload, str(args.seed), corpus.op_count(args.workload, args.seconds), work)
        baseline = tracer = None
        if args.trace:
            baseline = run_pass(body, work, program, speed)
            clear_caches(program)  # so the traced pass computes what the untraced one did
            tracer = spans.Tracer()
        timed = run_pass(body, work, program, speed, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = timed.outputs.hexdigest()
    pin = pinned_digest(args.workload, args.seed, args.seconds)
    failures = timed.failures + (baseline.failures if baseline else [])
    if baseline is not None and baseline.outputs.hexdigest() != digest:
        failures.append("the untraced and the traced pass gave different outputs")
    for line in failures[:10]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    correct = not failures and pin in (None, digest)
    if pin not in (None, digest):
        print(f"perfbench: output digest {digest} differs from the pinned {pin}", file=sys.stderr)

    n = len(timed.scaled_ns)
    tail_ms, tail_pct = tail(timed.scaled_ns)
    raw_tail, _ = tail(timed.wall_ns)
    print(f"perfbench {args.workload} seed={args.seed} ops={len(body.ops)} timed={n} "
          f"corpus={body.digest()[:16]} "
          f"outputs_sha256={digest} pinned={'none' if pin is None else pin == digest}")
    print(f"reference speed: median scale {statistics.median(s / w for s, w in zip(timed.scaled_ns, timed.wall_ns)):.4f}; "
          f"raw wall: ops_per_s={n / (sum(timed.wall_ns) / 1e9):.4f} "
          f"op_p50_ms={statistics.median(timed.wall_ns) / 1e6:.4f} op_tail_ms={raw_tail / 1e6:.4f}; "
          f"tail percentile p{tail_pct:.2f} of {n} ops")

    if args.trace:
        metrics = spans.layer_metrics(tracer)
        metrics["trace_overhead"] = metric(baseline.ops_per_s / timed.ops_per_s, "ratio")
        tracer.write(STATE / f"trace-{args.workload}-{args.seed}.json",
                     workload=args.workload, seed=args.seed, ops=n)
    else:
        metrics = {
            "ops_per_s": metric(timed.ops_per_s, "1/s"),
            "op_p50_ms": metric(statistics.median(timed.scaled_ns) / 1e6, "ms"),
            "op_tail_ms": metric(tail_ms / 1e6, "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {"correct": correct, "attempted": len(body.ops), "failed": len(timed.failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(benchmark(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded corpora of `preq` operations, one per workload.

A corpus is a list of operations plus the input files they read.  It depends
only on the workload name, a string key derived from the seed and the
operation count: the same arguments give byte-identical corpora.  Events,
forecasting systems and streams are generated and serialised here, in the
documented file formats, without calling the program, so a change to the
program cannot change its own inputs.

Every operation carries what the runner needs to check its output: the exit
code it must return, the analytic value of single-box events, the value bounds
of box unions, and reference results computed here with exact arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

WORKLOADS = ("duality", "horizon", "witness", "streams")

# Operations per second of --seconds: about the rate of the seed code on a
# 2-vCPU VM, so that a run takes about --seconds there.  A faster program
# finishes the same corpus sooner.
OPS_PER_SECOND = {"duality": 35, "horizon": 20, "witness": 60, "streams": 20}

# Size bands of generated events: boxes x total partition cells for duality,
# nodes of the value table for witness (one band per operation pair, in turn).
DUALITY_SIZE = (380, 560)
DUALITY_LARGE = (800, 1000)
WITNESS_NODES = ((500, 800), (800, 1200), (1200, 1800))

# Horizon of the game-engine operations of the horizon workload; the engine
# recurses once per step, so this stays well below the recursion limit.
LONG_HORIZON = 400

# Horizon at which the measure engine's forecasting-system table is refused
# (exit 2); one such operation sits in every horizon corpus.
TABLE_LIMIT_HORIZON = 17

# An event is a tuple of boxes, a box a tuple of step constraints, and a step
# constraint (p_lo, p_hi, y) with y in {0, 1, None}; None is a wildcard.


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argv (file arguments as "{work}/name") or a library call.

    ``expect`` holds the exit code under "exit" plus the kind-specific
    reference data the runner checks the output against.
    """

    kind: str
    argv: tuple = ()
    expect: dict = field(default_factory=dict)
    event_key: str | None = None  # canonical event text, for the distinctness check
    timed: bool = True  # counted in the latency and throughput metrics


@dataclass
class Corpus:
    ops: list
    files: dict  # file name -> bytes

    def digest(self) -> str:
        """SHA-256 over the operations and every input file, for the byte-identity check."""
        h = hashlib.sha256()
        for op in self.ops:
            h.update(json.dumps([op.kind, op.argv, _jsonable(op.expect)], sort_keys=True).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        return h.hexdigest()

    def event_keys(self) -> list:
        return [op.event_key for op in self.ops if op.event_key is not None]


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------- events


def _rational(rng: random.Random, max_den: int) -> Fraction:
    d = rng.randint(1, max_den)
    return Fraction(rng.randint(0, d), d)


def _step(rng: random.Random, max_den: int, wildcard_share: float) -> tuple:
    if rng.random() < wildcard_share:
        return (ZERO, ONE, None)
    a = _rational(rng, max_den)
    if rng.random() < 0.3:
        lo = hi = a
    else:
        b = _rational(rng, max_den)
        lo, hi = min(a, b), max(a, b)
    return (lo, hi, rng.choice((0, 1, None)))


def random_event(rng, horizon, n_boxes, max_den, wildcard_share=0.0) -> tuple:
    return tuple(
        tuple(_step(rng, max_den, wildcard_share) for _ in range(horizon))
        for _ in range(n_boxes)
    )


def event_json(horizon: int, boxes) -> str:
    doc = {
        "horizon": horizon,
        "boxes": [
            {"steps": [{"p": [str(lo), str(hi)], "y": "*" if y is None else y} for lo, hi, y in box]}
            for box in boxes
        ],
    }
    return json.dumps(doc, sort_keys=True)


def box_value(box) -> Fraction:
    """Upper probability of a single box: the forecaster maximises each step on its own."""
    value = ONE
    for lo, hi, y in box:
        if y == 1:
            value *= hi
        elif y == 0:
            value *= ONE - lo
    return value


def value_bounds(boxes) -> tuple:
    """Bounds on the upper probability of a box union: monotone and subadditive."""
    values = [box_value(box) for box in boxes]
    return max(values), min(ONE, sum(values))


def cell_counts(horizon: int, boxes) -> list:
    """Cells per step of the forecast-axis partition the value tables are indexed by.

    Pieces are the endpoints and the open gaps between them; adjacent pieces
    on which every box's interval test agrees merge into one cell.  Endpoints
    are scaled to integers (times twice their common denominator), so that
    endpoints and gap midpoints compare without rationals.
    """
    scale = 2 * math.lcm(*(p.denominator for box in boxes for lo, hi, _y in box for p in (lo, hi)))
    counts = []
    for depth in range(horizon):
        intervals = [(int(box[depth][0] * scale), int(box[depth][1] * scale)) for box in boxes]
        points = sorted({0, scale, *(p for iv in intervals for p in iv)})
        reps = [points[0]]
        for a, b in zip(points, points[1:]):
            reps += [(a + b) // 2, b]
        signatures = [tuple(lo <= r <= hi for lo, hi in intervals) for r in reps]
        counts.append(1 + sum(a != b for a, b in zip(signatures, signatures[1:])))
    return counts


def tree_nodes(cells_per_step) -> int:
    """Nodes of the cell-indexed tree: one per (cell, bit) path of every length."""
    total, level = 1, 1
    for cells in cells_per_step:
        level *= 2 * cells
        total += level
    return total


# ---------------------------------------------------------------- builders


class _Builder:
    def __init__(self, workload: str, key: str):
        self.rng = random.Random(f"perfbench/{workload}/{key}")
        self.ops: list = []
        self.files: dict = {}
        self.events: set = set()
        self.names = 0

    def path(self, stem: str, suffix: str, text: str | None = None) -> str:
        """A fresh file argument; its content is written at set-up unless ``text`` is None."""
        self.names += 1
        name = f"{stem}{self.names:05d}{suffix}"
        if text is not None:
            self.files[name] = text.encode()
        return "{work}/" + name

    def event(self, horizon: int, boxes) -> tuple:
        """Write an event file unless an equal event exists; return (path, key) or None."""
        text = event_json(horizon, boxes)
        if text in self.events:
            return None
        self.events.add(text)
        return self.path("e", ".json", text), text

    def value_op(self, horizon, boxes, engine, extra=(), timed=True, **expect):
        written = self.event(horizon, boxes)
        if written is None:
            return None
        path, key = written
        lo, hi = value_bounds(boxes)
        expect = {"exit": 0, "lo": lo, "hi": hi, **expect}
        if len(boxes) == 1:
            expect["exact"] = lo
        op = Op("value-" + engine, ("value", "--event", path, "--engine", engine, *extra, "--json"),
                expect, key, timed)
        self.ops.append(op)
        return op


def _duality(b: _Builder, n: int):
    # In tens: one single-box event, one large event, eight standard ones.
    # The large events are a tenth of the operations, so the 95th latency
    # percentile falls inside their group, not on a few extreme events.
    rng = b.rng
    while len(b.ops) < n:
        slot = len(b.ops) % 10
        if slot == 4:
            b.value_op(6, random_event(rng, 6, 1, 12), "both")
            continue
        if slot == 9:
            horizon, n_boxes, (low, high) = 7, rng.randint(10, 12), DUALITY_LARGE
        else:
            horizon, n_boxes, (low, high) = 6, rng.randint(6, 9), DUALITY_SIZE
        boxes = random_event(rng, horizon, n_boxes, 12)
        # Engine time tracks boxes x partition cells; the band keeps it regular.
        if low <= n_boxes * sum(cell_counts(horizon, boxes)) <= high:
            b.value_op(horizon, boxes, "both")


def _positive_union(rng, horizon, max_den, wildcard_share):
    """A three-box union one of whose boxes has upper probability at least 1/10."""
    while True:
        boxes = random_event(rng, horizon, 3, max_den, wildcard_share)
        if value_bounds(boxes)[0] >= Fraction(1, 10):
            return boxes


def _long_union(rng, horizon: int) -> tuple:
    """Three boxes, box j constrained at steps j and horizon-1-j only.

    Past step 3 every subset of the boxes is a reachable live-set, so the game
    engine's work is the same for every such event of a given horizon.
    """
    boxes = []
    for j in range(3):
        steps = [(ZERO, ONE, None)] * horizon
        for position in (j, horizon - 1 - j):
            lo, hi, _y = _step(rng, 8, 0.0)
            steps[position] = (lo, hi, rng.choice((0, 1)))
        boxes.append(tuple(steps))
    return tuple(boxes)


def _horizon(b: _Builder, n: int):
    # In tens: five value and four levy-trace operations at horizon 10, then
    # one game operation at horizon 400.  The game operations cost the most
    # and vary the least, and are a tenth of the operations, so the 95th
    # latency percentile falls in the middle of their group.
    rng = b.rng
    while len(b.ops) < n:
        slot = len(b.ops)
        if slot == n // 2:
            # Its 4-5 s swing by a sixth with memory contention, which the
            # reference loop does not track, so it is checked and shows in
            # peak_rss_mb and the traced layers, but not in the latencies.
            boxes = random_event(rng, TABLE_LIMIT_HORIZON, 2, 8, 0.8)
            b.value_op(TABLE_LIMIT_HORIZON, boxes, "measure", timed=False, exit=2)
        elif slot % 10 < 5:
            boxes = (
                random_event(rng, 10, 1, 8, 0.6)
                if slot % 30 == 0
                else _positive_union(rng, 10, 8, 0.7)
            )
            b.value_op(10, boxes, "both")
        elif slot % 10 < 9:
            written = b.event(10, _positive_union(rng, 10, 8, 0.7))
            if written is not None:
                path, key = written
                seed = rng.randrange(10**6)
                b.ops.append(
                    Op(
                        "levy-trace",
                        ("levy-trace", "--event", path, "--seed", str(seed), "--json"),
                        {"exit": 0, "horizon": 10},
                        key,
                    )
                )
        else:
            b.value_op(LONG_HORIZON, _long_union(rng, LONG_HORIZON), "game")


def _witness(b: _Builder, n: int):
    rng = b.rng
    while len(b.ops) < n:
        # Unions of 2-4 boxes reach the node bands at horizon 3; single boxes
        # have at most three cells per step and need horizon 4.
        if len(b.ops) % 12 == 10:
            horizon, n_boxes = 4, 1
            low, high = WITNESS_NODES[0][0], WITNESS_NODES[-1][1]
        else:
            horizon, n_boxes = 3, rng.randint(2, 4)
            low, high = WITNESS_NODES[len(b.ops) // 2 % len(WITNESS_NODES)]
        boxes = random_event(rng, horizon, n_boxes, 8)
        nodes = tree_nodes(cell_counts(horizon, boxes))
        if not low <= nodes < high:
            continue
        table = b.path("t", ".json")  # written by the value operation
        op = b.value_op(horizon, boxes, "game", ("--table-out", table))
        if op is None:
            continue
        b.ops.append(
            Op(
                "verify",
                ("verify", "--value-function", table, "--mode", "super", "--json"),
                {"exit": 0, "nodes": nodes},
            )
        )


def _stream_csv(rng, rows: int) -> tuple:
    """A CSV stream with forecasts k/20, as text and as (k, y) pairs.

    Outcomes are drawn with a per-stream bias, so that some streams are rejected.
    """
    shift = rng.choice((0, 0, 2, -2))
    lines = ["p,y"]
    pairs = []
    for _ in range(rows):
        k = rng.randint(0, 20)
        y = 1 if rng.random() * 20 < k + shift else 0
        pairs.append((k, y))
        lines.append(f"{Fraction(k, 20)},{y}")
    return "\n".join(lines) + "\n", pairs


def calibration_reference(pairs, c: Fraction) -> dict:
    """Exact calibration test of a stream of (20 p, y) pairs, computed without the program."""
    n = len(pairs)
    bias = Fraction(sum(20 * y - k for k, y in pairs), 20)
    spread = Fraction(sum(k * (20 - k) for k, _y in pairs), 400)
    quarter = Fraction(n, 4)
    final = (bias**2 - spread + quarter) / (c**2 * n + quarter)
    reject = bias**2 >= c**2 * n
    return {"exit": 3 if reject else 0, "bias_sum": bias, "final_capital": final,
            "verdict": "reject" if reject else "no_reject"}


def _phi_json(rng, horizon: int) -> str:
    table = {}
    level = [""]
    for _ in range(horizon):
        for history in level:
            table[history] = str(_rational(rng, 8))
        level = [h + bit for h in level for bit in "01"]
    return json.dumps({"horizon": horizon, "table": table}, sort_keys=True)


def _streams(b: _Builder, n: int):
    # Sizes cycle through fixed lists, so every seed gets the same mix of sizes.
    rng = b.rng
    while len(b.ops) < n:
        slot, turn = len(b.ops) % 5, len(b.ops) // 5
        if slot == 0:
            threshold = (2, 4, 8)[turn // 3 % 3]
            argv = ("ville", "--strategy", "doubling", "-N", str((6, 7, 8)[turn % 3]),
                    "-C", str(threshold), "--samples", "200",
                    "--seed", str(rng.randrange(10**6)), "--json")
            b.ops.append(Op("ville", argv, {"exit": 0, "bound": Fraction(1, threshold)}))
        elif slot in (1, 2):
            horizon = (5, 6)[turn % 2]
            system = ("-N", str(horizon))
            if slot == 2:
                system = ("--phi", b.path("phi", ".json", _phi_json(rng, horizon)))
            argv = ("ville", "--strategy", "calibration", *system, "--samples", "150",
                    "--seed", str(rng.randrange(10**6)), "--json")
            # Calibration capital starts at (N/4) / (N + N/4) = 1/5; the threshold is 4.
            b.ops.append(Op("ville", argv, {"exit": 0, "bound": Fraction(1, 20)}))
        elif slot == 3:
            text, pairs = _stream_csv(rng, (500, 1000, 1500, 2000)[turn % 4])
            c = (Fraction(1, 2), ONE, Fraction(2))[turn % 3]
            path = b.path("s", ".csv", text)
            argv = ("test-stream", "--stream", path, "-C", str(c), "--json")
            b.ops.append(Op("test-stream", argv, calibration_reference(pairs, c)))
        else:
            # The largest tables, (3, 1), are a tenth of the operations, so the
            # 95th latency percentile falls inside their group, not at its edge.
            horizon, size = ((2, 2), (3, 1), (2, 4), (3, 1))[turn % 4]
            grid = sorted(Fraction(k, 8) for k in rng.sample(range(1, 8), size))
            cells = 2 * (size + 2) - 1
            b.ops.append(
                Op(
                    "calibration-table",
                    (),
                    {"exit": 0, "horizon": horizon, "grid": grid,
                     "nodes": tree_nodes([cells] * horizon), "root": Fraction(1, 5)},
                )
            )


_BUILDERS = {"duality": _duality, "horizon": _horizon, "witness": _witness, "streams": _streams}


def op_count(workload: str, seconds: int) -> int:
    return max(40, round(seconds * OPS_PER_SECOND[workload]))


def build(workload: str, key: str, n_ops: int) -> Corpus:
    """The corpus of ``n_ops`` operations for a workload and seed key."""
    builder = _Builder(workload, key)
    _BUILDERS[workload](builder, n_ops)
    return Corpus(builder.ops, builder.files)

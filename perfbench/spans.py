"""Spans around calls into the program's modules, from the benchmark's side.

The tracer replaces public functions at the binding sites their callers use
(module globals such as ``strategies.sample_outcomes`` and class attributes
such as ``ForecastingSystem.from_table``) with wrappers that record a span per
call.  Spans with the same name under the same parent span are folded into
one node that keeps their call count and summed duration, so a run holds a
few nodes per operation however many times a per-step function is called.
Each node has a parent, and a layer's self time is its duration minus the
durations of its children.

Nothing inside the program is changed; binding sites a program version lacks
are skipped and listed in the trace file.
"""

from __future__ import annotations

import json
import time

ROOT = "<op>"


class Tracer:
    """Folded span trees, one per operation, kept in memory until written."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.ops: list = []  # per operation: its nodes
        self.scales: list = []  # per operation: factor its durations are multiplied by
        self.counts: dict = {}
        self.maxima: dict = {}
        self.missing: list = []
        self._begin()

    def _begin(self):
        self.nodes = [[ROOT, -1, 0, 0]]  # name, parent index, calls, total ns
        self._index: dict = {}
        self._stack = [0]

    def end_op(self):
        self.ops.append(self.nodes)
        self._begin()

    def count(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value: int):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recording a span named ``name``; ``counter(tracer, args, result)`` runs after it."""

        def traced(*args, **kwargs):
            parent = self._stack[-1]
            index = self._index.get((parent, name))
            if index is None:
                index = self._index[(parent, name)] = len(self.nodes)
                self.nodes.append([name, parent, 0, 0])
            self._stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                node = self.nodes[index]
                node[3] += self.clock() - start
                node[2] += 1
                self._stack.pop()
            if counter is not None:
                try:
                    counter(self, args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # A program version with other return shapes loses the count, not the call.
                    if f"count of {name}" not in self.missing:
                        self.missing.append(f"count of {name}")
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, name: str, fn):
        """``fn`` counting its calls without a span, for functions called per tree node."""

        def counted(*args, **kwargs):
            self.count(name, 1)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def self_ms(self) -> dict:
        """Scaled self time per span name in milliseconds, summed over operations."""
        totals: dict = {}
        for scale, nodes in zip(self.scales, self.ops):
            for name, ns in self_times(nodes).items():
                totals[name] = totals.get(name, 0.0) + ns * scale / 1e6
        return totals

    def write(self, path, **header):
        doc = {
            **header,
            "missing_binding_sites": self.missing,
            "node_fields": ["name", "parent", "calls", "total_ns"],
            "ops": [{"scale": scale, "nodes": nodes} for scale, nodes in zip(self.scales, self.ops)],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def self_times(nodes) -> dict:
    """Self time per name: each node's total minus its children's totals."""
    children = [0] * len(nodes)
    for name, parent, _calls, total in nodes:
        if parent >= 0:
            children[parent] += total
    result: dict = {}
    for (name, _parent, _calls, total), inner in zip(nodes, children):
        if name != ROOT:
            result[name] = result.get(name, 0) + total - inner
    return result


class Patches:
    """Replaced attributes, restored in reverse order by ``restore``."""

    def __init__(self):
        self._saved: list = []

    def replace(self, owner, attr: str, make) -> bool:
        """Set ``owner.attr`` to ``make(original)``; False if the program has no such attribute."""
        raw = owner.__dict__.get(attr)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)
        return True

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _cells(t, args, partitions):
    t.count("events.cells", sum(len(p.cells) for p in partitions))


def _game_value(t, args, value):
    t.maximum("gameprob.value_bits", _bits(value))


def _witness_nodes(t, args, table):
    t.count("gameprob.witness_nodes", len(table.values))


def _leaves(doc) -> int:
    """Number of scalar values in a JSON document."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return sum(_leaves(value) for value in doc)
    return 1


def count_report(tracer: Tracer, out: str):
    """Count a report's bytes and the values of the witness system it prints, if any."""
    tracer.count("cli.report_bytes", len(out.encode()))
    try:
        system = json.loads(out)["results"]["witness_system"]
    except (ValueError, KeyError, TypeError):
        return
    tracer.count("measureprob.witness_entries", _leaves(system))


def _certify_histories(t, args, result):
    t.count("strategies.certify_histories", 2 ** (args[1].horizon + 1) - 1)


def _check_nodes(t, args, result):
    t.count("strategies.check_nodes", len(args[0].values))


def instrument(tracer: Tracer, program) -> Patches:
    """Wrap every traced binding site of ``program`` (a dict of its modules)."""
    cli, core, gameprob = program["cli"], program["core"], program["gameprob"]
    measureprob, strategies = program["measureprob"], program["strategies"]
    system, table = core.ForecastingSystem, gameprob.ValueFunction
    sites = [
        (cli, "event_from_json", "events.event_from_json", None),
        (gameprob, "event_partitions", "events.event_partitions", _cells),
        (gameprob, "upper_game_probability", "gameprob.upper_game_probability", _game_value),
        (gameprob, "witness_superfarthingale", "gameprob.witness_superfarthingale", _witness_nodes),
        (table, "to_json", "gameprob.ValueFunction.to_json", None),
        (table, "from_json", "gameprob.ValueFunction.from_json", None),
        (gameprob.LevyStrategy, "start", "gameprob.LevyStrategy.start", None),
        (gameprob, "levy_strategy_step", "gameprob.levy_strategy_step", None),
        (measureprob, "measure_upper_probability", "measureprob.measure_upper_probability", None),
        (system, "from_table", "core.ForecastingSystem.from_table", None),
        (strategies, "certify_strategy", "strategies.certify_strategy", _certify_histories),
        (strategies, "ville_check", "strategies.ville_check", None),
        (strategies, "strategy_value_table", "strategies.strategy_value_table", None),
        (strategies, "check_farthingale", "strategies.check_farthingale", _check_nodes),
        (strategies, "parse_stream_csv", "strategies.parse_stream_csv", None),
        (strategies, "calibration_step", "strategies.calibration_step", None),
        (strategies, "calibration_verdict", "strategies.calibration_verdict", None),
    ]
    for module in (cli, measureprob, strategies):
        sites.append((module, "sample_outcomes", "core.sample_outcomes", None))
        sites.append((module, "induced_path", "core.induced_path", None))

    patches = Patches()
    for owner, attr, name, counter in sites:
        if not patches.replace(owner, attr, lambda fn, n=name, c=counter: tracer.wrap(n, fn, c)):
            tracer.missing.append(f"{owner.__name__}.{attr}")
    if not patches.replace(system, "forecast", lambda fn: tracer.wrap_count("core.forecast_calls", fn)):
        tracer.missing.append("ForecastingSystem.forecast")
    return patches


# Per-layer metric -> span names whose self times it sums.
LAYER_TIMES = {
    "cli.self_ms": ("cli.main",),
    "events.parse_ms": ("events.event_from_json",),
    "events.partition_ms": ("events.event_partitions",),
    "gameprob.value_ms": ("gameprob.upper_game_probability",),
    "gameprob.witness_table_ms": ("gameprob.witness_superfarthingale",),
    "gameprob.table_io_ms": ("gameprob.ValueFunction.to_json", "gameprob.ValueFunction.from_json"),
    "gameprob.levy_ms": ("gameprob.LevyStrategy.start", "gameprob.levy_strategy_step"),
    "measureprob.upper_ms": ("measureprob.measure_upper_probability",),
    "core.from_table_ms": ("core.ForecastingSystem.from_table",),
    "core.sample_ms": ("core.sample_outcomes",),
    "core.induced_path_ms": ("core.induced_path",),
    "strategies.certify_ms": ("strategies.certify_strategy",),
    "strategies.ville_self_ms": ("strategies.ville_check",),
    "strategies.value_table_ms": ("strategies.strategy_value_table",),
    "strategies.check_farthingale_ms": ("strategies.check_farthingale",),
    "strategies.stream_ms": ("strategies.parse_stream_csv", "strategies.calibration_step",
                             "strategies.calibration_verdict"),
}

LAYER_COUNTS = (
    "cli.report_bytes",
    "events.cells",
    "gameprob.witness_nodes",
    "gameprob.value_bits",
    "measureprob.witness_entries",
    "core.forecast_calls",
    "strategies.certify_histories",
    "strategies.check_nodes",
)


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric: scaled self times in ms and exact counts."""
    selfs = tracer.self_ms()
    metrics = {
        name: {"value": sum(selfs.get(span, 0.0) for span in spans), "unit": "ms"}
        for name, spans in LAYER_TIMES.items()
    }
    for name in LAYER_COUNTS:
        value = tracer.maxima.get(name, tracer.counts.get(name, 0))
        metrics[name] = {"value": value, "unit": "bits" if name.endswith("_bits") else "count"}
    return metrics

"""Farthingale machinery for testing probability-forecast streams.

A farthingale is a capital process on the prequential tree whose value at each
node equals the forecast-weighted average of its two successors; with ">=" the
gambler may discard capital (superfarthingale).  ``check_farthingale``
verifies either property exactly on a cell-indexed value table: within one
partition cell the successor values are constant, so the defining identity is
linear in the forecast and holds on the whole cell iff it holds at both cell
endpoints.

The calibration strategy realizes the finite-horizon bias test: with
S = sum(y_i - p_i) and A = sum(p_i (1 - p_i)) the process

    V_n = (S_n^2 - A_n + N/4) / (C^2 N + N/4)

is a non-negative farthingale (the conditional increment of S^2 is exactly
p(1 - p), cancelling the increment of A, for every forecast p), and whenever
|S_N| >= C sqrt(N) the final capital exceeds 4 C^2 times the initial one, so a
rejection is backed by the corresponding betting gain.  Capital never
overflows: everything is exact rational arithmetic.

S and A do not depend on the order of the pairs, so ``calibration_fold``
(what ``preq test-stream`` runs) counts the pairs of a stream by distinct
forecast and adds each distinct forecast in once, instead of stepping pair
by pair.  The tree walkers still step: ``CalibrationState.step`` builds each
new sum as one Fraction from integer numerators and denominators, and a
state's capital is computed once, on first read, and kept.

``ville_check`` verifies the capital/probability inequality empirically: a
non-negative martingale starting at v reaches C with probability at most v/C
under the measure of the forecasting system being tested.  Strategies are
certified before sampling by walking them over the system's whole outcome
tree and checking the martingale identity exactly, so ad hoc capital inflation
is refused rather than sampled.  That walk visits 2^(N+1) - 1 nodes, so both
size it with ``check_walk`` and refuse it before any strategy is built.
Sampling then steps each outcome-tree node at most once per call: the value
reached at a node is kept and shared by every later sample through it.

A strategy is a frozen value with a ``capital`` attribute (a Fraction) and a
pure ``step(p, y)`` that consumes one (forecast, outcome) pair, and nothing
else, and returns the next value.  Functions that take a strategy factory call
it once for the start value and carry values down the tree or stream:
``run_stream`` drives a strategy over a recorded stream, and
``strategy_value_table``, ``certify_strategy`` and ``ville_check`` never
replay a history from the root.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ONE,
    ZERO,
    ForecastingSystem,
    HorizonError,
    InputError,
    as_fraction,
    check_forecast,
    check_outcome,
    check_walk,
    history_at,
    induced_path,
    outcome_tree_nodes,
    reading,
    sample_outcomes,
)
from .events import point_partition
from .gameprob import CellPath, ValueFunction, cell_tree


class IncompleteTableError(InputError):
    """A value table is missing nodes required by its partitions."""


class CertificationError(InputError):
    """A strategy failed the exact martingale certification."""


class StreamFormatError(InputError):
    """A forecast/outcome stream row is malformed."""


@dataclass(frozen=True)
class CapitalProcess:
    """A betting strategy's value along a stream: initial capital, then one value per step."""

    initial_capital: Fraction
    trajectory: tuple[Fraction, ...]

    def __post_init__(self):
        if self.initial_capital < ZERO or any(v < ZERO for v in self.trajectory):
            raise InputError("capital must stay non-negative")

    @property
    def final_capital(self) -> Fraction:
        return self.trajectory[-1] if self.trajectory else self.initial_capital


def check_farthingale(vf: ValueFunction, mode: str) -> tuple[bool, list]:
    """Verify the (super)farthingale identity on a complete cell-indexed table.

    mode "exact" requires equality, "super" allows the node to dominate.
    Returns (ok, violations) with the distinct (cell-path, forecast) pairs at
    which an endpoint check failed, shortest paths first.  In "super" mode
    one endpoint decides a cell: the right-hand side v0 + p*(v1 - v0) is
    linear in p, so the node dominates it on the whole cell iff it does at hi
    when v1 > v0, at lo when v1 < v0, and anywhere when they are equal; both
    endpoints are scanned only when that test fails.  The interior nodes come
    from ``cell_tree`` over all but the last partition, and each node's
    children are read by path.
    """
    if mode not in ("exact", "super"):
        raise InputError(f"mode must be 'exact' or 'super', got {mode!r}")
    exact = mode == "exact"
    values = vf.values
    violations: list[tuple[CellPath, Fraction]] = []
    seen: set[tuple[CellPath, Fraction]] = set()
    # The state of an interior node is the cell list of its step; a root-only table has none.
    steps = [[(((ci, 0),), ((ci, 1),), cell) for ci, cell in enumerate(p.cells)] for p in vf.partitions]
    root_cells = steps[0] if steps else []

    def children(cells: list, depth: int) -> list:
        return [steps[depth + 1]] * (2 * len(cells))

    try:
        for path, cells in cell_tree(vf.partitions[:-1], root_cells, children):
            parent = values[path]
            for step0, step1, cell in cells:
                v0 = values[path + step0]
                d = values[path + step1] - v0
                if not exact:
                    top = v0 + (cell.hi if d > 0 else cell.lo) * d if d else v0
                    if parent >= top:
                        continue
                for p in cell.endpoints():
                    rhs = v0 + p * d if d else v0
                    bad = parent != rhs if exact else parent < rhs
                    if bad and (path, p) not in seen:
                        seen.add((path, p))
                        violations.append((path, p))
    except KeyError:
        raise IncompleteTableError("value table does not cover the partition tree") from None
    return not violations, violations


@dataclass(frozen=True)
class CalibrationState:
    """The calibration strategy: running sums of the test after n of N steps."""

    horizon: int
    threshold_c: Fraction
    n: int = 0
    bias: Fraction = ZERO  # sum of y_i - p_i
    spread: Fraction = ZERO  # sum of p_i (1 - p_i)

    def __post_init__(self):
        if self.horizon < 1:
            raise InputError("horizon must be a positive integer")
        if self.threshold_c <= ZERO:
            raise InputError("threshold must be positive")
        # |bias| <= n and 0 <= spread <= n/4, compared as integers (denominators are positive).
        bias, spread = self.bias, self.spread
        if abs(bias.numerator) > self.n * bias.denominator or not (
            0 <= 4 * spread.numerator <= self.n * spread.denominator
        ):
            raise InputError("inconsistent calibration sums")

    @functools.cached_property
    def capital(self) -> Fraction:
        """(bias^2 - spread + N/4) / (C^2 N + N/4), computed once per state.

        The numerator is formed on integers over the common denominator
        4 b_d^2 s_d (bias = b_n/b_d, spread = s_n/s_d) and divided by the
        scale in the one Fraction constructed.  The value is kept in the
        instance dict, outside the dataclass fields, so ==, hash and repr
        do not see it.
        """
        scale = _capital_terms(self.horizon, self.threshold_c)[1]
        bn, bd = self.bias.numerator, self.bias.denominator
        sn, sd = self.spread.numerator, self.spread.denominator
        bd2 = bd * bd
        top = 4 * bn * bn * sd - 4 * sn * bd2 + self.horizon * bd2 * sd
        return Fraction(top * scale.denominator, 4 * bd2 * sd * scale.numerator)

    def step(self, p, y) -> "CalibrationState":
        """The state after one more pair; each new sum is one Fraction built on integers.

        With p = a/q: bias' = (b_n q + (y q - a) b_d) / (b_d q) and
        spread' = (s_n q^2 + a (q - a) s_d) / (s_d q^2).
        """
        if self.n >= self.horizon:
            raise HorizonError(f"calibration horizon {self.horizon} already consumed")
        p = check_forecast(p)
        y = check_outcome(y)
        a, q = p.numerator, p.denominator
        bn, bd = self.bias.numerator, self.bias.denominator
        sn, sd = self.spread.numerator, self.spread.denominator
        q2 = q * q
        return CalibrationState(
            horizon=self.horizon,
            threshold_c=self.threshold_c,
            n=self.n + 1,
            bias=Fraction(bn * q + (y * q - a) * bd, bd * q),
            spread=Fraction(sn * q2 + a * (q - a) * sd, sd * q2),
        )


CalibrationStrategy = CalibrationState


@functools.lru_cache(maxsize=64)
def _capital_terms(horizon: int, threshold_c: Fraction) -> tuple[Fraction, Fraction]:
    """N/4 and the capital scale C^2 N + N/4, the same at every step of a test."""
    n_quarter = Fraction(horizon, 4)
    return n_quarter, threshold_c**2 * horizon + n_quarter


def calibration_step(state: CalibrationState, step) -> tuple[CalibrationState, Fraction]:
    """Consume one (forecast, outcome) pair; return the new state and its capital."""
    new = state.step(*step)
    return new, new.capital


def calibration_fold(state: CalibrationState, pairs) -> CalibrationState:
    """The state after all of ``pairs`` (a sequence), equal to stepping them one by one.

    The sums are order-free, so the pairs are counted first and each
    distinct forecast p, seen c_p times, enters once:
    bias += #ones - sum c_p p and spread += sum c_p p (1 - p).  A stream
    that repeats a few forecast values costs a few Fraction operations
    instead of several per pair.  More pairs than the horizon has left
    raise HorizonError before any work; every forecast and outcome is
    checked as ``step`` checks it, the first bad pair in stream order
    raising.
    """
    left = state.horizon - state.n
    if len(pairs) > left:
        raise HorizonError(
            f"calibration horizon {state.horizon} has {left} steps left, got {len(pairs)} pairs"
        )
    # Pairs are counted by forecast object, not value: a Fraction's hash is
    # recomputed on every call, and ``parse_stream_csv`` hands out one object
    # per distinct forecast string.  Equal forecasts held by different objects
    # (or given as "0.5" and "1/2") merge in ``counts`` once checked.
    objects = {id(p): p for p, _ in pairs}
    ones = 0
    counts: dict[Fraction, int] = {}
    for (key, y), c in collections.Counter((id(p), y) for p, y in pairs).items():
        p = check_forecast(objects[key])
        ones += check_outcome(y) * c
        counts[p] = counts.get(p, 0) + c
    bias = state.bias + ones
    spread = state.spread
    for p, c in counts.items():
        bias -= c * p
        spread += c * p * (ONE - p)
    return CalibrationState(state.horizon, state.threshold_c, state.n + len(pairs), bias, spread)


@dataclass(frozen=True)
class CalibrationVerdict:
    reject: bool
    ratio: Fraction
    bias: Fraction


def calibration_verdict(state: CalibrationState) -> CalibrationVerdict:
    """Decide the bias test after all N steps: reject iff S^2 >= C^2 N (exact).

    The capital ratio final/initial is reported; a rejection guarantees
    ratio >= 4 C^2.
    """
    if state.n != state.horizon:
        raise InputError(f"verdict needs all {state.horizon} steps, have {state.n}")
    square = state.bias**2
    n_quarter, scale = _capital_terms(state.horizon, state.threshold_c)
    reject = square >= scale - n_quarter  # C^2 N
    ratio = (square - state.spread + n_quarter) / n_quarter
    return CalibrationVerdict(reject=reject, ratio=ratio, bias=state.bias)


@dataclass(frozen=True)
class ConstantStrategy:
    """Never bets; capital is constant."""

    capital: Fraction = ONE

    def step(self, p, y) -> "ConstantStrategy":
        return self


@dataclass(frozen=True)
class DoublingStrategy:
    """All of the capital rides on outcome 1 at even odds each step.

    Capital doubles on outcome 1 and is lost on outcome 0; a martingale under
    the constant-1/2 forecasting system (and only under it, which the
    certification step enforces).
    """

    capital: Fraction = ONE

    def step(self, p, y) -> "DoublingStrategy":
        return DoublingStrategy(2 * self.capital if check_outcome(y) == 1 else ZERO)


def run_stream(strategy, stream) -> CapitalProcess:
    """Drive a strategy value over recorded (forecast, outcome) pairs.

    The strategy sees nothing but the pairs themselves (prequential
    principle).  Malformed rows raise StreamFormatError with the row index.
    """
    initial = strategy.capital
    trajectory = []
    for index, row in enumerate(stream):
        try:
            p, y = row
            p = check_forecast(p)
            y = check_outcome(y)
        except (TypeError, ValueError) as exc:
            raise StreamFormatError(f"row {index}: {exc}") from exc
        strategy = strategy.step(p, y)
        trajectory.append(strategy.capital)
    return CapitalProcess(initial, tuple(trajectory))


def strategy_value_table(strategy_factory, horizon: int, grid) -> ValueFunction:
    """Cell-indexed capital table of a stream-driven strategy on a forecast grid.

    Point cells at grid forecasts feed the strategy; on the open gaps between
    them the strategy is not consulted and capital is carried over unchanged
    (not betting is itself a farthingale move, so the table stays exact).  The
    table reproduces the strategy's capital along any stream whose forecasts
    lie on the grid and is the object ``check_farthingale`` inspects.  It is
    built along ``cell_tree``, each node's strategy value stepped into its
    children.
    """
    partition = point_partition(map(check_forecast, grid))
    partitions = tuple(partition for _ in range(horizon))

    def children(strategy, depth: int) -> list:
        return [
            strategy.step(cell.lo, bit) if cell.is_point else strategy
            for cell in partition.cells
            for bit in (0, 1)
        ]

    values = {
        path: strategy.capital
        for path, strategy in cell_tree(partitions, strategy_factory(), children)
    }
    return ValueFunction(horizon, partitions, values)


def certify_strategy(strategy_factory, phi: ForecastingSystem) -> tuple[bool, list]:
    """Exact martingale certification of a strategy under a forecasting system.

    Steps each node's strategy value into its two children under
    ``phi.forecasts()``, in ``history_at`` order, and checks
    capital(x) == (1-phi(x)) capital(x0) + phi(x) capital(x1) together with
    non-negativity.  Returns (ok, violating histories), shortest first.
    ``check_walk`` refuses a tree over the node budget with HorizonError
    before the factory is called.
    """
    forecasts = phi.forecasts()
    violations = []
    # values[k] is the strategy at node k; the loop appends its children at 2k+1 and 2k+2.
    values = [strategy_factory()]
    for k, strategy in enumerate(values):
        value = strategy.capital
        bad = value < ZERO
        if k < len(forecasts):
            p = forecasts[k]
            s0, s1 = strategy.step(p, 0), strategy.step(p, 1)
            values += (s0, s1)
            bad = bad or value != (ONE - p) * s0.capital + p * s1.capital
        if bad:
            violations.append(history_at(k))
    return not violations, violations


# Node mark in ``ville_check``: capital has reached the threshold here.
_REACHED = object()


@dataclass(frozen=True)
class VilleResult:
    frequency: float
    bound: float
    passed: bool
    samples: int
    threshold: Fraction


def ville_check(
    phi: ForecastingSystem, strategy_factory, threshold, samples: int, seed: int
) -> VilleResult:
    """Empirical check that capital reaches the threshold no more often than bound.

    The strategy must pass exact certification under ``phi`` first; sampled
    streams then estimate the frequency of sup_n V >= C, reported against the
    bound V(initial)/C with the slack 4 sqrt(bound / samples).  A walk over
    ``check_walk``'s budget raises HorizonError before the factory is called.

    Each outcome-tree node is stepped at most once per call.  Nodes are
    indexed as in ``history_at`` (the children of k are 2k+1 and 2k+2), and
    a dict keeps each node's strategy value, or a mark once capital has
    reached the threshold there; strategies are pure values, so a kept value
    equals a replayed one.
    """
    if samples < 1:
        raise InputError("samples must be at least 1")
    threshold = as_fraction(threshold)
    if threshold <= ZERO:
        raise InputError("threshold must be positive")
    check_walk(outcome_tree_nodes(phi.horizon), f"the certification walk at horizon {phi.horizon}")
    start = strategy_factory()
    ok, violations = certify_strategy(lambda: start, phi)
    if not ok:
        raise CertificationError(
            f"strategy is not a non-negative martingale under the system "
            f"(first violation at history {violations[0]})"
        )
    nodes = {0: _REACHED if start.capital >= threshold else start}
    hits = 0
    for i in range(samples):
        omega = sample_outcomes(phi, phi.horizon, seed + i)
        node, value = 0, nodes[0]
        for p, y in induced_path(phi, omega):
            if value is _REACHED:
                break
            node = 2 * node + 1 + y
            child = nodes.get(node)
            if child is None:
                child = value.step(p, y)
                nodes[node] = child = _REACHED if child.capital >= threshold else child
            value = child
        if value is _REACHED:
            hits += 1
    bound = start.capital / threshold
    frequency = hits / samples
    passed = frequency <= float(bound) + 4.0 * math.sqrt(float(bound) / samples)
    return VilleResult(
        frequency=frequency,
        bound=float(bound),
        passed=passed,
        samples=samples,
        threshold=threshold,
    )


def parse_stream_csv(text: str) -> list[tuple[Fraction, int]]:
    """Parse the stream format: header "p,y", forecasts as decimals or num/den."""
    with reading("stream", csv.Error):
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows or [field.strip() for field in rows[0]] != ["p", "y"]:
        raise StreamFormatError('stream must start with the header "p,y"')
    forecast = functools.cache(check_forecast)  # streams repeat a few forecast strings
    stream = []
    for index, row in enumerate(rows[1:], start=1):
        if len(row) != 2:
            raise StreamFormatError(f"row {index}: expected two fields, got {len(row)}")
        try:
            p = forecast(row[0].strip())
            y = check_outcome(int(row[1].strip()))
        except ValueError as exc:
            raise StreamFormatError(f"row {index}: {exc}") from exc
        stream.append((p, y))
    return stream


def format_stream_csv(stream) -> str:
    lines = ["p,y"]
    for p, y in stream:
        lines.append(f"{p},{y}")
    return "\n".join(lines) + "\n"

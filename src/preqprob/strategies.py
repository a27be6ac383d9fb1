"""Farthingale machinery for testing probability-forecast streams.

A farthingale is a capital process on the prequential tree whose value at each
node equals the forecast-weighted average of its two successors; with ">=" the
gambler may discard capital (superfarthingale).  ``check_farthingale``
verifies either property exactly on a cell-indexed value table: within one
partition cell the successor values are constant, so the defining identity is
linear in the forecast and holds on the whole cell iff it holds at both cell
endpoints.  The check reads the table's ``StateGraph``, its levels of
states: a state fixes its value and its children's, so each (depth, state,
cell) is decided once, and only the nodes holding a failing state are
looked up, by ``StateGraph.marked_nodes``.  The identity is decided on
integers: ``_gap_sign`` gives the sign of parent - ((1 - p) v0 + p v1) by
cross-multiplying numerators and denominators, for ``check_farthingale``
and ``certify_strategy`` alike.

The calibration strategy realizes the finite-horizon bias test: with
S = sum(y_i - p_i) and A = sum(p_i (1 - p_i)) the process

    V_n = (S_n^2 - A_n + N/4) / (C^2 N + N/4)

is a non-negative farthingale (the conditional increment of S^2 is exactly
p(1 - p), cancelling the increment of A, for every forecast p), and whenever
|S_N| >= C sqrt(N) the final capital exceeds 4 C^2 times the initial one, so a
rejection is backed by the corresponding betting gain.  Capital never
overflows: everything is exact rational arithmetic.

S and A change through one exact update, ``_add(tallies)``: for each
(p, count, ones), ``count`` more pairs with forecast p, ``ones`` of them
with outcome 1.  A state holds n, S and A as one tuple of integers, S and A
each a reduced numerator and denominator; the update steps them on
integers, checks them after each tally and builds one new state directly.
``==`` and the hash read that tuple, and S and A become Fractions only when
read.  ``step`` adds one pair; the sums are order-free, so
``calibration_fold`` (what ``preq test-stream`` runs) adds each distinct
forecast of a stream once, in one call.  A state's capital is computed
once, when the state is built, the one Fraction a step or fold builds, and
the verdict's ratio is the final capital over the initial one.
``parse_stream_csv`` parses each distinct string of a stream once.

``ville_check`` verifies the capital/probability inequality empirically: a
non-negative martingale starting at v reaches C with probability at most v/C
under the measure of the forecasting system being tested.  Strategies are
certified before sampling by walking them over the system's whole outcome
tree and checking the martingale identity exactly, so ad hoc capital inflation
is refused rather than sampled.  That walk steps each distinct (system state,
strategy value) pair of a depth once, by ``level_graph``, but its violations
can name all 2^(N+1) - 1 histories, so both size the outcome tree with
``check_walk`` and refuse it before any strategy is built.
The walk also hands ville the largest capital of any pair it stepped, and
that decides some checks with no draw: a start capital >= C gives the
frequency 1, and if no pair holds C, no sampled path can reach it, so the
frequency is 0.  Seeding a generator, not drawing from it, is what a sample
costs, so only the remaining checks sample.
Sampling then steps each outcome-tree node at most once per call: the value
reached at a node is kept and shared by every later sample through it, so a
sample asks the system for its forecasts only when it reaches a node no
earlier sample stepped, and a sample stops at a node whose capital has
reached the threshold or is 0, from which no sampled path reaches it.

A strategy is a frozen, hashable value with a ``capital`` attribute (a
Fraction) and a pure ``step(p, y)`` that consumes one checked pair, a
Fraction forecast and a bit, and nothing else, and returns the next value;
pairs are checked where they enter (``run_stream``, ``calibration_step``,
``calibration_fold``, or the forecasting system's constructor).  Functions
that take a strategy factory call it once for the start value and carry
values down the tree or stream, never replaying a history from the root.
``strategy_value_table`` is reached from the start value by
``StateGraph.reach``: equal values at a depth are one state, stepped once.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import math
from fractions import Fraction

from .core import (ONE, ZERO, ForecastingSystem, Frozen, HorizonError, InputError, as_fraction, as_int, check_forecast,
                   check_outcome, check_samples, check_seed, check_walk, induced_path, level_graph, marked_paths,
                   outcome_tree_nodes, reading, sample_outcomes)
from .events import point_partition
from .gameprob import StateGraph, ValueFunction, tree_nodes


class CertificationError(InputError):
    """A strategy failed the exact martingale certification."""


class StreamFormatError(InputError):
    """A forecast/outcome stream row is malformed."""


class CapitalProcess(Frozen):
    """A betting strategy's value along a stream: initial capital, then one value per step."""

    _fields = ("initial_capital", "trajectory")  # a Fraction and a tuple of them

    def __post_init__(self):
        if self.initial_capital < ZERO or any(v < ZERO for v in self.trajectory):
            raise InputError("capital must stay non-negative")

    @property
    def final_capital(self) -> Fraction:
        return self.trajectory[-1] if self.trajectory else self.initial_capital


def check_farthingale(vf: ValueFunction, mode: str) -> tuple[bool, list]:
    """Verify the (super)farthingale identity on a cell-indexed table.

    mode "exact" requires equality, "super" allows the node to dominate.
    Returns (ok, violations) with the distinct (cell-path, forecast) pairs at
    which an endpoint check failed, shortest paths first.  A cell whose two
    children are one state, or hold equal values, is decided by one compare
    against that value; any other cell tests each endpoint on integers, by
    ``_gap_sign``, and builds no Fraction.

    The check reads ``vf.values``, after sizing the interior tree with
    ``tree_nodes``, and decides each (depth, state, cell) once.  Every node
    holding a failing state reports its failing endpoints, in level, cell
    and endpoint order, from ``StateGraph.marked_nodes``.
    """
    if mode not in ("exact", "super"):
        raise InputError(f"mode must be 'exact' or 'super', got {mode!r}")
    exact = mode == "exact"
    tree_nodes(vf.partitions[:-1])
    graph = vf.values
    # failing[depth][state]: the distinct endpoints at which that state fails, in cell order.
    failing: list[dict] = []
    for partition, parents, below, children in zip(vf.partitions, graph.levels, graph.levels[1:], graph.children):
        failing.append({})
        ends = [cell.endpoints() for cell in partition.cells]
        for state, (parent, kids) in enumerate(zip(parents, children)):
            failed = ()
            for points, c0, c1 in zip(ends, kids[0::2], kids[1::2]):
                if c0 != c1:
                    failed += _failing_endpoints(points, parent, below[c0], below[c1], exact)
                elif parent != below[c0] if exact else parent < below[c0]:
                    # One child state: the right-hand side is its value at every p.
                    failed += points
            if failed:
                failing[-1][state] = tuple(dict.fromkeys(failed))
    violations = [(path, p) for path, failed in graph.marked_nodes(failing) for p in failed]
    return not violations, violations


def _gap_sign(parent, v0, v1, p) -> int:
    """The sign (-1, 0 or 1) of parent - ((1 - p) v0 + p v1), decided on integers.

    Each argument is an int or a Fraction, whose denominator is positive.
    With p = a/q, parent = x/d, v0 = x0/d0 and v1 = x1/d1 the difference is
    (x q d0 d1 - d ((q - a) x0 d1 + a x1 d0)) / (d q d0 d1), over a positive
    denominator, so its sign is the sign of that numerator.
    """
    a, q = p.numerator, p.denominator
    x0, d0 = v0.numerator, v0.denominator
    x1, d1 = v1.numerator, v1.denominator
    gap = parent.numerator * q * d0 * d1 - parent.denominator * ((q - a) * x0 * d1 + a * x1 * d0)
    return (gap > 0) - (gap < 0)


def _failing_endpoints(points: tuple, parent: Fraction, v0: Fraction, v1: Fraction, exact: bool) -> tuple:
    """The cell endpoints ``points`` ((lo,) or (lo, hi)) at which ``parent`` fails against (1 - p) v0 + p v1.

    With v1 = v0 the right-hand side is v0 at every p, one compare; otherwise
    each endpoint is tested on integers, by ``_gap_sign``.
    """
    if v0 == v1:
        return points if (parent != v0 if exact else parent < v0) else ()
    failing = []
    for p in points:
        sign = _gap_sign(parent, v0, v1, p)
        if sign if exact else sign < 0:
            failing.append(p)
    return tuple(failing)


class CalibrationState(Frozen):
    """The calibration strategy: running sums of the test after n of N steps, and their ``capital``.

    The sums are held as integers, in ``sums``: n and the numerators and
    denominators of bias and spread, each pair in lowest terms with a
    positive denominator.  ``==`` and the hash read that tuple, ``==`` the
    horizon and threshold too.  ``bias`` and ``spread`` read as Fractions,
    each built from ``sums`` the first time it is read, unless the
    constructor was given it.  ``capital`` is computed by ``_capital`` when
    the state is built, in ``__post_init__`` or ``_add``; neither it nor
    ``sums`` is a field, and repr leaves both out.
    """

    _fields, _defaults = ("horizon", "threshold_c", "n", "bias", "spread"), (0, ZERO, ZERO)

    def __post_init__(self):
        if self.horizon < 1:
            raise InputError("horizon must be a positive integer")
        if self.threshold_c <= ZERO:
            raise InputError("threshold must be positive")
        bias, spread = self.bias, self.spread
        sums = (self.n, bias.numerator, bias.denominator, spread.numerator, spread.denominator)
        _check_sums(*sums)
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "capital", _capital(self))

    # A cached_property has no setter, so the value the constructor sets, or
    # the one built on the first read, sits in the instance dict, which later
    # reads find first.
    @functools.cached_property
    def bias(self) -> Fraction:
        """S, the sum of y_i - p_i."""
        return Fraction(self.sums[1], self.sums[2])

    @functools.cached_property
    def spread(self) -> Fraction:
        """A, the sum of p_i (1 - p_i)."""
        return Fraction(self.sums[3], self.sums[4])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.sums, self.horizon, self.threshold_c) == (other.sums, other.horizon, other.threshold_c)
        return NotImplemented

    def __hash__(self) -> int:
        """The hash of ``sums``, consistent with ==: equal states have equal n and reduced sums.

        A Fraction's own hash takes a modular inverse; walks over the tree
        hash every state they reach.
        """
        return hash(self.sums)

    def step(self, p: Fraction, y: int) -> "CalibrationState":
        """The state after one checked pair (a Fraction forecast and a bit; ``calibration_step`` checks)."""
        if self.n >= self.horizon:
            raise HorizonError(f"calibration horizon {self.horizon} already consumed")
        return self._add(((p, 1, y),))

    def _add(self, tallies) -> "CalibrationState":
        """The state after ``tallies``: per (p, count, ones), ``count`` more pairs with forecast p, ``ones`` of them 1.

        With p = a/q: bias' = (b_n q + (ones q - count a) b_d) / (b_d q) and
        spread' = (s_n q^2 + count a (q - a) s_d) / (s_d q^2).  ``_check_sums``
        checks these integers after each tally, as ``__post_init__`` checks a
        state's sums, and each is then divided by its gcd, as ``Fraction``
        reduces, so equal states hold equal ``sums``.  One state is built, at
        the end, with its capital and no other Fraction.  The horizon and
        threshold are copied from this state, which was checked when it was
        made.
        """
        n, bn, bd, sn, sd = self.sums
        gcd = math.gcd
        for p, count, ones in tallies:
            a, q = p.numerator, p.denominator
            n, q2 = n + count, q * q
            bias_top, bias_bottom = bn * q + (ones * q - count * a) * bd, bd * q
            spread_top, spread_bottom = sn * q2 + count * a * (q - a) * sd, sd * q2
            _check_sums(n, bias_top, bias_bottom, spread_top, spread_bottom)
            g, h = gcd(bias_top, bias_bottom), gcd(spread_top, spread_bottom)
            bn, bd, sn, sd = bias_top // g, bias_bottom // g, spread_top // h, spread_bottom // h
        state = object.__new__(CalibrationState)
        set_field = object.__setattr__  # the frozen class's own refuses
        set_field(state, "horizon", self.horizon)
        set_field(state, "threshold_c", self.threshold_c)
        set_field(state, "n", n)
        set_field(state, "sums", (n, bn, bd, sn, sd))
        set_field(state, "capital", _capital(state))
        return state


def _capital(state: CalibrationState) -> Fraction:
    """(bias^2 - spread + N/4) / (C^2 N + N/4), stored on a state when it is built.

    With bias = b_n/b_d, spread = s_n/s_d read from the state's ``sums``
    and C = c_n/c_d, the numerator is top / (4 b_d^2 s_d) and the scale
    N (4 c_n^2 + c_d^2) / (4 c_d^2), so the capital is the integer quotient
    top c_d^2 / (b_d^2 s_d N (4 c_n^2 + c_d^2)), the one Fraction
    constructed.  It is kept in the instance dict, outside the fields, so
    ==, hash and repr do not see it.
    """
    _, bn, bd, sn, sd = state.sums
    cn, cd = state.threshold_c.numerator, state.threshold_c.denominator
    bd2, cd2 = bd * bd, cd * cd
    top = 4 * bn * bn * sd - 4 * sn * bd2 + state.horizon * bd2 * sd
    return Fraction(top * cd2, bd2 * sd * state.horizon * (4 * cn * cn + cd2))


def _check_sums(n: int, bias_top: int, bias_bottom: int, spread_top: int, spread_bottom: int):
    """Refuse sums outside |bias| <= n and 0 <= spread <= n/4, compared as integers (denominators are positive)."""
    if abs(bias_top) > n * bias_bottom or not 0 <= 4 * spread_top <= n * spread_bottom:
        raise InputError("inconsistent calibration sums")


CalibrationStrategy = CalibrationState


def calibration_step(state: CalibrationState, step) -> tuple[CalibrationState, Fraction]:
    """Check and consume one (forecast, outcome) pair; return the new state and its capital."""
    p, y = step
    new = state.step(check_forecast(p), check_outcome(y))
    return new, new.capital


def calibration_fold(state: CalibrationState, pairs) -> CalibrationState:
    """The state after all of ``pairs`` (a sequence of 2-tuples), equal to stepping them one by one.

    The sums are order-free, so the pairs are counted first, by one
    ``Counter`` over (forecast object, outcome), and each distinct forecast
    is added once, with its count and number of ones.  More pairs than the
    horizon has left raise HorizonError before any work; every pair is
    checked as ``calibration_step`` checks it, the first bad pair in stream
    order raising.
    """
    left = state.horizon - state.n
    if len(pairs) > left:
        raise HorizonError(f"calibration horizon {state.horizon} has {left} steps left, got {len(pairs)} pairs")
    if not pairs:
        return state
    # Pairs are counted by forecast object, not value: a Fraction's hash is
    # recomputed on every call, and ``parse_stream_csv`` hands out one object
    # per distinct forecast string.  Equal forecasts held by different objects
    # (or given as "0.5" and "1/2") merge in ``tallies`` once checked.  The
    # counts keep first-seen order, so the first bad pair is checked first.
    forecasts, outcomes = zip(*pairs)
    objects = dict(zip(map(id, forecasts), forecasts))
    tallies: dict[Fraction, list[int]] = {}  # forecast -> [pairs, ones]
    for (key, y), c in collections.Counter(zip(map(id, forecasts), outcomes)).items():
        tally = tallies.setdefault(check_forecast(objects[key]), [0, 0])
        tally[0] += c
        tally[1] += check_outcome(y) * c
    return state._add((p, count, ones) for p, (count, ones) in tallies.items())


class CalibrationVerdict(Frozen):
    _fields = ("reject", "ratio")  # a bool and a Fraction


def calibration_verdict(state: CalibrationState) -> CalibrationVerdict:
    """Decide the bias test after all N steps: reject iff S^2 >= C^2 N (exact).

    The ratio is the final capital over the initial one; a rejection
    guarantees ratio >= 4 C^2.
    """
    if state.n != state.horizon:
        raise InputError(f"verdict needs all {state.horizon} steps, have {state.n}")
    reject = state.bias**2 >= state.threshold_c**2 * state.horizon
    ratio = state.capital / CalibrationState(state.horizon, state.threshold_c).capital
    return CalibrationVerdict(reject=reject, ratio=ratio)


class ConstantStrategy(Frozen):
    """Never bets; capital is constant."""

    _fields, _defaults = ("capital",), (ONE,)

    def step(self, p, y) -> "ConstantStrategy":
        return self


class DoublingStrategy(Frozen):
    """All of the capital rides on outcome 1 at even odds each step.

    Capital doubles on outcome 1 and is lost on outcome 0; a martingale under
    the constant-1/2 forecasting system (and only under it, which the
    certification step enforces).
    """

    _fields, _defaults = ("capital",), (ONE,)

    def step(self, p: Fraction, y: int) -> "DoublingStrategy":
        """The value after one checked pair (a Fraction forecast and a bit)."""
        return DoublingStrategy(2 * self.capital if y == 1 else ZERO)


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
    reached from the factory's value by ``StateGraph.reach``, equal strategy
    values at a depth being one state, and a value-keyed cache steps each
    distinct value once, at whatever depth (a gap cell hands a node's value
    on).  A negative horizon is refused before the factory is called.
    """
    if horizon < 0:
        raise InputError(f"horizon must be non-negative, got {horizon}")
    partition = point_partition(map(check_forecast, grid))
    partitions = tuple(partition for _ in range(horizon))
    points = [cell.lo if cell.is_point else None for cell in partition.cells]  # None: a gap cell

    @functools.cache
    def children(strategy) -> list:
        return [strategy if p is None else strategy.step(p, bit) for p in points for bit in (0, 1)]

    graph = StateGraph.reach(partitions, strategy_factory(), lambda s, d: children(s), lambda s, d: s.capital)
    return ValueFunction(horizon, partitions, graph)


class Certificate(tuple):
    """``certify_strategy``'s (ok, violations), carrying the walk's ``largest_capital``.

    A tuple of those two, so ``==`` and unpacking read the pair alone, as a
    ``cli.Written`` is read as its ``str``.  Copies and pickles keep all three.
    """

    def __new__(cls, ok: bool, violations: list, largest_capital: Fraction):
        certificate = super().__new__(cls, (ok, violations))
        certificate.largest_capital = largest_capital
        return certificate

    def __getnewargs__(self):  # tuple's own would hand __new__ the pair alone
        return (*self, self.largest_capital)


def certify_strategy(strategy_factory, phi: ForecastingSystem) -> Certificate:
    """Exact martingale certification of a strategy under a forecasting system.

    Walks (system state, strategy value) pairs with ``level_graph``, equal
    pairs of a depth being one, and checks each pair once:
    capital(x) == (1-phi(x)) capital(x0) + phi(x) capital(x1) together with
    non-negativity, at the leaves too.  Both are decided on integers: the
    identity by ``_gap_sign``, the sign by the capital's numerator.  Returns
    (ok, the histories that reach a failing pair, in ``history_at`` order)
    as a ``Certificate``, whose ``largest_capital`` is the largest capital
    of any pair walked, so of any history, compared on integers.
    The list can name every node, so ``check_walk`` refuses an outcome tree
    over its budget with HorizonError before the factory is called.
    """
    horizon, expand = phi.horizon, phi.expand
    check_walk(outcome_tree_nodes(horizon), f"the outcome tree at horizon {horizon}")

    def step(pair, depth) -> tuple:
        state, strategy = pair
        p, after0, after1 = expand(state)
        s0, s1 = strategy.step(p, 0), strategy.step(p, 1)
        value = strategy.capital
        return value.numerator < 0 or _gap_sign(value, s0.capital, s1.capital, p) != 0, ((after0, s0), (after1, s1))

    pairs, failed, links = level_graph((phi.start, strategy_factory()), step, horizon, "the certification walk")
    failed.append([strategy.capital.numerator < 0 for _, strategy in pairs[horizon]])
    marks = [{index: True for index, bad in enumerate(level) if bad} for level in failed]
    violations = [history for history, _ in marked_paths(links, marks)]
    largest = pairs[0][0][1].capital
    top, bottom = largest.numerator, largest.denominator
    for level in pairs:
        for _, strategy in level:
            capital = strategy.capital  # capital > largest, compared on integers
            if capital.numerator * bottom > top * capital.denominator:
                largest, top, bottom = capital, capital.numerator, capital.denominator
    return Certificate(not violations, violations, largest)


# Node marks in ``ville_check``: capital has reached the threshold here, or is 0.
_REACHED = object()
_BROKE = object()


class VilleResult(Frozen):
    _fields = ("frequency", "bound", "passed")  # two floats and a bool


def ville_check(
    phi: ForecastingSystem, strategy_factory, threshold, samples: int, seed: int
) -> VilleResult:
    """Empirical check that capital reaches the threshold no more often than bound.

    The strategy must pass exact certification under ``phi`` first; sampled
    streams then estimate the frequency of sup_n V >= C, reported against the
    bound V(initial)/C with the slack 4 sqrt(bound / samples).  A walk over
    ``check_walk``'s budget raises HorizonError before the factory is called;
    a negative seed (``check_seed``) and a threshold whose bound is too large
    for a float raise InputError before the certification walk.

    Sample i draws ``sample_outcomes(phi, N, seed + i)``.  Each outcome-tree
    node is stepped at most once per call.  Nodes are indexed as in
    ``history_at`` (the children of k are 2k+1 and 2k+2), and a dict keeps
    each node's strategy value, or a mark once capital has reached the
    threshold there, or is 0; strategies are pure values, so a kept value
    equals a replayed one.  A sample walks the kept nodes along its outcomes
    and computes its forecasts, by ``induced_path``, only if it reaches a
    node no earlier sample stepped.

    A sample stops at a node of capital 0.  Certification has passed, so
    there capital = (1 - p) capital(x0) + p capital(x1) with both children
    non-negative: for 0 < p < 1 both are 0, at p = 0 the sampler draws only
    0 and at p = 1 only 1, and the child it draws has capital 0 again.  No
    sampled path through the node reaches C > 0.

    Ville draws nothing when the certification walk decides the answer.  A
    start capital >= C gives the frequency 1.0.  If the certificate's
    ``largest_capital`` is below C, the frequency is 0.0: every node a
    sample can step holds a pair the walk stepped, and the walk went on
    past capital 0 too, where samples stop, so its largest capital is at
    least any sampled one.  The walk has expanded every forecast a sample
    could ask for, so no refusal is skipped.  Both are compared with C on
    integers, as the nodes' marks are.
    """
    check_samples(samples)
    check_seed(seed)
    threshold = as_fraction(threshold)
    if threshold <= ZERO:
        raise InputError("threshold must be positive")
    horizon = phi.horizon
    check_walk(outcome_tree_nodes(horizon), f"the certification walk at horizon {horizon}")
    start = strategy_factory()
    try:
        bound = float(start.capital / threshold)
    except OverflowError:
        raise InputError("threshold too small: the bound V(initial)/C is too large for a float") from None
    certificate = certify_strategy(lambda: start, phi)
    ok, violations = certificate
    if not ok:
        raise CertificationError(
            f"strategy is not a non-negative martingale under the system "
            f"(first violation at history {violations[0]})"
        )

    top, bottom = threshold.numerator, threshold.denominator

    def kept(value):
        capital = value.capital  # capital >= threshold, compared on integers
        return _REACHED if capital.numerator * bottom >= top * capital.denominator else value if capital else _BROKE

    largest = certificate.largest_capital
    hits = 0
    if kept(start) is _REACHED:
        hits = samples  # every sample starts at capital >= C
    elif largest.numerator * bottom >= top * largest.denominator:  # else no pair of the walk holds C: no draw
        nodes = {0: kept(start)}
        for i in range(samples):
            omega = sample_outcomes(phi, horizon, seed + i)
            path = None
            node, value = 0, nodes[0]
            for depth, y in enumerate(omega):
                if value is _REACHED or value is _BROKE:
                    break
                node = 2 * node + 1 + y
                child = nodes.get(node)
                if child is None:
                    if path is None:
                        path = induced_path(phi, omega)
                    nodes[node] = child = kept(value.step(path[depth][0], y))
                value = child
            if value is _REACHED:
                hits += 1
    frequency = hits / samples
    passed = frequency <= bound + 4.0 * math.sqrt(bound / samples)
    return VilleResult(frequency=frequency, bound=bound, passed=passed)


def parse_stream_csv(text: str) -> list[tuple[Fraction, int]]:
    """Parse the stream format: header "p,y", forecasts as decimals or num/den.

    Blank lines are skipped and fields are stripped.  Each column is stripped
    in one pass and each distinct string parsed once, so equal forecast
    strings share one Fraction.  If a row has the wrong number of fields or
    a string does not parse, the rows are read again one by one, and the
    first bad row, in stream order, raises StreamFormatError with its index.
    """
    with reading("stream", csv.Error):
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows or [field.strip() for field in rows[0]] != ["p", "y"]:
        raise StreamFormatError('stream must start with the header "p,y"')
    body = rows[1:]
    if not body:
        return []
    try:
        if set(map(len, body)) != {2}:
            raise ValueError("a row without two fields")
        forecasts, outcomes = zip(*body)
        forecasts, outcomes = list(map(str.strip, forecasts)), list(map(str.strip, outcomes))
        forecast = {text: check_forecast(text) for text in set(forecasts)}
        outcome = {text: _outcome(text) for text in set(outcomes)}
    except ValueError:
        _first_bad_row(body)
        raise
    return list(zip(map(forecast.__getitem__, forecasts), map(outcome.__getitem__, outcomes)))


def _outcome(text: str) -> int:
    return check_outcome(as_int(text, "outcome"))


def _first_bad_row(rows):
    """Raise StreamFormatError for the first malformed row of a stream's body (row 1 is ``rows[0]``)."""
    for index, row in enumerate(rows, start=1):
        if len(row) != 2:
            raise StreamFormatError(f"row {index}: expected two fields, got {len(row)}")
        try:
            check_forecast(row[0].strip())
            _outcome(row[1].strip())
        except ValueError as exc:
            raise StreamFormatError(f"row {index}: {exc}") from exc

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
``calibration_fold_counts`` merges counted pairs by forecast and adds each
distinct forecast once, in one call, and ``calibration_fold`` counts its
pairs and hands them on.  A state's capital is computed once, when the
state is built, the one Fraction a step or fold builds, and the verdict's
ratio is the final capital over the initial one.

A stream is read once, by ``csv.reader`` in ``_read_stream``, each row
keyed by its fields: the rows of the first N are counted with one
``Counter``, each distinct row is checked once, and each distinct stripped
string parsed once.  ``preq test-stream`` runs ``count_stream_csv``, which
returns those counts, so no pair is built per row; ``parse_stream_csv`` is
the ordered view of the same read, for ``preq levy-trace --stream`` and
library callers.

``ville_check`` verifies the capital/probability inequality empirically: a
non-negative martingale starting at v reaches C with probability at most v/C
under the measure of the forecasting system being tested.  Strategies are
certified before sampling by walking them over the system's whole outcome
tree and checking the martingale identity exactly, so ad hoc capital inflation
is refused rather than sampled.  That walk, ``_certification_walk``, steps
each distinct (system state, strategy value) pair of a depth once, by
``level_graph``, but its violations can name all 2^(N+1) - 1 histories, so
both size the outcome tree with ``check_walk`` and refuse it before any
strategy is built.  Sampling runs on the walk's pairs and links and steps
no strategy again: each pair is marked where its capital has reached the
threshold or is 0, from which no sampled path reaches it, and a sample
follows its outcomes to the first marked pair.  If the root is marked
reached, or no pair is, the frequency is 1 or 0 with no draw; seeding a
generator, not drawing from it, is what a sample costs.

A strategy is a frozen, hashable value with a ``capital`` attribute (a
Fraction) and a pure ``step(p, y)`` that consumes one checked pair, a
Fraction forecast and a bit, and nothing else, and returns the next value;
pairs are checked where they enter (``run_stream``, ``calibration_step``,
``calibration_fold``, the stream readers, or the forecasting system's
constructor).  Functions that take a strategy factory call it once for the
start value and carry values down the tree or stream, never replaying a
history from the root.
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
                   outcome_tree_nodes, parse_once_per_string, reading, sample_outcomes)
# Nothing here calls ``induced_path``: it is bound for perfbench, whose spans wrap ``strategies.induced_path``.
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
    ``Counter`` over (forecast object, outcome), and the counts are added by
    ``calibration_fold_counts``.  More pairs than the horizon has left raise
    HorizonError before any work; every pair is checked as
    ``calibration_step`` checks it, the first bad pair in stream order
    raising.
    """
    left = state.horizon - state.n
    if len(pairs) > left:
        raise HorizonError(f"calibration horizon {state.horizon} has {left} steps left, got {len(pairs)} pairs")
    if not pairs:
        return state
    # Pairs are counted by forecast object, not value: a Fraction's hash is
    # recomputed on every call, and ``parse_stream_csv`` hands out one object
    # per distinct forecast string.  The counts keep first-seen order, so the
    # first bad pair is checked first.
    forecasts, outcomes = zip(*pairs)
    objects = dict(zip(map(id, forecasts), forecasts))
    counts = collections.Counter(zip(map(id, forecasts), outcomes)).items()
    return calibration_fold_counts(state, (((check_forecast(objects[key]), check_outcome(y)), c)
                                           for (key, y), c in counts))


def calibration_fold_counts(state: CalibrationState, counted) -> CalibrationState:
    """The state after counted checked pairs: per ((p, y), count) of ``counted``, ``count`` pairs (p, y).

    Equal forecasts, whether one object or several (from "0.5" and "1/2"),
    merge into one (p, count, ones) tally, and the tallies are added by one
    ``_add``.  More pairs than the horizon has left raise HorizonError.
    """
    tallies: dict[Fraction, list[int]] = {}  # forecast -> [pairs, ones]
    for (p, y), count in counted:
        tally = tallies.setdefault(p, [0, 0])
        tally[0] += count
        tally[1] += y * count
    total, left = sum(count for count, _ in tallies.values()), state.horizon - state.n
    if total > left:
        raise HorizonError(f"calibration horizon {state.horizon} has {left} steps left, got {total} pairs")
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


def _certification_walk(strategy_factory, phi: ForecastingSystem) -> tuple[list, list, list]:
    """Walk and check (system state, strategy value) pairs: ``(pairs, links, violations)``.

    ``pairs`` and ``links`` are ``level_graph``'s, equal pairs of a depth
    being one, each pair stepped once, and ``violations`` the histories that
    reach a failing pair, in ``history_at`` order.  A pair fails where
    capital(x) == (1-phi(x)) capital(x0) + phi(x) capital(x1) does not hold,
    or its capital is negative, at the leaves too.  Both are decided on
    integers: the identity by ``_gap_sign``, the sign by the capital's
    numerator.  The list can name every node, so ``check_walk`` refuses an
    outcome tree over its budget with HorizonError before the factory is
    called.
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
    return pairs, links, [history for history, _ in marked_paths(links, marks)]


def certify_strategy(strategy_factory, phi: ForecastingSystem) -> tuple[bool, list]:
    """Exact martingale certification of a strategy under a forecasting system.

    Returns (ok, the histories that reach a failing pair, in ``history_at``
    order), from ``_certification_walk``, which checks each distinct
    (system state, strategy value) pair of a depth once.
    """
    _, _, violations = _certification_walk(strategy_factory, phi)
    return not violations, violations


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

    Samples follow the certification walk's links and step no strategy
    value.  Each pair of the walk is marked on integers: True where its
    capital is >= C, False where it is 0, and not at all otherwise.  Sample
    i draws ``sample_outcomes(phi, length, seed + i)`` and follows those
    outcomes from the root pair until the first marked pair, and hits if
    that mark is True.  ``length`` is N, or one more than the deepest depth
    holding an unmarked pair if that is less: a sample reads no outcome
    past it.  The sampler draws one variate per step, in order, so these
    outcomes are a prefix of the N it would draw.  Equal pairs of a depth
    hold equal strategy values, so one capital, and ``phi.expand`` is pure,
    so the walk's forecasts are the ones the sampler draws by.

    A sample stops at a pair of capital 0.  Certification has passed, so
    there capital = (1 - p) capital(x0) + p capital(x1) with both children
    non-negative: for 0 < p < 1 both are 0, at p = 0 the sampler draws only
    0 and at p = 1 only 1, and the child it draws has capital 0 again.  No
    sampled path through the pair reaches C > 0.

    Ville draws nothing when the marks decide the answer: a root marked True
    gives the frequency 1.0, and if no pair is, the frequency is 0.0.
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
    pairs, links, violations = _certification_walk(lambda: start, phi)
    if violations:
        raise CertificationError(
            f"strategy is not a non-negative martingale under the system "
            f"(first violation at history {violations[0]})"
        )

    top, bottom = threshold.numerator, threshold.denominator
    # marks[d][s]: True where pair s of depth d holds capital >= C (compared on integers), False where it holds 0.
    marks = [{} for _ in pairs]
    for level, marked in zip(pairs, marks):
        for index, (_, strategy) in enumerate(level):
            capital = strategy.capital
            if capital.numerator * bottom >= top * capital.denominator:
                marked[index] = True
            elif not capital:
                marked[index] = False
    hits = 0
    if marks[0].get(0):
        hits = samples  # every sample starts at capital >= C
    elif any(True in marked.values() for marked in marks):  # else no sample can reach C: no draw
        # A sample reads one outcome per unmarked pair it passes, so none reads past the deepest one.
        length = min(horizon, 1 + max((d for d, level in enumerate(pairs) if len(marks[d]) < len(level)), default=-1))
        for i in range(samples):
            omega = sample_outcomes(phi, length, seed + i)
            depth = state = 0
            while depth < horizon and state not in marks[depth]:
                state = links[depth][state][omega[depth]]
                depth += 1
            hits += marks[depth].get(state, False)
    frequency = hits / samples
    passed = frequency <= bound + 4.0 * math.sqrt(bound / samples)
    return VilleResult(frequency=frequency, bound=bound, passed=passed)


def parse_stream_csv(text: str) -> list[tuple[Fraction, int]]:
    """Parse the stream format: header "p,y", forecasts as decimals or num/den.

    Blank lines are skipped and fields are stripped.  The stream is read by
    ``_read_stream``, so equal rows share one pair tuple and equal forecast
    strings one Fraction; the list is those pairs in stream order.  The
    first bad row, in stream order, raises StreamFormatError with its index.
    """
    body, _, pairs = _read_stream(text)
    return list(map(pairs.__getitem__, body))


def count_stream_csv(text: str, limit: int | None = None) -> tuple[int, list]:
    """Read a stream as ``parse_stream_csv`` does: its number of rows, and its first ``limit`` rows counted.

    The counts are a list of ((p, y), count), one per distinct row of the
    first ``limit`` rows (every row when ``limit`` is None), in first-seen
    order: the input of ``calibration_fold_counts``.  No pair is built per
    row.  Every row, past the cut too, is checked, and the first bad row
    raises as ``parse_stream_csv`` raises.
    """
    body, counts, pairs = _read_stream(text, limit)
    return len(body), [(pairs[row], count) for row, count in counts.items()]


def _read_stream(text: str, limit: int | None = None) -> tuple[list, collections.Counter, dict]:
    """A stream's rows, its first ``limit`` rows counted, and each distinct row's (Fraction, int) pair.

    The rows are those after the header "p,y", blank lines skipped, each
    read by ``csv.reader`` and kept as the tuple of its fields, which keys
    both the ``Counter`` and the pairs.  Each distinct row is checked once,
    and each distinct stripped string parsed once.  If a row has the wrong
    number of fields or a string does not parse, the rows are read again
    one by one, and the first bad row raises StreamFormatError.
    """
    with reading("stream", csv.Error):
        rows = list(filter(None, map(tuple, csv.reader(io.StringIO(text)))))
    if not rows or [field.strip() for field in rows[0]] != ["p", "y"]:
        raise StreamFormatError('stream must start with the header "p,y"')
    body = rows[1:]
    head = body if limit is None else body[:limit]
    counts = collections.Counter(head)
    forecast, outcome = parse_once_per_string(check_forecast), parse_once_per_string(_outcome)
    pairs = {}
    try:
        for row in counts.keys() | body[len(head):]:
            p, y = row  # ValueError unless the row has two fields
            pairs[row] = (forecast(p.strip()), outcome(y.strip()))
    except ValueError:
        _first_bad_row(body)
        raise
    return body, counts, pairs


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

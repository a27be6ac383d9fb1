"""Exact game-theoretic engine: upper probabilities by backward induction.

The upper game-theoretic probability of an event is the cheapest initial
capital of a non-negative farthingale forced to reach 1 on every sequence in
the event.  For a box union at horizon N that infimum is computed exactly by
backward induction on the partition-refined game tree:

* leaves (level N) carry the membership indicator of their cell-path;
* an interior node carries sup over forecasts p of
  (1-p) * value(child p,0) + p * value(child p,1).

Within one partition cell the two child values are constant, so the objective
is linear in p and the supremum over the cell is reached at (or approached
arbitrarily closely near) a cell endpoint.  The per-cell maximization over
endpoints therefore turns the analytic supremum into finite exact rational
arithmetic.  Because all box constraints are closed, the node value is upper
semicontinuous in p and the global supremum is attained at a closed endpoint
of some cell, which is what ``optimal_forecast_at`` returns.

The value at a node depends on the prefix only through the set of boxes still
consistent with it, its live-set, kept as an ``int`` bitmask (bit i for box
i).  Every box test is constant on a cell, so each step's partition, from
``events.event_partitions``, comes with one pair of masks per cell: the boxes
accepting the cell's forecasts with outcome 0 and with outcome 1; steps whose
box constraints repeat an earlier step's share its partition.  The live-sets
of a node's children are then ``live & mask``, with no rational comparison.
The induction runs level by level, without recursion: a forward pass collects
the live-sets reachable at each depth, and a backward pass fills in their
values, so long horizons need no deep stack.  A step no box constrains
shares its neighbour's level in both passes, and a run of such steps
sharing one partition object does so in one step.  The forward pass counts the
(depth, live-set) pairs it reaches and refuses an event past
``core.PAIR_BUDGET`` with ``LiveSetBudgetError`` (an input error), because
the count can double with every box; a horizon past the budget is refused
the same way before any step is set up, since every depth holds a level even
when no box is live.  The engine keeps its own counter and error; only the
number is shared.  The empty live-set has value zero.

The backward pass runs on integers.  A value at depth d is a numerator over
D_d = q_d * D_{d+1}, where q_d is the partition's ``scale``, the lcm of step
d's endpoint denominators, and each cell's row in the partition's ``rows``
carries its masks and its ends as the integers a = p * q_d.  A cell then
scores q_d * n0 + a * (n1 - n0) at its better end, and the pass neither
builds nor hashes a Fraction, nor builds a ``Cell``.  A live-set of one
box reads the partition's ``own`` row for that box instead, one row over
the box's whole interval, since every cell outside it scores 0.  A value
becomes a Fraction when it is read.  The survivors of one step along a
prefix, which Lévy's strategy and ``conditional_upper_probability`` follow,
are tested on integers against each live box's ``own`` row, so they build
no ``Cell`` either.  All operations are pure and the exact
arithmetic makes results independent of evaluation order.

One slot keeps the engine of the last event object asked for, compared by
identity, so ``value --table-out`` solves its event once; any other object
is solved again, and no other engine is kept between calls.

A value table is held as levels of states, a ``StateGraph``, which holds
only each depth's state values and each interior state's child-state
indices; its shape and its length come from those children.  A witness
table and a strategy table are reached from the root by ``StateGraph.reach``
through ``core.level_graph``, the equal states of a depth being one; a
table read by ``from_json`` is hash-consed from its node values in level
order by ``StateGraph.from_nodes``, nodes with equal JSON values over the
same child states being one state.  The builder sizes the tree, ``reach``
with ``tree_nodes`` against ``core.check_walk``'s node budget before it
starts.  The tree order lives here alone: level by level, children in
(cell, bit) order, as ``_tokens`` lists each depth's children, and a
node's key string is the ``_token``s along its cell-path.  No walk builds a
cell-path: ``to_json`` writes each state's subtree once, by
``core.tree_json``, the writer of the measure witness as well,
``from_json`` builds the keys a level at a time and parses each state's
string once, and ``StateGraph.marked_nodes`` decodes, by
``core.marked_paths``, only the paths of the nodes it reports.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import accumulate, compress
from operator import is_not, itemgetter, mul

from . import core
from .core import (ONE, ZERO, Frozen, InputError, PrequentialPrefix, as_fraction, as_int, check_forecast, check_outcome,
                   check_walk, digits_beyond_limit, level_graph, marked_paths, parse_once_per_string, reading, tree_json)
from .events import ArityError, Cell, EventUnion, ForecastPartition, event_partitions

CellPath = tuple[tuple[int, int], ...]


class LiveSetBudgetError(InputError):
    """An event's game tree reaches more (depth, live-set) pairs than ``core.PAIR_BUDGET``."""


def _over_budget(budget: int, depth: int, horizon: int) -> LiveSetBudgetError:
    return LiveSetBudgetError(
        f"the game engine reaches more than {budget} (depth, live-set) "
        f"pairs by step {depth + 1} of {horizon}; too many overlapping boxes"
    )


def tree_nodes(partitions) -> int:
    """The node count of the partition-refined tree, refused past ``check_walk``'s budget.

    The count is 1 + sum over d of prod over k <= d of 2 * cells(k).
    """
    nodes = sum(accumulate((2 * len(partition.cells) for partition in partitions), mul, initial=1))
    check_walk(nodes, f"the cell-path tree at horizon {len(partitions)}")
    return nodes


class StateGraph:
    """A value table held as levels of distinct states, read by path with ``graph[path]``.

    ``levels[d]`` lists the values of depth d's states, and state 0 of depth
    0 is the root.  At an interior depth, ``children[d][s]`` holds state s's
    child-state indices at depth d + 1, one per (cell, bit) in the order of
    ``_tokens``, (0, 0), (0, 1), (1, 0), ...; the graph holds nothing
    else.  Every state of a depth has the same number of children, so the
    tree's shape comes from ``children``, and its builder, ``reach`` or
    ``from_nodes``, sizes it.  A node is a state reached from the root;
    nodes that hold the same value with the same children share one state.
    A path is followed along the child indices in O(depth), and any key
    that is not a node of the tree raises ``KeyError``.  ``len`` is the
    tree's node count.
    """

    __slots__ = ("levels", "children")

    def __init__(self, levels: list, children: list):
        self.levels, self.children = levels, children

    @classmethod
    def reach(cls, partitions, root, children, value) -> "StateGraph":
        """The states reached from ``root`` by ``core.level_graph``, the equal ones of a depth numbered once.

        ``children(state, d)`` lists a depth-d state's children in level order and ``value(state, d)``
        its value, each called once per state after ``tree_nodes`` sizes the tree.
        """
        tree_nodes(partitions)
        horizon = len(partitions)
        states, levels, kids = level_graph(
            root, lambda state, depth: (value(state, depth), children(state, depth)), horizon, "the state graph"
        )
        levels.append([value(state, horizon) for state in states[horizon]])
        return cls(levels, kids)

    @classmethod
    def from_nodes(cls, partitions, nodes: list) -> "StateGraph":
        """Hash-cons node values given in level order into states, bottom-up.

        Nodes of a depth whose values are equal (as ``dict`` keys) and whose
        children are the same states are one state, which holds the first of
        those values.  A depth's states are numbered in order of first
        appearance.  Each depth is a few ``dict.fromkeys`` and ``map`` passes,
        with no Python call per node.
        """
        widths = list(accumulate((2 * len(partition.cells) for partition in partitions), mul, initial=1))
        if len(nodes) != sum(widths):
            raise ValueError(f"{len(nodes)} values for a tree of {sum(widths)} nodes")
        levels, children = [], []
        end, below = len(nodes), None
        for depth in reversed(range(len(widths))):
            keys = nodes[end - widths[depth] : end]
            end -= widths[depth]
            if below is not None:
                keys = list(zip(keys, zip(*[iter(below)] * (2 * len(partitions[depth].cells)))))
            index = dict.fromkeys(keys)
            index = dict(zip(index, range(len(index))))
            below = list(map(index.__getitem__, keys))
            if depth < len(partitions):
                levels.append(list(map(itemgetter(0), index)))
                children.append(list(map(itemgetter(1), index)))
            else:
                levels.append(list(index))
        # Both lists run from the leaves up.
        return cls(levels[::-1], children[::-1])

    def marked_nodes(self, marks: list) -> list:
        """(cell-path, mark) of each node whose state s of depth d has a mark ``marks[d][s]``, in level order."""
        return [(tuple(divmod(step, 2) for step in path), mark) for path, mark in marked_paths(self.children, marks)]

    def __getitem__(self, path) -> Fraction:
        if not isinstance(path, tuple) or len(path) > len(self.children):
            raise KeyError(path)
        state = 0
        for step, below in zip(path, self.children):
            if not (isinstance(step, tuple) and len(step) == 2):
                raise KeyError(path)
            ci, bit = step
            kids = below[state]
            # With bit 0 or 1, 2 * ci + bit is negative exactly when ci is.
            if not (isinstance(ci, int) and isinstance(bit, int) and 0 <= bit <= 1 and 0 <= 2 * ci + bit < len(kids)):
                raise KeyError(path)
            state = kids[2 * ci + bit]
        return self.levels[len(path)][state]

    def __len__(self) -> int:
        return sum(accumulate((len(kids[0]) for kids in self.children), mul, initial=1))


class ValueFunction(Frozen):
    """Rational values on every node of a partition-refined prequential tree.

    A node is addressed by its cell-path: per step, the index of the chosen
    forecast cell and the outcome bit.  Canonical string encoding of a path
    joins "cell-index:bit" items with commas; the root is the empty string.
    The nodes come level by level, children in (cell, bit) order.

    A horizon other than the count of partitions, one per step, is refused.
    ``values`` is a ``StateGraph``, which holds only levels and children and
    takes its shape and length from its children, sized by the builder that
    made it; any other ``values``, a dict of paths say, is refused, and so
    is a graph that does not fit the partitions, with other than horizon + 1
    levels or 2 * cells(d) children per state of an interior depth d.  A
    table is built by hand with ``StateGraph.from_nodes``.  Two tables are
    equal only if they are one object.
    """

    _fields = ("horizon", "partitions", "values")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __post_init__(self):
        if self.horizon != len(self.partitions):
            raise InputError(f"horizon {self.horizon} but {len(self.partitions)} partitions")
        graph = self.values
        if not isinstance(graph, StateGraph):
            raise InputError(f"a value table holds a StateGraph, not a {type(graph).__name__}")
        if (
            len(graph.levels) != self.horizon + 1
            or len(graph.children) != len(self.partitions)
            or any(set(map(len, kids)) != {2 * len(p.cells)} for kids, p in zip(graph.children, self.partitions))
        ):
            raise InputError(
                f"the state graph does not fit a horizon-{self.horizon} table over these partitions: it needs "
                f"{self.horizon + 1} levels and 2 * cells(d) children per state of each interior depth d"
            )

    def to_json(self) -> str:
        """The table document, keys in sorted order, written once per state by ``core.tree_json``.

        The keys are the ``_token``s along each node's cell-path.  After
        ``tree_nodes`` sizes the tree, a value too long for ``str`` is an
        ``InputError``, raised before any is formatted.
        """
        tree_nodes(self.partitions)
        graph = self.values
        limit = sys.get_int_max_str_digits()
        if any(digits_beyond_limit(v, limit) for level in graph.levels for v in level):
            raise InputError(f"a table value has more than {limit} digits, the interpreter's integer digit limit")
        head = {
            "horizon": self.horizon,
            "partitions": [
                [
                    {
                        "lo": str(c.lo),
                        "hi": str(c.hi),
                        "lo_open": c.lo_open,
                        "hi_open": c.hi_open,
                    }
                    for c in partition.cells
                ]
                for partition in self.partitions
            ],
            "values": {},  # the last key: ``tree_json`` writes the tree into it
        }
        tokens = [sorted(zip(level, range(len(level)))) for level in _tokens(self.partitions)]
        return tree_json(head, graph.levels, graph.children, tokens)

    @classmethod
    def from_json(cls, text: str) -> "ValueFunction":
        """Parse and validate a table; ``verify`` trusts what this accepts.

        Every partition must be ascending, disjoint cells covering [0, 1], one
        per step of the horizon, and the values are looked up at exactly the
        nodes of their tree, level by level, a missing key raising
        ``KeyError`` with its name.  The nodes are hash-consed on the value
        strings themselves: an equal string over the same child states is one
        state, so "1/2" and "2/4" are two.  Then each state's string is
        parsed, depth by depth from the root, which names the first
        unparsable value in level order.  Each distinct value or
        cell-endpoint string is parsed once, into one Fraction that every
        state or cell giving that string shares.  A document with any value
        that is not a string has every node's value parsed first, in level
        order, so a value such as ``1.0`` is refused even after an equal ``1``;
        its states are then keyed on the JSON values the same way.
        """
        number = parse_once_per_string(as_fraction)
        with reading("value-function"):
            doc = json.loads(text)
            partitions = []
            for step, cells_doc in enumerate(doc["partitions"], start=1):
                cells = tuple(_cell_from_json(step, c, number) for c in cells_doc)
                if not _covers_unit_interval(cells):
                    raise InputError(
                        f"partition {step}: cells must ascend, be disjoint and cover [0, 1]"
                    )
                partitions.append(ForecastPartition(cells))
            horizon = as_int(doc["horizon"], "horizon")
            if horizon != len(partitions):
                raise InputError(f"horizon {horizon} but {len(partitions)} partitions")
            given = doc["values"]
            nodes = list(map(given.__getitem__, _node_keys(partitions)))
            if set(map(type, nodes)) != {str}:
                # Node by node: the int 1 and the float 1.0 would be one key.
                for value in nodes:
                    number(value)
            states = StateGraph.from_nodes(partitions, nodes)
            graph = StateGraph([list(map(number, level)) for level in states.levels], states.children)
            if len(given) != len(nodes):
                raise InputError(f"value function has {len(given) - len(nodes)} keys that are not tree nodes")
        return cls(horizon, tuple(partitions), graph)


def _cell_from_json(step: int, doc, number) -> Cell:
    if not (isinstance(doc["lo_open"], bool) and isinstance(doc["hi_open"], bool)):
        raise InputError(f"partition {step}: lo_open and hi_open must be true or false")
    return Cell(number(doc["lo"]), number(doc["hi"]), doc["lo_open"], doc["hi_open"])


def _covers_unit_interval(cells: tuple[Cell, ...]) -> bool:
    """Whether the cells, each with lo <= hi, ascend and cover [0, 1], each point exactly once.

    The ends are compared on integers: a Fraction is in lowest terms, so two
    are equal exactly when their numerators and denominators are.
    """
    if not cells or cells[0].lo.numerator != 0 or cells[0].lo_open:
        return False
    if cells[-1].hi.numerator != cells[-1].hi.denominator or cells[-1].hi_open:
        return False
    # Neighbours meet at one point, which exactly one of them contains.
    return all(
        a.hi.numerator == b.lo.numerator and a.hi.denominator == b.lo.denominator and a.hi_open != b.lo_open
        for a, b in zip(cells, cells[1:])
    )


def _token(depth: int, ci: int, bit: int) -> str:
    """Step ``depth``'s key token for cell ``ci`` and outcome ``bit``: "ci:bit", led by a comma below the root."""
    return f"{',' if depth else ''}{ci}:{bit}"


def _tokens(partitions) -> list:
    """Each depth's child tokens in level order, none a prefix of another."""
    return [[_token(d, ci, bit) for ci in range(len(p.cells)) for bit in (0, 1)] for d, p in enumerate(partitions)]


def _node_keys(partitions) -> list:
    """Every node's key string in level order, after ``tree_nodes`` sizes the tree.

    ``from_json`` reads its values at these keys, so this sizes the table that ``StateGraph.from_nodes`` builds.
    A level is one comprehension, parent key plus token.
    """
    tree_nodes(partitions)
    keys, level = [""], [""]
    for tokens in _tokens(partitions):
        level = [key + token for key in level for token in tokens]
        keys.extend(level)
    return keys


def encode_cell_path(path: CellPath) -> str:
    return "".join(_token(depth, ci, bit) for depth, (ci, bit) in enumerate(path))


class _GameEngine:
    """Backward induction for one event, solved level by level on bitmask live-sets.

    Bit i of a live-set stands for box i.  ``partitions[depth].masks`` holds,
    per cell of step ``depth``'s partition, the pair (m0, m1) of boxes whose
    step accepts every forecast in the cell together with outcome 0 and 1
    respectively, so the survivors of a node are ``live & m0`` and
    ``live & m1``; the backward pass reads each pair with the cell's integer
    ends from the partition's ``rows``.  A live-set {i} of one box reads
    the partition's ``own[1 << i]`` instead: one row (m0, m1, lo, hi) over
    box i's whole interval, with only bit i in m0 and m1.  Outside that
    interval every cell scores 0, which never wins the strict ``>``; inside
    it the masks are the same for {i}, so the score is linear in a and the
    interval's ends decide the value.  Going forward, such a live-set
    reaches only itself, as its interval holds a cell with an outcome the
    box allows.  ``_values[depth]`` maps each live-set reachable at that
    depth, and the empty one, to its node value's numerator over
    ``_denominators[depth]``; ``value`` reads it as a Fraction.

    A free step, one that no box constrains, has masks ``((full, full),)``:
    one cell [0, 1], scale 1, and every box accepting either outcome.  It
    maps each live-set to itself and passes each value up unchanged.  The
    passes walk runs of depths that share one partition object, found in C
    as ``per_distinct_step`` finds its runs: over a free run of n depths the
    forward pass repeats the level above n times, and the backward pass the
    value dict and denominator below, one list repetition each.  The level's
    live-sets still count toward ``core.PAIR_BUDGET`` at every depth of the
    run, so a refusal inside it names the step a count per depth would.  A
    run that is not free is stepped a depth at a time.  ``masks``, each
    step's ``masks`` in a tuple, is built when read; the passes read the
    partitions.
    """

    def __init__(self, event: EventUnion):
        # The passes keep one level per depth, empty or not, so a horizon past
        # the budget is refused before any step is set up.
        budget = core.PAIR_BUDGET
        if event.horizon > budget:
            raise LiveSetBudgetError(
                f"the game engine keeps one level per step; horizon {event.horizon} "
                f"is more than its budget of {budget}"
            )
        self.event = event
        self.partitions = event_partitions(event)
        self._values, self._denominators = self._solve()

    @property
    def masks(self) -> tuple:
        """Each step's ``masks``, one (m0, m1) pair per cell."""
        return tuple(partition.masks for partition in self.partitions)

    def _solve(self) -> tuple[list, list]:
        """Collect the reachable live-sets going forward, then fill in numerators going back.

        Both passes walk ``steps``: (depth, partition, n) for a free run of n depths from ``depth``,
        and (depth, partition, 0) for a depth stepped cell by cell.
        """
        horizon, budget, partitions = self.event.horizon, core.PAIR_BUDGET, self.partitions
        full = self.all_live()
        free = ((full, full),)
        # Runs of one partition object start at depth 0 and wherever the object changes.
        starts = [0, *compress(range(1, horizon), map(is_not, partitions, partitions[1:]))]
        steps = []
        for start, end in zip(starts, [*starts[1:], horizon]):
            partition = partitions[start]
            if partition.masks == free:
                steps.append((start, partition, end - start))
            elif end - start == 1:  # the common run, on events whose steps all differ
                steps.append((start, partition, 0))
            else:
                steps += [(depth, partition, 0) for depth in range(start, end)]
        levels = [{full} - {0}]
        count = len(levels[0])
        for depth, partition, n in steps:
            if n:
                # The same live-sets at each of the n depths, counted at each, so a
                # refusal names the depth where the count first passes the budget.
                # The count never passes it before a step, so a refused level is not empty.
                reached = levels[depth]
                if count + n * len(reached) > budget:
                    raise _over_budget(budget, depth + (budget - count) // len(reached), horizon)
                count += n * len(reached)
                levels += [reached] * n
                continue
            step, own = [m for pair in partition.masks for m in pair], partition.own
            # Holding 0 from the start, len(reached) - 1 counts the non-empty live-sets.
            reached = {0}
            for live in levels[depth]:
                if live in own:  # a box alone: its interval holds a cell with an outcome it allows
                    reached.add(live)
                else:
                    reached.update([live & m for m in step])
                if count + len(reached) - 1 > budget:
                    raise _over_budget(budget, depth, horizon)
            reached.discard(0)
            count += len(reached)
            levels.append(reached)
        # below[live]: the value at the depth below, a numerator over that depth's denominator.
        below = dict.fromkeys(levels[horizon], 1)
        below[0] = 0
        values, denominators = [below], [1]
        for depth, partition, n in reversed(steps):
            if n:
                # The one cell's children are (live, live): each value passes up unchanged.
                values += [below] * n
                denominators += [denominators[-1]] * n
                continue
            q, rows, own = partition.scale, partition.rows, partition.own
            here = {0: 0}
            for live in levels[depth]:
                # Each cell's objective q*n0 + a*(n1 - n0) is linear in a = p*q, so it
                # peaks at the cell's hi when it rises and at its lo otherwise.  Every
                # score is a convex combination of values in [0, 1], so the largest
                # one, never below 0, is the node value.  A live-set of one box reads
                # its interval as one row: every other cell scores 0.
                value = 0
                for m0, m1, lo, hi in own.get(live, rows):
                    n0, n1 = below[live & m0], below[live & m1]
                    candidate = q * n0 + (hi if n1 > n0 else lo) * (n1 - n0)
                    if candidate > value:
                        value = candidate
                here[live] = value
            values.append(here)
            denominators.append(q * denominators[-1])
            below = here
        values.reverse()
        denominators.reverse()
        return values, denominators

    def all_live(self) -> int:
        return (1 << len(self.event.boxes)) - 1

    def survivors_at(self, live: int, depth: int, p: Fraction, y: int) -> int:
        """The boxes of ``live`` whose step ``depth`` accepts the forecast p, checked here, with outcome y.

        Each live box i is tested on its own row (m0, m1, lo, hi), ``own[1 << i]``, on integers: with
        p = a/b and the step's scale q, box i accepts p when lo*b <= a*q <= hi*b, and then y when bit i
        is in m_y.  No Fraction is compared and no ``Cell`` is built.
        """
        a, b = check_forecast(p).as_integer_ratio()
        partition = self.partitions[depth]
        a *= partition.scale
        own, survivors = partition.own, 0
        while live:
            bit = live & -live
            live ^= bit
            (row,) = own[bit]
            if row[2] * b <= a <= row[3] * b:
                survivors |= row[y]
        return survivors

    def live_for_prefix(self, prefix: PrequentialPrefix) -> int:
        live = self.all_live()
        for depth, (p, y) in enumerate(prefix):
            live = self.survivors_at(live, depth, p, check_outcome(y))  # survivors_at checks p
        return live

    def value(self, depth: int, live: int) -> Fraction:
        """The node value as a Fraction, built when read."""
        return Fraction(self._values[depth][live], self._denominators[depth])


_solved: _GameEngine | None = None  # the engine of the event object asked for last


def _engine(event: EventUnion) -> _GameEngine:
    """``event``'s engine, solved again unless ``event`` is the very object asked for last.

    An equal but distinct object is solved again, and a caller that
    alternates between two events solves each every time.
    """
    global _solved
    if _solved is None or _solved.event is not event:
        _solved = None  # dropped before the solve, so two engines are never kept
        _solved = _GameEngine(event)
    return _solved


def upper_game_probability(event: EventUnion) -> Fraction:
    """Root value of the backward induction: the exact upper game-theoretic probability."""
    eng = _engine(event)
    return eng.value(0, eng.all_live())


def conditional_upper_probability(event: EventUnion, x: PrequentialPrefix) -> Fraction:
    """Backward-induction value at the node reached by a prefix.

    At full length this is the membership indicator; the resulting function of
    the node is a superfarthingale.
    """
    if len(x) > event.horizon:
        raise ArityError(f"prefix length {len(x)} exceeds horizon {event.horizon}")
    eng = _engine(event)
    return eng.value(len(x), eng.live_for_prefix(x))


def witness_superfarthingale(event: EventUnion) -> ValueFunction:
    """The full cell-indexed table of conditional upper probabilities.

    Its root value equals ``upper_game_probability(event)``, its level-N values
    are the membership indicator, and it satisfies the superfarthingale
    inequality at every node and cell endpoint, which makes it the witness
    betting strategy achieving the upper probability.  It is reached from
    the root live-set by ``StateGraph.reach``, one state per (depth, live-set).
    """
    eng = _engine(event)

    def survivors(live: int, depth: int) -> list:
        return [live & m for pair in eng.partitions[depth].masks for m in pair]

    graph = StateGraph.reach(eng.partitions, eng.all_live(), survivors, lambda live, depth: eng.value(depth, live))
    return ValueFunction(event.horizon, eng.partitions, graph)


def optimal_forecast_at(event: EventUnion, x: PrequentialPrefix) -> Fraction:
    """Smallest forecast attaining the per-node supremum (ties broken toward 0).

    Closedness of the box constraints guarantees the supremum is attained at a
    closed endpoint of some partition cell, so the minimum is over a finite
    set of rationals.
    """
    if len(x) >= event.horizon:
        raise ArityError("optimal forecast is defined at interior nodes only")
    eng = _engine(event)
    depth = len(x)
    live = eng.live_for_prefix(x)
    best = eng.value(depth, live)
    # Cells are ordered and disjoint, so closed endpoints come in ascending order.
    partition = eng.partitions[depth]
    for (m0, m1), cell in zip(partition.masks, partition.cells):
        v0 = eng.value(depth + 1, live & m0)
        v1 = eng.value(depth + 1, live & m1)
        for p in cell.closed_endpoints():
            if (ONE - p) * v0 + p * v1 == best:
                return p
    # impossible for closed boxes; guards engine invariants
    raise RuntimeError("supremum not attained at any closed endpoint")


class LevyStrategy(Frozen):
    """Regime-switching betting strategy driving conditional values toward 1.

    Capital starts at 1 and is frozen while the conditional upper probability
    of the target event stays at or above the threshold.  When it dips below,
    the strategy rides the witness superfarthingale rescaled to current
    capital until capital grows by the factor 1/threshold, records that
    milestone, freezes again, and waits for the next dip.  It rides exactly
    while ``ride_base``, the conditional value at which the ride began, is
    set; ``regime`` names the two states.  On event members whose prefixes
    the witness values positively, each completed ride multiplies capital by
    more than 1/threshold; riding a zero-valued witness is replaced by
    freezing, which keeps the process a non-negative farthingale vacuously
    (e.g. on the empty event capital stays at 1).  ``live`` is the bitmask
    of the boxes still consistent with the prefix.  The ``engine``, the
    event's, solved once, is not a field: ==, hash and repr leave it out.
    """

    _fields = ("event", "threshold", "depth", "live", "capital", "ride_base", "conditional", "milestones")

    def __init__(self, event, threshold, depth, live, capital, ride_base, conditional, engine, milestones=()):
        super().__init__(event, threshold, depth, live, capital, ride_base, conditional, milestones)
        object.__setattr__(self, "engine", engine)

    @property
    def regime(self) -> str:
        return "waiting" if self.ride_base is None else "riding"

    @classmethod
    def start(cls, event: EventUnion, threshold) -> "LevyStrategy":
        threshold = as_fraction(threshold)
        if not ZERO < threshold < ONE:
            raise InputError("threshold must lie strictly between 0 and 1")
        eng = _engine(event)
        live = eng.all_live()
        w0 = eng.value(0, live)
        ride_base = w0 if ZERO < w0 < threshold else None  # capital is 1
        return cls(event=event, threshold=threshold, depth=0, live=live, capital=ONE, ride_base=ride_base,
                   conditional=w0, engine=eng)

    def step(self, p, y) -> "LevyStrategy":
        return levy_strategy_step(self, (p, y))


def levy_strategy_step(state: LevyStrategy, step) -> LevyStrategy:
    """Advance the strategy by one (forecast, outcome) step.

    A ride starts from the last milestone (1 before the first), as capital
    is frozen while waiting, and ends once it reaches that times 1/threshold;
    a state not riding starts a ride when the new conditional value is
    positive and below the threshold and capital is positive.  Steps past
    the horizon leave the state terminal with capital frozen.
    """
    if state.depth >= state.event.horizon:
        return state
    p, y = step
    live = state.engine.survivors_at(state.live, state.depth, p, check_outcome(y))  # survivors_at checks p
    w = state.engine.value(state.depth + 1, live)
    capital, ride_base, milestones = state.capital, state.ride_base, state.milestones
    if ride_base is not None:
        milestone = milestones[-1] if milestones else ONE
        capital = milestone * w / ride_base
        if capital >= milestone / state.threshold:
            ride_base, milestones = None, milestones + (capital,)
    if ride_base is None and ZERO < w < state.threshold and capital > ZERO:
        ride_base = w
    return LevyStrategy(state.event, state.threshold, state.depth + 1, live, capital, ride_base, w, state.engine,
                        milestones)

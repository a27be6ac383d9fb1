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
shares its neighbour's level in both passes.  The forward pass counts the
(depth, live-set) pairs it reaches and refuses an event past
``LIVE_SET_BUDGET`` with ``LiveSetBudgetError`` (an input error), because
the count can double with every box; a horizon past the budget is refused
the same way before any step is set up, since every depth holds a level even
when no box is live.  The empty live-set has value zero.

The backward pass runs on integers.  A value at depth d is a numerator over
D_d = q_d * D_{d+1}, where q_d is the partition's ``scale``, the lcm of step
d's endpoint denominators, and each cell carries its ends as the integers
a = p * q_d.  A cell then scores q_d * n0 + a * (n1 - n0) at its better end,
and the pass neither builds nor hashes a Fraction.  A value becomes a
Fraction when it is read.  All operations are pure and the exact arithmetic
makes results independent of evaluation order.

One slot keeps the engine of the last event object asked for, compared by
identity, so ``value --table-out`` solves its event once; any other object
is solved again, and no other engine is kept between calls.

A value table is held as levels of states, a ``StateGraph``.  A witness
table and a strategy table are reached from the root by ``StateGraph.reach``,
the equal states of a depth being one; any other table is hash-consed from
its node values in level order.  The tree order lives here alone:
``cell_levels`` fixes it (level by level, children in (cell, bit) order) and
sizes the tree with ``tree_nodes``, against ``core.check_walk``'s node
budget, before it starts.  No walk builds a cell-path: ``to_json`` writes
each state's subtree once, ``from_json`` builds the keys a level at a time,
and ``StateGraph.marked_nodes`` decodes only the paths of the nodes it reports.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, product

from .core import (ONE, ZERO, InputError, PrequentialPrefix, as_fraction, as_int, check_outcome, check_walk,
                   digits_beyond_limit, parse_once_per_string, reading)
from .events import ArityError, Cell, EventUnion, ForecastPartition, event_partitions

CellPath = tuple[tuple[int, int], ...]

# Most (depth, live-set) pairs the game engine's forward pass may reach; the
# count can double with every box, so it is checked as the pass goes.
LIVE_SET_BUDGET = 300_000


class LiveSetBudgetError(InputError):
    """An event's game tree reaches more live-sets than ``LIVE_SET_BUDGET``."""


def _over_budget(depth: int, horizon: int) -> LiveSetBudgetError:
    return LiveSetBudgetError(
        f"the game engine reaches more than {LIVE_SET_BUDGET} (depth, live-set) "
        f"pairs by step {depth + 1} of {horizon}; too many overlapping boxes"
    )


def tree_nodes(partitions) -> int:
    """The node count of the partition-refined tree, refused past ``check_walk``'s budget.

    The count is 1 + sum over d of prod over k <= d of 2 * cells(k).
    """
    nodes = width = 1
    for partition in partitions:
        width *= 2 * len(partition.cells)
        nodes += width
    check_walk(nodes, f"the cell-path tree at horizon {len(partitions)}")
    return nodes


def cell_levels(partitions, root, children):
    """Yield the states of the partition-refined tree one level at a time, each level a list.

    Level 0 is ``[root]``.  A node at depth d has one child per cell of
    ``partitions[d]`` and outcome bit, in the order (0, 0), (0, 1), (1, 0), ...;
    ``children(state, d)``, called once per node at depth d, returns them in
    that order, and level d + 1 lists them parent by parent.  The tree is
    sized with ``tree_nodes`` before the root level is yielded.
    """
    tree_nodes(partitions)
    level = [root]
    yield level
    for depth in range(len(partitions)):
        level = [state for parent in level for state in children(parent, depth)]
        yield level


def cell_path_at(partitions, depth: int, index: int) -> CellPath:
    """The cell-path of node ``index`` of depth ``depth``, by mixed radix 2 * cells(k)."""
    path = []
    for partition in reversed(partitions[:depth]):
        index, step = divmod(index, 2 * len(partition.cells))
        path.append(divmod(step, 2))
    return tuple(reversed(path))


def _level_order(partitions):
    """Every node's cell-path in ``cell_levels`` order: per depth, the product of the steps so far."""
    steps = [[(ci, bit) for ci in range(len(p.cells)) for bit in (0, 1)] for p in partitions]
    return chain.from_iterable(product(*steps[:depth]) for depth in range(len(steps) + 1))


class StateGraph(Mapping):
    """A read-only, path-keyed view of a value table held as levels of distinct states.

    ``levels[d]`` lists the values of depth d's states, and state 0 of depth
    0 is the root.  At an interior depth, ``children[d][s]`` holds state s's
    child-state indices at depth d + 1, one per (cell, bit) in ``cell_levels``
    order.  A node is a state reached from the root; nodes that hold the same
    value with the same children share one state.  A path is followed along
    the child indices in O(depth), and any key that is not a node of the
    tree raises ``KeyError``.  ``len`` is the tree's node count and iteration
    yields every node's cell-path in level order.
    """

    __slots__ = ("levels", "children", "_partitions", "_size")

    def __init__(self, partitions, levels: list, children: list):
        self.levels, self.children = levels, children
        self._partitions = tuple(partitions)
        self._size = tree_nodes(partitions)

    @classmethod
    def reach(cls, partitions, root, children, value) -> "StateGraph":
        """The states reached from ``root``, the equal ones of a depth numbered once, as first reached.

        ``children(state, d)`` lists a depth-d state's children in ``cell_levels`` order and
        ``value(state, d)`` its value, each called once per state after ``tree_nodes`` sizes the tree.
        """
        tree_nodes(partitions)
        states, levels, kids = [root], [], []
        for depth in range(len(partitions)):
            levels.append([value(state, depth) for state in states])
            index: dict = {}
            kids.append([tuple(index.setdefault(c, len(index)) for c in children(s, depth)) for s in states])
            states = list(index)
        levels.append([value(state, len(partitions)) for state in states])
        return cls(partitions, levels, kids)

    @classmethod
    def from_nodes(cls, partitions, nodes: list) -> "StateGraph":
        """Hash-cons node values given in ``cell_levels`` order into states, bottom-up.

        A leaf's key is its value's ``id``, an interior node's adds its child
        states; the list keeps every value alive, so no id is reused.
        """
        widths = [1]
        for partition in partitions:
            widths.append(widths[-1] * 2 * len(partition.cells))
        if len(nodes) != sum(widths):
            raise ValueError(f"{len(nodes)} values for a tree of {sum(widths)} nodes")
        levels, children = [], []
        end, below = len(nodes), None
        for depth in reversed(range(len(widths))):
            level = nodes[end - widths[depth] : end]
            end -= widths[depth]
            keys = map(id, level)
            if below is not None:
                keys = zip(keys, zip(*[iter(below)] * (2 * len(partitions[depth].cells))))
            index: dict = {}
            below = [index.setdefault(key, len(index)) for key in keys]
            # States are numbered in order of first appearance, and so are these keys.
            levels.append(list(dict(zip(below, level)).values()))
            children.append([key[1] for key in index] if depth < len(partitions) else None)
        # Both lists run from the leaves up, and the leaves have no children.
        return cls(partitions, levels[::-1], children[1:][::-1])

    def marked_nodes(self, marks: list) -> list:
        """(cell-path, mark) of each node whose state s of depth d has a mark ``marks[d][s]``, in level order.

        Depths 0 .. len(marks) - 1 are walked only if some state is marked.
        """
        if not any(marks):
            return []
        nodes = cell_levels(self._partitions[: len(marks) - 1], 0, lambda state, d: self.children[d][state])
        return [
            (cell_path_at(self._partitions, depth, index), marked[state])
            for depth, (level, marked) in enumerate(zip(nodes, marks))
            for index, state in enumerate(level)
            if state in marked
        ]

    def __getitem__(self, path) -> Fraction:
        if not isinstance(path, tuple) or len(path) > len(self.children):
            raise KeyError(path)
        state = 0
        for step, partition, below in zip(path, self._partitions, self.children):
            if not (isinstance(step, tuple) and len(step) == 2):
                raise KeyError(path)
            ci, bit = step
            cells = len(partition.cells)
            if not (isinstance(ci, int) and isinstance(bit, int) and 0 <= ci < cells and 0 <= bit <= 1):
                raise KeyError(path)
            state = below[state][2 * ci + bit]
        return self.levels[len(path)][state]

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return _level_order(self._partitions)


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """Rational values on every node of a partition-refined prequential tree.

    A node is addressed by its cell-path: per step, the index of the chosen
    forecast cell and the outcome bit.  Canonical string encoding of a path
    joins "cell-index:bit" items with commas; the root is the empty string.
    ``cell_levels`` fixes the nodes and their order.

    ``values`` maps cell-paths to values.  Tables the library builds hold a
    ``StateGraph``; any other mapping (a dict, say) works as well, and
    ``state_graph`` reads it once into one.
    """

    horizon: int
    partitions: tuple[ForecastPartition, ...]
    values: Mapping

    def state_graph(self) -> StateGraph:
        """The table as levels of states: ``values`` itself if it is one.

        Any other mapping is sized with ``tree_nodes`` and read once in level
        order, and a missing node raises ``KeyError``.
        """
        if isinstance(self.values, StateGraph):
            return self.values
        tree_nodes(self.partitions)
        nodes = [self.values[path] for path in _level_order(self.partitions)]
        return StateGraph.from_nodes(self.partitions, nodes)

    def to_json(self) -> str:
        """The table document, keys in sorted order, written once per state.

        ``sort_keys`` puts a node before its subtree, and sibling subtrees in
        their tokens' string order (no token is a prefix of another), so one
        text serves every node of a state: its own item, then each child's
        text with its keys extended by the child's token.  After ``tree_nodes``
        sizes the tree, a value too long for ``str`` is an ``InputError``,
        raised before any is formatted.
        """
        tree_nodes(self.partitions)
        graph = self.state_graph()
        limit = sys.get_int_max_str_digits()
        if any(digits_beyond_limit(v, limit) for level in graph.levels for v in level):
            raise InputError(f"a table value has more than {limit} digits, the interpreter's integer digit limit")
        mark = "\x00"  # in no value's text, which is digits, "-" and "/"
        items = [[f'"{mark}": "{v!s}"' for v in level] for level in graph.levels]
        texts = items[-1]
        for depth in reversed(range(len(self.partitions))):
            lead = f"{mark}," if depth else ""
            order = sorted((f"{lead}{i // 2}:{i % 2}", i) for i in range(2 * len(self.partitions[depth].cells)))
            texts = [
                ", ".join([item, *(texts[kids[i]].replace(mark, key) for key, i in order)])
                for item, kids in zip(items[depth], graph.children[depth])
            ]
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
            "values": {},  # the last key: its items are the root's text
        }
        return json.dumps(head, sort_keys=True)[:-2] + texts[0].replace(mark, "") + "}}"

    @classmethod
    def from_json(cls, text: str) -> "ValueFunction":
        """Parse and validate a table; ``verify`` trusts what this accepts.

        Every partition must be ascending, disjoint cells covering [0, 1], one
        per step of the horizon, and the values are read at exactly the nodes
        of their tree, level by level, and hash-consed into a ``StateGraph``.
        Each distinct value or cell-endpoint string is parsed once, into one
        Fraction that every node or cell giving that string shares, so nodes
        with equal values and equal children are one state.
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
            nodes = list(map(number, [given[key] for key in _node_keys(partitions)]))
            if len(given) != len(nodes):
                raise InputError(f"value function has {len(given) - len(nodes)} keys that are not tree nodes")
        return cls(horizon, tuple(partitions), StateGraph.from_nodes(partitions, nodes))


def _cell_from_json(step: int, doc, number) -> Cell:
    if not (isinstance(doc["lo_open"], bool) and isinstance(doc["hi_open"], bool)):
        raise InputError(f"partition {step}: lo_open and hi_open must be true or false")
    return Cell(number(doc["lo"]), number(doc["hi"]), doc["lo_open"], doc["hi_open"])


def _covers_unit_interval(cells: tuple[Cell, ...]) -> bool:
    """Whether the cells ascend and cover [0, 1], each point exactly once."""
    if not cells or cells[0].lo != ZERO or cells[0].lo_open:
        return False
    if cells[-1].hi != ONE or cells[-1].hi_open:
        return False
    # Neighbours meet at one point, which exactly one of them contains.
    return all(a.hi == b.lo and a.hi_open != b.lo_open for a, b in zip(cells, cells[1:]))


def _node_keys(partitions) -> list:
    """Every node's key string in ``cell_levels`` order, after ``tree_nodes`` sizes the tree.

    A level is one comprehension, parent key plus token; below the root a token leads with its comma.
    """
    tree_nodes(partitions)
    keys, level = [""], [""]
    for depth, p in enumerate(partitions):
        tokens = [f"{',' if depth else ''}{ci}:{bit}" for ci in range(len(p.cells)) for bit in (0, 1)]
        level = [key + token for key in level for token in tokens]
        keys.extend(level)
    return keys


def encode_cell_path(path: CellPath) -> str:
    return ",".join(f"{ci}:{bit}" for ci, bit in path)


class _GameEngine:
    """Backward induction for one event, solved level by level on bitmask live-sets.

    Bit i of a live-set stands for box i.  ``masks[depth]`` is the ``masks``
    of step ``depth``'s partition: per cell, the pair (m0, m1) of boxes whose
    step accepts every forecast in the cell together with outcome 0 and 1
    respectively, so the survivors of a node are ``live & m0`` and
    ``live & m1``.  ``_values[depth]`` maps each live-set reachable at that
    depth, and the empty one, to its node value's numerator over
    ``_denominators[depth]``; ``value`` reads it as a Fraction.

    A free step, one that no box constrains, has masks ``((full, full),)``:
    one cell [0, 1], scale 1, and every box accepting either outcome.  It
    maps each live-set to itself and passes each value up unchanged, so the
    forward pass appends the level above again and the backward pass the
    value dict and denominator below; the level's live-sets still count
    toward ``LIVE_SET_BUDGET``.
    """

    def __init__(self, event: EventUnion):
        # The passes keep one level per depth, empty or not, so a horizon past
        # the budget is refused before any step is set up.
        if event.horizon > LIVE_SET_BUDGET:
            raise LiveSetBudgetError(
                f"the game engine keeps one level per step; horizon {event.horizon} "
                f"is more than its budget of {LIVE_SET_BUDGET}"
            )
        self.event = event
        self.partitions = event_partitions(event)
        self.masks = tuple(partition.masks for partition in self.partitions)
        self._values, self._denominators = self._solve()

    def _solve(self) -> tuple[list, list]:
        """Collect the reachable live-sets going forward, then fill in numerators going back."""
        horizon = self.event.horizon
        full = self.all_live()
        free = [masks == ((full, full),) for masks in self.masks]
        levels = [{full} - {0}]
        count = len(levels[0])
        for depth in range(horizon):
            if free[depth]:
                # The same live-sets again, counted again: a refusal comes at the same step.
                reached = levels[depth]
                if count + len(reached) > LIVE_SET_BUDGET:
                    raise _over_budget(depth, horizon)
            else:
                step = [m for pair in self.masks[depth] for m in pair]
                # Holding 0 from the start, len(reached) - 1 counts the non-empty live-sets.
                reached = {0}
                for live in levels[depth]:
                    reached.update([live & m for m in step])
                    if count + len(reached) - 1 > LIVE_SET_BUDGET:
                        raise _over_budget(depth, horizon)
                reached.discard(0)
            count += len(reached)
            levels.append(reached)
        # below[live]: the value at the depth below, a numerator over that depth's denominator.
        below = dict.fromkeys(levels[horizon], 1)
        below[0] = 0
        values, denominators = [below], [1]
        for depth in reversed(range(horizon)):
            if free[depth]:
                # The one cell's children are (live, live): each value passes up unchanged.
                values.append(below)
                denominators.append(denominators[-1])
                continue
            partition = self.partitions[depth]
            q = partition.scale
            cells = [(m0, m1, c.grid_lo, c.grid_hi) for (m0, m1), c in zip(partition.masks, partition.cells)]
            here = {0: 0}
            for live in levels[depth]:
                # Each cell's objective q*n0 + a*(n1 - n0) is linear in a = p*q, so it
                # peaks at the cell's hi when it rises and at its lo otherwise.  Every
                # score is a convex combination of values in [0, 1], so the largest
                # one, never below 0, is the node value.
                value = 0
                for m0, m1, lo, hi in cells:
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
        # Every box test is constant on a cell, so the cell's mask decides them all.
        return live & self.masks[depth][self.partitions[depth].cell_index_of(p)][y]

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
        return [live & m for pair in eng.masks[depth] for m in pair]

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
    for (m0, m1), cell in zip(eng.masks[depth], eng.partitions[depth].cells):
        v0 = eng.value(depth + 1, live & m0)
        v1 = eng.value(depth + 1, live & m1)
        for p in cell.closed_endpoints():
            if (ONE - p) * v0 + p * v1 == best:
                return p
    # impossible for closed boxes; guards engine invariants
    raise RuntimeError("supremum not attained at any closed endpoint")


@dataclass(frozen=True)
class LevyStrategy:
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
    (e.g. on the empty event capital stays at 1).
    """

    event: EventUnion
    threshold: Fraction
    depth: int
    live: int  # bitmask of the boxes still consistent with the prefix
    capital: Fraction
    ride_base: Fraction | None
    conditional: Fraction
    engine: _GameEngine = field(compare=False, repr=False)  # the event's, solved once
    milestones: tuple[Fraction, ...] = ()

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
    return replace(state, depth=state.depth + 1, live=live, capital=capital, ride_base=ride_base,
                   conditional=w, milestones=milestones)

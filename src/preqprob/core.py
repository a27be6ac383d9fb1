"""Core prequential objects: forecasts, outcomes, histories, forecasting systems.

A prequential step is a forecast (a rational probability in [0, 1]) followed by
a binary outcome.  Finite forecast/outcome sequences are tuples of
``(Fraction, int)`` pairs; finite outcome histories are tuples of ints.  The
empty tuple is the root of both trees.

A forecasting system is held in a stepping form: a start state for the
empty history and its own function ``expand(state) -> (forecast, state after
0, state after 1)``.  Forecasts, sampling, induced paths, cylinder weights
and tables step that form from the root, one expand per node they visit,
instead of computing each history's forecast anew.

The outcome tree is indexed in level order (``history_at``): the children of
k are 2k+1 and 2k+2.  Every whole-tree walk of a stepping form is one
``level_graph``, each distinct state of a depth expanded once and the
(depth, state) pairs kept counted against ``PAIR_BUDGET``, as the engines'
forward passes count theirs; a tree written node by node is sized first by
``check_walk``, against the outcome tree at ``MAX_TABLE_HORIZON``.

Everything here is exact: forecasts and probabilities are
``fractions.Fraction`` values, and all operations are pure.  Floating point
enters the package only in the sampler, whose float compare is exact, in
Monte Carlo estimators and in report output.
Input is checked once, where it enters: refused input raises ``InputError``
(a ``ValueError``), and document loaders read under one guard, ``reading``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import operator
import re
import sys
from _random import Random as _MersenneTwister  # the C class ``random.Random`` subclasses
from collections.abc import Callable, Mapping
from fractions import Fraction

Forecast = Fraction
BinaryHistory = tuple[int, ...]
PrequentialPrefix = tuple[tuple[Fraction, int], ...]

ZERO = Fraction(0)
ONE = Fraction(1)
_TWO_53 = float(2**53)  # random() returns multiples of 1 / 2^53

# Largest horizon whose outcome tree is materialized; ``check_walk`` derives
# the node budget from it.  Rule-backed systems work at any horizon.
MAX_TABLE_HORIZON = 16

# Most (depth, state) pairs any level walk keeps, read through ``core`` once per call so one setting moves every walk.
PAIR_BUDGET = 300_000

# Most samples ``ville_check`` and ``monte_carlo_probability`` draw in one call.
SAMPLE_LIMIT = 10**7


class InputError(ValueError):
    """A refused argument or document: the caller's input, not the program, is at fault."""


class HorizonError(InputError):
    """A history, prefix or step index exceeds the relevant horizon."""


class Frozen:
    """An immutable value whose ``==``, hash and repr read the fields its class names in ``_fields``.

    ``__init__`` takes the fields in that order, by position or keyword, the
    last ``len(_defaults)`` defaulting to ``_defaults``, then calls the
    class's check, ``__post_init__``, which may set a field through
    ``object.__setattr__``.  ``==`` compares the field tuples of two values
    of one class and is ``NotImplemented`` for any other class; the hash is
    the field tuple's.  No attribute can be assigned or deleted.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        get = operator.attrgetter(*cls._fields)  # _key(value) is the field tuple, also of one field
        cls._key = get if len(cls._fields) > 1 else staticmethod(lambda value: (get(value),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = {**dict(zip(fields[::-1], self._defaults[::-1])), **dict(zip(fields, args)), **kwargs}
            if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]) or len(values) < len(fields):
                raise TypeError(f"{type(self).__name__}() takes {', '.join(fields)}, each once, "
                                f"the last {len(self._defaults)} optional")
            args = [values[name] for name in fields]
        set_field = object.__setattr__  # the class's own refuses
        for name, value in zip(fields, args):
            set_field(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@contextlib.contextmanager
def reading(document: str, *also: type):
    """Guard a document loader: JSON, key, type and index errors, and ``also``, become an ``InputError``.

    A ``RecursionError`` is one too: ``json.loads`` raises it on a document
    nested too deeply to parse.
    """
    try:
        yield
    except (KeyError, json.JSONDecodeError, TypeError, AttributeError, IndexError, RecursionError, *also) as exc:
        what = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise InputError(f"malformed {document} document: {what}") from exc


def check_walk(nodes: int, what: str) -> None:
    """Refuse, before any work, a tree of more nodes than the outcome tree at MAX_TABLE_HORIZON."""
    if nodes > 2 ** (MAX_TABLE_HORIZON + 1) - 1:
        count = nodes if nodes.bit_length() <= 64 else f"more than 2^{nodes.bit_length() - 1}"
        raise HorizonError(f"{what} has {count} nodes; table form limited to horizon {MAX_TABLE_HORIZON}")


def level_graph(start, expand: Callable, horizon: int, what: str) -> tuple[list, list, list]:
    """Step a form from ``start`` for ``horizon`` steps, each distinct (depth, state) expanded once, in level order.

    ``expand(state, depth)`` returns ``(item, children)``, the children being
    hashable states.  Returns ``(states, items, links)``: depth d's states, in
    the order first reached, and each interior state's item and child indices;
    a depth with no state ends the lists.  The (depth, state) pairs kept are
    counted against ``PAIR_BUDGET``, read once per call, a level at a time,
    before the next is expanded, the refusal naming ``what`` and the step.
    """
    states, items, links, kept = [[start]], [], [], 1
    budget = PAIR_BUDGET
    for depth in range(horizon):
        index, here, kids = {}, [], []
        for state in states[depth]:
            item, children = expand(state, depth)
            here.append(item)
            row = []
            for child in children:
                row.append(index.setdefault(child, len(index)))
            kids.append(row)
        states.append(list(index))
        items.append(here)
        links.append(kids)
        if not index:
            break
        kept += len(index)
        if kept > budget:
            raise HorizonError(f"{what} keeps more than {budget} (depth, state) pairs by step {depth + 1} of {horizon}")
    return states, items, links


def marked_paths(links: list, marks: list) -> list:
    """(path, mark) of each node whose state s of depth d has a mark ``marks[d][s]``, in level order.

    ``links`` is ``level_graph``'s, with as many children for every state of a
    depth, and a path lists the child taken at each step.  The tree is walked
    to the deepest marked depth, and a reported node's path is decoded from its
    place in its level by mixed radix over the child counts.
    """
    counts, level, found = [len(kids[0]) for kids in links], [0], []
    deepest = max((depth for depth, marked in enumerate(marks) if marked), default=-1)
    for depth, marked in enumerate(marks[: deepest + 1]):
        if depth:
            level = [state for parent in level for state in links[depth - 1][parent]]
        for index, state in enumerate(level):
            if state in marked:
                path = ()
                for count in reversed(counts[:depth]):
                    index, step = divmod(index, count)
                    path = (step, *path)
                found.append((path, marked[state]))
    return found


def tree_json(head: dict, values: list, links: list, tokens: list, separators: tuple[str, str] = (", ", ": ")) -> str:
    """``json.dumps(head, sort_keys=True, separators=separators)`` with a tree's items in its last key's ``{}``.

    ``values[d]`` lists depth d's state values and ``links[d][s]`` state s's
    child indices at depth d + 1, as ``level_graph`` gives them; ``tokens[d]``
    lists depth d's (token, child index) pairs in sorted-token order, no token
    a prefix of another.  A node's key is the tokens along its path, and its
    item's text is ``str`` of its value.  Sorted keys put a node before its
    subtree and sibling subtrees in their tokens' order, so from the deepest
    level up one text serves every node reaching a state: its own item, then
    each child's text with its keys extended by the child's token.
    """
    comma, colon = separators
    mark = "\x00"  # where a key's tokens go: in no item's text, which is digits, "-" and "/"
    items = [[f'"{mark}"{colon}"{value!s}"' for value in level] for level in values]
    texts = items[-1]
    for depth in reversed(range(len(links))):
        # The root's children take their tokens without the mark: only the root's own item keeps one.
        keys = [(mark + token if depth else token, child) for token, child in tokens[depth]]
        texts = [
            comma.join([item, *(texts[kids[child]].replace(mark, key) for key, child in keys)])
            for item, kids in zip(items[depth], links[depth])
        ]
    return json.dumps(head, sort_keys=True, separators=separators)[:-2] + texts[0].replace(mark, "", 1) + "}}"


def outcome_tree_nodes(horizon: int) -> int:
    """2^(horizon+1) - 1, capped where ``check_walk`` stops naming counts exactly."""
    return 2 ** (min(horizon, 64) + 1) - 1


def history_at(k: int) -> BinaryHistory:
    """The history at index k of the outcome tree in level order: the bits of k+1 after its leading 1."""
    return tuple(map(int, bin(k + 1)[3:]))


def as_int(value, what: str) -> int:
    """An integer field of a document: an int, or an ASCII string ``int`` reads; floats and booleans are refused.

    ``int`` reads any Unicode digit, so a string with a character outside
    ASCII is refused before it is read.
    """
    try:
        if isinstance(value, int) and not isinstance(value, bool) or isinstance(value, str) and value.isascii():
            return int(value)
    except ValueError:
        pass
    raise InputError(f"{what} must be an integer, got {value!r}")


# The exponent of a string like "1.5e-3", the one part of it whose length ``int`` does not limit.
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


# What 3.11's ``Fraction`` refuses and another supported Python reads: a "_"
# not between two ASCII digits, or whitespace next to "/".  It is compiled
# by ``re``'s cache on first use, not at import.
_OFF_GRAMMAR = r"(?<![0-9])_|_(?![0-9])|\s/|/\s"


def _exponent_beyond_limit(text: str) -> bool:
    """Whether ``text`` has an exponent of magnitude over ``sys.get_int_max_str_digits()`` (0: no limit)."""
    match, limit = _EXPONENT.search(text), sys.get_int_max_str_digits()
    if not (match and limit):
        return False
    digits = match[1].lstrip("+-").replace("_", "").lstrip("0")
    return len(digits) > len(str(limit)) or int(digits or "0") > limit


def digits_beyond_limit(value: Fraction, limit: int) -> bool:
    """Whether ``value``'s numerator or denominator has more than ``limit`` digits (0: no limit).

    ``str`` refuses such a value.  Below 2^(3 limit) < 10^limit a number has
    at most ``limit`` digits, so one bit-length compare settles every value
    whose numerator and denominator are that short.
    """
    top, bottom = abs(value.numerator), value.denominator
    return (top | bottom).bit_length() > 3 * limit and bool(limit) and max(top, bottom) >= 10**limit


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and strings like "1/2" or "0.25" to Fraction; refuse floats and booleans.

    ``Fraction`` reads any Unicode digit, so a string with a character
    outside ASCII is refused first, before its exponent is looked at.
    ``int`` refuses a digit string longer than ``sys.get_int_max_str_digits()``,
    and so does the parse of a numerator or denominator.  An exponent's
    magnitude is held to the same limit before the parse: "1e-30000000"
    would otherwise build 10^30000000.  The parsed numerator and denominator
    are held to it after the parse: "1e4300" is 10^4300, one digit too long
    to print.

    An ASCII string "n" or "n/d" of digits alone, d not 0, and no longer
    than that limit (any length when it is 0) is read as ``int`` reads its
    parts, without the regular expressions; any other string takes the
    general path.  A ``Fraction`` comes back as itself; a subclass of one is
    found by an ABC ``isinstance`` test, which no such string pays.

    The general path reads Python 3.11's grammar on every supported Python:
    ``Fraction`` reads no "_" before 3.11 and whitespace next to "/" from
    3.12.  A "_" not between two ASCII digits, or whitespace next to "/",
    is refused; any other string is parsed with its underscores removed.
    """
    if type(value) is Fraction:
        return value
    limit = sys.get_int_max_str_digits()
    if isinstance(value, str) and value.isascii() and (len(value) <= limit or not limit):
        top, slash, bottom = value.partition("/")
        bottom = bottom if slash else "1"
        if top.isdigit() and bottom.isdigit() and (denominator := int(bottom)):
            return Fraction(int(top), denominator)
    if isinstance(value, str) and not value.isascii():
        raise InputError(f"cannot interpret {value!r} as an exact rational: it has a character outside ASCII")
    if isinstance(value, str) and _exponent_beyond_limit(value):
        raise InputError(
            f"cannot interpret {value!r} as an exact rational: its exponent's magnitude is over "
            f"{limit}, the interpreter's limit on integer digits"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        off_grammar = ("_" in value or "/" in value) and re.search(_OFF_GRAMMAR, value)
        read = None if off_grammar else value.replace("_", "")
    else:
        read = value if not isinstance(value, bool) and isinstance(value, int) else None
    try:
        fraction = None if read is None else Fraction(read)
    except (ValueError, ZeroDivisionError):
        fraction = None
    if fraction is None:
        raise InputError(f"cannot interpret {value!r} as an exact rational")
    # Without an exponent, a string of at most ``limit`` characters parses to at most ``limit`` digits.
    may_be_long = isinstance(value, str) and ("e" in value or "E" in value or len(value) > limit)
    if may_be_long and digits_beyond_limit(fraction, limit):
        raise InputError(
            f"cannot interpret {value!r} as an exact rational: its numerator or denominator has "
            f"more than {limit} digits, the interpreter's limit on integer digits"
        )
    return fraction


def parse_once_per_string(parse: Callable) -> Callable:
    """``parse`` called once per distinct string, for the values of one document.

    Only strings share a result: ``as_fraction`` refuses the float 1.0, which
    equals 1 as a key.  Any other value goes through ``parse`` every time.
    """
    cached = functools.cache(parse)
    return lambda value: cached(value) if isinstance(value, str) else parse(value)


def check_forecast(p) -> Fraction:
    """Validate a forecast: an exact rational in [0, 1]."""
    p = as_fraction(p)
    if not 0 <= p.numerator <= p.denominator:  # a Fraction's denominator is positive
        raise InputError(f"forecast {p} outside [0, 1]")
    return p


def check_outcome(y) -> int:
    if y not in (0, 1):
        raise InputError(f"outcome must be 0 or 1, got {y!r}")
    return int(y)


def check_seed(seed: int, what: str = "seed") -> int:
    """Refuse a negative seed: ``random.Random(-k)`` draws what ``random.Random(k)`` draws.

    Sample i of ``ville_check``, ``monte_carlo_probability`` and ``preq
    levy-trace`` is seeded seed + i, so a negative seed would repeat samples.
    """
    if seed < 0:
        raise InputError(f"{what} must be non-negative, got {seed}")
    return seed


def check_samples(samples: int) -> int:
    """Refuse, before any work, a sample count below 1 or over SAMPLE_LIMIT."""
    if samples < 1:
        raise InputError("samples must be at least 1")
    if samples > SAMPLE_LIMIT:
        raise InputError(f"samples must be at most {SAMPLE_LIMIT}")
    return samples


class ForecastingSystem:
    """A rule assigning a forecast to every outcome history shorter than the horizon.

    Every system is held in one stepping form, its attributes ``start`` and
    ``expand``.  A state stands for an outcome history, ``start`` for the
    empty one, and ``expand(state)`` returns the forecast after that history
    together with the states after outcome 0 and after outcome 1.  The
    constructor wraps a history rule into this form, with the history itself
    as the state; ``stepping`` takes the form directly.  ``from_table`` keeps
    its forecasts in level order, with the index as the state, and
    ``constant`` has one state.  Walkers, ``forecast`` among them, step from
    ``start`` through ``expand`` and never replay a history from the root: a
    path of length n costs n expands.  Whole-tree walks expand each distinct
    state of a depth once, through ``level_graph``, so states must be hashable:
    histories whose states are equal share one subtree of forecasts.  The
    table document is written by one walker, ``to_json``, once per distinct
    state, by ``tree_json``, which writes the game engine's tables too; a
    reader wanting the dict parses that text.
    ``expand`` is the system's own function, called as it is: the history
    rule and ``stepping``, which take caller code, check each forecast it
    returns to lie in [0, 1], and ``constant`` and ``from_table`` check
    theirs once, when built.
    """

    def __init__(self, horizon: int, rule: Callable[[BinaryHistory], Fraction]):
        if horizon < 1:
            raise InputError("horizon must be a positive integer")
        self.horizon, self.start = horizon, ()
        self.expand = lambda history: (check_forecast(rule(history)), history + (0,), history + (1,))

    @classmethod
    def stepping(cls, horizon: int, start, expand: Callable) -> "ForecastingSystem":
        """A system given by its stepping form: ``expand(state)`` is ``(forecast, state0, state1)``."""

        def checked(state) -> tuple:
            p, after0, after1 = expand(state)
            return check_forecast(p), after0, after1

        return cls._trusted(horizon, start, checked)

    @classmethod
    def _trusted(cls, horizon: int, start, expand: Callable) -> "ForecastingSystem":
        """A system whose ``expand`` hands out checked forecasts only, such as the measure witness."""
        system = cls(horizon, None)
        system.start, system.expand = start, expand
        return system

    def forecast(self, history: BinaryHistory) -> Fraction:
        """Forecast for the outcome following ``history``: len(history) + 1 expands from the start."""
        if len(history) >= self.horizon:
            raise HorizonError(f"history of length {len(history)} needs a forecast beyond horizon {self.horizon}")
        # Stepped along the history and one more bit, the last forecast is the one after the history.
        return _forecasts_along(self, (*history, 0))[1][-1]

    @classmethod
    def constant(cls, p, horizon: int) -> "ForecastingSystem":
        p = check_forecast(p)
        return cls._trusted(horizon, None, lambda state: (p, state, state))

    @classmethod
    def from_table(cls, table: Mapping[BinaryHistory, Fraction], horizon: int) -> "ForecastingSystem":
        """Build from a table holding exactly the histories of length < horizon."""
        check_walk(outcome_tree_nodes(horizon), f"a table at horizon {horizon}")
        try:
            # Indexed as in ``history_at``: the children of k are at 2k+1 and 2k+2.
            forecasts = [check_forecast(table[h]) for h in all_histories_below(horizon)]
        except KeyError as exc:
            raise InputError(f"table missing history {exc.args[0]}") from None
        if len(table) != len(forecasts):  # every history is present, so the rest are extra
            raise InputError(f"table has {len(table) - len(forecasts)} keys that are not histories")
        return cls._trusted(horizon, 0, lambda k: (forecasts[k], 2 * k + 1, 2 * k + 2))

    def to_json(self, separators: tuple[str, str] = (", ", ": ")) -> str:
        """The table document as ``json.dumps(doc, sort_keys=True, separators=separators)`` writes it, once per state.

        ``level_graph`` expands each distinct state of a depth once, and
        ``tree_json`` writes one text per state, the keys extended by the bit
        of each step; histories that reach equal states share that text.
        """
        check_walk(outcome_tree_nodes(self.horizon), f"the outcome tree at horizon {self.horizon}")

        def step(state, depth) -> tuple:
            p, after0, after1 = self.expand(state)
            return p, (after0, after1)

        _, forecasts, links = level_graph(self.start, step, self.horizon, "the table")
        head, bits = {"horizon": self.horizon, "table": {}}, [(("0", 0), ("1", 1))] * (self.horizon - 1)
        return tree_json(head, forecasts, links[:-1], bits, separators)

    @classmethod
    def from_json(cls, text: str) -> "ForecastingSystem":
        number = parse_once_per_string(as_fraction)
        # Every ValueError here is the document's: a forecast that is not a rational, say.
        with reading("forecasting-system", ValueError):
            doc = json.loads(text)
            table = {}
            for key, value in doc["table"].items():
                # Only "0" and "1" are bits: int() reads any Unicode digit, so "\u0660" would alias "0".
                if key.strip("01"):
                    raise InputError(f"table key {key!r} is not a bit string")
                table[tuple(map(int, key))] = number(value)
            horizon = as_int(doc["horizon"], "horizon")
        return cls.from_table(table, horizon)


def all_histories_below(horizon: int):
    """All binary histories of length 0 .. horizon-1, in ``history_at`` order (none if horizon < 1)."""
    return map(history_at, range(2 ** max(horizon, 0) - 1))


def _forecasts_along(phi: ForecastingSystem, omega) -> tuple[BinaryHistory, list[Fraction]]:
    """The bits of ``omega`` and the forecasts phi(omega[:i]) for every i < len(omega).

    The horizon and the outcome bits are checked once for the whole history;
    the system is stepped along it, one expand per bit.
    """
    if len(omega) > phi.horizon:
        raise HorizonError(f"history of length {len(omega)} exceeds horizon {phi.horizon}")
    omega = tuple(check_outcome(y) for y in omega)
    forecasts = []
    state = phi.start
    for y in omega:
        p, after0, after1 = phi.expand(state)
        forecasts.append(p)
        state = after1 if y else after0
    return omega, forecasts


def induced_path(phi: ForecastingSystem, omega: BinaryHistory) -> PrequentialPrefix:
    """Interleave the system's forecasts with the outcomes of ``omega``.

    Step i of the result is (phi(omega[:i-1]), omega[i]); the empty history
    maps to the empty prefix.
    """
    omega, forecasts = _forecasts_along(phi, omega)
    return tuple(zip(forecasts, omega))


def cylinder_probability(phi: ForecastingSystem, x: BinaryHistory) -> Fraction:
    """Probability that the first len(x) outcomes equal ``x`` under the system's measure.

    The empty history has probability 1; each further bit multiplies by the
    forecast (bit 1) or its complement (bit 0).
    """
    x, forecasts = _forecasts_along(phi, x)
    prob = ONE
    for p, y in zip(forecasts, x):
        prob *= p if y == 1 else ONE - p
    return prob


def sample_outcomes(phi: ForecastingSystem, n: int, seed: int) -> BinaryHistory:
    """Draw an outcome history of length n, an ``int`` with 0 <= n <= horizon, from the system's measure.

    Deterministic: a Mersenne Twister generator is seeded with ``seed`` and one
    uniform variate x is drawn per step; the outcome is 1 iff x is strictly
    below the forecast p, compared exactly, so degenerate forecasts 0 and 1
    give constant bits.  The generator is ``_random.Random``, the C class
    ``random.Random`` subclasses: for an int seed both hand the seed to the
    same C seeding, so they draw the same variates.

    ``random()`` returns x = m / 2^53 exactly, 0 <= m < 2^53, so with
    p = a / b (b > 0)

        Fraction(x) < p  <=>  m * b < a * 2^53  <=>  m < T,   T = ceil(a * 2^53 / b),

    and T <= 2^53, so T / 2^53 is a double and ``x < T / 2^53`` decides the
    step exactly.  That cut-off is computed again only when the forecast
    object differs from the previous step's.

    The system is stepped along the drawn bits, one expand per step.
    Identical (phi, n, seed) give identical output.
    """
    if type(n) is not int or not 0 <= n <= phi.horizon:  # refuses a bool as well
        raise HorizonError(f"cannot sample {n} outcomes at horizon {phi.horizon}")
    draw, expand = _MersenneTwister(seed).random, phi.expand
    state = phi.start
    bits = []
    append = bits.append
    last = cut = None
    for _ in range(n):
        p, after0, after1 = expand(state)
        if p is not last:
            last, cut = p, -((-p.numerator << 53) // p.denominator) / _TWO_53
        if draw() < cut:
            append(1)
            state = after1
        else:
            append(0)
            state = after0
    return tuple(bits)

"""Core prequential objects: forecasts, outcomes, histories, forecasting systems.

A prequential step is a forecast (a rational probability in [0, 1]) followed by
a binary outcome.  Finite forecast/outcome sequences are tuples of
``(Fraction, int)`` pairs; finite outcome histories are tuples of ints.  The
empty tuple is the root of both trees.

A forecasting system is held in a stepping form: a start state for the
empty history and ``expand(state) -> (forecast, state after 0, state after
1)``.  Sampling, induced paths, cylinder weights and tables step that form
from the root, one expand per node they visit, instead of computing each
history's forecast anew.

The outcome tree is indexed in level order (``history_at``): the children of
k are 2k+1 and 2k+2.  ``check_walk`` holds every tree walked node by node to
one budget, checked first: 131,071 nodes, the outcome tree at horizon 16.

Everything here is exact: forecasts and probabilities are
``fractions.Fraction`` values, and all operations are pure.  Floating point
enters the package only in Monte Carlo estimators and report output.
Input is checked once, where it enters: refused input raises ``InputError``
(a ``ValueError``), and document loaders read under one guard, ``reading``.
"""

from __future__ import annotations

import contextlib
import json
import random
from fractions import Fraction
from typing import Callable, Mapping

Forecast = Fraction
Outcome = int
BinaryHistory = tuple[int, ...]
PrequentialPrefix = tuple[tuple[Fraction, int], ...]

ZERO = Fraction(0)
ONE = Fraction(1)
_TWO_53 = float(2**53)  # random() returns multiples of 1 / 2^53

# Largest horizon whose outcome tree is materialized; ``check_walk`` derives
# the node budget from it.  Rule-backed systems work at any horizon.
MAX_TABLE_HORIZON = 16


class InputError(ValueError):
    """A refused argument or document: the caller's input, not the program, is at fault."""


class HorizonError(InputError):
    """A history, prefix or step index exceeds the relevant horizon."""


@contextlib.contextmanager
def reading(document: str, *also: type):
    """Guard a document loader: JSON, key, type and index errors, and ``also``, become an ``InputError``."""
    try:
        yield
    except (KeyError, json.JSONDecodeError, TypeError, AttributeError, IndexError, *also) as exc:
        what = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise InputError(f"malformed {document} document: {what}") from exc


def check_walk(nodes: int, what: str) -> None:
    """Refuse, before any work, a walk of more nodes than the outcome tree at MAX_TABLE_HORIZON."""
    if nodes > 2 ** (MAX_TABLE_HORIZON + 1) - 1:
        count = nodes if nodes.bit_length() <= 64 else f"more than 2^{nodes.bit_length() - 1}"
        raise HorizonError(f"{what} has {count} nodes; table form limited to horizon {MAX_TABLE_HORIZON}")


def outcome_tree_nodes(horizon: int) -> int:
    """2^(horizon+1) - 1, capped where ``check_walk`` stops naming counts exactly."""
    return 2 ** (min(horizon, 64) + 1) - 1


def history_at(k: int) -> BinaryHistory:
    """The history at index k of the outcome tree in level order: the bits of k+1 after its leading 1."""
    return tuple(map(int, bin(k + 1)[3:]))


def as_int(value, what: str) -> int:
    """An integer field of a document: an int, or a string ``int`` reads; floats and booleans are refused."""
    try:
        if not isinstance(value, bool) and isinstance(value, (int, str)):
            return int(value)
    except ValueError:
        pass
    raise InputError(f"{what} must be an integer, got {value!r}")


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and strings like "1/2" or "0.25" to Fraction; refuse floats and booleans."""
    if isinstance(value, Fraction):
        return value
    try:
        if not isinstance(value, bool) and isinstance(value, (int, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"cannot interpret {value!r} as an exact rational")


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


class ForecastingSystem:
    """A rule assigning a forecast to every outcome history shorter than the horizon.

    Every system is held in one stepping form ``(start, expand)``.  A state
    stands for an outcome history, ``start`` for the empty one, and
    ``expand(state)`` returns the forecast after that history together with
    the states after outcome 0 and after outcome 1.  The constructor wraps a
    history rule into this form, with the history itself as the state;
    ``stepping`` takes the form directly.  ``from_table`` keeps its forecasts
    in level order, with the index as the state, and ``constant`` has one
    state.  Walkers step from ``start`` and never replay a history from the
    root: a path of length n costs n expands and a table of all histories
    2^N - 1.  ``expand`` is the raw step: the history rule and ``stepping``,
    which take caller code, check each forecast it returns to lie in [0, 1],
    and ``constant`` and ``from_table`` check theirs once, when built.
    """

    def __init__(self, horizon: int, rule: Callable[[BinaryHistory], Fraction]):
        if horizon < 1:
            raise InputError("horizon must be a positive integer")
        self.horizon, self.start = horizon, ()
        self._expand = lambda history: (check_forecast(rule(history)), history + (0,), history + (1,))

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
        system.start, system._expand = start, expand
        return system

    def expand(self, state) -> tuple:
        """The forecast at ``state`` and the states after outcome 0 and outcome 1."""
        return self._expand(state)

    def forecast(self, history: BinaryHistory) -> Fraction:
        """Forecast for the outcome following ``history``, stepped from the start."""
        if len(history) >= self.horizon:
            raise HorizonError(
                f"history of length {len(history)} needs a forecast beyond horizon {self.horizon}"
            )
        state = self.start
        for bit in history:
            state = self._expand(state)[1 + check_outcome(bit)]
        return self.expand(state)[0]

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

    def forecasts(self) -> list:
        """Every history's forecast, in ``history_at`` order: 2^N - 1 expands, one per history."""
        check_walk(outcome_tree_nodes(self.horizon), f"the outcome tree at horizon {self.horizon}")
        states, forecasts = [self.start], []
        for k in range(2**self.horizon - 1):
            p, after0, after1 = self.expand(states[k])
            forecasts.append(p)
            states += (after0, after1)
        return forecasts

    def table(self) -> dict:
        """Materialize the total table."""
        return {history_at(k): p for k, p in enumerate(self.forecasts())}

    def to_doc(self) -> dict:
        """The JSON document of the table, its bit-string keys in sorted order."""
        forecasts = self.forecasts()
        text = {key: str(p) for key, p in {id(p): p for p in forecasts}.items()}  # once per object
        # The key of history_at(k) is its bit string, the binary form of k+1 after the leading 1.
        table = sorted((bin(k)[3:], text[id(p)]) for k, p in enumerate(forecasts, start=1))
        return {"horizon": self.horizon, "table": dict(table)}

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ForecastingSystem":
        # Every ValueError here is the document's: a key that is not a bit string, say.
        with reading("forecasting-system", ValueError):
            doc = json.loads(text)
            table = {tuple(map(int, key)): as_fraction(value) for key, value in doc["table"].items()}
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
    """Draw an outcome history of length n from the system's measure.

    Deterministic: a Mersenne Twister generator is seeded with ``seed`` and one
    uniform variate x is drawn per step; the outcome is 1 iff x is strictly
    below the forecast p, compared exactly, so degenerate forecasts 0 and 1
    give constant bits.  The compare is on integers: ``random()`` returns
    x = m / 2^53 exactly, so with p = a / b (b > 0)

        Fraction(x) < p  <=>  m * b < a * 2^53,   m = int(x * 2^53).

    The system is stepped along the drawn bits, one expand per step.
    Identical (phi, n, seed) give identical output.
    """
    if n > phi.horizon:
        raise HorizonError(f"cannot sample {n} outcomes at horizon {phi.horizon}")
    rng = random.Random(seed)
    state = phi.start
    bits = []
    for _ in range(n):
        p, after0, after1 = phi.expand(state)
        if int(rng.random() * _TWO_53) * p.denominator < p.numerator << 53:
            bits.append(1)
            state = after1
        else:
            bits.append(0)
            state = after0
    return tuple(bits)

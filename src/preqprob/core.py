"""Core prequential objects: forecasts, outcomes, histories, forecasting systems.

A prequential step is a forecast (a rational probability in [0, 1]) followed by
a binary outcome.  Finite forecast/outcome sequences are tuples of
``(Fraction, int)`` pairs; finite outcome histories are tuples of ints.  The
empty tuple is the root of both trees.

Everything here is exact: forecasts and probabilities are
``fractions.Fraction`` values, and all operations are pure.  Floating point
enters the package only in Monte Carlo estimators and report output.
"""

from __future__ import annotations

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

# Largest horizon for which a forecasting-system table is materialized
# (2^16 - 1 entries); rule-backed systems work at any horizon.
MAX_TABLE_HORIZON = 16


class HorizonError(ValueError):
    """A history, prefix or step index exceeds the relevant horizon."""


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and strings like "1/2" or "0.25" to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def check_forecast(p) -> Fraction:
    """Validate a forecast: an exact rational in [0, 1]."""
    p = as_fraction(p)
    if not ZERO <= p <= ONE:
        raise ValueError(f"forecast {p} outside [0, 1]")
    return p


def check_outcome(y) -> int:
    if y not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {y!r}")
    return int(y)


class ForecastingSystem:
    """A rule assigning a forecast to every outcome history shorter than the horizon.

    ``from_table`` takes exactly the 2^N - 1 histories of length < N; other
    rules (``constant``, the measure engine's witness) compute each forecast,
    so they work at any horizon until ``table`` or ``to_json`` lists them all.
    """

    def __init__(self, horizon: int, rule: Callable[[BinaryHistory], Fraction]):
        if horizon < 1:
            raise ValueError("horizon must be a positive integer")
        self.horizon = horizon
        self._rule = rule

    def forecast(self, history: BinaryHistory) -> Fraction:
        """Forecast for the outcome following ``history``."""
        if len(history) >= self.horizon:
            raise HorizonError(
                f"history of length {len(history)} needs a forecast beyond horizon {self.horizon}"
            )
        for bit in history:
            check_outcome(bit)
        return check_forecast(self._rule(tuple(history)))

    @classmethod
    def constant(cls, p, horizon: int) -> "ForecastingSystem":
        p = check_forecast(p)
        return cls(horizon, lambda _h: p)

    @classmethod
    def from_table(cls, table: Mapping[BinaryHistory, Fraction], horizon: int) -> "ForecastingSystem":
        """Build from a table holding exactly the histories of length < horizon."""
        if horizon > MAX_TABLE_HORIZON:
            raise HorizonError(f"table form limited to horizon {MAX_TABLE_HORIZON}")
        try:
            fixed = {h: check_forecast(table[h]) for h in all_histories_below(horizon)}
        except KeyError as exc:
            raise ValueError(f"table missing history {exc.args[0]}") from None
        if len(table) != len(fixed):  # every history is present, so the rest are extra
            raise ValueError(f"table has {len(table) - len(fixed)} keys that are not histories")
        return cls(horizon, fixed.__getitem__)

    def table(self) -> dict:
        """Materialize the total table (guarded by MAX_TABLE_HORIZON)."""
        if self.horizon > MAX_TABLE_HORIZON:
            raise HorizonError(f"refusing to materialize table at horizon {self.horizon}")
        return {h: check_forecast(self._rule(h)) for h in all_histories_below(self.horizon)}

    def to_doc(self) -> dict:
        """The JSON document of the table, its bit-string keys in sorted order."""
        table = sorted(("".join(map(str, h)), str(p)) for h, p in self.table().items())
        return {"horizon": self.horizon, "table": dict(table)}

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ForecastingSystem":
        doc = json.loads(text)
        try:
            table = {
                tuple(int(c) for c in key): as_fraction(value)
                for key, value in doc["table"].items()
            }
            horizon = int(doc["horizon"])
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed forecasting-system document: {exc}") from exc
        return cls.from_table(table, horizon)


def all_histories_below(horizon: int):
    """All binary histories of length 0 .. horizon-1, shortest first."""
    level = [()]
    for _ in range(horizon):
        for h in level:
            yield h
        level = [h + (y,) for h in level for y in (0, 1)]


def induced_path(phi: ForecastingSystem, omega: BinaryHistory) -> PrequentialPrefix:
    """Interleave the system's forecasts with the outcomes of ``omega``.

    Step i of the result is (phi(omega[:i-1]), omega[i]); the empty history
    maps to the empty prefix.
    """
    if len(omega) > phi.horizon:
        raise HorizonError(f"history of length {len(omega)} exceeds horizon {phi.horizon}")
    steps = []
    for i, y in enumerate(omega):
        steps.append((phi.forecast(tuple(omega[:i])), check_outcome(y)))
    return tuple(steps)


def cylinder_probability(phi: ForecastingSystem, x: BinaryHistory) -> Fraction:
    """Probability that the first len(x) outcomes equal ``x`` under the system's measure.

    The empty history has probability 1; each further bit multiplies by the
    forecast (bit 1) or its complement (bit 0).
    """
    if len(x) > phi.horizon:
        raise HorizonError(f"history of length {len(x)} exceeds horizon {phi.horizon}")
    prob = ONE
    for i, y in enumerate(x):
        p = phi.forecast(tuple(x[:i]))
        prob *= p if check_outcome(y) == 1 else ONE - p
    return prob


def sample_outcomes(phi: ForecastingSystem, n: int, seed: int) -> BinaryHistory:
    """Draw an outcome history of length n from the system's measure.

    Deterministic: a Mersenne Twister generator is seeded with ``seed`` and one
    uniform variate is drawn per step; the outcome is 1 iff the variate is
    strictly below the forecast (compared exactly, so degenerate forecasts 0
    and 1 give constant bits).  Identical (phi, n, seed) give identical output.
    """
    if n > phi.horizon:
        raise HorizonError(f"cannot sample {n} outcomes at horizon {phi.horizon}")
    rng = random.Random(seed)
    bits = []
    for _ in range(n):
        p = phi.forecast(tuple(bits))
        bits.append(1 if Fraction(rng.random()) < p else 0)
    return tuple(bits)

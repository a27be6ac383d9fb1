"""``core.as_fraction`` reads a plain "n" or "n/d" on integers, and reads it as the general path does.

``general_path`` below is ``as_fraction`` as it stood before the fast path:
the ASCII check, the exponent's limit, ``Fraction``'s own parse and the
digit limit after it.  The property compares the two on short strings of
digits, slashes, signs, spaces, underscores, points and exponents, and on
digit strings one character either side of the interpreter's digit limit,
with that limit set to 640, 4300 and 0 (none) in turn.  Values and
``InputError`` messages must be equal.
"""

import sys
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from preqprob import core
from preqprob.core import InputError, _exponent_beyond_limit, digits_beyond_limit
from test_value_memo import PROPERTY


def general_path(value) -> Fraction:
    """``as_fraction`` without its fast path."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and not value.isascii():
        raise InputError(f"cannot interpret {value!r} as an exact rational: it has a character outside ASCII")
    limit = sys.get_int_max_str_digits()
    if isinstance(value, str) and _exponent_beyond_limit(value):
        raise InputError(
            f"cannot interpret {value!r} as an exact rational: its exponent's magnitude is over "
            f"{limit}, the interpreter's limit on integer digits"
        )
    try:
        fraction = Fraction(value) if not isinstance(value, bool) and isinstance(value, (int, str)) else None
    except (ValueError, ZeroDivisionError):
        fraction = None
    if fraction is None:
        raise InputError(f"cannot interpret {value!r} as an exact rational")
    may_be_long = isinstance(value, str) and ("e" in value or "E" in value or len(value) > limit)
    if may_be_long and digits_beyond_limit(fraction, limit):
        raise InputError(
            f"cannot interpret {value!r} as an exact rational: its numerator or denominator has "
            f"more than {limit} digits, the interpreter's limit on integer digits"
        )
    return fraction


def outcome(parse, value):
    """The parsed value with its type, or the refusal's message."""
    try:
        fraction = parse(value)
    except InputError as error:
        return f"refused: {error}"
    return type(fraction), fraction


LIMITS = [640, 4300, 0]


@st.composite
def near_the_limit(draw):
    """A digit string, "n" or "n/d", one character either side of a limit (of 700 when there is none)."""
    limit = draw(st.sampled_from(LIMITS))
    length = (limit or 700) + draw(st.integers(-1, 1))
    digits = draw(st.sampled_from("0179")) * length
    cut = draw(st.sampled_from([None, 1, length // 2, length - 2]))
    text = digits if cut is None else f"{digits[:cut]}/{digits[cut + 1:]}"
    return limit, text


short = st.tuples(st.sampled_from(LIMITS), st.text(alphabet="0123456789/+-_. eE", max_size=9))


@PROPERTY
@given(st.one_of(short, near_the_limit()))
@example((4300, "0"))
@example((4300, "007/014"))
@example((4300, "12/12"))
@example((4300, "1/0"))
@example((4300, "0/0"))
@example((4300, "-1/2"))
@example((4300, "+1"))
@example((4300, " 1/2"))
@example((4300, "1/2\n"))
@example((4300, "1_0/4"))
@example((4300, "1//2"))
@example((4300, "1/2/3"))
@example((4300, "/2"))
@example((4300, "2/"))
@example((4300, "1e3"))
@example((4300, "٣/4"))
@example((640, "1" * 640))
@example((640, "1" * 641))
@example((640, "1" * 320 + "/" + "3" * 319))
@example((0, "9" * 5000))
def test_the_integer_path_reads_what_the_general_path_reads(case):
    limit, text = case
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert outcome(core.as_fraction, text) == outcome(general_path, text)
    finally:
        sys.set_int_max_str_digits(saved)
    assert sys.get_int_max_str_digits() == saved


def test_a_plain_ratio_takes_no_regular_expression(monkeypatch):
    def scanned(text):
        raise AssertionError(f"{text!r} was scanned for an exponent")

    monkeypatch.setattr(core, "_exponent_beyond_limit", scanned)
    assert (core.as_fraction("007/014"), core.as_fraction("12/12"), core.as_fraction("0")) == (Fraction(1, 2), 1, 0)


class Tenths(Fraction):
    """A Fraction subclass, which ``as_fraction`` hands back unchanged."""


def test_a_plain_ratio_asks_no_subclass_question(monkeypatch):
    """A string reaches the integer path without ``isinstance(value, Fraction)``, an ABC check.

    A Fraction, or a subclass of one, still comes back as itself, and any
    other value that is not a string reads as the general path reads it.
    """
    asked = []

    def spy(value, kinds):
        asked.append(kinds)
        return isinstance(value, kinds)

    monkeypatch.setattr(core, "isinstance", spy, raising=False)
    assert (core.as_fraction("3/7"), core.as_fraction("12")) == (Fraction(3, 7), 12)
    assert asked and Fraction not in asked
    for value in (Fraction(3, 7), Tenths(3, 10)):
        assert core.as_fraction(value) is value
    for value in (7, -2, True, 0.5, None, [1], b"1/2"):
        assert outcome(core.as_fraction, value) == outcome(general_path, value)

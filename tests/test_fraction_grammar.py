"""``core.as_fraction`` reads Python 3.11's rational grammar on every supported Python.

``Fraction`` reads PEP 515 underscores only from 3.11 and whitespace next to
"/" from 3.12.  ``as_fraction`` refuses a "_" not between two ASCII digits
and whitespace next to "/", and hands ``Fraction`` the string with its
underscores removed, so a spelling reads the same on 3.10 to 3.13.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from preqprob import cli, core
from preqprob.core import InputError, as_fraction

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "text, value",
    [("1_0", Fraction(10)), ("0.2_5", Fraction(1, 4)), ("1e1_0", Fraction(10**10)), ("1_0/2_0", Fraction(1, 2)),
     (" -1_5e-1 ", Fraction(-3, 2))],
)
def test_underscores_between_digits_are_read(text, value):
    assert as_fraction(text) == value


@pytest.mark.parametrize("text", ["1__0", "_1", "1_", "1_.5", "1._5", "1e_1", "1/_2", "1/ 2", "1 /2", "1\t/\t2"])
def test_other_underscores_and_spaced_slashes_are_refused(text):
    with pytest.raises(InputError) as refused:
        as_fraction(text)
    assert str(refused.value) == f"cannot interpret {text!r} as an exact rational"


def test_fraction_is_handed_no_underscore(monkeypatch):
    """The parse does not rest on the running interpreter's grammar for "_"."""
    handed = []

    class Spy(Fraction):
        def __new__(cls, *args):
            handed.append(args)
            return Fraction(*args)

    monkeypatch.setattr(core, "Fraction", Spy)
    assert as_fraction("1_000.2_5") == Fraction(4001, 4)
    assert handed[0] == ("1000.25",)


def test_a_spaced_slash_in_a_stream_names_its_row(capsys):
    code = cli.main(["test-stream", "--stream", str(DATA / "spaced_slash_stream.csv"), "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: row 1: cannot interpret '1/ 2' as an exact rational\n"


def test_an_option_with_underscores_reads_as_its_digits(capsys):
    stream = str(DATA / "fair_coin_stream.csv")
    assert cli.main(["test-stream", "--stream", stream, "-C", "1_0", "--json"]) == 0
    underscored = capsys.readouterr().out
    assert cli.main(["test-stream", "--stream", stream, "-C", "10", "--json"]) == 0
    assert underscored == capsys.readouterr().out

"""Grammar, error positions, and print/parse round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from lndkit import (
    ExponentOverflowError,
    ParseError,
    Polynomial,
    Ring,
    parse_polynomial,
    print_canonical,
)
from lndkit.poly import EXPONENT_CAP

R2 = Ring(("x", "y"))
RW = Ring(("x", "s", "t", "u", "v"), (1, 3, 3, 3, 2))


def parse(text, ring=R2):
    return parse_polynomial(text, ring)


# -- accepted inputs ---------------------------------------------------------


def test_pinned_parses():
    x, y = R2.var("x"), R2.var("y")
    assert parse("0").is_zero()
    assert parse("x") == x
    assert parse("-x + 1/2") == -x + Fraction(1, 2)
    assert parse("3/4*x") == Fraction(3, 4) * x
    assert parse("x*(x + 1)^2") == x * (x + 1) ** 2
    assert parse("(x+y)*(x-y)") == x**2 - y**2
    assert parse("(-x + y)") == y - x
    assert parse("2*x^3*y - x^2") == 2 * x**3 * y - x**2
    assert parse("x - x") == R2.zero()
    assert parse("  x +  2 * y ") == x + 2 * y


def test_rational_literals():
    assert parse("7") == 7
    assert parse("7/2") == Fraction(7, 2)
    assert parse("1/2*x") == Fraction(1, 2) * R2.var("x")
    # the slash only pairs with a literal numerator
    with pytest.raises(ParseError):
        parse("x/2")
    with pytest.raises(ParseError):
        parse("1/2/2")
    # one optional exponent per factor, no towers
    with pytest.raises(ParseError):
        parse("x^2^3")


def test_unary_minus_placement():
    x = R2.var("x")
    assert parse("-x") == -x
    assert parse("-x - x") == -2 * x
    assert parse("(-x)") == -x
    with pytest.raises(ParseError):
        parse("--x")
    with pytest.raises(ParseError):
        parse("x * -y")
    with pytest.raises(ParseError):
        parse("x^-2")


def test_respects_ring():
    p = parse("x + 1", R2)
    q = parse("x + 1", RW)
    assert p.ring == R2 and q.ring == RW
    assert p != q


# -- rejected inputs, with positions ------------------------------------------


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("x +", 3),
        ("2x", 1),
        ("x ^ y", 4),
        ("q + 1", 0),
        ("1/0", 2),
        ("x + * y", 4),
        ("(x", 2),
        ("x # y", 2),
        ("x y", 2),
        ("x^(2)", 2),
        # superscript two, Arabic-Indic three and fullwidth one are
        # digits to str.isdigit, but not to the grammar
        ("x^\u00b2", 2),
        ("3/\u00b2", 2),
        ("\u0663*x", 0),
        ("x + \uff11", 4),
    ],
)
def test_error_positions(text, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == position
    assert f"position {position}" in str(info.value)


@example("x^\u00b2")
@example("3/\u00b2")
@example("\u0663*x")
@given(
    st.text(
        st.one_of(
            st.sampled_from("xyz0129+-*^/() \u00b2\u0663\u00e9"), st.characters()
        ),
        max_size=40,
    )
)
def test_arbitrary_text_parses_or_is_refused(text):
    # any text either parses to a polynomial that prints back to itself
    # or raises one of the two parse errors, with nothing else escaping
    try:
        p = parse(text)
    except (ParseError, ExponentOverflowError):
        return
    assert parse(print_canonical(p)) == p


@pytest.mark.parametrize("depth", [250, 5000])
def test_deep_nesting_is_a_parse_error(depth):
    # nesting past the interpreter's recursion limit is refused by name,
    # not with RecursionError; shallower nesting still parses
    text = "(" * depth + "x" + ")" * depth
    with pytest.raises(ParseError) as info:
        parse(text)
    assert 0 < info.value.position < depth
    assert parse("(" * 100 + "x" + ")" * 100) == R2.var("x")


def test_exponent_cap():
    with pytest.raises(ExponentOverflowError):
        parse("x^70000")
    with pytest.raises(ExponentOverflowError):
        parse(f"x^{EXPONENT_CAP + 1}")
    assert parse(f"x^{EXPONENT_CAP}") == R2.var("x") ** EXPONENT_CAP
    assert parse(f"x^000{EXPONENT_CAP}") == R2.var("x") ** EXPONENT_CAP


def test_exponent_past_the_digit_limit():
    # int() refuses literals this long; the cap must refuse them first
    with pytest.raises(ExponentOverflowError):
        parse("x^" + "9" * 5000)
    assert parse("x^" + "0" * 5000 + "2") == R2.var("x") ** 2


# -- printing ----------------------------------------------------------------


def test_print_pinned():
    x, y = R2.var("x"), R2.var("y")
    assert print_canonical(R2.zero()) == "0"
    assert print_canonical(R2.one()) == "1"
    assert print_canonical(-x) == "-x"
    assert print_canonical(x - y) == "x - y"
    assert print_canonical(2 * x**3 * y - x**2) == "2*x^3*y - x^2"
    assert print_canonical(R2.const(Fraction(-3, 4))) == "-3/4"
    assert print_canonical(Fraction(1, 2) * x + 1) == "1/2*x + 1"
    assert print_canonical(x**2 + x, ascending=True) == "x + x^2"
    assert str(x - y) == "x - y"


def _random_polynomial(rng, ring, max_terms=8, max_exp=6, bound=40):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[mono] = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return Polynomial(ring, terms)


def test_round_trip_seeded():
    rng = random.Random(20117)
    for ring in (R2, RW):
        for _ in range(100):
            p = _random_polynomial(rng, ring)
            assert parse_polynomial(print_canonical(p), ring) == p
            assert (
                parse_polynomial(print_canonical(p, ascending=True), ring) == p
            )


def test_round_trip_past_the_digit_limit():
    # 7^6000 has 5071 digits, more than CPython converts to or from text
    # by default
    big = Fraction(7**6000, 2**20000 + 1)
    p = Polynomial(R2, {(3, 0): big, (0, 1): -big - 1, (0, 0): 1})
    assert parse_polynomial(print_canonical(p), R2) == p
    assert parse_polynomial(print_canonical(p, ascending=True), R2) == p


@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_property(seed):
    rng = random.Random(seed)
    p = _random_polynomial(rng, RW, max_terms=5, max_exp=4)
    assert parse_polynomial(print_canonical(p), RW) == p

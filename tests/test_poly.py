"""Ring, Polynomial, Point, RingMap, and LaurentElement behavior."""

import copy
import pickle
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from lndkit import (
    DegreeSpread,
    ExponentOverflowError,
    LaurentElement,
    MonomialOrder,
    NotDivisibleError,
    Point,
    Polynomial,
    Ring,
    RingMap,
    RingMismatchError,
    UnknownVariableError,
    buchberger,
    normal_form,
)
from lndkit.poly import EXPONENT_CAP, grlex_key

R3 = Ring(("x", "y", "z"))
RW = Ring(("x", "s", "t", "u", "v"), (1, 3, 3, 3, 2))
X, Y, Z = R3.var("x"), R3.var("y"), R3.var("z")
R2 = Ring(("a", "b"))
A, B = R2.var("a"), R2.var("b")


# -- strategies -------------------------------------------------------------

small_fractions = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 9)
)


@st.composite
def polynomials(draw, ring=R3, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        mono = tuple(
            draw(st.integers(min_value=0, max_value=max_exp))
            for _ in range(ring.nvars)
        )
        terms[mono] = draw(small_fractions)
    return Polynomial(ring, terms)


def images(ring):
    """Zero, one-term and several-term polynomials, with fractional
    coefficients: the three kinds of variable image."""
    term = st.tuples(
        st.tuples(*[st.integers(0, 2)] * ring.nvars), small_fractions.filter(bool)
    )
    return st.one_of(
        st.just(ring.zero()),
        term.map(lambda t: Polynomial(ring, dict([t]))),
        polynomials(ring, max_terms=3, max_exp=2),
    )


@st.composite
def points(draw, ring=R3):
    return Point(ring, tuple(draw(small_fractions) for _ in range(ring.nvars)))


def stored_terms_are_clean(p):
    """What the public constructor guarantees: nonzero Fraction coefficients."""
    return all(type(c) is Fraction and c != 0 for c in p.term_dict().values())


# -- Ring -------------------------------------------------------------------


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(())
    with pytest.raises(ValueError):
        Ring(("x", "x"))
    with pytest.raises(ValueError):
        Ring(("2x",))
    with pytest.raises(ValueError):
        Ring(("a-b",))
    with pytest.raises(ValueError):
        Ring(("x", "y"), (1,))
    with pytest.raises(ValueError):
        Ring(("x",), (0,))
    with pytest.raises(ValueError):
        Ring(("x", "y"), (True, 1))
    with pytest.raises(ValueError):
        Ring(("x",), (-3,))


def test_ring_accessors():
    assert R3.nvars == 3
    assert R3.index("y") == 1
    with pytest.raises(UnknownVariableError):
        R3.index("w")
    with pytest.raises(UnknownVariableError):
        R3.var("w")
    assert R3.var("x") == Polynomial(R3, {(1, 0, 0): 1})
    assert R3.const(Fraction(2, 3)).constant_term() == Fraction(2, 3)
    assert R3.zero().is_zero()
    assert R3.one() == 1


def test_standard_grading_is_one_ring():
    # no weights and all weights 1 are the same grading, so the same ring
    assert R2 == Ring(("a", "b"), (1, 1))
    assert hash(R2) == hash(Ring(("a", "b"), [1, 1]))
    assert R2.weights == (1, 1)
    ones = Ring(("a", "b"), (1, 1))
    assert A + ones.var("b") == A + B
    assert (A**2 * B + ones.var("a")).weighted_degree() == DegreeSpread(1, 3)
    assert R2 != Ring(("a", "b"), (1, 2))


def test_underscore_names_allowed():
    ring = Ring(("_a", "b_2"))
    assert ring.var("_a").degree_in("_a") == 1


# -- Polynomial construction and inspection ---------------------------------


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        Polynomial(R3, {(1, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(R3, {(-1, 0, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(R3, {(Fraction(1, 2), 0, 0): 1})
    with pytest.raises(ExponentOverflowError):
        Polynomial(R3, {(EXPONENT_CAP + 1, 0, 0): 1})
    # the cap bounds the exponents a polynomial holds, and a zero
    # coefficient's term is dropped
    assert Polynomial(R3, {(EXPONENT_CAP + 1, 0, 0): 0}) == R3.zero()


def test_exponent_cap_on_arithmetic():
    big = X**40000
    with pytest.raises(ExponentOverflowError):
        big * big
    for _ in range(2):  # a power that overflows is not kept
        with pytest.raises(ExponentOverflowError):
            big**2
    with pytest.raises(ExponentOverflowError):
        (big + Y) * (3 * X**30000 * Z - 1)
    at_cap = X**32768 * X**32768
    assert at_cap.term_dict() == {(EXPONENT_CAP, 0, 0): 1}
    with pytest.raises(ExponentOverflowError):
        at_cap * X
    assert (at_cap * Y).degree_in("x") == EXPONENT_CAP


@contextmanager
def within_seconds(seconds):
    """Fail with TimeoutError instead of hanging past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_exponent_cap_on_ring_maps():
    # a term's power of an image, or its product of image powers, past
    # the cap raises even when the map builds no product Polynomial; an
    # image power past it is refused before it is built and not kept
    scale = RingMap(R2, R2, [A**40000, B])
    with pytest.raises(ExponentOverflowError):
        scale(A**2)
    assert not scale._powers
    with pytest.raises(ExponentOverflowError):
        RingMap(R3, R3, [X**30000 + Y, X**40000 - 1, Z])(X * Y + Z)
    # a term that a zero image drops is not checked, wherever the zero
    # image sits in the term and whatever the other images' powers
    for imgs in ([R3.zero(), X**40000, X**40000], [X**40000, X**40000, R3.zero()]):
        assert RingMap(R3, R3, imgs)(X * Y * Z) == R3.zero()
    assert RingMap(R2, R2, [A**40000, R2.zero()])(A**2 * B) == R2.zero()
    assert RingMap(R2, R2, [R2.zero(), A**40000])(A * B**2) == R2.zero()
    # a product of image powers past the cap raises before any power
    # is built, though each power alone stays under it
    spread = RingMap(R2, R2, [A + 1, A])
    with within_seconds(5), pytest.raises(ExponentOverflowError):
        spread(A**40000 * B**40000)
    assert not spread._powers
    assert RingMap(R2, R2, [A**32768, B])(A**2) == A**EXPONENT_CAP
    # each term stays under the cap, though the sum of tops would not
    assert RingMap(R2, R2, [A**40000, B])(A + B**60000) == A**40000 + B**60000


def test_zero_coefficients_dropped():
    p = Polynomial(R3, {(1, 0, 0): 0, (0, 1, 0): 2})
    assert len(p) == 1
    assert p == 2 * Y


def test_immutable():
    with pytest.raises(AttributeError):
        X.ring = R3


def test_terms_descending_grlex():
    p = X**2 + X * Y * Z + Y + 3
    monos = [m for m, _ in p.terms()]
    keys = [grlex_key(m) for m in monos]
    assert keys == sorted(keys, reverse=True)
    assert p.leading_term() == ((1, 1, 1), Fraction(1))


def test_leading_term_of_zero():
    with pytest.raises(ValueError):
        R3.zero().leading_term()


def test_degrees_and_inspection():
    p = X**2 * Y + Z
    assert p.total_degree() == 3
    assert R3.zero().total_degree() == -1
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1
    assert R3.zero().degree_in("x") == -1
    assert not p.is_constant()
    assert R3.const(7).is_constant()
    assert R3.zero().is_constant()
    assert (p + 5).constant_term() == 5
    assert p.coefficient((2, 1, 0)) == 1
    assert p.coefficient((9, 9, 9)) == 0


def test_weighted_degree():
    x, s = RW.var("x"), RW.var("s")
    assert (x**2 * s).weighted_degree() == 5
    assert (x**3 + RW.var("t")).weighted_degree() == 3
    spread = (x + s).weighted_degree()
    assert spread == DegreeSpread(1, 3)
    assert RW.zero().weighted_degree() == 0
    assert (X**2 * Y).weighted_degree() == 3  # the total degree without weights


# -- arithmetic -------------------------------------------------------------


def test_basic_identities():
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2
    assert (X + Y) * (X - Y) == X**2 - Y**2
    assert X - X == R3.zero()
    assert -(X - Y) == Y - X
    assert 1 - X == R3.one() - X
    assert 2 + X == X + 2
    assert Fraction(1, 2) * X + Fraction(1, 2) * X == X
    assert 0 * X == R3.zero()
    p = X**2 * Y - Fraction(1, 3)
    assert p**0 == 1 and R3.zero() ** 0 == 1
    assert p**1 is p
    assert p**2 is p**2  # kept on p


def _kept_polynomials(p: Polynomial) -> list:
    """The Polynomials reachable from p through its slots, p excluded."""
    found, stack = [], [p]
    while stack:
        q = stack.pop()
        for name in Polynomial.__slots__:
            value = getattr(q, name)
            for v in value.values() if isinstance(value, dict) else (value,):
                if isinstance(v, Polynomial) and all(v is not w for w in found):
                    found.append(v)
                    stack.append(v)
    return found


def test_pow_keeps_only_the_square():
    # a high power is built through powers 4, 5 and 10, but once it is
    # dropped only the square stays on the base
    g = X * Y - 2 * Z + 1
    at = Point(R3, (2, Fraction(1, 3), -1))
    assert (g**20).evaluate(at) == g.evaluate(at) ** 20
    kept = _kept_polynomials(g)
    assert len(kept) == 1 and kept[0] is g**2
    # a map over g builds its powers by the same chain, so it keeps
    # that square itself rather than a copy
    link = RingMap(R3, R3, [g, Y, Z])
    link(X**2 * Y)
    assert link._powers[0][2] is g**2


def test_pow_validation():
    with pytest.raises(ValueError):
        X ** (-1)
    with pytest.raises(ValueError):
        X ** Fraction(1, 2)


def test_ring_mismatch():
    other = Ring(("x", "y", "z"), (1, 2, 1))
    with pytest.raises(RingMismatchError):
        X + other.var("x")
    with pytest.raises(RingMismatchError):
        X * other.var("x")


def test_unsupported_operand():
    with pytest.raises(TypeError):
        X + "y"
    with pytest.raises(TypeError):
        "y" * X


@given(polynomials(), polynomials(), polynomials())
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polynomials(), polynomials())
def test_commutative(a, b):
    assert a * b == b * a
    assert a + b == b + a


@given(polynomials(), polynomials(), points())
def test_evaluation_is_a_homomorphism(a, b, pt):
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


@given(polynomials(), st.lists(st.integers(min_value=0, max_value=6), max_size=8))
def test_pow_matches_repeated_product(a, exponents):
    # every exponent twice, in the drawn order: the second call reads
    # the kept power, and a power may be asked for before or after the
    # smaller ones it is built from
    for n in exponents + exponents:
        expected = {(0, 0, 0): Fraction(1)}
        for _ in range(n):
            expected = oracles.naive_multiply(expected, a.term_dict())
        assert (a**n).term_dict() == expected


# -- calculus and substitution ----------------------------------------------


def test_partial():
    p = X**3 * Y + 2 * Z
    assert p.partial("x") == 3 * X**2 * Y
    assert p.partial("z") == 2
    assert R3.const(5).partial("x").is_zero()
    with pytest.raises(UnknownVariableError):
        p.partial("w")


@given(polynomials(), polynomials())
def test_partial_leibniz(a, b):
    lhs = (a * b).partial("x")
    assert lhs == a.partial("x") * b + a * b.partial("x")


def test_evaluate():
    p = X**2 + Y * Z - 1
    pt = Point(R3, (2, 3, Fraction(1, 3)))
    assert p.evaluate(pt) == 4 + 1 - 1
    assert type(R3.zero().evaluate(pt)) is Fraction
    assert type(X.evaluate(Point(R3, (2, 0, 0)))) is Fraction
    with pytest.raises(RingMismatchError):
        p.evaluate(Point(RW, (0, 0, 0, 0, 0)))


@given(polynomials(max_terms=6, max_exp=5), points())
def test_evaluate_matches_naive_oracle(p, pt):
    value = p.evaluate(pt)
    assert value == oracles.naive_evaluate(p.term_dict(), pt.coordinates)
    assert type(value) is Fraction


@given(polynomials(max_terms=6, max_exp=5), polynomials(max_terms=6, max_exp=5))
def test_mul_matches_naive_oracle(a, b):
    product = a * b
    assert product.term_dict() == oracles.naive_multiply(a.term_dict(), b.term_dict())
    assert stored_terms_are_clean(product)


@given(polynomials(max_terms=6, max_exp=5), small_fractions)
def test_constant_factors_match_naive_oracle(p, c):
    constant = {(0, 0, 0): c} if c else {}
    for product, factor in (
        (c * p, constant),
        (p * R3.const(c), constant),
        (R3.one() * p, {(0, 0, 0): 1}),
        (R3.const(0) * p, {}),
    ):
        assert product.term_dict() == oracles.naive_multiply(factor, p.term_dict())
        assert_canonical(product)


@given(polynomials(), small_fractions)
def test_trusted_results_are_clean(p, c):
    for result in (p + (-p), p - 1, -p, c * p, p * c, p.partial("y"), p * p):
        assert stored_terms_are_clean(result)


def assert_canonical(p):
    """p stores what the public constructor would store for its terms."""
    rebuilt = Polynomial(p.ring, p.term_dict())
    assert p == rebuilt and hash(p) == hash(rebuilt)


@given(
    polynomials(),
    polynomials(),
    small_fractions,
    polynomials(max_terms=3, max_exp=2),
    polynomials(max_terms=3, max_exp=2),
)
def test_trusted_results_are_canonical(a, b, c, g1, g2):
    results = [
        a + b, a - b, a - a, a * b, c * a, a * c, a.partial("x"),
        (X * a).exact_divide_var("x"), a.primitive(), a.monic(),
    ]
    order = MonomialOrder.grevlex()
    basis = buchberger([g1, g2], order)
    results += [*basis, normal_form(a, basis, order)]
    for r in results:
        assert_canonical(r)


def test_equal_polynomials_store_equal_data():
    # kernel_check's seen set and set(result.generators) in casebook
    # dedup through this hash
    p = (Fraction(1, 2) * X) * (2 * Y)
    assert p == X * Y and hash(p) == hash(X * Y)
    assert len({p, X * Y, Polynomial(R3, {(1, 1, 0): 1})}) == 1


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_round_trip(clone):
    powered = X * Y - 2
    powered**3  # keeps the powers 2 and 3 on it
    for p in (Fraction(3, 4) * X**2 * Y - 5 * Z + Fraction(1, 6), R3.zero(), powered):
        q = clone(p)
        assert type(q) is Polynomial
        assert q == p and hash(q) == hash(p)
        assert q**3 == p**3


@settings(max_examples=10)
@example(EXPONENT_CAP, 0, Fraction(3, 7), Fraction(-2))
@given(
    st.integers(min_value=EXPONENT_CAP - 40, max_value=EXPONENT_CAP),
    st.integers(min_value=0, max_value=3),
    small_fractions,
    small_fractions,
)
def test_evaluate_sparse_near_exponent_cap(big, small, a, b):
    # two terms, one exponent near the cap: the power tables must hold
    # only the exponents that occur, or this takes minutes
    terms = {(big, 0, 0): Fraction(1, 3), (small, 1, 0): Fraction(2)}
    p = Polynomial(R3, terms)
    coords = (a, b, Fraction(0))
    assert p.evaluate(Point(R3, coords)) == oracles.naive_evaluate(terms, coords)


def test_point():
    pt = Point(R3, (1, 2, 3))
    assert pt.coordinate("y") == 2
    with pytest.raises(ValueError):
        Point(R3, (1, 2))
    with pytest.raises(UnknownVariableError):
        pt.coordinate("w")


@given(st.lists(st.one_of(st.integers(-9, 9), small_fractions), min_size=3, max_size=3))
def test_point_coordinates_are_fractions(coords):
    # ints, Fractions or a mix of the two give the same Fraction point
    pt = Point(R3, coords)
    fractions = tuple(Fraction(c) for c in coords)
    assert pt.coordinates == fractions and pt == Point(R3, fractions)
    assert all(type(c) is Fraction for c in pt.coordinates)
    p = X**2 * Y - Fraction(1, 2) * Z**3 + 7
    assert p.evaluate(pt) == oracles.naive_evaluate(p.term_dict(), coords)


def test_exact_divide_var():
    p = X**2 * Y + X**3
    assert p.exact_divide_var("x") == X * Y + X**2
    assert p.exact_divide_var("x", 2) == Y + X
    assert p.exact_divide_var("x", 0) is p
    # a power is a nonnegative int, as for **: x^2 / x^0.5 is no polynomial
    for power in (-1, 0.5, 2.0, Fraction(1)):
        with pytest.raises(ValueError, match="nonnegative int"):
            p.exact_divide_var("x", power)
    with pytest.raises(NotDivisibleError) as info:
        (X**2 * Y + Y).exact_divide_var("x")
    assert info.value.witness == (0, 1, 0)


def test_min_exponent():
    assert (X**2 * Y + X**3).min_exponent("x") == 2
    assert (X + Y).min_exponent("x") == 0
    assert R3.zero().min_exponent("x") == 0


def test_content_and_primitive():
    p = Fraction(4, 6) * X + Fraction(2, 6) * Y
    content, prim = p.content_and_primitive()
    assert content == Fraction(1, 3)
    assert prim == 2 * X + Y
    assert content * prim == p
    # sign convention: primitive part has positive leading coefficient
    content, prim = (-2 * X - 4 * Y).content_and_primitive()
    assert content == -2
    assert prim == X + 2 * Y
    assert R3.zero().content_and_primitive() == (0, R3.zero())
    assert prim.primitive() == prim


def test_monic():
    assert (3 * X + 6 * Y).monic() == X + 2 * Y
    assert R3.zero().monic().is_zero()
    # a leading numerator of -1 still leaves a positive denominator
    for p in (Y - X, Fraction(-1, 3) * X + Y):
        assert_canonical(p.monic())
        assert p.monic().leading_term()[1] == 1


def test_eq_hash():
    a = X + Y
    b = Y + X
    assert a == b and hash(a) == hash(b)
    assert R3.const(3) == 3
    assert a != 3
    assert repr(a) == "Polynomial(x + y)"


# -- RingMap ----------------------------------------------------------------


def test_ring_map_validation():
    with pytest.raises(ValueError):
        RingMap(R3, R3, (X, Y))
    with pytest.raises(RingMismatchError):
        RingMap(R3, R3, (X, Y, RW.var("x")))
    with pytest.raises(UnknownVariableError):
        RingMap.from_mapping(R3, R3, {"w": X})


def test_ring_map_apply():
    sub = RingMap.from_mapping(R3, R3, {"x": X + Y})
    assert sub(X**2) == (X + Y) ** 2
    assert sub(Z) == Z
    assert sub(R3.const(Fraction(1, 7))) == Fraction(1, 7)
    with pytest.raises(RingMismatchError):
        sub(RW.var("x"))


def test_ring_map_identity_and_composition():
    ident = RingMap.from_mapping(R3, R3, {})
    p = X**2 * Y - Z + 4
    assert ident(p) == p
    double = RingMap.from_mapping(R3, R3, {"x": 2 * X})
    assert double(double(p)) == RingMap.from_mapping(R3, R3, {"x": 4 * X})(p)


@given(polynomials(), polynomials())
def test_ring_map_is_a_homomorphism(a, b):
    link = RingMap.from_mapping(R3, R3, {"x": Y + 1, "y": X * Z})
    assert link(a + b) == link(a) + link(b)
    assert link(a * b) == link(a) * link(b)


@example(
    X**2 * Y * Fraction(2, 3) - Z**3 * Fraction(1, 7) + Fraction(1, 5),
    [A * Fraction(1, 2) + B * Fraction(1, 3), R2.const(Fraction(3, 4)),
     B * Fraction(1, 5) - 1],
)
@example(
    X**3 * Y - X * Z**2 * Fraction(5, 2) + 1,
    [A**2 * B * Fraction(-2, 3), R2.zero(), A * Fraction(1, 2) - B**2],
)
@given(
    polynomials(max_terms=5, max_exp=3),
    st.lists(images(R2), min_size=3, max_size=3),
)
def test_ring_map_matches_naive_oracle(f, imgs):
    got = RingMap(R3, R2, imgs)(f)
    want = oracles.naive_substitute(
        [g.term_dict() for g in imgs], f.term_dict(), R2.nvars
    )
    assert got.term_dict() == want
    assert stored_terms_are_clean(got)


@given(
    st.lists(polynomials(max_terms=4, max_exp=4), min_size=2, max_size=5),
    st.lists(images(R2), min_size=3, max_size=3),
)
def test_ring_map_reuses_its_powers(fs, imgs):
    # one map applied in turn to every f, so later calls read the image
    # powers that earlier ones kept; a stale power shows against a
    # fresh map and against the oracle, and every kept power is the
    # Polynomial that ** builds
    link = RingMap(R3, R2, imgs)
    for f in fs:
        got = link(f)
        assert got == RingMap(R3, R2, imgs)(f)
        assert got.term_dict() == oracles.naive_substitute(
            [g.term_dict() for g in imgs], f.term_dict(), R2.nvars
        )
        for i, kept in link._powers.items():
            for e, power in kept.items():
                assert isinstance(power, Polynomial) and power == imgs[i] ** e


# -- LaurentElement ---------------------------------------------------------


def test_laurent_normalization():
    elem = LaurentElement(X**2 * Y, "x", 1)
    assert elem.denom_power == 0
    assert elem.numerator == X * Y
    elem = LaurentElement(X * Y, "x", 3)
    assert elem.denom_power == 2
    assert elem.numerator == Y
    assert LaurentElement(R3.zero(), "x", 5).denom_power == 0
    with pytest.raises(ValueError):
        LaurentElement(X, "x", -1)
    with pytest.raises(UnknownVariableError):
        LaurentElement(X, "w", 1)


def test_laurent_equality_and_str():
    inv = LaurentElement(R3.one(), "x", 1)
    assert inv == LaurentElement(R3.one(), "x", 1)
    assert inv != LaurentElement(R3.one(), "x", 2)
    assert LaurentElement(X, "x", 0) == X
    assert LaurentElement(R3.const(3), "y", 0) == 3
    assert LaurentElement(Y, "x", 1) != Y
    assert LaurentElement(X, "x", 0) != RW.var("x")  # another ring
    assert str(inv) == "(1) / x"
    assert str(LaurentElement(R3.one(), "x", 2)) == "(1) / x^2"
    assert str(LaurentElement(X, "x", 0)) == "x"
    assert hash(LaurentElement(Y, "x", 0)) == hash(LaurentElement(Y, "z", 0))


def test_equal_values_hash_equal():
    # a constant equals its value and a Laurent element over x^0 its
    # numerator, so each pair must collapse in a set
    assert len({R3.const(3), 3}) == 1
    assert len({R3.const(Fraction(-2, 7)), Fraction(-2, 7)}) == 1
    assert len({R3.zero(), 0, Fraction(0)}) == 1
    assert len({LaurentElement(Y, "x", 0), Y}) == 1
    assert len({LaurentElement(R3.const(5), "y", 0), R3.const(5), 5}) == 1
    assert len({LaurentElement(Y, "x", 1), Y}) == 2

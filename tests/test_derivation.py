"""Derivations: Leibniz rule, nilpotency bookkeeping, exponential flows."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

import oracles
from lndkit import (
    Derivation,
    ExponentOverflowError,
    LaurentElement,
    NILPOTENCY_CAP,
    NilpotencyCapError,
    Point,
    Polynomial,
    Ring,
    RingMap,
    RingMismatchError,
    UnknownVariableError,
    commutes_with_partial,
    intertwines,
    parse_polynomial,
)

R2 = Ring(("x", "y"))
X, Y = R2.var("x"), R2.var("y")

# not locally nilpotent: every iterate of x is x
EULER = Derivation.from_mapping(R2, {"x": X, "y": Y})
# D(y) = x, D(x) = 0: the simplest triangular example
SHIFT = Derivation.from_mapping(R2, {"y": X})

R3 = Ring(("x", "y", "z"))

# zero, negative, integral and fractional values
small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def polynomials(draw, ring=R2, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        mono = tuple(
            draw(st.integers(min_value=0, max_value=max_exp))
            for _ in range(ring.nvars)
        )
        terms[mono] = Fraction(
            draw(st.integers(min_value=-9, max_value=9)),
            draw(st.integers(min_value=1, max_value=9)),
        )
    return Polynomial(ring, terms)


def images(ring):
    """Zero, one-term and several-term polynomials, with fractional
    coefficients: the three kinds of variable image."""
    term = st.tuples(
        st.tuples(*[st.integers(0, 3)] * ring.nvars), small_fractions.filter(bool)
    )
    return st.one_of(
        st.just(ring.zero()),
        term.map(lambda t: Polynomial(ring, dict([t]))),
        polynomials(ring, max_terms=4),
    )


@st.composite
def triangular_derivations(draw):
    """D(x) = c, D(y) in Q[x], D(z) in Q[x, y]: locally nilpotent."""

    def image(nvars_used):
        terms = {}
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            used = [draw(st.integers(0, 2)) for _ in range(nvars_used)]
            terms[tuple(used + [0] * (3 - nvars_used))] = draw(small_fractions)
        return Polynomial(R3, terms)

    return Derivation(R3, (image(0), image(1), image(2)))


def uncached_exponential(derivation, parameter):
    """The images of exponential(parameter), each chain of iterates
    derived anew through iterates."""
    ring = derivation.ring
    extended = Ring((parameter,) + ring.variables)
    embed = RingMap.from_mapping(ring, extended, {})
    r = extended.var(parameter)
    return tuple(
        sum(
            (
                embed(iterate) * Fraction(1, factorial(k)) * r**k
                for k, iterate in enumerate(derivation.iterates(ring.var(v)))
            ),
            extended.zero(),
        )
        for v in ring.variables
    )


def naive_orbit_point(derivation, value, point):
    images = [img.term_dict() for img in derivation.images]
    coords = oracles.naive_orbit_point(images, value, point.coordinates)
    return Point(derivation.ring, coords)


def test_construction():
    with pytest.raises(ValueError):
        Derivation(R2, (X,))
    with pytest.raises(RingMismatchError):
        Derivation(R2, (X, Ring(("z",)).var("z")))
    with pytest.raises(UnknownVariableError):
        Derivation.from_mapping(R2, {"w": X})
    assert SHIFT.image("y") == X
    assert SHIFT.image("x").is_zero()


def test_apply():
    # d/dy scaled by x
    assert SHIFT(Y**3) == 3 * X * Y**2
    assert SHIFT(X**5).is_zero()
    assert SHIFT(R2.const(7)).is_zero()
    with pytest.raises(RingMismatchError):
        SHIFT(Ring(("z",)).var("z"))


@given(
    st.tuples(images(R3), images(R3), images(R3)),
    polynomials(R3, max_terms=5, max_exp=4),
)
def test_apply_matches_naive_oracle(imgs, f):
    got = Derivation(R3, imgs).apply(f)
    assert got.term_dict() == oracles.naive_apply(
        [g.term_dict() for g in imgs], f.term_dict()
    )


def test_apply_matches_naive_oracle_on_D(context):
    D = context.derivation
    f = parse_polynomial("s^2*t - 1/2*x*u*v^3 + 3", D.ring)
    want = parse_polynomial(
        "2*x^3*s*t + s^3 - 1/2*x*t*v^3 - 3/2*x^3*u*v^2", D.ring
    )
    assert D.apply(f) == want
    assert want.term_dict() == oracles.naive_apply(
        [g.term_dict() for g in D.images], f.term_dict()
    )


def test_exponent_cap_on_apply():
    # D(x_i) * df/dx_i past the cap raises even though apply builds no
    # product Polynomial
    with pytest.raises(ExponentOverflowError):
        Derivation(R2, (R2.zero(), X**40000))(X**30000 * Y)
    assert Derivation(R2, (R2.zero(), X**32768))(X**32768 * Y) == X**65536
    # df/dy = 1 has no x, so the product stays at x^40000
    assert Derivation(R2, (R2.zero(), X**40000))(X**60000 + Y) == X**40000


@given(polynomials(), polynomials())
def test_leibniz_rule(a, b):
    d = Derivation.from_mapping(R2, {"x": Y, "y": X**2})
    assert d(a * b) == d(a) * b + a * d(b)
    assert d(a + b) == d(a) + d(b)


def test_apply_iter():
    assert SHIFT.apply_iter(Y**2, 2) == 2 * X**2
    assert SHIFT.apply_iter(Y**2, 0) == Y**2
    with pytest.raises(ValueError):
        SHIFT.apply_iter(Y, -1)


def test_apply_iter_stops_at_zero(monkeypatch):
    calls = []
    apply = Derivation.apply
    monkeypatch.setattr(
        Derivation, "apply", lambda self, f: calls.append(f) or apply(self, f)
    )
    assert SHIFT.apply_iter(Y**2, 10_000).is_zero()
    assert len(calls) <= 3  # Y^2 -> 2XY -> 2X^2 -> 0
    # no nilpotency cap: a derivation that never reaches zero is applied
    # every time
    assert EULER.apply_iter(X, 2 * NILPOTENCY_CAP) == X


def test_iterates():
    chain = list(SHIFT.iterates(Y**2))
    assert chain == [Y**2, 2 * X * Y, 2 * X**2]
    assert list(SHIFT.iterates(R2.zero())) == []
    # the cap trips after NILPOTENCY_CAP nonzero iterates
    chain = []
    with pytest.raises(NilpotencyCapError):
        for g in EULER.iterates(X):
            chain.append(g)
    assert len(chain) == NILPOTENCY_CAP


def test_nilpotency_index():
    assert SHIFT.nilpotency_index(Y**2) == 3
    assert SHIFT.nilpotency_index(X) == 1
    assert SHIFT.nilpotency_index(R2.zero()) == 0
    assert EULER.nilpotency_index(X) is None


def test_is_locally_nilpotent():
    assert SHIFT.is_locally_nilpotent()
    # the answer comes from the cached variable iterates
    assert "_variable_iterates" in vars(SHIFT)
    assert not EULER.is_locally_nilpotent()


def test_builtin_depths(context):
    ring = context.ring
    depths = tuple(
        context.derivation.nilpotency_index(ring.var(v)) for v in ring.variables
    )
    assert depths == (1, 2, 3, 4, 2)


def test_exponential_of_shift():
    flow = SHIFT.exponential("r")
    ext = flow.target
    assert ext.variables == ("r", "x", "y")
    assert ext.weights == (1, 1, 1)
    assert flow(X) == ext.var("x")
    assert flow(Y) == parse_polynomial("y + r*x", ext)
    with pytest.raises(ValueError):
        SHIFT.exponential("x")


def test_exponential_pinned(context):
    flow = context.derivation.exponential("r")
    ext = flow.target
    expected = (
        "x",
        "s + r*x^3",
        "t + r*s + 1/2*r^2*x^3",
        "u + r*t + 1/2*r^2*s + 1/6*r^3*x^3",
        "v + r*x^2",
    )
    for image, text in zip(flow.images, expected):
        assert image == parse_polynomial(text, ext)


def test_exponential_is_a_ring_map(context):
    flow = context.derivation.exponential()
    f = context.generators
    assert flow(f[1] * f[3]) == flow(f[1]) * flow(f[3])
    assert flow(f[1] + f[3]) == flow(f[1]) + flow(f[3])
    # invariants are fixed by the flow: their images carry no parameter
    embed = RingMap.from_mapping(context.ring, flow.target, {})
    for g in f:
        assert flow(g) == embed(g)


def test_orbit_point():
    pt = Point(R2, (2, 1))
    moved = SHIFT.orbit_point(3, pt)
    assert moved == Point(R2, (2, 7))
    assert SHIFT.orbit_point(-3, moved) == pt
    with pytest.raises(RingMismatchError):
        SHIFT.orbit_point(1, Point(Ring(("z",)), (0,)))


@given(
    triangular_derivations(),
    small_fractions,
    st.tuples(small_fractions, small_fractions, small_fractions),
)
def test_orbit_point_matches_naive_oracle(derivation, value, coords):
    point = Point(R3, coords)
    expected = naive_orbit_point(derivation, value, point)
    assert derivation.orbit_point(value, point) == expected
    # a second call reads the cached iterates
    assert derivation.orbit_point(value, point) == expected


@given(small_fractions, st.tuples(*[small_fractions] * 3))
def test_orbit_point_on_a_ring_with_variable_r(value, coords):
    # the flow's parameter must not collide with r, r_ or any other name
    ring = Ring(("r", "r_", "y"))
    r, r_ = ring.var("r"), ring.var("r_")
    derivation = Derivation.from_mapping(ring, {"r_": 2 * r, "y": r_**2 - r})
    point = Point(ring, coords)
    assert derivation.orbit_point(value, point) == naive_orbit_point(
        derivation, value, point
    )


@given(
    small_fractions,
    st.tuples(*[small_fractions] * 5),
)
def test_bundled_orbit_point_matches_naive_oracle(context, value, coords):
    point = Point(context.ring, coords)
    D = context.derivation
    assert D.orbit_point(value, point) == naive_orbit_point(D, value, point)


def test_iterate_cache_matches_uncached(context):
    for derivation in (context.derivation, context.quotient_derivation, SHIFT):
        ring = derivation.ring
        fresh = Derivation(ring, derivation.images)
        points = [
            Point(ring, tuple(Fraction(k - 2 * i, i + 1) for i in range(ring.nvars)))
            for k in range(3)
        ]
        for value in (Fraction(0), Fraction(-3), Fraction(5, 7)):
            for point in points:
                expected = naive_orbit_point(fresh, value, point)
                assert derivation.orbit_point(value, point) == expected
        uncached = uncached_exponential(fresh, "r")
        for _ in range(2):
            assert derivation.exponential("r").images == uncached
        assert derivation.exponential("q").images == uncached_exponential(fresh, "q")


def test_iterate_cache_is_filled_once(monkeypatch):
    derivation = Derivation.from_mapping(R3, {"y": R3.var("x"), "z": R3.var("y")})
    point = Point(R3, (1, Fraction(-1, 2), 3))
    calls = []
    apply = Derivation.apply
    monkeypatch.setattr(
        Derivation, "apply", lambda self, f: calls.append(f) or apply(self, f)
    )
    first = derivation.orbit_point(2, point)
    assert len(calls) == 6  # x: 1, y: 2, z: 3 applications
    assert derivation.orbit_point(2, point) == first
    derivation.exponential()
    assert len(calls) == 6


def test_iterate_cache_keeps_equality_and_hash():
    first = Derivation.from_mapping(R2, {"y": X**2 + 1})
    second = Derivation.from_mapping(R2, {"y": X**2 + 1})
    before = hash(first)
    first.orbit_point(2, Point(R2, (1, 1)))
    assert first == second
    assert hash(first) == before == hash(second)
    assert {second: "found"}[first] == "found"
    assert repr(first) == repr(second)


def test_non_nilpotent_derivation_still_raises():
    point = Point(R2, (1, 2))
    for _ in range(2):  # nothing is cached by a failed attempt
        with pytest.raises(NilpotencyCapError):
            EULER.orbit_point(1, point)
        with pytest.raises(NilpotencyCapError):
            EULER.exponential()
    assert EULER == Derivation.from_mapping(R2, {"x": X, "y": Y})


def test_orbit_point_group_law(context):
    pt = Point(context.ring, (1, 2, Fraction(1, 3), -1, 0))
    D = context.derivation
    a, b = Fraction(3, 4), Fraction(-2, 5)
    assert D.orbit_point(a, D.orbit_point(b, pt)) == D.orbit_point(a + b, pt)


def test_apply_laurent(context):
    ring = context.ring
    D = context.derivation
    s_over_x = LaurentElement(ring.var("s"), "x", 1)
    # quotient rule: D(s/x) = x^3/x = x^2
    assert D.apply_laurent(s_over_x) == ring.var("x") ** 2
    plain = LaurentElement(ring.var("t"), "x", 0)
    assert D.apply_laurent(plain) == ring.var("s")


def test_is_invariant(context):
    D = context.derivation
    assert D.is_invariant(context.generators[5])
    assert not D.is_invariant(context.ring.var("t"))


def test_intertwines(context):
    assert intertwines(context.quotient_map, context.derivation, context.quotient_derivation)
    broken = Derivation.from_mapping(
        context.quotient_ring, {"t": context.quotient_ring.var("s"), "u": context.quotient_ring.var("s")}
    )
    assert not intertwines(context.quotient_map, context.derivation, broken)
    with pytest.raises(RingMismatchError):
        intertwines(context.quotient_map, context.quotient_derivation, broken)


def test_commutes_with_partial(context):
    D = context.derivation
    assert commutes_with_partial(D, "v")
    assert commutes_with_partial(D, "u")
    assert not commutes_with_partial(D, "x")
    assert not commutes_with_partial(D, "s")
    with pytest.raises(UnknownVariableError):
        commutes_with_partial(D, "w")


def test_repr():
    assert repr(SHIFT) == "Derivation(y -> x)"
    assert repr(Derivation.from_mapping(R2, {})) == "Derivation(0)"

"""Groebner machinery: orders, the packed-monomial engine, bases,
relation ideals, and subalgebra membership.

The packed engine is differentially tested against the textbook order
keys of oracles.order_key and oracles.tag_order_key, normal_form against
the definition of a remainder, buchberger against pinned classical
bases and an S-polynomial certificate (the S-polynomial from its
definition, oracles.s_polynomial), and relation_ideal and
SubalgebraTester against linear-algebra oracles that know no Groebner
theory at all (see oracles.py).
"""

import contextlib
import json
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lndkit import (
    ExponentOverflowError,
    MonomialOrder,
    Polynomial,
    Ring,
    RingMap,
    RingMismatchError,
    SubalgebraTester,
    buchberger,
    ideal_equal,
    ideal_membership,
    normal_form,
    parse_polynomial,
    relation_ideal,
    subalgebra_membership,
)
from lndkit.groebner import (
    _Engine,
    _interreduce,
    _Packing,
    _Reducer,
    _SignatureEngine,
    _tag_ideal,
)

R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))
X2, Y2 = R2.var("x"), R2.var("y")
X, Y, Z = R3.var("x"), R3.var("y"), R3.var("z")
PINNED = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pinned.json"

ORDERS = [
    MonomialOrder.lex(),
    MonomialOrder.grlex(),
    MonomialOrder.grevlex(),
    MonomialOrder.elimination(1),
    MonomialOrder.elimination(2),
]

# the subalgebra tester's own rows: one ring variable and three tags
# weighted 2, 1, 3 by the degrees of their elements, the first tag
# taken last
T1 = Ring(("t",)).var("t")
TESTER_KEY = oracles.tag_order_key(1, (2, 1, 3), 0)
# (id, packing of four variables, textbook sort key)
PACKINGS = [
    *((str(o), _Packing(o._rows(4)), oracles.order_key(o)) for o in ORDERS),
    ("tester", SubalgebraTester([T1**2, T1, T1**3], 0)._engine.packing, TESTER_KEY),
]
each_packing = pytest.mark.parametrize(
    "name, packing, key", PACKINGS, ids=[name for name, _, _ in PACKINGS]
)


def _random_poly(rng, ring, max_terms=3, max_exp=3, bound=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[mono] = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return Polynomial(ring, terms)


# -- MonomialOrder -----------------------------------------------------------


def test_order_names():
    named = ORDERS[:3] + [MonomialOrder.elimination(k) for k in range(4)]
    for order in named:
        assert MonomialOrder.from_name(str(order)) == order
    for name in (
        "degrevlex", "elim-wrevlex", "elim-wrevlex:1", "elim", "elim:",
        "elim:\u0663", "elim:\u00b2", "elim:-1",
    ):
        with pytest.raises(ValueError, match="unknown order"):
            MonomialOrder.from_name(name)
    with pytest.raises(ValueError):
        MonomialOrder.elimination(-1)
    # the tester's order is its own rows, not a kind
    with pytest.raises(ValueError, match="unknown order kind"):
        MonomialOrder("elim-wrevlex", 1)
    assert str(MonomialOrder.elimination(2)) == "elim:2"


@given(
    st.one_of(st.sampled_from(["lex", "grlex", "grevlex", "elim"]), st.text()),
    st.one_of(st.none(), st.booleans(), st.integers(-3, 10**6), st.floats()),
)
def test_every_order_reads_back_its_name(kind, block):
    try:
        order = MonomialOrder(kind, block)
    except ValueError:
        return
    assert MonomialOrder.from_name(str(order)) == order


@pytest.mark.parametrize(
    "kind, block",
    [
        ("elim", None),
        ("elim-grevlex", None),
        ("elim", -1),
        ("elim", True),
        ("elim", 1.0),
        ("lex", 3),
        ("grevlex", 0),
        ("degrevlex", None),
    ],
)
def test_order_fields_are_checked(kind, block):
    with pytest.raises(ValueError):
        MonomialOrder(kind, block)


def test_elimination_block_must_fit_the_ring():
    # the order meets the ring in _rows, so that is where a block too
    # large for it is refused, by every caller that packs
    assert len(MonomialOrder.elimination(5)._rows(5)) == 2 + 5
    with pytest.raises(ValueError, match="but the ring has"):
        MonomialOrder.elimination(6)._rows(5)
    with pytest.raises(ValueError):
        buchberger([X - Y], MonomialOrder.elimination(4))


def test_grlex_vs_grevlex():
    # x*z^2 against y^2*z: same degree, opposite verdicts
    a, b = (1, 0, 2), (0, 2, 1)
    grlex = oracles.order_key(MonomialOrder.grlex())
    grevlex = oracles.order_key(MonomialOrder.grevlex())
    assert grlex(a) > grlex(b)
    assert grevlex(a) < grevlex(b)


def test_elimination_order_blocks():
    key = oracles.order_key(MonomialOrder.elimination(1))
    # any positive power of the first variable beats everything without it
    assert key((1, 0, 0)) > key((0, 9, 9))
    assert key((0, 2, 1)) > key((0, 1, 1))
    # the tester keeps the head block, then compares the weighted degree
    # of the tags (2, 1, 3): X2^3 is below X1^2, unlike under grlex
    assert TESTER_KEY((1, 0, 0, 0)) > TESTER_KEY((0, 9, 9, 9))
    assert TESTER_KEY((0, 0, 3, 0)) < TESTER_KEY((0, 2, 0, 0))
    assert key((0, 0, 3, 0)) > key((0, 2, 0, 0))
    # X1*X2, X3 and X2^3 all weigh 3; reverse-lex with X1 taken last
    # puts any multiple of X1 lowest, then the larger power of X3
    ties = [(0, 1, 1, 0), (0, 0, 0, 1), (0, 0, 3, 0)]
    assert sorted(ties, key=TESTER_KEY) == ties
    # with the final tag X3 taken last, X3 is lowest instead
    final_last = oracles.tag_order_key(1, (2, 1, 3), 2)
    assert sorted(ties, key=final_last) == [ties[1], ties[2], ties[0]]


# -- packed monomials vs plain keys ------------------------------------------


@each_packing
def test_packing_agrees_with_key(name, packing, key):
    rng = random.Random(sum(map(ord, name)))
    monos = [tuple(rng.randint(0, 9) for _ in range(4)) for _ in range(120)]
    packed = [packing.pack(m) for m in monos]
    for m, p in zip(monos, packed):
        assert packing.unpack(p) == m
    by_key = sorted(monos, key=key)
    by_pack = [packing.unpack(p) for p in sorted(packed)]
    assert by_pack == by_key


@each_packing
def test_packed_divisibility(name, packing, key):
    rng = random.Random(len(name))
    guard = packing.guard
    for _ in range(200):
        a = tuple(rng.randint(0, 6) for _ in range(4))
        b = tuple(rng.randint(0, 6) for _ in range(4))
        pa, pb = packing.pack(a), packing.pack(b)
        divides = ((pb | guard) - pa) & guard == guard
        assert divides == all(ea <= eb for ea, eb in zip(a, b))


@given(
    st.sampled_from([packing for _, packing, _ in PACKINGS]),
    st.lists(
        st.tuples(st.booleans(), st.tuples(*[st.integers(0, 2)] * 4)), max_size=40
    ),
)
def test_find_agrees_with_first_divisor(packing, steps):
    # each step appends a lead to the entry list or looks one up, so the
    # support index grows between lookups, as the engine's basis does;
    # small exponents make repeated supports and leads with no divisor
    entries, leads = [], []
    reducer = _Reducer(entries, packing.guard)
    for append, mono in steps:
        if append:
            entries.append((packing.pack(mono), 1, ()))
            leads.append(mono)
        for query in (mono, (2, 2, 2, 2), (0, 0, 0, 0)):
            assert reducer.find(packing.pack(query)) == oracles.first_divisor(
                query, leads
            )


@given(
    st.sampled_from([packing for _, packing, _ in PACKINGS]),
    st.tuples(*[st.integers(0, 3)] * 4),
    st.tuples(*[st.integers(0, 3)] * 4),
)
def test_supports_share_a_variable_on_unit_fields(packing, a, b):
    # the engines test "leads a and b share a variable" on the reducer's
    # supports; a weighted row (a degree or a tester's partial sum) is
    # nonzero in monomials that share no variable, so only the unit
    # fields may count
    entries = [(packing.pack(a), 1, ()), (packing.pack(b), 1, ())]
    sa, sb = _Reducer(entries, packing.guard).supports()
    shared = any(ea and eb for ea, eb in zip(a, b))
    assert bool(sa & sb & packing.unit) == shared


def test_packing_overflow():
    packing = _Packing(MonomialOrder.grevlex()._rows(2))
    with pytest.raises(ExponentOverflowError):
        packing.pack((1 << 15, 0))
    with pytest.raises(ExponentOverflowError):
        packing.pack((20000, 20000))
    # just under the limit is fine
    assert packing.unpack(packing.pack((32767, 0))) == (32767, 0)


def test_packing_overflow_in_a_weighted_field():
    # tags weighted 1000 and 1: total degree 40, far below 2^15, but the
    # tags' weighted degree field would hold 40000
    packing = SubalgebraTester([T1**1000, T1], 1)._engine.packing
    with pytest.raises(ExponentOverflowError):
        packing.pack((0, 40, 0))
    with pytest.raises(ExponentOverflowError):
        packing.pack((1, 32, 768))
    assert packing.unpack(packing.pack((1, 32, 767))) == (1, 32, 767)


def test_renamed_query_cannot_overflow_a_weighted_field():
    # x weighs 4 and is renamed onto its tag, so x^17000 would put 68000
    # in the tags' weighted-degree field, which would carry into the next
    ring = Ring(("x", "y"), (4, 1))
    x, y = ring.var("x"), ring.var("y")
    tester = SubalgebraTester([x, y])
    assert str(tester.representation(x**8000)) == "X1^8000"
    for e in (9000, 17000):
        with pytest.raises(ExponentOverflowError):
            tester.representation(x**e)
    # a tag too heavy for its field is refused when the tester is built
    with pytest.raises(ExponentOverflowError):
        SubalgebraTester([x**9000, y])


EXT = Ring(("x", "y", "X1", "X2"))
TAGS = Ring(("X1", "X2"))


_SCALARS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


@st.composite
def _polys(
    draw,
    ring,
    max_exp=6,
    max_terms=5,
    coeffs=st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40)),
):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, max_exp)] * ring.nvars),
            coeffs,
            max_size=max_terms,
        )
    )
    return Polynomial(ring, terms)


def _small_polys(ring, max_exp=3):
    """Nonzero polynomials with at most three terms."""
    return _polys(ring, max_exp, 3, _SCALARS).filter(bool)


@given(st.sampled_from(ORDERS), _polys(EXT), _polys(R2))
def test_pack_poly_round_trip(order, f, g):
    packing = _Packing(order._rows(EXT.nvars))
    d, den = packing.pack_poly(f)
    assert packing.unpack_poly(EXT, d, den=den) == f
    # a base-ring polynomial fills the leading variables of a wider packing
    d, den = packing.pack_poly(g)
    lifted = packing.unpack_poly(EXT, d, den=den)
    assert lifted == Polynomial(EXT, {m + (0, 0): c for m, c in g.term_dict().items()})
    # start drops the leading exponents on the way back out
    tagged = Polynomial(EXT, {(0, 0) + m: c for m, c in g.term_dict().items()})
    d, den = packing.pack_poly(tagged)
    assert packing.unpack_poly(TAGS, d, 2, den) == Polynomial(TAGS, g.term_dict())


def test_overflow_surfaces_through_buchberger():
    big = R2.var("x") ** 40000  # legal polynomial, too big to pack
    with pytest.raises(ExponentOverflowError):
        buchberger([big + Y2], MonomialOrder.grevlex())


# -- normal_form ----------------------------------------------------------------


def test_normal_form_remainder_properties():
    order = MonomialOrder.lex()
    basis = buchberger([Y - X**2, Z - X**3], order)
    rng = random.Random(5)
    for _ in range(10):
        f = _random_poly(rng, R3)
        r = normal_form(f, basis, order)
        # idempotent, and the difference lies in the ideal
        assert normal_form(r, basis, order) == r
        assert ideal_membership(f - r, list(basis))


def test_normal_form_edge_cases():
    f = X + Y
    assert normal_form(f, [], MonomialOrder.lex()) == f
    assert normal_form(f, [R3.zero()], MonomialOrder.lex()) == f
    assert normal_form(R3.zero(), [f], MonomialOrder.lex()).is_zero()


# -- buchberger ----------------------------------------------------------------


def test_twisted_cubic_lex():
    basis = buchberger([Y - X**2, Z - X**3], MonomialOrder.lex())
    assert tuple(str(g) for g in basis) == (
        "y^3 - z^2",
        "x*z - y^2",
        "x*y - z",
        "x^2 - y",
    )


def test_twisted_cubic_elimination():
    basis = buchberger([Y - X**2, Z - X**3], MonomialOrder.elimination(1))
    eliminated = [g for g in basis if g.degree_in("x") <= 0]
    assert [str(g) for g in eliminated] == ["y^3 - z^2"]


def test_grlex_pinned():
    basis = buchberger([X2**2 + Y2**2, X2 * Y2], MonomialOrder.grlex())
    assert tuple(str(g) for g in basis) == ("x*y", "x^2 + y^2", "y^3")


def test_principal_ideal_collapses():
    p = (X2 + Y2) ** 2
    basis = buchberger([p, X2 * p, 3 * p], MonomialOrder.grevlex())
    assert basis == (p,)


def test_empty_and_zero():
    assert buchberger([], MonomialOrder.lex()) == ()
    assert buchberger([R3.zero()], MonomialOrder.lex()) == ()
    assert ideal_membership(R3.zero(), [])
    assert not ideal_membership(X, [])


def test_mixed_rings_rejected():
    with pytest.raises(RingMismatchError):
        buchberger([X, X2], MonomialOrder.lex())


def test_basis_is_reduced_and_monic():
    rng = random.Random(99)
    for trial in range(8):
        order = ORDERS[trial % len(ORDERS)]
        key = oracles.order_key(order)
        gens = [_random_poly(rng, R2, max_terms=3, max_exp=3) for _ in range(3)]
        g = gens[0]
        expected = buchberger(gens, order)
        # inputs whose leads tie or divide each other: g given twice, g
        # with 3*g, g with x*g
        for extra in ([], [g], [3 * g], [X2 * g]):
            basis = buchberger(gens + extra, order)
            assert basis == expected
            leads = [max(b.term_dict(), key=key) for b in basis]
            for i, b in enumerate(basis):
                assert b.term_dict()[leads[i]] == 1
                # no term of b is divisible by another lead
                for m in b.term_dict():
                    for j, lead in enumerate(leads):
                        if i == j and m == leads[i]:
                            continue
                        assert not all(a <= c for a, c in zip(lead, m))


def test_buchberger_certificate():
    # every input generator and every S-polynomial of the output reduces
    # to zero: the defining property of a Groebner basis
    rng = random.Random(4242)
    for trial in range(8):
        order = ORDERS[trial % len(ORDERS)]
        ring = R2 if trial % 2 else R3
        gens = [_random_poly(rng, ring, max_terms=3, max_exp=2) for _ in range(3)]
        basis = buchberger(gens, order)
        for g in gens:
            assert normal_form(g, basis, order).is_zero()
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = oracles.s_polynomial(basis[i], basis[j], order)
                assert normal_form(s, basis, order).is_zero()


def test_ideal_membership_and_equality():
    assert ideal_membership(X**2 + X * Y, [X])
    assert not ideal_membership(Y, [X])
    assert ideal_equal([X, Y], [X + Y, Y])
    assert not ideal_equal([X, Y], [X])
    assert ideal_equal([], [R3.zero()])


# -- relation ideals ------------------------------------------------------------


def test_relation_ideal_pinned():
    t = Ring(("t",)).var("t")
    rel = relation_ideal([t**2, t**3])
    assert rel.tag_ring.variables == ("X1", "X2")
    assert tuple(str(g) for g in rel.generators) == ("X1^3 - X2^2",)
    assert rel.evaluate(rel.generators[0], [t**2, t**3]).is_zero()
    with pytest.raises(ValueError):
        rel.evaluate(rel.generators[0], [t**2])
    for build in (relation_ideal, SubalgebraTester):
        with pytest.raises(ValueError):
            build([])


def test_relation_ideal_is_grlex_on_the_tags():
    # the relation ideal is pinned to grlex on the tags (grevlex gives
    # three generators here)
    elements = [T1**2, T1**3, T1**5]
    rel = relation_ideal(elements)
    assert tuple(str(g) for g in rel.generators) == (
        "X1*X2 - X3",
        "X1^2*X3 - X2^3",
        "X1^3 - X2^2",
        "X2^4 - X1*X3^2",
    )


def test_relation_ideal_linear():
    rel = relation_ideal([X2, X2 + Y2, Y2])
    assert tuple(str(g) for g in rel.generators) == ("X1 - X2 + X3",)


def test_relation_ideal_independent_elements():
    rel = relation_ideal([X2 + Y2, X2 * Y2])
    assert rel.generators == ()


def test_tag_names_avoid_ring_variables():
    ring = Ring(("X1", "y"))
    rel = relation_ideal([ring.var("X1") ** 2])
    assert rel.tag_ring.variables == ("XX1",)


def test_relation_ideal_against_brute_force():
    rng = random.Random(1848)
    degree_bound = 4
    for trial in range(20):
        ring = R2
        count = rng.choice((2, 3))
        elements = [
            _random_poly(rng, ring, max_terms=2, max_exp=2, bound=3)
            for _ in range(count)
        ]
        if trial % 2:
            # plant a relation so the interesting direction fires often
            elements[-1] = elements[0] * elements[min(1, count - 1)]
        rel = relation_ideal(elements)
        brute = oracles.brute_relations(elements, rel.tag_ring, degree_bound)
        order = MonomialOrder.grlex()
        # every oracle relation reduces to zero against the basis
        for vector in brute:
            if rel.generators:
                assert normal_form(vector, rel.generators, order).is_zero()
            else:
                assert vector.is_zero()
        # every low-degree basis generator is an oracle relation
        for g in rel.generators:
            if g.total_degree() <= degree_bound:
                assert rel.evaluate(g, elements).is_zero()
                assert oracles.in_span(g, brute)


# -- subalgebra membership -------------------------------------------------------


def test_symmetric_functions():
    tester = SubalgebraTester([X2 + Y2, X2 * Y2])
    rep = tester.representation(X2**2 + Y2**2)
    assert rep is not None
    assert str(rep) == "X1^2 - 2*X2"
    assert tester.contains(X2**5 + Y2**5)
    assert not tester.contains(X2 - Y2)
    assert tester.representation(X2) is None
    with pytest.raises(RingMismatchError):
        tester.contains(X)
    with pytest.raises(RingMismatchError):
        tester.multiple_of(X)


@pytest.mark.parametrize("last", [True, -1, 2, 1.0, "0"])
def test_tester_checks_last(last):
    # last is an int index of the elements, and nothing else
    with pytest.raises(ValueError, match="last must index"):
        SubalgebraTester([X2 + Y2, X2 * Y2], last)


def test_membership_round_trip():
    rng = random.Random(31)
    elements = [X2 + Y2, X2 * Y2, X2**3]
    tester = SubalgebraTester(elements)
    substitute = RingMap(tester.tag_ring, R2, tuple(elements))
    for _ in range(6):
        candidate = _random_poly(rng, tester.tag_ring, max_terms=3, max_exp=2)
        f = substitute(candidate)
        rep = tester.representation(f)
        assert rep is not None
        assert substitute(rep) == f


@st.composite
def _homogeneous_elements(draw, most=3, constants=False):
    """Two to most nonzero homogeneous polynomials of R2, degrees 1 to 3;
    one in four is a bare variable, which the tester renames onto its
    tag.  With constants, one in five is instead a nonzero constant,
    whose tag weighs 0."""
    elements = []
    for _ in range(draw(st.integers(2, most))):
        if constants and draw(st.integers(0, 4)) == 0:
            elements.append(R2.const(draw(_SCALARS)))
            continue
        if draw(st.integers(0, 3)) == 0:
            elements.append(draw(st.sampled_from([X2, Y2])))
            continue
        degree = draw(st.integers(1, 3))
        monos = st.integers(0, degree).map(lambda a, d=degree: (a, d - a))
        terms = draw(st.dictionaries(monos, _SCALARS, min_size=1, max_size=2))
        elements.append(Polynomial(R2, terms))
    return elements


@settings(max_examples=30)
@given(_homogeneous_elements(), st.data())
def test_membership_agrees_with_brute_force(elements, data):
    tester = SubalgebraTester(elements)
    substitute = RingMap(tester.tag_ring, R2, tuple(elements))
    member = substitute(data.draw(_polys(tester.tag_ring, 2, 3, _SCALARS)))
    degree = data.draw(st.integers(0, 4))
    nudge = Polynomial(
        R2, {(a, degree - a): c for a, c in data.draw(
            st.dictionaries(st.integers(0, degree), _SCALARS, min_size=1, max_size=2)
        ).items()}
    )
    for f, known_member in ((member, True), (member + nudge, None)):
        expected = oracles.brute_member(f, elements)
        if known_member:
            assert expected
        rep = tester.representation(f)
        assert (rep is not None) == expected
        if rep is not None:
            assert substitute(rep) == f


@settings(max_examples=30)
@given(_homogeneous_elements(most=4, constants=True), st.data())
def test_multiple_of_agrees_with_ideal_membership(elements, data):
    # each tag in turn is taken last and decided by one reduction
    relations = relation_ideal(elements)
    tag_ring = relations.tag_ring
    tags = [tag_ring.var(name) for name in tag_ring.variables]
    lift, nudge = (data.draw(_polys(tag_ring, 2, 2, _SCALARS)) for _ in "ln")
    for last, tag in enumerate(tags):
        tester = SubalgebraTester(elements, last)
        for relation in (tag_ring.zero(), *relations.generators):
            for query in (tag * lift + relation, tag * lift + relation * nudge + nudge):
                expected = ideal_membership(query, [*relations.generators, tag])
                assert tester.multiple_of(query) == expected


@contextlib.contextmanager
def _zero_regular_reductions():
    """While open, collects the engine of each regular reduction (one
    that a _SignatureEngine runs with its _regular) that leaves an
    empty remainder."""
    zeros = []
    reduce = _Reducer.reduce

    def counted(self, f, find=None):
        remainder, den = reduce(self, f, find)
        if find is not None and not remainder:
            zeros.append(find.__self__)
        return remainder, den

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Reducer, "reduce", counted)
        yield zeros


def _buchberger_twin(tester):
    """A tester on the same elements, packing and weights whose engine
    is the Buchberger _Engine instead of tester's signature engine.  It
    keeps the _lazy it read off that engine, so it completes degree by
    degree too."""
    twin = SubalgebraTester(tester.elements, tester.last)
    engine = twin._engine
    assert isinstance(engine, _SignatureEngine) and not engine.basis
    twin._engine = _Engine(list(engine.inputs.values()), engine.packing, engine.weights)
    return twin


@settings(max_examples=30)
@given(_homogeneous_elements(most=4, constants=True), st.data())
def test_signature_tester_matches_buchberger(elements, data):
    # full normal forms modulo any Groebner basis through the query's
    # degree agree, so both engines give every answer and representation,
    # also when a constant element's tag weighs 0
    last = data.draw(st.integers(0, len(elements) - 1))
    tester = SubalgebraTester(elements, last)
    twin = _buchberger_twin(tester)
    substitute = RingMap(tester.tag_ring, R2, tuple(elements))
    lift, nudge = (data.draw(_polys(tester.tag_ring, 2, 3, _SCALARS)) for _ in "ln")
    member = substitute(lift)
    with _zero_regular_reductions() as zeros:
        for f in (member, member + substitute(nudge) * X2 + Y2**2):
            assert tester.representation(f) == twin.representation(f)
        tag = tester.tag_ring.var(tester.tag_ring.variables[last])
        for relation in (*relation_ideal(elements).generators, lift, tag * lift + nudge):
            assert tester.multiple_of(relation) == twin.multiple_of(relation)
    assert len(zeros) == 0


@pytest.mark.parametrize("first", ["x^3", "x^3 + 1"])
def test_multiple_of_completes_the_ideal(first):
    # each tag X in turn is taken last.  Some queries lie in J + (X) but
    # are missed by J's entries and X unless X is the tag taken last:
    # with X4 last, the degree-6 relation for X1 and X2^2 - 2*X2*X3 -
    # 2*X2*X4 + 2*X3*X4 for X2.  x^3 + 1 makes the first element
    # inhomogeneous, so the tester completes at once instead of lazily,
    # and decides every query on an engine that it completes in full
    elements = [parse_polynomial(text, R2) for text in (
        first, "2*x*y", "x^2 + 2*x*y", "2*x*y + 2*y^2"
    )]
    relations = relation_ideal(elements).generators
    for last in range(len(elements)):
        tester = SubalgebraTester(elements, last)
        assert tester._lazy == (first == "x^3")
        tags = [tester.tag_ring.var(name) for name in tester.tag_ring.variables]
        tag = tags[last]
        for query in (*relations, tags[last - 1] ** 2, tags[last - 1] * tag):
            expected = ideal_membership(query, [*relations, tag])
            assert tester.multiple_of(query) == expected


def test_multiple_of_with_a_constant_element():
    # a constant element weighs 0, so its tag taken last is decided on
    # an engine of its own: J holds X1 - 2, so 1 lies in J + (X1), but
    # no lead of J's entries or X1 divides 1.  The tester itself still
    # completes lazily, by signatures
    elements = [R2.const(2), X2 * Y2, X2 + Y2]
    relations = relation_ideal(elements).generators
    for last in range(len(elements)):
        tester = SubalgebraTester(elements, last)
        assert isinstance(tester._engine, _SignatureEngine)
        one = tester.tag_ring.one()
        tag = tester.tag_ring.var(tester.tag_ring.variables[last])
        assert tester.multiple_of(one) == (last == 0)
        assert ideal_membership(one, [*relations, tag]) == (last == 0)
        assert tester.contains(R2.const(5))


def test_renamed_variable_keeps_every_answer():
    # x and 2*x span the same algebra with g and h, but only a bare
    # variable is renamed onto its tag
    g, h = X * Y + Z**2, Y**3 - X * Z**2
    plain = SubalgebraTester([X, g, h])
    scaled = SubalgebraTester([2 * X, g, h])
    assert plain._moves and not scaled._moves
    queries = [
        X**3 * g, g * h - X**5, h**2 + 3 * X * g**2, X + g, g * h,
        X * Y, Y**2, X**2 * h + Z, g**2 - X * Y * Z**2, Z**4 + X * Y * Z**2,
        X**2 + Y**2, 7 * X**4,
    ]
    answers = []
    for tester in (plain, scaled):
        substitute = RingMap(tester.tag_ring, R3, tester.elements)
        reps = [tester.representation(q) for q in queries]
        for q, rep in zip(queries, reps):
            assert rep is None or substitute(rep) == q
        answers.append([rep is not None for rep in reps])
    assert answers[0] == answers[1]
    assert answers[0] == [oracles.brute_member(q, [X, g, h]) for q in queries]
    assert 0 < sum(answers[0]) < len(queries)


def test_representation_is_a_witness():
    # the elements satisfy relations, so several tag polynomials represent
    # t^6*u^2; whichever the tester picks must evaluate back
    ring = Ring(("t", "u"))
    t, u = ring.var("t"), ring.var("u")
    elements = [t**2, t**3, u, t * u]
    f = t**6 * u**2
    tester = SubalgebraTester(elements)
    rep = tester.representation(f)
    assert rep is not None and oracles.brute_member(f, elements)
    assert RingMap(tester.tag_ring, ring, elements)(rep) == f
    assert tester.representation(f) == rep
    g = t * u**2 + t
    assert not tester.contains(g) and not oracles.brute_member(g, elements)


def test_constants_and_zero():
    tester = SubalgebraTester([X2 + Y2])
    assert tester.representation(R2.const(5)) == tester.tag_ring.const(5)
    assert tester.contains(R2.zero())
    assert tester.representation(R2.zero()).is_zero()


def test_zero_element_tolerated():
    tester = SubalgebraTester([R2.zero(), X2])
    assert tester.contains(X2**4)
    assert str(tester.representation(X2)) == "X2"
    assert not tester.contains(Y2)


def test_lazy_matches_completed(context):
    # homogeneous elements trigger lazy basis growth; forcing full
    # completion afterwards must not change any answer
    f = context.generators
    x, t = context.ring.var("x"), context.ring.var("t")
    queries = [f[1] * f[3], f[1] + f[3] ** 2, x**2 * t, f[4], f[4] + 1]
    tester = SubalgebraTester(f[:4])
    before = [tester.representation(q) for q in queries]
    assert tester._lazy
    tester._engine.complete()
    after = [tester.representation(q) for q in queries]
    assert before == after


def test_inhomogeneous_elements_complete_eagerly():
    tester = SubalgebraTester([X2 + X2**2])
    assert not tester._lazy
    assert tester.contains((X2 + X2**2) ** 3 + 5)
    assert not tester.contains(X2)


def test_subalgebra_membership_convenience():
    rep = subalgebra_membership(X2**2 + Y2**2, [X2 + Y2, X2 * Y2])
    assert rep is not None and str(rep) == "X1^2 - 2*X2"
    assert subalgebra_membership(X2 - Y2, [X2 + Y2, X2 * Y2]) is None


def test_signature_tester_matches_buchberger_on_round_three(growth3, context):
    # the tester of kernel_check's third round against a Buchberger twin
    candidates = growth3.generators[: growth3.counts[2]]
    tester = SubalgebraTester(candidates, candidates.index(context.ring.var("x")))
    twin = _buchberger_twin(tester)
    checks = growth3.outcomes[2].checks
    quotients = [c.quotient for c in checks if c.quotient]
    with _zero_regular_reductions() as zeros:
        reps = [tester.representation(q) for q in quotients]
        assert reps == [twin.representation(q) for q in quotients]
        assert len(quotients) == 52 and reps.count(None) == 40
        decided = [tester.multiple_of(c.relation) for c in checks]
        assert decided == [twin.multiple_of(c.relation) for c in checks]
    assert decided == [c.representation is not None for c in checks]
    assert len(zeros) == 0


def test_signature_engine_keeps_every_relation(context):
    # the signature engine on relation_ideal's own ideal and grlex tag
    # order, for the first 18 pinned round-3 candidates modulo x: its
    # tag-only entries interreduce to the pinned generators.  A rewrite
    # criterion that drops a signature's pair because a later entry's
    # signature divides it, without reducing that rewriter's multiple,
    # loses relations here
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    ring = context.ring
    modulo_x = RingMap.from_mapping(ring, ring, {"x": ring.zero()})
    images = tuple(
        modulo_x(parse_polynomial(text, ring))
        for text in pinned["round3_candidates"][:18]
    )
    for g in images:  # weighted homogeneous, or zero
        degrees = {sum(w * e for w, e in zip(ring.weights, m)) for m in g.term_dict()}
        assert len(degrees) <= 1
    _, tag_ring, engine, _ = _tag_ideal(images)
    assert isinstance(engine, _Engine)
    packing = engine.packing
    # _Engine adjoins its inputs on construction and steps only on demand
    inputs = [{**dict(tail), lm: lc} for lm, lc, tail in engine.basis]
    signature = _SignatureEngine(inputs, packing, engine.weights)
    with _zero_regular_reductions() as zeros:
        signature.complete()
    assert len(zeros) == 0
    head = [e for e in signature.basis if e[0] < 1 << packing.shifts[0]]
    generators = tuple(
        packing.unpack_poly(tag_ring, d, ring.nvars, d[max(d)])
        for d in _interreduce(head, packing.guard)
    )
    assert generators == relation_ideal(images).generators
    assert len(generators) == 106


def test_signature_frontier_work(context, monkeypatch):
    # the tester of all 41 pinned round-3 candidates, x taken last, to
    # degree 40: the work a change to the basis bookkeeping must not move
    pops, lookups = [], []
    step, regular = _SignatureEngine._step, _SignatureEngine._regular

    def counted_step(self):
        pops.append(self)
        return step(self)

    def counted_regular(self, lead):
        lookups.append(lead)
        return regular(self, lead)

    monkeypatch.setattr(_SignatureEngine, "_step", counted_step)
    monkeypatch.setattr(_SignatureEngine, "_regular", counted_regular)
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    ring = context.ring
    candidates = [parse_polynomial(text, ring) for text in pinned["round3_candidates"]]
    tester = SubalgebraTester(candidates, candidates.index(ring.var("x")))
    engine = tester._engine
    with _zero_regular_reductions() as zeros:
        engine.complete_to(40)
    assert isinstance(engine, _SignatureEngine)
    assert len(engine.basis) == 368 and len(zeros) == 0
    assert len(pops) == 1500 and len(lookups) == 23874


def _quotient_images(context):
    # f1..f4 of the bundled example reduced mod x
    ring = context.ring
    to_quotient = RingMap.from_mapping(ring, ring, {"x": ring.zero()})
    return [to_quotient(f) for f in context.generators[:4]]


def test_coefficients_are_plain_fractions(context):
    order = MonomialOrder.grlex()
    f, g = 3 * Y - 2 * X**2, 5 * Z - 7 * X**3
    tester = SubalgebraTester([X2 + Y2, 2 * X2 * Y2])
    images = _quotient_images(context)
    s = context.ring.var("s")
    results = [
        *buchberger([f, g], order),
        normal_form(X**4 + Y, [f, g], order),
        tester.representation(X2**2 + Y2**2),
        SubalgebraTester(images).representation(s**6 - s**2),
        *relation_ideal(images).generators,
    ]
    assert all(p is not None and p for p in results)
    for p in results:
        for _, c in p:
            assert type(c) is Fraction
            assert type(c.numerator) is int and type(c.denominator) is int


# -- integer engine: scaling and the Fraction boundary --------------------------


def _lead(p, order):
    return p.term_dict()[max(p.term_dict(), key=oracles.order_key(order))]


@given(
    st.sampled_from(ORDERS),
    _polys(R3),
    st.lists(st.tuples(_small_polys(R3), _SCALARS), min_size=1, max_size=3),
)
def test_normal_form_ignores_divisor_scaling(order, f, divisors):
    basis = [g for g, _ in divisors]
    scaled = [c * g for g, c in divisors]
    assert normal_form(f, scaled, order) == normal_form(f, basis, order)


@given(
    st.sampled_from(ORDERS[:3]),
    st.lists(_small_polys(R2), min_size=1, max_size=3),
)
def test_buchberger_fractional_leads_match_primitive(order, gens):
    basis = buchberger(gens, order)
    assert basis == buchberger([g.primitive() for g in gens], order)
    for g in basis:
        assert _lead(g, order) == 1
        assert all(type(c) is Fraction for _, c in g)


@pytest.mark.parametrize(
    "elements",
    [
        [Fraction(1, 2) * X2 + Fraction(3, 5) * Y2, Fraction(-2, 3) * X2 * Y2],
        [Fraction(3, 4) * X2 + Fraction(1, 6) * X2**2, Fraction(5, 2) * Y2],
    ],
    ids=["homogeneous", "inhomogeneous"],
)
@given(st.lists(_SCALARS, min_size=4, max_size=4))
def test_representation_evaluates_back_exactly(elements, coeffs):
    a, b = elements
    f = coeffs[0] * a**2 + coeffs[1] * a * b + coeffs[2] * b + coeffs[3] * b**3
    tester = SubalgebraTester(elements)
    rep = tester.representation(f)
    assert rep is not None
    assert all(type(c) is Fraction for _, c in rep)
    assert RingMap(tester.tag_ring, R2, elements)(rep) == f


def _sympy_basis(sympy, gens, order_name):
    """sympy's reduced basis of the R3 polynomials gens, as a set."""
    symbols = sympy.symbols("x y z")
    exprs = [
        sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[v**e for v, e in zip(symbols, m)])
            for m, c in g
        )
        for g in gens
    ]
    reference = sympy.groebner(exprs, *symbols, order=order_name, domain=sympy.QQ)
    return {
        Polynomial(
            R3,
            {m: Fraction(int(c.p), int(c.q)) for m, c in p.terms()},
        )
        for p in reference.polys
    }


@settings(max_examples=25)
@given(
    st.sampled_from(["grevlex", "lex"]),
    st.lists(_small_polys(R3, max_exp=2), min_size=1, max_size=3),
)
def test_buchberger_matches_sympy(order_name, gens):
    sympy = pytest.importorskip("sympy")
    expected = _sympy_basis(sympy, gens, order_name)
    basis = buchberger(gens, MonomialOrder.from_name(order_name))
    assert set(basis) == expected
    assert len(basis) == len(expected)


def test_lex_basis_without_coefficient_blowup():
    # popping pairs by an all-ones degree that lex does not have took
    # about 20 s here, with 365-bit coefficients
    gens = [
        parse_polynomial(text, R3)
        for text in (
            "9/4*x^2 - 1/2*y*z + 7/4",
            "-4/5*x^2*y^2 + 1/8*z^2 - 4/5",
            "9*x^2*y*z^2 - 7/8*x^2*z^2 - 1/2*x*y^2*z",
        )
    ]
    lex = MonomialOrder.lex()
    start = time.perf_counter()
    basis = buchberger(gens, lex)
    assert time.perf_counter() - start < 5
    assert len(basis) == 5
    assert buchberger(basis, lex) == basis
    try:
        import sympy
    except ImportError:
        return
    assert set(basis) == _sympy_basis(sympy, gens, "lex")

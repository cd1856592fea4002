"""Acceptance gate: the eleven headline checks, one line of output each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Everything here is exact arithmetic; there are no
tolerances anywhere.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import oracles
from lndkit import (
    KernelStatus,
    LaurentElement,
    MonomialOrder,
    Point,
    Polynomial,
    Ring,
    RingMap,
    SubalgebraTester,
    buchberger,
    commutes_with_partial,
    ideal_equal,
    ideal_membership,
    intertwines,
    kernel_check,
    normal_form,
    parse_polynomial,
    print_canonical,
    relation_ideal,
    slice_kernel_generators,
    subalgebra_membership,
)


@contextmanager
def _line(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {label}: FAIL")
        raise
    print(f"criterion {num:02d} {label}: PASS")


def test_criterion_01_invariants_are_annihilated(context):
    with _line(1, "derivation kills all six invariants"):
        for g in context.generators:
            assert context.derivation(g).is_zero()


def test_criterion_02_invariants_weighted_homogeneous(context):
    with _line(2, "invariants homogeneous of degrees 1,6,9,3,8,12"):
        assert context.ring.weights == (1, 3, 3, 3, 2)
        for g, expected in zip(context.generators, (1, 6, 9, 3, 8, 12)):
            degree = g.weighted_degree()
            assert isinstance(degree, int)
            assert degree == expected


def test_criterion_03_slice_generators_closed_forms(context):
    with _line(3, "localized slice generators match closed forms"):
        f = context.generators
        got = tuple(slice_kernel_generators(context.kernel_slice))
        expected = (
            LaurentElement(f[0], "x", 0),
            LaurentElement(context.ring.zero(), "x", 0),
            LaurentElement(f[1] * Fraction(1, 2), "x", 3),
            LaurentElement(f[2] * Fraction(1, 3), "x", 6),
            LaurentElement(f[3], "x", 1),
        )
        assert got == expected


def test_criterion_04_quotient_kernel_confirmed(context):
    with _line(4, "quotient kernel candidates confirmed"):
        outcome = kernel_check(list(context.quotient_kernel), context.quotient_slice)
        assert outcome.status is KernelStatus.CONFIRMED


def test_criterion_05_quotient_images_pinned(context):
    with _line(5, "images of the last three invariants at x=0"):
        f = context.generators
        rho = context.quotient_map
        qparse = lambda text: parse_polynomial(text, context.quotient_ring)
        assert rho(f[3]) == qparse("-s")
        assert rho(f[4]) == qparse("-s^2*v")
        assert rho(f[5]) == qparse("3*s^2*(2*s*u - t^2)")


def test_criterion_06_intertwining_maps(context):
    with _line(6, "both projections intertwine; d/dv commutes"):
        D = context.derivation
        assert intertwines(context.quotient_map, D, context.quotient_derivation)
        assert intertwines(context.fold_map, D, context.folded_derivation)
        assert commutes_with_partial(D, "v")


def test_criterion_07_folded_picture_identities(context):
    with _line(7, "folded relation, division, membership, kernel"):
        h = context.folded_generators
        ring = context.folded_ring
        x = ring.var("x")

        combined = h[1] ** 3 + h[2] ** 2
        assert combined == x**2 * h[3]

        reduce_map = RingMap.from_mapping(ring, ring, {"x": ring.zero()})
        rel = relation_ideal([reduce_map(g) for g in h])
        tparse = lambda text: parse_polynomial(text, rel.tag_ring)
        assert ideal_equal(
            list(rel.generators), [tparse("X1"), tparse("X2^3 + X3^2")]
        )

        target = combined.exact_divide_var("x", 1)
        representation = subalgebra_membership(target, list(h))
        assert representation is not None
        assert representation == parse_polynomial("X1*X4", representation.ring)

        outcome = kernel_check(list(h), context.folded_slice)
        assert outcome.confirmed

        got = tuple(slice_kernel_generators(context.folded_slice))
        expected = (
            LaurentElement(h[0], "x", 0),
            LaurentElement(ring.zero(), "x", 0),
            LaurentElement(h[1] * Fraction(1, 2), "x", 1),
            LaurentElement(h[2] * Fraction(1, 3), "x", 3),
        )
        assert got == expected


def test_criterion_08_kernel_growth_without_stabilizing(context, growth3):
    with _line(8, "three kernel rounds keep finding new invariants"):
        assert growth3.stabilized is False
        counts = growth3.counts
        assert all(a < b for a, b in zip(counts, counts[1:]))
        assert counts[0] == 4

        witness = parse_polynomial("2*x^2*t + x*v^2 - 2*s*v", context.ring)
        matches = [
            g for g in growth3.new_per_round[0] if g.monic() == witness.monic()
        ]
        assert matches
        found = matches[0]
        assert context.derivation(found).is_zero()
        tester = SubalgebraTester(list(context.generators[:4]))
        assert not tester.contains(found)


def test_criterion_09_invariants_vanish_on_core(context):
    with _line(9, "invariants vanish on x=s=0; products stay in (x, s)"):
        ring = context.ring
        origin = Point(ring, (0, 0, 0, 0, 0))
        to_core = RingMap.from_mapping(
            ring, ring, {"x": ring.zero(), "s": ring.zero()}
        )
        for g in context.generators:
            assert g.evaluate(origin) == 0
            assert to_core(g).is_zero()

        axes = [ring.var("x"), ring.var("s")]
        rng = random.Random(90210)
        for _ in range(200):
            product = ring.one()
            for g in context.generators:
                product = product * g ** rng.randint(0, 2)
            shifted = product - ring.one() * product.evaluate(origin)
            assert ideal_membership(shifted, axes)


def test_criterion_10_random_suite_full_size(random_report):
    with _line(10, "random suite, seed 1, one thousand samples"):
        assert random_report.passed
        assert all(check.ok for check in random_report.checks)


def _random_polynomial(rng, ring, max_terms=8, max_exp=6, bound=40):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in ring.variables)
        num = rng.randint(-bound, bound)
        den = rng.randint(1, bound)
        if num:
            terms[mono] = terms.get(mono, Fraction(0)) + Fraction(num, den)
    return Polynomial(ring, {m: c for m, c in terms.items() if c})


def test_criterion_11_cross_checked_machinery(context):
    with _line(11, "elimination pin, relation oracle, parser trips"):
        # lex and block elimination both project the parametrized curve
        curve_ring = Ring(("x", "y", "z"))
        gens = [
            parse_polynomial("y - x^2", curve_ring),
            parse_polynomial("z - x^3", curve_ring),
        ]
        cubic = parse_polynomial("y^3 - z^2", curve_ring)
        for order in (MonomialOrder.lex(), MonomialOrder.elimination(1)):
            basis = buchberger(gens, order)
            assert [g for g in basis if g.degree_in("x") <= 0] == [cubic]

        # relation ideal vs the brute-force linear-algebra oracle
        rng = random.Random(5077)
        plane = Ring(("x", "y"))
        degree_bound = 4
        for trial in range(20):
            count = rng.choice((2, 3))
            elements = [
                _random_polynomial(rng, plane, max_terms=2, max_exp=2, bound=3)
                for _ in range(count)
            ]
            if trial % 2:
                elements[-1] = elements[0] * elements[min(1, count - 1)]
            rel = relation_ideal(elements)
            brute = oracles.brute_relations(elements, rel.tag_ring, degree_bound)
            for vector in brute:
                if rel.generators:
                    reduced = normal_form(
                        vector, rel.generators, MonomialOrder.grlex()
                    )
                    assert reduced.is_zero()
                else:
                    assert vector.is_zero()
            for g in rel.generators:
                if g.total_degree() <= degree_bound:
                    assert rel.evaluate(g, elements).is_zero()
                    assert oracles.in_span(g, brute)

        # the printer and the parser are exact inverses
        rng = random.Random(24601)
        for i in range(500):
            p = _random_polynomial(rng, context.ring)
            text = print_canonical(p, ascending=bool(i % 2))
            assert parse_polynomial(text, context.ring) == p

"""Slices, localized kernel generators, and the reduce-and-divide loop."""

import copy
import hashlib
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from lndkit import (
    Derivation,
    KernelStatus,
    LaurentElement,
    NonInvariantCandidateError,
    Polynomial,
    Ring,
    Slice,
    SliceError,
    SubalgebraTester,
    kernel_check,
    kernel_compute,
    parse_polynomial,
    seed_candidates,
    slice_kernel_generators,
)
from lndkit.groebner import _Engine, _Reducer, _SignatureEngine
from lndkit.kernel import _minimize
from lndkit.poly import grlex_key


# -- Slice -------------------------------------------------------------------


def test_slice_of_reads_the_image(context):
    slc = Slice.of(context.derivation, "s", "x")
    assert (slc.var, slc.loc_var, slc.coefficient, slc.power) == ("s", "x", 1, 3)
    # v also works: D(v) = x^2
    slc_v = Slice.of(context.derivation, "v", "x")
    assert slc_v.power == 2


def test_slice_of_rejects_bad_images(context):
    D = context.derivation
    with pytest.raises(SliceError):
        Slice.of(D, "t", "x")  # image s is not a monomial in x
    with pytest.raises(SliceError):
        Slice.of(context.quotient_derivation, "u", "s")  # image t
    with pytest.raises(SliceError):
        Slice.of(D, "s", "v")  # image x^3 involves x, not v


def test_slice_validate(context):
    D = context.derivation
    with pytest.raises(SliceError):
        Slice(D, "t", "s")  # s is not invariant
    with pytest.raises(SliceError):
        Slice(D, "t", "x")  # image s is not a monomial in x
    slc = Slice(D, "s", "x")
    assert (slc.coefficient, slc.power) == (1, 3)
    assert slc == context.kernel_slice


def test_slice_infer(context):
    assert Slice.infer(context.derivation) == context.kernel_slice
    assert Slice.infer(context.quotient_derivation, "s") == context.quotient_slice
    ring = Ring(("x", "y"))
    swap = Derivation.from_mapping(ring, {"x": ring.var("y"), "y": ring.var("x")})
    with pytest.raises(SliceError, match="no slice variable found"):
        Slice.infer(swap)
    with pytest.raises(SliceError, match="localized variable s is not invariant"):
        Slice.infer(context.derivation, "s")


def sigma(slc):
    """The slice var / (coefficient * loc_var**power) of a Slice."""
    numerator = slc.derivation.ring.var(slc.var) * (1 / slc.coefficient)
    return LaurentElement(numerator, slc.loc_var, slc.power)


def test_sigma(context):
    # the defining property: D(sigma) = 1 in the localization
    assert context.derivation.apply_laurent(sigma(context.kernel_slice)) == 1
    qsigma = sigma(context.quotient_slice)
    assert context.quotient_derivation.apply_laurent(qsigma) == 1


def test_sigma_with_coefficient():
    ring = Ring(("x", "y"))
    d = Derivation.from_mapping(ring, {"y": 4 * ring.var("x") ** 2})
    slc = Slice.of(d, "y", "x")
    assert (slc.coefficient, slc.power) == (4, 2)
    assert d.apply_laurent(sigma(slc)) == 1


# -- localized generators ------------------------------------------------------


def test_slice_kernel_generators_quotient(context):
    ring = context.quotient_ring
    got = slice_kernel_generators(context.quotient_slice)
    two_su = parse_polynomial("2*s*u - t^2", ring)
    expected = (
        LaurentElement(ring.var("s"), "s", 0),
        LaurentElement(ring.zero(), "s", 0),
        LaurentElement(two_su * Fraction(1, 2), "s", 1),
        LaurentElement(ring.var("v"), "s", 0),
    )
    assert got == expected
    for gen in got:
        assert context.quotient_derivation.apply_laurent(gen).is_zero()


def test_slice_kernel_generators_main(context):
    # the numerators recover the first four bundled invariants
    f = context.generators
    got = slice_kernel_generators(context.kernel_slice)
    assert got[0] == f[0]
    assert got[1].is_zero()
    assert got[2] == LaurentElement(f[1] * Fraction(1, 2), "x", 3)
    assert got[3] == LaurentElement(f[2] * Fraction(1, 3), "x", 6)
    assert got[4] == LaurentElement(f[3], "x", 1)


def test_slice_projections_are_built_once(context):
    derivation = Derivation(context.derivation.ring, context.derivation.images)
    slc = Slice(derivation, "s", "x")
    first = slice_kernel_generators(slc)
    assert slice_kernel_generators(slc) is first
    assert kernel_compute(derivation, slc, 1).outcomes[0].sufficiency[4].generator is first[4]
    # the cached projections stay outside equality and hashing
    assert slc == context.kernel_slice and hash(slc) == hash(context.kernel_slice)
    assert first == slice_kernel_generators(Slice(derivation, "s", "x"))


R4 = Ring(("x", "s", "y", "z"))
small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def sliced_derivations(draw):
    """D(x) = 0, D(s) = c*x^p, D(y) in Q[x, s], D(z) in Q[x, s, y]."""

    def image(nvars_used):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            used = [draw(st.integers(0, 2)) for _ in range(nvars_used)]
            terms[tuple(used + [0] * (4 - nvars_used))] = draw(small_fractions)
        return Polynomial(R4, terms)

    c = draw(small_fractions.filter(bool))
    p = draw(st.integers(0, 3))
    return Derivation(R4, (R4.zero(), Polynomial(R4, {(p, 0, 0, 0): c}), image(2), image(3)))


@given(sliced_derivations())
def test_projection_matches_naive_sum(derivation):
    slc = Slice.of(derivation, "s", "x")
    images = [g.term_dict() for g in derivation.images]
    got = slice_kernel_generators(slc)
    assert len(got) == R4.nvars
    for i, gen in enumerate(got):
        # numerator / x^k as a term dict with the exponent of x lowered by k
        terms = {
            (m[0] - gen.denom_power,) + m[1:]: c
            for m, c in gen.numerator.term_dict().items()
        }
        assert terms == oracles.naive_projection(
            images, i, 1, 0, slc.coefficient, slc.power
        )


def test_seed_candidates(context):
    seeds = seed_candidates(context.quotient_slice)
    ring = context.quotient_ring
    assert seeds == (
        ring.var("s"),
        parse_polynomial("2*s*u - t^2", ring),
        ring.var("v"),
    )
    f = context.generators
    assert seed_candidates(context.kernel_slice) == (f[0], f[1], f[2], f[3])


# -- kernel_check ----------------------------------------------------------------


def test_kernel_check_confirms_quotient(context):
    outcome = kernel_check(context.quotient_kernel, context.quotient_slice)
    assert outcome.status is KernelStatus.CONFIRMED
    assert outcome.confirmed
    assert outcome.new_elements == ()
    assert outcome.checks
    assert all(c.member for c in outcome.sufficiency)
    for check in outcome.checks:
        assert check.representation is not None


def test_kernel_check_zero_projection_and_vanishing_relation(context):
    # v^2 makes X3^2 - X4 a relation that vanishes on the candidates
    # themselves, and the slice variable t projects to zero
    ring = context.quotient_ring
    s, t, u, v = (ring.var(n) for n in ring.variables)
    outcome = kernel_check([s, 2 * s * u - t**2, v, v**2], context.quotient_slice)
    assert outcome.status is KernelStatus.CONFIRMED
    tag_ring = outcome.checks[0].relation.ring
    X3, X4 = tag_ring.var("X3"), tag_ring.var("X4")
    (vanishing,) = [c for c in outcome.checks if c.relation == X3**2 - X4]
    assert vanishing.quotient == ring.zero()
    assert vanishing.representation == tag_ring.zero()
    (projection,) = [c for c in outcome.sufficiency if c.variable == "t"]
    assert projection.generator.is_zero()
    assert projection.member


def test_kernel_check_finds_new_generators(context):
    f = context.generators
    outcome = kernel_check(f[:4], context.kernel_slice)
    assert outcome.status is KernelStatus.NEW_GENERATORS
    assert not outcome.confirmed
    assert len(outcome.new_elements) == 3
    for p in outcome.new_elements:
        assert context.derivation(p).is_zero()
        assert p.primitive() == p
        assert not SubalgebraTester(f[:4]).contains(p)


def _assert_new_elements_are_new(derivation, candidates, outcome):
    for p in outcome.new_elements:
        assert derivation(p).is_zero()
        assert not oracles.brute_member(p, list(candidates))


def test_kernel_check_adjoins_numerators_outside_the_algebra(context):
    # the numerators of pi(t) and pi(u) lie outside k[f1, f4]: they are
    # new kernel elements, and the relation step still runs
    f = context.generators
    candidates = [f[0], f[3]]
    outcome = kernel_check(candidates, context.kernel_slice)
    assert outcome.status is KernelStatus.NEW_GENERATORS
    assert [str(p) for p in outcome.new_elements] == [
        "2*x^3*t - s^2",
        "3*x^6*u - 3*x^3*s*t + s^3",
    ]
    assert [c.variable for c in outcome.sufficiency if not c.member] == ["t", "u"]
    assert outcome.checks
    _assert_new_elements_are_new(context.derivation, candidates, outcome)


def test_kernel_check_numerator_needing_a_factor_of_loc(context):
    # f2, the numerator of pi(t), lies outside k[f1, x*f2, f3, f4] while
    # x*f2 lies inside: f2 is new, next to a relation quotient
    f = context.generators
    candidates = [f[0], context.ring.var("x") * f[1], f[2], f[3]]
    outcome = kernel_check(candidates, context.kernel_slice)
    assert outcome.status is KernelStatus.NEW_GENERATORS
    assert [str(p) for p in outcome.new_elements] == [
        "2*x^3*t - s^2",
        "3*x^5*u + x^2*v^3 - 3*x^2*s*t - 3*x*s*v^2 + 3*s^2*v",
    ]
    assert [c.variable for c in outcome.sufficiency if not c.member] == ["t"]
    _assert_new_elements_are_new(context.derivation, candidates, outcome)


def test_kernel_check_input_validation(context):
    f = context.generators
    with pytest.raises(ValueError):
        kernel_check([], context.kernel_slice)
    with pytest.raises(ValueError):
        # the localized variable itself must be a candidate
        kernel_check([f[1], f[2], f[3]], context.kernel_slice)
    with pytest.raises(NonInvariantCandidateError) as info:
        kernel_check([f[0], context.ring.var("t")], context.kernel_slice)
    assert info.value.witness == context.ring.var("s")


# -- kernel_compute ----------------------------------------------------------------


def test_kernel_compute_quotient(context):
    result = kernel_compute(context.quotient_derivation, context.quotient_slice, 5)
    assert result.stabilized
    assert result.rounds == 1
    assert result.counts == (3, 3)
    assert set(result.generators) == set(context.quotient_kernel)
    # a stabilized answer passes its own certificate
    confirm = kernel_check(result.generators, context.quotient_slice)
    assert confirm.status is KernelStatus.CONFIRMED


def test_kernel_compute_result_copies_and_pickles(context):
    result = kernel_compute(context.quotient_derivation, context.quotient_slice, 5)
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        back = clone(result)
        assert back == result and hash(back) == hash(result)


def test_kernel_compute_folded(context):
    result = kernel_compute(context.folded_derivation, context.folded_slice, 5)
    assert result.stabilized
    assert result.counts == (3, 4, 5, 5)
    assert result.rounds == 3
    assert result.generators == context.folded_generators


def test_kernel_compute_growth(growth3, context):
    assert not growth3.stabilized
    assert growth3.rounds == 3
    assert growth3.counts == (4, 7, 13, 41)
    assert [len(batch) for batch in growth3.new_per_round] == [3, 6, 28]
    assert all(
        outcome.status is KernelStatus.NEW_GENERATORS
        for outcome in growth3.outcomes
    )
    for p in growth3.new_per_round[0]:
        assert context.derivation(p).is_zero()


def test_round_three_membership_work(growth3, monkeypatch):
    # the tester's weighted reverse-lex tag block keeps the round-3
    # basis small: 62 signature-engine entries (65 from a Buchberger
    # engine).  Each of the 40 quotients outside the algebra is reduced
    # to its full normal form: 14448 divisor lookups (17833 on the
    # Buchberger engine's basis, 13614 when reduction stopped at a
    # non-member's first ring term)
    finds = []
    find = _Reducer.find

    def counted(self, lead):
        finds.append(lead)
        return find(self, lead)

    monkeypatch.setattr(_Reducer, "find", counted)
    tester = SubalgebraTester(growth3.generators[: growth3.counts[2]])
    quotients = [c.quotient for c in growth3.outcomes[2].checks if c.quotient]
    fresh = [q for q in quotients if not tester.contains(q)]
    assert len(quotients) == 52 and len(fresh) == 40
    assert len(tester._engine.basis) < 100
    assert len(finds) < 16000


def _round_candidates(result, slc):
    """The candidates of each round of result, rebuilt as kernel_compute
    builds them."""
    candidates = list(seed_candidates(slc))
    for outcome in result.outcomes:
        yield tuple(candidates), outcome
        candidates.extend(outcome.new_elements)


def test_relation_decisions_match_full_reduction(growth3, context):
    # multiple_of decides each quotient in the tag ring; contains reduces
    # it in the whole ring, and brute_member shares no code with either
    delta = kernel_compute(context.quotient_derivation, context.quotient_slice)
    delta_prime = kernel_compute(context.folded_derivation, context.folded_slice)
    runs = [
        (growth3, context.kernel_slice),
        (delta, context.quotient_slice),
        (delta_prime, context.folded_slice),
    ]
    for result, slc in runs:
        loc = slc.derivation.ring.var(slc.loc_var)
        for r, (candidates, outcome) in enumerate(_round_candidates(result, slc)):
            deciding = SubalgebraTester(candidates, candidates.index(loc))
            reducing = SubalgebraTester(candidates)
            for check in outcome.checks:
                member = deciding.multiple_of(check.relation)
                assert member == reducing.contains(check.quotient)
                assert member == (check.representation is not None)
                if result is growth3 and r < 2:
                    assert member == oracles.brute_member(check.quotient, list(candidates))
    # every check record is byte-identical to the one made by reducing
    # each quotient in the whole ring
    text = "\n".join(
        repr(check)
        for outcome in growth3.outcomes
        for check in (*outcome.checks, *outcome.sufficiency)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b97308480b920af5589023723b0bd5722fcd0ef0615aedcb5d618c0484042a1e"
    )


def test_relation_decisions_without_weights():
    # inhomogeneous candidates, so the tester completes its bases at
    # once instead of degree by degree; X2 - X4 gives the member -f3,
    # X4^3 + X3^2 a quotient outside the algebra
    ring = Ring(("x", "s", "t", "u"))
    p = lambda text: parse_polynomial(text, ring)
    derivation = Derivation.from_mapping(
        ring, {"s": ring.var("x"), "t": ring.var("s"), "u": ring.var("t")}
    )
    f = [p("x"), p("2*x*t - s^2 + x^2"), p("3*x^2*u - 3*x*s*t + s^3 + x")]
    f.append(f[1] + f[0] * f[2])
    outcome = kernel_check(f, Slice(derivation, "s", "x"))
    tester = SubalgebraTester(f, 0)
    assert not tester._lazy
    members = [check.representation is not None for check in outcome.checks]
    assert sorted(members) == [False, True, True]
    for check, member in zip(outcome.checks, members):
        assert tester.multiple_of(check.relation) == member
        assert tester.contains(check.quotient) == member


def test_kernel_compute_without_weights(growth3, monkeypatch):
    # D on the unweighted ring: every tester holds an inhomogeneous
    # candidate, so none is lazy, each completes in full and every
    # relation is decided on multiple_of's side engine.  The answers are
    # the weighted run's
    lazy = []
    init = SubalgebraTester.__init__

    def recorded(self, *args):
        init(self, *args)
        lazy.append(self._lazy)

    monkeypatch.setattr(SubalgebraTester, "__init__", recorded)
    ring = Ring(("x", "s", "t", "u", "v"))
    p = lambda text: parse_polynomial(text, ring)
    derivation = Derivation.from_mapping(
        ring, {"s": p("x^3"), "t": p("s"), "u": p("t"), "v": p("x^2")}
    )
    result = kernel_compute(derivation, Slice(derivation, "s", "x"), 3)
    assert result.counts == (4, 7, 13, 41)
    assert [str(g) for g in result.generators] == [str(g) for g in growth3.generators]
    assert lazy and not any(lazy)


def test_kernel_compute_reducer_work(context, monkeypatch):
    # a quotient is decided in the tag ring by one reduction, so no
    # normal form in the whole ring is built for one outside the
    # algebra.  The relation engines take 443 Buchberger pair steps.
    # The testers' signature engines make 76 regular reductions and
    # none gives zero, where Buchberger engines took 179 pair steps,
    # 124 of them to zero.  3596 divisor lookups: 2171 plain and 1425
    # regular (4977 plain with Buchberger testers, 8073 on a second
    # engine per index, 18854 when every quotient is decided by
    # representation)
    finds = []
    steps = []
    reductions = []
    find = _Reducer.find
    regular = _SignatureEngine._regular
    step = _Engine._step
    reduce = _Reducer.reduce

    def counted(self, lead):
        finds.append(lead)
        return find(self, lead)

    def counted_regular(self, lead):
        finds.append(lead)
        return regular(self, lead)

    def counted_step(self):
        steps.append(self)
        return step(self)

    def counted_reduce(self, f, find=None):
        remainder, den = reduce(self, f, find)
        if find is not None:
            reductions.append((find.__self__, not remainder))
        return remainder, den

    derivation = Derivation(context.derivation.ring, context.derivation.images)
    slc = Slice(derivation, "s", "x")
    monkeypatch.setattr(_Reducer, "find", counted)
    monkeypatch.setattr(_SignatureEngine, "_regular", counted_regular)
    monkeypatch.setattr(_Engine, "_step", counted_step)
    monkeypatch.setattr(_Reducer, "reduce", counted_reduce)
    result = kernel_compute(derivation, slc, 3)
    assert result.counts == (4, 7, 13, 41)
    assert len(finds) < 6000
    assert len(steps) < 500
    testers = {engine for engine, _ in reductions}
    assert len(testers) == 3 and len(reductions) < 100
    assert sum(zero for _, zero in reductions) == 0


def test_kernel_compute_polynomial_work(context, monkeypatch):
    # a RingMap keeps its image powers, Derivation.apply builds only its
    # result, and the ring constructors build through _make: 473
    # Polynomials, against 3367 when every power, partial product,
    # partial derivative and partial sum was one.  Fresh objects, so no cached projection or
    # image table from another test is reused.
    made = []
    make = Polynomial._make.__func__

    def counted(cls, ring, num, den=1):
        made.append(ring)
        return make(cls, ring, num, den)

    derivation = Derivation(context.derivation.ring, context.derivation.images)
    slc = Slice(derivation, "s", "x")
    monkeypatch.setattr(Polynomial, "_make", classmethod(counted))
    result = kernel_compute(derivation, slc, 3)
    assert result.counts == (4, 7, 13, 41)
    assert len(made) < 500


def test_minimize_strips_redundant_generators(context):
    ring = context.quotient_ring
    s, v = ring.var("s"), ring.var("v")
    gens = (s, v, parse_polynomial("2*s*u - t^2", ring), s**2, s * v)
    # s^2 and s*v lie in the algebra of the first three
    assert _minimize(gens) == gens[:3]
    assert set(gens[:3]) == set(context.quotient_kernel)


def test_seeded_rounds_shift_zero(growth3, context):
    # every localized generator's numerator is a constant or a scalar
    # multiple of a seed, and candidates only grow, so every probe is a
    # member at once
    delta = kernel_compute(context.quotient_derivation, context.quotient_slice)
    delta_prime = kernel_compute(context.folded_derivation, context.folded_slice)
    assert delta.stabilized and delta_prime.stabilized  # within the default 3 rounds
    for result in (growth3, delta, delta_prime):
        for outcome in result.outcomes:
            assert outcome.sufficiency
            assert all(c.member for c in outcome.sufficiency)


def test_new_elements_in_lead_then_text_order(growth3):
    # grlex order of the leading monomials, ties broken by canonical
    # text; round 3 has elements with equal leads, so the tie-break shows
    lead = lambda p: grlex_key(p.leading_term()[0])
    for outcome in growth3.outcomes:
        new = list(outcome.new_elements)
        assert new == sorted(new, key=lambda p: (lead(p), str(p)))
    leads = [lead(p) for p in growth3.outcomes[2].new_elements]
    assert len(set(leads)) < len(leads)


def test_kernel_compute_validation(context):
    with pytest.raises(ValueError):
        kernel_compute(context.quotient_derivation, context.quotient_slice, 0)
    with pytest.raises(ValueError):
        # the slice must be one of the derivation's
        kernel_compute(context.quotient_derivation, context.kernel_slice)

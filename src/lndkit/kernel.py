"""Kernel machinery for locally nilpotent derivations.

Everything here runs through one localization trick: if D(loc) = 0 and
some variable y has D(y) = c * loc**p, then sigma = y/(c*loc**p) is a
slice for D after inverting loc, and

    pi(g) = sum_k (-sigma)**k D**k(g) / k!

projects the localized ring onto the localized kernel.  That gives exact
generators of the localized kernel (slice_kernel_generators).  Over the
common denominator loc**(p*K), K the last nonzero iterate, pi(g) is one
polynomial numerator, built by Horner's rule in loc**p from the cached
iterates of g; no localized arithmetic is needed.  To pass
from the localized kernel to the honest one, kernel_check runs one
round of van den Essen's reduce-and-divide test on a candidate
subalgebra A.  Each numerator N of a localized generator is invariant
(D(N) = loc**k * D(pi(g)) = 0), so an N outside A is a new kernel
element.  Then the relations of the candidates modulo loc are
computed, the candidates substituted back into each relation, the
result divided by loc once, and each quotient tested for membership in
A.  The test runs in the tag ring: with J the relations among the
candidates, the quotient of a relation P lies in A exactly when P lies
in J + (tag of loc) (SubalgebraTester.multiple_of).  The tester is
built with loc as the element it takes last, so that is one reduction
of P, and only a member is then rewritten into its representation.
Numerators and quotients outside A are the new kernel elements; a
round without any certifies that the candidates generate the kernel.
kernel_compute iterates rounds until that certificate appears or a
round budget runs out.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .derivation import Derivation
from .errors import NonInvariantCandidateError, SliceError
from .groebner import SubalgebraTester, relation_ideal
from .poly import LaurentElement, Polynomial, RingMap, _Record, grlex_key

class Slice(_Record):
    """A slice datum: D(var) = coefficient * loc_var**power, D(loc_var) = 0.

    Construction reads coefficient and power off the image of var and
    raises SliceError unless that image is one term in loc_var alone and
    loc_var is invariant.  So every Slice is a valid one: after inverting
    loc_var, var / (coefficient * loc_var**power) maps to 1 under D.
    Like the projections (_projections), coefficient and power follow
    from the fields, so they are kept apart from them.
    """

    _fields = ("derivation", "var", "loc_var")

    def __init__(self, derivation: Derivation, var: str, loc_var: str):
        ring = derivation.ring
        ring.index(var)
        if not derivation.image(loc_var).is_zero():
            raise SliceError(f"localized variable {loc_var} is not invariant")
        image = derivation.image(var)
        terms = image.term_dict()
        if len(terms) == 1:
            ((mono, coeff),) = terms.items()
            power = mono[ring.index(loc_var)]
            if image == ring.var(loc_var) ** power * coeff:
                object.__setattr__(self, "derivation", derivation)
                object.__setattr__(self, "var", var)
                object.__setattr__(self, "loc_var", loc_var)
                object.__setattr__(self, "coefficient", coeff)
                object.__setattr__(self, "power", power)
                return
        raise SliceError(f"image of {var} is not a monomial in {loc_var}: {image}")

    @cached_property
    def _projections(self) -> tuple[LaurentElement, ...]:
        """The slice projection of each ring variable, built once.  With
        D(y) = c * loc**p and K the last nonzero iterate of g, pi(g) is
        the numerator N_K over loc**(p*K), where N_0 = g and
        N_k = N_(k-1) * loc**p + D**k(g) * (-y/c)**k / k!.
        """
        ring = self.derivation.ring
        lift = ring.var(self.loc_var) ** self.power
        step = ring.var(self.var) * (-1 / self.coefficient)
        out = []
        for chain in self.derivation._variable_iterates:
            numerator = chain[0]
            weight = ring.one()  # (-y/c)**k / k!
            for k, iterate in enumerate(chain[1:], start=1):
                weight = weight * step * Fraction(1, k)
                numerator = numerator * lift + iterate * weight
            out.append(
                LaurentElement(numerator, self.loc_var, self.power * (len(chain) - 1))
            )
        return tuple(out)

    @classmethod
    def of(cls, derivation: Derivation, var: str, loc_var: str) -> "Slice":
        """The same as Slice(derivation, var, loc_var); kept only because
        the benchmark's workloads (perfbench/workloads.py) call it."""
        return cls(derivation, var, loc_var)

    @classmethod
    def infer(cls, derivation: Derivation, loc_var: str | None = None) -> "Slice":
        """First variable (ring order) whose image is a monomial in an
        invariant variable.  Tries every invariant variable as the
        localizer unless one is named; a named one that is not invariant
        raises SliceError saying so."""
        ring = derivation.ring
        if loc_var is None:
            locs = [
                name for name in ring.variables
                if derivation.image(name).is_zero()
            ]
        else:
            locs = [loc_var]
        for loc in locs:
            for var in ring.variables:
                try:
                    return cls(derivation, var, loc)
                except SliceError:
                    if not derivation.image(loc).is_zero():
                        raise
        raise SliceError("no slice variable found")


def slice_kernel_generators(slc: Slice) -> tuple[LaurentElement, ...]:
    """Images of the ring variables under the slice projection.

    These generate the kernel of the derivation over the localized ring;
    the entry for the slice variable itself is zero.  Computed once per
    Slice (Slice._projections).
    """
    return slc._projections


class KernelStatus(Enum):
    CONFIRMED = "confirmed"
    NEW_GENERATORS = "new-generators"


class SufficiencyCheck(_Record):
    """Record of one localized-generator containment test: whether the
    numerator of the generator lies in the candidate algebra."""

    _fields = ("variable", "generator", "member")

    def __init__(self, variable: str, generator: LaurentElement, member: bool):
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "member", member)


class RelationCheck(_Record):
    """Record of one relation: the candidates substituted into it,
    divided once by the localized variable, and tested for membership."""

    _fields = ("relation", "quotient", "representation")

    def __init__(
        self,
        relation: Polynomial,
        quotient: Polynomial,
        representation: Polynomial | None,
    ):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "representation", representation)


class KernelCheckOutcome(_Record):
    """One kernel_check round: the new kernel elements, a RelationCheck
    per relation, each in the relation ideal's tag ring, and a
    SufficiencyCheck per ring variable.  The round is CONFIRMED exactly
    when there are no new elements."""

    _fields = ("new_elements", "checks", "sufficiency")

    def __init__(
        self,
        new_elements: tuple[Polynomial, ...],
        checks: tuple[RelationCheck, ...],
        sufficiency: tuple[SufficiencyCheck, ...],
    ):
        object.__setattr__(self, "new_elements", new_elements)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "sufficiency", sufficiency)

    @property
    def status(self) -> KernelStatus:
        if self.new_elements:
            return KernelStatus.NEW_GENERATORS
        return KernelStatus.CONFIRMED

    @property
    def confirmed(self) -> bool:
        return not self.new_elements


def kernel_check(candidates: Sequence[Polynomial], slc: Slice) -> KernelCheckOutcome:
    """One round of the reduce-and-divide kernel test for
    slc.derivation, localized at the slice slc (Slice.infer finds one).

    Returns CONFIRMED when the candidates provably generate the kernel,
    NEW_GENERATORS with fresh kernel elements otherwise.  The new
    elements are the numerators of localized generators and the
    relation quotients that lie outside the candidate algebra, made
    primitive, without repeats, in grlex order of their leading
    monomials, canonical text breaking ties.

    Every localized generator is probed, zero and constant ones
    included (members), and every relation is divided and tested,
    vanishing ones included (quotient 0, represented by 0).  A
    relation's quotient is decided by SubalgebraTester.multiple_of on
    the relation itself, by one reduction in the tag ring, since the
    tester takes the localized variable as its last element; so a
    quotient outside the algebra is never reduced in the whole ring,
    and a representation is built only for a member.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("at least one candidate required")
    derivation = slc.derivation
    ring = derivation.ring
    loc_poly = ring.var(slc.loc_var)

    for f in candidates:
        image = derivation.apply(f)
        if not image.is_zero():
            raise NonInvariantCandidateError(
                f"candidate {f} is not in the kernel", witness=image
            )
    if loc_poly not in candidates:
        raise ValueError("the localized variable must be among the candidates")

    tester = SubalgebraTester(candidates, candidates.index(loc_poly))

    # Sufficiency: the numerator of every localized kernel generator is
    # invariant, so one outside the candidate algebra is a new element.
    sufficiency = tuple(
        SufficiencyCheck(name, gen, tester.contains(gen.numerator))
        for name, gen in zip(ring.variables, slice_kernel_generators(slc))
    )
    fresh = [c.generator.numerator for c in sufficiency if not c.member]

    # Relations of the candidates modulo loc, then divide and retest.
    substitute = RingMap(tester.tag_ring, ring, candidates)
    checks = []
    for relation in _relations(candidates, slc):
        quotient = substitute(relation).exact_divide_var(slc.loc_var, 1)
        representation = None
        if tester.multiple_of(relation):
            representation = tester.representation(quotient)
        checks.append(RelationCheck(relation, quotient, representation))
        if representation is None:
            fresh.append(quotient)

    normalized = []
    seen = set()
    for q in fresh:
        p = q.primitive()
        if p in seen:
            continue
        image = derivation.apply(p)
        if not image.is_zero():
            raise NonInvariantCandidateError(
                f"derived element {p} fell outside the kernel", witness=image
            )
        seen.add(p)
        normalized.append(p)
    # canonical text is printed only where leads tie
    leads = Counter(p.leading_term()[0] for p in normalized)

    def order(p):
        lead = p.leading_term()[0]
        return grlex_key(lead), str(p) if leads[lead] > 1 else ""

    normalized.sort(key=order)
    return KernelCheckOutcome(tuple(normalized), tuple(checks), sufficiency)


def _relations(candidates: tuple[Polynomial, ...], slc: Slice) -> tuple[Polynomial, ...]:
    """The relations phase of kernel_check: generators of the relations
    among the candidates modulo the localized variable, in the tag ring
    of the candidates' SubalgebraTester (relation_ideal's reduced basis)."""
    ring = slc.derivation.ring
    reduce_map = RingMap.from_mapping(ring, ring, {slc.loc_var: ring.zero()})
    return relation_ideal([reduce_map(f) for f in candidates]).generators


class KernelComputeResult(_Record):
    _fields = ("generators", "counts", "outcomes")

    def __init__(
        self,
        generators: tuple[Polynomial, ...],
        counts: tuple[int, ...],  # candidate count at the seed and after each round
        outcomes: tuple[KernelCheckOutcome, ...],
    ):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def stabilized(self) -> bool:
        return self.outcomes[-1].confirmed

    @property
    def rounds(self) -> int:
        return len(self.outcomes)

    @property
    def new_per_round(self) -> tuple[tuple[Polynomial, ...], ...]:
        return tuple(outcome.new_elements for outcome in self.outcomes)


def seed_candidates(slc: Slice) -> tuple[Polynomial, ...]:
    """Initial kernel candidates: the numerators of the localized
    generators, made primitive, constants dropped."""
    seeds = []
    for gen in slice_kernel_generators(slc):
        if gen.is_zero() or gen.numerator.is_constant():
            continue
        p = gen.numerator.primitive()
        if p not in seeds:
            seeds.append(p)
    return tuple(seeds)


def kernel_compute(
    derivation: Derivation, slc: Slice, max_rounds: int = 3
) -> KernelComputeResult:
    """Iterate kernel_check from seed_candidates(slc), adjoining new
    elements, until it certifies the candidates or max_rounds rounds
    have run.  derivation must be slc.derivation (Slice.infer finds a
    slice of it), or ValueError is raised before the first round.

    A stabilized result is a proven generating set of the kernel,
    greedily minimized.  An unstabilized result reports the candidates
    accumulated so far.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if slc.derivation != derivation:
        raise ValueError("slice belongs to a different derivation")
    candidates = list(seed_candidates(slc))
    counts = [len(candidates)]
    outcomes = []
    for _ in range(max_rounds):
        outcome = kernel_check(candidates, slc)
        outcomes.append(outcome)
        candidates.extend(outcome.new_elements)
        counts.append(len(candidates))
        if outcome.confirmed:
            break
    generators = tuple(candidates)
    if outcomes[-1].confirmed:
        generators = _minimize(generators)
    return KernelComputeResult(generators, tuple(counts), tuple(outcomes))


def _minimize(generators: tuple[Polynomial, ...]) -> tuple[Polynomial, ...]:
    """Drop generators already contained in the algebra of the others.

    One forward pass suffices: a generator kept because it lies outside
    the algebra of the others stays outside when the others shrink.
    """
    gens = list(generators)
    i = 0
    while i < len(gens) and len(gens) > 1:
        if SubalgebraTester(gens[:i] + gens[i + 1 :]).contains(gens[i]):
            gens.pop(i)
        else:
            i += 1
    return tuple(gens)

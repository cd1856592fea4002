"""A bundled worked example, with a mechanical verification suite.

The context: a triangular locally nilpotent derivation D on Q[x,s,t,u,v],
weighted so that D is homogeneous, together with

  * six invariants f1..f6 that separate points wherever any invariant
    can (no finite generating set is pinned down here; the six are a
    separating set, which is the weaker and checkable property);
  * a quotient picture: setting x to 0 intertwines D with a derivation
    Delta on Q[s,t,u,v] whose kernel is computed exactly;
  * a folded picture: substituting s -> x*v intertwines D with a
    derivation Delta' on Q[x,v,t,u] whose kernel is computed exactly and
    pinned by one relation (h2^3 + h3^2 = x^2 * h4).

verify_paper re-derives every one of those statements with exact
arithmetic and reports one ok/FAIL line per statement; a statement that
holds in several pictures has one body, which loops over them.  random_suite
drives the separation claims with seeded random points instead of fixed
ones.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .derivation import Derivation, commutes_with_partial, intertwines
from .errors import LndError
from .groebner import relation_ideal, subalgebra_membership
from .kernel import KernelStatus, Slice, kernel_check, kernel_compute, slice_kernel_generators
from .parse import parse_polynomial
from .poly import LaurentElement, Point, Polynomial, Ring, RingMap, _Record


class Check(_Record):
    """One verified statement: ok when there is no witness, FAIL with
    the witness that refutes it otherwise."""

    _fields = ("name", "witness")

    def __init__(self, name: str, witness: str | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "witness", witness)

    @property
    def ok(self) -> bool:
        return self.witness is None

    @property
    def status(self) -> str:
        return "ok" if self.ok else "FAIL"


class VerificationReport(_Record):
    _fields = ("checks",)

    def __init__(self, checks: tuple[Check, ...]):
        object.__setattr__(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def render_text(self) -> str:
        width = max(len(c.name) for c in self.checks) + 4
        lines = []
        for c in self.checks:
            dots = "." * (width - len(c.name))
            lines.append(f"{c.name} {dots} {c.status}")
            if c.witness:
                lines.append(f"    {c.witness}")
        good = sum(c.ok for c in self.checks)
        lines.append(f"{good}/{len(self.checks)} checks passed")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
        }


class PaperContext(_Record):
    """The bundled example: main derivation, its two companion pictures,
    and the named invariants of each.

    Each picture's derivation is the one of its slice, and its ring
    that derivation's ring; both are read off the slice, not stored.
    Construction checks the counts and the map rings only: whether each
    derivation is locally nilpotent is verify_paper's first check,
    flows_terminate.
    """

    _fields = (
        "generators", "kernel_slice", "quotient_map", "quotient_kernel",
        "quotient_slice", "fold_map", "folded_generators", "folded_slice",
    )

    def __init__(
        self,
        generators: tuple[Polynomial, ...],          # f1..f6
        kernel_slice: Slice,                         # s over x^3
        quotient_map: RingMap,                       # x -> 0
        quotient_kernel: tuple[Polynomial, ...],     # s, 2su - t^2, v
        quotient_slice: Slice,                       # Delta: t over s
        fold_map: RingMap,                           # s -> x*v
        folded_generators: tuple[Polynomial, ...],   # h1..h4
        folded_slice: Slice,                         # Delta': v over x^2
    ):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "kernel_slice", kernel_slice)
        object.__setattr__(self, "quotient_map", quotient_map)
        object.__setattr__(self, "quotient_kernel", quotient_kernel)
        object.__setattr__(self, "quotient_slice", quotient_slice)
        object.__setattr__(self, "fold_map", fold_map)
        object.__setattr__(self, "folded_generators", folded_generators)
        object.__setattr__(self, "folded_slice", folded_slice)
        counts = (len(self.generators), len(self.folded_generators))
        if counts != (6, 4):
            raise ValueError(f"expected f1..f6 and h1..h4, got {counts[0]} and {counts[1]}")
        for name, link, target in (
            ("quotient", self.quotient_map, self.quotient_ring),
            ("fold", self.fold_map, self.folded_ring),
        ):
            if link.source != self.ring or link.target != target:
                raise ValueError(f"{name} map ring mismatch")

    @property
    def derivation(self) -> Derivation:
        return self.kernel_slice.derivation

    @property
    def ring(self) -> Ring:
        return self.derivation.ring

    @property
    def quotient_derivation(self) -> Derivation:
        return self.quotient_slice.derivation

    @property
    def quotient_ring(self) -> Ring:
        return self.quotient_derivation.ring

    @property
    def folded_derivation(self) -> Derivation:
        return self.folded_slice.derivation

    @property
    def folded_ring(self) -> Ring:
        return self.folded_derivation.ring

    def project_point(self, point: Point) -> Point:
        """Drop the x coordinate: the point-level companion of the
        quotient map."""
        if point.ring != self.ring:
            raise ValueError("point lies in a different ring")
        return Point(
            self.quotient_ring,
            tuple(
                point.coordinate(name) for name in self.quotient_ring.variables
            ),
        )


_F_TEXT = (
    "x",
    "2*x^3*t - s^2",
    "3*x^6*u - 3*x^3*s*t + s^3",
    "x*v - s",
    "x^2*s*t - s^2*v + 2*x^3*t*v - 3*x^5*u",
    "9*x^6*u^2 - 18*x^3*s*t*u + 8*x^3*t^3 + 6*s^3*u - 3*s^2*t^2",
)

_H_TEXT = (
    "x",
    "2*x*t - v^2",
    "3*x^3*u - 3*x*v*t + v^3",
    "9*x^4*u^2 + 8*x*t^3 - 18*x^2*t*u*v - 3*t^2*v^2 + 6*x*u*v^3",
)


@lru_cache(maxsize=1)
def builtin_context() -> PaperContext:
    ring = Ring(("x", "s", "t", "u", "v"), (1, 3, 3, 3, 2))
    parse = lambda text: parse_polynomial(text, ring)
    derivation = Derivation.from_mapping(
        ring,
        {
            "s": parse("x^3"),
            "t": parse("s"),
            "u": parse("t"),
            "v": parse("x^2"),
        },
    )
    generators = tuple(parse(text) for text in _F_TEXT)

    quotient_ring = Ring(("s", "t", "u", "v"), (3, 3, 3, 2))
    qparse = lambda text: parse_polynomial(text, quotient_ring)
    quotient_map = RingMap.from_mapping(ring, quotient_ring, {"x": quotient_ring.zero()})
    quotient_derivation = Derivation.from_mapping(
        quotient_ring, {"t": qparse("s"), "u": qparse("t")}
    )
    quotient_kernel = (qparse("s"), qparse("2*s*u - t^2"), qparse("v"))

    folded_ring = Ring(("x", "v", "t", "u"), (1, 2, 3, 3))
    hparse = lambda text: parse_polynomial(text, folded_ring)
    fold_map = RingMap.from_mapping(ring, folded_ring, {"s": hparse("x*v")})
    folded_derivation = Derivation.from_mapping(
        folded_ring, {"v": hparse("x^2"), "t": hparse("x*v"), "u": hparse("t")}
    )
    folded_generators = tuple(hparse(text) for text in _H_TEXT)

    return PaperContext(
        generators=generators,
        kernel_slice=Slice(derivation, "s", "x"),
        quotient_map=quotient_map,
        quotient_kernel=quotient_kernel,
        quotient_slice=Slice(quotient_derivation, "t", "s"),
        fold_map=fold_map,
        folded_generators=folded_generators,
        folded_slice=Slice(folded_derivation, "v", "x"),
    )


# -- separation helpers ---------------------------------------------------


class Stratum(Enum):
    """Where a point sits relative to the localizing variables x and s.

    X_NONZERO: the slice picture applies directly.
    X_ZERO_S_NONZERO: governed by the quotient picture.
    X_ZERO_S_ZERO: every invariant vanishes; points are inseparable.
    """

    X_NONZERO = "x-nonzero"
    X_ZERO_S_NONZERO = "x-zero-s-nonzero"
    X_ZERO_S_ZERO = "x-zero-s-zero"


def stratum_of(point: Point) -> Stratum:
    if point.coordinate("x") != 0:
        return Stratum.X_NONZERO
    if point.coordinate("s") != 0:
        return Stratum.X_ZERO_S_NONZERO
    return Stratum.X_ZERO_S_ZERO


def separating_values(context: PaperContext, point: Point) -> tuple[Fraction, ...]:
    """The values of the six invariants at a point."""
    return tuple(f.evaluate(point) for f in context.generators)


def separates(context: PaperContext, first: Point, second: Point) -> bool:
    """Whether some bundled invariant takes different values at the two
    points."""
    return separating_values(context, first) != separating_values(context, second)


# -- the verification suite ------------------------------------------------


def _check(name: str, body: Callable[[], str | None]) -> Check:
    try:
        witness = body()
    except LndError as exc:
        witness = f"{type(exc).__name__}: {exc}"
    return Check(name, witness)


def _expect(condition: bool, witness: str) -> str | None:
    return None if condition else witness


def verify_paper(context: PaperContext | None = None) -> VerificationReport:
    """Re-derive every bundled identity with exact arithmetic."""
    context = builtin_context() if context is None else context
    ring = context.ring
    D = context.derivation
    f = context.generators
    h = context.folded_generators
    parse = lambda text: parse_polynomial(text, ring)
    checks: list[Check] = []
    add = checks.append

    def ext_parse(text: str) -> Polynomial:
        return parse_polynomial(text, Ring(("r",) + ring.variables))

    # nilpotency structure
    add(_check("flows_terminate", lambda: _expect(
        D.is_locally_nilpotent()
        and context.quotient_derivation.is_locally_nilpotent()
        and context.folded_derivation.is_locally_nilpotent(),
        "some variable never reaches zero")))

    def iteration_depths() -> str | None:
        for label, d, expected in (
            ("main", D, (1, 2, 3, 4, 2)),
            ("quotient", context.quotient_derivation, (1, 2, 3, 1)),
            ("folded", context.folded_derivation, (1, 2, 3, 4)),
        ):
            got = tuple(d.nilpotency_index(d.ring.var(n)) for n in d.ring.variables)
            if got != expected:
                return f"{label} depths {got}"
        return None

    add(_check("iteration_depths", iteration_depths))

    def invariants_annihilated() -> str | None:
        for label, d, elements in (
            ("f{i}", D, f),
            ("quotient element {g}", context.quotient_derivation, context.quotient_kernel),
            ("h{i}", context.folded_derivation, h),
        ):
            for i, g in enumerate(elements, start=1):
                image = d(g)
                if not image.is_zero():
                    return f"{label.format(i=i, g=g)} maps to {image}"
        return None

    add(_check("invariants_annihilated", invariants_annihilated))

    def weighted_degrees() -> str | None:
        for label, elements, expected in (
            ("main", f, (1, 6, 9, 3, 8, 12)),
            ("folded", h, (1, 4, 6, 10)),
            ("quotient", context.quotient_kernel, (3, 6, 2)),
        ):
            got = tuple(g.weighted_degree() for g in elements)
            if got != expected:
                return f"{label} degrees {got}"
        return None

    add(_check("invariants_weighted_homogeneous", weighted_degrees))

    def derivation_homogeneous() -> str | None:
        # D raises weighted degree by 0: each image is homogeneous of
        # the same weight as its variable
        for name, weight in zip(ring.variables, ring.weights):
            img = D.image(name)
            if img.is_zero():
                continue
            if img.weighted_degree() != weight:
                return f"image of {name} has degree {img.weighted_degree()}"
        return None

    add(_check("derivation_weight_preserving", derivation_homogeneous))

    # the exponential, built on first use by the two checks that read it,
    # so an LndError it raises is each one's witness
    exponential = lru_cache(maxsize=1)(lambda: D.exponential("r"))

    def exponential_images() -> str | None:
        expected = (
            "x",
            "s + r*x^3",
            "t + r*s + 1/2*r^2*x^3",
            "u + r*t + 1/2*r^2*s + 1/6*r^3*x^3",
            "v + r*x^2",
        )
        flow = exponential()
        for name, text, image in zip(ring.variables, expected, flow.images):
            if image != ext_parse(text):
                return f"flow of {name} is {image}"
        return None

    add(_check("exponential_images", exponential_images))

    def flow_sample_point() -> str | None:
        start = Point(ring, (1, 0, 0, 0, 0))
        moved = D.orbit_point(1, start)
        expected = Point(ring, (1, 1, Fraction(1, 2), Fraction(1, 6), 1))
        if moved != expected:
            return f"flow moved the sample to {moved.coordinates}"
        back = D.orbit_point(-1, moved)
        if back != start:
            return f"reverse flow gave {back.coordinates}"
        return None

    add(_check("flow_on_sample_point", flow_sample_point))

    def invariants_constant_on_flows() -> str | None:
        # each f_i evaluated on the flowed variables, which never
        # applies D to f_i itself
        flow = exponential()
        embed = RingMap.from_mapping(ring, flow.target, {})
        for i, g in enumerate(f, start=1):
            if flow(g) != embed(g):
                return f"f{i} moved under the flow"
        return None

    add(_check("invariants_constant_on_flows", invariants_constant_on_flows))

    def projections(slc: Slice, label: str, expected) -> str | None:
        # expected: each variable's projection as (numerator, power of x)
        got = slice_kernel_generators(slc)
        for name, g, (numerator, power) in zip(slc.derivation.ring.variables, got, expected):
            if g != LaurentElement(numerator, "x", power):
                return f"{label} of {name} is {g}"
        return None

    add(_check("localized_kernel_generators", lambda: projections(
        context.kernel_slice, "projection", (
            (parse("x"), 0),
            (ring.zero(), 0),
            (parse("2*x^3*t - s^2") * Fraction(1, 2), 3),
            (parse("3*x^6*u - 3*x^3*s*t + s^3") * Fraction(1, 3), 6),
            (parse("x*v - s"), 1),
        ))))

    def localized_generators_invariant() -> str | None:
        for name, g in zip(ring.variables, slice_kernel_generators(context.kernel_slice)):
            image = D.apply_laurent(g)
            if not image.is_zero():
                return f"projection of {name} maps to {image}"
        return None

    add(_check("localized_generators_invariant", localized_generators_invariant))

    add(_check("folded_localized_generators", lambda: projections(
        context.folded_slice, "folded projection", (
            (parse_polynomial("x", context.folded_ring), 0),
            (context.folded_ring.zero(), 0),
            (h[1] * Fraction(1, 2), 1),
            (h[2] * Fraction(1, 3), 3),
        ))))

    def partial_v_link() -> str | None:
        if not commutes_with_partial(D, "v"):
            return "derivation does not commute with d/dv"
        df5 = f[4].partial("v")
        if df5 != f[1]:
            return f"d(f5)/dv = {df5}"
        return None

    add(_check("partial_v_maps_kernel_to_kernel", partial_v_link))

    add(_check("quotient_intertwines", lambda: _expect(
        intertwines(context.quotient_map, D, context.quotient_derivation),
        "x -> 0 does not intertwine the derivations")))

    add(_check("fold_intertwines", lambda: _expect(
        intertwines(context.fold_map, D, context.folded_derivation),
        "s -> x*v does not intertwine the derivations")))

    def quotient_images() -> str | None:
        expected = {
            3: "-s",
            4: "-s^2*v",
            5: "6*s^3*u - 3*s^2*t^2",
        }
        for idx, text in expected.items():
            got = context.quotient_map(f[idx])
            want = parse_polynomial(text, context.quotient_ring)
            if got != want:
                return f"f{idx + 1} reduces to {got}"
        return None

    add(_check("quotient_images", quotient_images))

    def fold_image_sample() -> str | None:
        got = context.fold_map(f[1])
        want = parse_polynomial("2*x^3*t - x^2*v^2", context.folded_ring)
        return _expect(got == want, f"f2 folds to {got}")

    add(_check("fold_image_sample", fold_image_sample))

    def fold_preserves_grading() -> str | None:
        for i, g in enumerate(f, start=1):
            image = context.fold_map(g)
            if image.is_zero():
                continue  # the fold kills f4
            if image.weighted_degree() != g.weighted_degree():
                return f"f{i} changed weighted degree under the fold"
        return None

    add(_check("fold_preserves_grading", fold_preserves_grading))

    def confirmed(candidates: tuple[Polynomial, ...], slc: Slice) -> str | None:
        status = kernel_check(candidates, slc).status
        return _expect(status is KernelStatus.CONFIRMED, f"status {status.value}")

    add(_check("quotient_kernel_confirmed", lambda: confirmed(
        context.quotient_kernel, context.quotient_slice)))

    def quotient_kernel_computed() -> str | None:
        result = kernel_compute(context.quotient_derivation, context.quotient_slice, 5)
        if not result.stabilized:
            return f"not stabilized, counts {result.counts}"
        if set(result.generators) != set(context.quotient_kernel):
            return f"kernel generators {[str(g) for g in result.generators]}"
        if result.rounds != 1:
            return f"took {result.rounds} rounds"
        return None

    add(_check("quotient_kernel_computed", quotient_kernel_computed))

    add(_check("folded_kernel_confirmed", lambda: confirmed(h, context.folded_slice)))

    def folded_kernel_computed() -> str | None:
        result = kernel_compute(context.folded_derivation, context.folded_slice, 5)
        if not result.stabilized:
            return f"not stabilized, counts {result.counts}"
        if result.generators != h:
            return f"kernel generators {[str(g) for g in result.generators]}"
        if result.counts != (3, 4, 5, 5):
            return f"counts {result.counts}"
        return None

    add(_check("folded_kernel_computed", folded_kernel_computed))

    def folded_identity() -> str | None:
        lhs = h[1] ** 3 + h[2] ** 2
        rhs = context.folded_ring.var("x") ** 2 * h[3]
        return _expect(lhs == rhs, f"h2^3 + h3^2 = {lhs}")

    add(_check("folded_square_cube_identity", folded_identity))

    def folded_relations() -> str | None:
        reduce_map = RingMap.from_mapping(
            context.folded_ring, context.folded_ring, {"x": context.folded_ring.zero()}
        )
        images = [reduce_map(g) for g in h]
        rel = relation_ideal(images)
        expected = tuple(
            parse_polynomial(text, rel.tag_ring) for text in ("X1", "X2^3 + X3^2")
        )
        return _expect(
            rel.generators == expected,
            f"relations {[str(g) for g in rel.generators]}",
        )

    add(_check("folded_relations_mod_localizer", folded_relations))

    def membership_representation() -> str | None:
        target = context.folded_ring.var("x") * h[3]
        rep = subalgebra_membership(target, h)
        if rep is None:
            return "x*h4 reported outside the algebra of h1..h4"
        want = parse_polynomial("X1*X4", rep.ring)
        return _expect(rep == want, f"representation {rep}")

    add(_check("membership_representation", membership_representation))

    def kernel_check_extends() -> str | None:
        outcome = kernel_check(f[:4], context.kernel_slice)
        if outcome.status is not KernelStatus.NEW_GENERATORS:
            return f"status {outcome.status.value}"
        expected = tuple(
            parse(text)
            for text in (
                "2*x^2*t + x*v^2 - 2*s*v",
                "3*x^5*u - 2*x^3*t*v - x^2*s*t + s^2*v",
                "3*x^6*u*v - 3*x^5*s*u + 4*x^5*t^2 - 3*x^3*s*t*v - x^2*s^2*t + s^3*v",
            )
        )
        return _expect(
            outcome.new_elements == expected,
            f"new elements {[str(g) for g in outcome.new_elements]}",
        )

    add(_check("kernel_check_extends_candidates", kernel_check_extends))

    def kernel_not_stabilized() -> str | None:
        result = kernel_compute(D, context.kernel_slice, 2)
        if result.stabilized:
            return "stabilized unexpectedly"
        if result.counts[0] != 4 or result.counts[1] != 7:
            return f"counts {result.counts}"
        if not all(a < b for a, b in zip(result.counts, result.counts[1:])):
            return f"counts did not strictly grow: {result.counts}"
        return None

    add(_check("kernel_growth_two_rounds", kernel_not_stabilized))

    def invariants_vanish_on_core() -> str | None:
        # zero constant term, and zero image once x and s are both killed
        to_core = RingMap.from_mapping(
            ring, ring, {"x": ring.zero(), "s": ring.zero()}
        )
        for i, g in enumerate(f, start=1):
            if g.constant_term() != 0:
                return f"f{i} has constant term {g.constant_term()}"
            image = to_core(g)
            if not image.is_zero():
                return f"f{i} survives x = s = 0 as {image}"
        return None

    add(_check("invariants_vanish_on_core", invariants_vanish_on_core))

    def core_stratum_inseparable() -> str | None:
        p = Point(ring, (0, 0, 3, 5, 7))
        q = Point(ring, (0, 0, -1, 2, 7))
        if stratum_of(p) is not Stratum.X_ZERO_S_ZERO:
            return "stratum misclassified"
        if any(separating_values(context, p)) or any(separating_values(context, q)):
            return "an invariant is nonzero on the x = s = 0 stratum"
        if separates(context, p, q):
            return "x = s = 0 points reported separated"
        return None

    add(_check("core_stratum_inseparable", core_stratum_inseparable))

    def last_invariant_needed() -> str | None:
        p = Point(ring, (0, 1, 0, 0, 0))
        q = Point(ring, (0, 1, 1, 1, 0))
        vp, vq = separating_values(context, p), separating_values(context, q)
        if vp[:5] != vq[:5]:
            return f"first five invariants differ: {vp[:5]} vs {vq[:5]}"
        if vp[5] == vq[5]:
            return "sixth invariant fails to separate the pinned pair"
        return None

    add(_check("last_invariant_separates_wall_pair", last_invariant_needed))

    return VerificationReport(tuple(checks))


# -- randomized separation suite -------------------------------------------


# the bound on the numerator and the denominator of a random value
_BOUND = 100


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-_BOUND, _BOUND), rng.randint(1, _BOUND))

def _random_nonzero(rng: random.Random) -> Fraction:
    while True:
        q = _random_fraction(rng)
        if q:
            return q


def random_suite(
    seed: int, samples: int, context: PaperContext | None = None
) -> VerificationReport:
    """Randomized counterpart of the fixed separation checks.

    Per sample: invariance of the six values and of a random product of
    them along a random flow; all values zero at a random x = s = 0
    point; a matched pair on the x = 0, s != 0 stratum that shares
    (s, 2su - t^2, v) after projection, is never separated, and is
    provably connected by the flow; a mismatched pair that only the
    sixth invariant tells apart; and recovery of the quotient-picture
    coordinates from invariant values.  Coordinates are rationals with
    numerator and denominator bounded by 100.  Deterministic for a
    fixed (seed, samples); sample k draws from seed + k.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    context = builtin_context() if context is None else context
    ring = context.ring
    D = context.derivation

    # check name -> witness of its first failing sample
    failures: dict[str, str] = {}
    fail = failures.setdefault

    for index in range(samples):
        rng = random.Random(seed + index)

        point = Point(ring, tuple(_random_fraction(rng) for _ in ring.variables))
        a = _random_fraction(rng)
        moved = D.orbit_point(a, point)
        before = separating_values(context, point)
        after = separating_values(context, moved)
        if before != after:
            fail("random_orbit_invariance",
                 f"sample {index}: values changed along the flow at {a}")
        exponents = [rng.randint(0, 2) for _ in context.generators]
        product = ring.one()
        for g, e in zip(context.generators, exponents):
            product *= g ** e
        if product.evaluate(point) != product.evaluate(moved):
            fail("random_orbit_invariance",
                 f"sample {index}: product with exponents {exponents} moved")

        core = Point(
            ring, (0, 0) + tuple(_random_fraction(rng) for _ in range(3))
        )
        if any(separating_values(context, core)):
            fail("random_core_points_vanish",
                 f"sample {index}: nonzero value at x = s = 0 point {core.coordinates}")

        # x = 0, s != 0: u is determined by (s, t, 2us - t^2)
        sigma = _random_nonzero(rng)
        tau1, omega1, nu = (_random_fraction(rng) for _ in range(3))
        tau2 = tau1 + _random_nonzero(rng)
        c = 2 * sigma * omega1 - tau1**2
        omega2 = (c + tau2**2) / (2 * sigma)
        p1 = Point(ring, (0, sigma, tau1, omega1, nu))
        p2 = Point(ring, (0, sigma, tau2, omega2, nu))
        vp = separating_values(context, p1)
        if vp != separating_values(context, p2):
            fail("random_fiber_pairs_split_by_last", f"sample {index}: matched pair separated")
        shadow1, shadow2 = context.project_point(p1), context.project_point(p2)
        for q in context.quotient_kernel:
            if q.evaluate(shadow1) != q.evaluate(shadow2):
                fail("random_fiber_pairs_split_by_last",
                     f"sample {index}: projected pair differs at {q}")
                break
        connect = (tau2 - tau1) / sigma
        if D.orbit_point(connect, p1) != p2:
            fail("random_matched_pairs_connected",
                 f"sample {index}: flow by {connect} missed the matched point")

        omega3 = omega2 + _random_nonzero(rng)
        q = Point(ring, (0, sigma, tau2, omega3, nu))
        vq = separating_values(context, q)
        if vp[:5] != vq[:5] or vp[5] == vq[5]:
            fail("random_fiber_pairs_split_by_last",
                 f"sample {index}: sixth invariant did not split the fiber pair")

        s_back = -vp[3]
        v_back = -vp[4] / s_back**2 if s_back else None
        jet_back = vp[5] / (3 * s_back**2) if s_back else None
        if s_back != sigma or v_back != nu or jet_back != c:
            fail("random_quotient_recovery",
                 f"sample {index}: recovered ({s_back}, {jet_back}, {v_back})")

    return VerificationReport(tuple(
        Check(name, failures.get(name)) for name in (
            "random_orbit_invariance",
            "random_core_points_vanish",
            "random_matched_pairs_connected",
            "random_fiber_pairs_split_by_last",
            "random_quotient_recovery",
        )
    ))

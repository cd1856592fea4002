"""Derivations of polynomial rings and the exponential machinery for the
locally nilpotent ones.

A derivation is determined by the images of the ring variables and
extended by the Leibniz rule.  For a locally nilpotent derivation the
exponential series terminates, giving a ring map into an extended ring
with one fresh parameter variable, and evaluating that parameter gives
the induced flow on points and on polynomials.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial, lcm
from operator import add
from typing import Iterable, Iterator, Mapping

from .errors import NilpotencyCapError, RingMismatchError
from .poly import (
    LaurentElement,
    Point,
    Polynomial,
    Ring,
    RingMap,
    Scalar,
    _capped,
    _Record,
)

# Iterated application stops with an error/None after this many steps:
# iterates raises NilpotencyCapError, nilpotency_index returns None and
# is_locally_nilpotent returns False.
NILPOTENCY_CAP = 64


class Derivation(_Record):
    """A derivation of a polynomial ring, given by variable images."""

    _fields = ("ring", "images")

    def __init__(self, ring: Ring, images: Iterable[Polynomial]):
        images = tuple(images)
        if len(images) != ring.nvars:
            raise ValueError("one image per ring variable required")
        for img in images:
            if img.ring != ring:
                raise RingMismatchError("image lies outside the ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "images", images)

    @classmethod
    def from_mapping(cls, ring: Ring, mapping: Mapping[str, Polynomial]) -> "Derivation":
        """Build a derivation from a partial {variable: image} table.

        Variables absent from the table are sent to zero.
        """
        for name in mapping:
            ring.index(name)
        images = [mapping.get(name, ring.zero()) for name in ring.variables]
        return cls(ring, tuple(images))

    def image(self, name: str) -> Polynomial:
        return self.images[self.ring.index(name)]

    # -- application ----------------------------------------------------

    @cached_property
    def _image_table(self) -> tuple[int, tuple[tuple[int, tuple], ...]]:
        """The nonzero images, read once, over their least common
        denominator L: (L, ((i, terms), ...)), each term of D(x_i) =
        N_i / b_i stored as (its exponents with that of x_i lowered by
        one, numerator * L / b_i).  Adding the stored exponents to those
        of a term of f that has x_i gives a term of D(x_i) * df/dx_i.

        Kept in the instance dict, apart from the fields, like
        _variable_iterates.
        """
        nonzero = [(i, img) for i, img in enumerate(self.images) if img]
        den = lcm(*(img._den for _, img in nonzero))
        table = []
        for i, img in nonzero:
            scale = den // img._den
            terms = tuple(
                (m[:i] + (m[i] - 1,) + m[i + 1 :], c * scale)
                for m, c in img._num.items()
            )
            table.append((i, terms))
        return den, tuple(table)

    def apply(self, f: Polynomial) -> Polynomial:
        """Apply the derivation once, by the Leibniz rule: the sum over
        the variables x_i of D(x_i) * df/dx_i, in one pass over the terms
        of f and of each image, with integer numerators over f's
        denominator times the lcm of the image denominators.  Builds one
        Polynomial, the result, through poly._capped, so a result with
        an exponent above the cap raises ExponentOverflowError."""
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lies outside the ring")
        den, table = self._image_table
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for mono, coeff in f._num.items():
            for i, terms in table:
                e = mono[i]
                if e:
                    scale = coeff * e
                    for m, c in terms:
                        m = tuple(map(add, mono, m))
                        acc[m] = get(m, 0) + c * scale
        out = {m: c for m, c in acc.items() if c}
        return _capped(self.ring, out, f._den * den)

    def __call__(self, f: Polynomial) -> Polynomial:
        return self.apply(f)

    def apply_iter(self, f: Polynomial, times: int) -> Polynomial:
        """D^times f.  Stops applying once an iterate is zero, since
        D(0) = 0; a derivation that is not locally nilpotent is applied
        all `times` times."""
        if times < 0:
            raise ValueError("times must be nonnegative")
        for _ in range(times):
            if f.is_zero():
                break
            f = self.apply(f)
        return f

    def iterates(self, f: Polynomial) -> Iterator[Polynomial]:
        """Yield f, Df, D^2 f, ... until zero; raise NilpotencyCapError
        after NILPOTENCY_CAP nonzero iterates.

        The zero polynomial is not yielded.
        """
        count = 0
        while not f.is_zero():
            if count >= NILPOTENCY_CAP:
                raise NilpotencyCapError(
                    f"no zero after {NILPOTENCY_CAP} applications"
                )
            yield f
            f = self.apply(f)
            count += 1

    @cached_property
    def _variable_iterates(self) -> tuple[tuple[Polynomial, ...], ...]:
        """The nonzero iterates of each ring variable, derived once.

        Kept in the instance dict, apart from the fields, so equality
        and hashing do not see it.  A derivation that is not
        locally nilpotent raises NilpotencyCapError here every time.
        """
        return tuple(
            tuple(self.iterates(self.ring.var(name))) for name in self.ring.variables
        )

    def apply_laurent(self, elem: LaurentElement) -> LaurentElement:
        """Apply the derivation in the localization, by the quotient rule."""
        num, var, k = elem.numerator, elem.denom_var, elem.denom_power
        if k == 0:
            return LaurentElement(self.apply(num), var, 0)
        loc = self.ring.var(var)
        lifted = self.apply(num) * loc - k * num * self.image(var)
        return LaurentElement(lifted, var, k + 1)

    # -- nilpotency -----------------------------------------------------

    def nilpotency_index(self, f: Polynomial) -> int | None:
        """Least n with D^n f = 0, or None if not reached within
        NILPOTENCY_CAP."""
        try:
            return sum(1 for _ in self.iterates(f))
        except NilpotencyCapError:
            return None

    def is_locally_nilpotent(self) -> bool:
        """Whether every variable is annihilated by some iterate, read
        off the cached variable iterates.

        A True answer is a proof (nilpotency on generators extends to the
        whole ring); a False answer means NILPOTENCY_CAP was hit and is
        evidence only.
        """
        try:
            self._variable_iterates
        except NilpotencyCapError:
            return False
        return True

    # -- exponential ----------------------------------------------------

    def exponential(self, parameter: str = "r") -> RingMap:
        """The exponential ring map into ring extended by a parameter.

        Each variable y is sent to sum_k D^k(y)/k! * parameter^k, which
        terminates exactly when the derivation is locally nilpotent.
        The extended ring has the standard grading: every weight is 1.
        """
        if parameter in self.ring.variables:
            raise ValueError(f"parameter {parameter!r} collides with a ring variable")
        extended = Ring((parameter,) + self.ring.variables)
        images = [
            Polynomial(extended, {
                (k,) + m: c / factorial(k)
                for k, iterate in enumerate(chain)
                for m, c in iterate.terms()
            })
            for chain in self._variable_iterates
        ]
        return RingMap(self.ring, extended, images)

    @cached_property
    def _flow(self) -> RingMap:
        """The exponential, derived once, under a parameter name longer
        than every variable name, so no variable has it."""
        return self.exponential("r" + "_" * max(map(len, self.ring.variables)))

    def orbit_point(self, value: Scalar, point: Point) -> Point:
        """Move a point along the flow by the given parameter value: the
        exponential's images evaluated at (value, point)."""
        if point.ring != self.ring:
            raise RingMismatchError("point lives in a different ring")
        flow = self._flow
        at = Point(flow.target, (value,) + point.coordinates)
        return Point(self.ring, tuple(image.evaluate(at) for image in flow.images))

    def is_invariant(self, f: Polynomial) -> bool:
        return self.apply(f).is_zero()

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name} -> {img!s}"
            for name, img in zip(self.ring.variables, self.images)
            if not img.is_zero()
        )
        return f"Derivation({pairs or '0'})"


def intertwines(link: RingMap, source: Derivation, target: Derivation) -> bool:
    """Whether link * source == target * link as maps on the source ring.

    Both sides are derivations along link, so checking the ring
    variables suffices.
    """
    if link.source != source.ring or link.target != target.ring:
        raise RingMismatchError("link does not connect the two derivations")
    for name in source.ring.variables:
        lhs = link(source.image(name))
        rhs = target.apply(link(source.ring.var(name)))
        if lhs != rhs:
            return False
    return True


def commutes_with_partial(derivation: Derivation, name: str) -> bool:
    """Whether the derivation commutes with d/d(name).

    The commutator is itself a derivation, and on a variable y it equals
    minus the partial of the image of y, so it vanishes exactly when no
    image involves the variable.
    """
    derivation.ring.index(name)
    return all(img.partial(name).is_zero() for img in derivation.images)

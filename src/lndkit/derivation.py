"""Derivations of polynomial rings and the exponential machinery for the
locally nilpotent ones.

A derivation is determined by the images of the ring variables and
extended by the Leibniz rule.  For a locally nilpotent derivation the
exponential series terminates, giving a ring map into an extended ring
with one fresh parameter variable, and evaluating that parameter gives
the induced flow on points and on polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial
from typing import Iterator, Mapping

from .errors import NilpotencyCapError, RingMismatchError
from .poly import LaurentElement, Point, Polynomial, Ring, RingMap, Scalar

# Iterated application stops with an error/None after this many steps:
# iterates raises NilpotencyCapError, nilpotency_index returns None and
# is_locally_nilpotent returns False.
NILPOTENCY_CAP = 64


@dataclass(frozen=True)
class Derivation:
    """A derivation of a polynomial ring, given by variable images."""

    ring: Ring
    images: tuple[Polynomial, ...]

    def __post_init__(self):
        images = tuple(self.images)
        if len(images) != self.ring.nvars:
            raise ValueError("one image per ring variable required")
        for img in images:
            if img.ring != self.ring:
                raise RingMismatchError("image lies outside the ring")
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

    def apply(self, f: Polynomial) -> Polynomial:
        """Apply the derivation once, via the Leibniz rule."""
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lies outside the ring")
        total = self.ring.zero()
        for name, img in zip(self.ring.variables, self.images):
            if not img.is_zero():
                total = total + img * f.partial(name)
        return total

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

        Kept in the instance dict, outside the dataclass fields, so
        equality and hashing do not see it.  A derivation that is not
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
        The extended ring carries no weights.
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

"""Sparse multivariate polynomials over the rationals, with exact arithmetic.

A polynomial is stored as integer numerators keyed by exponent tuple
over one common denominator, in lowest terms; coefficients are handed
out as Fractions.  All arithmetic is exact; nothing in this module ever
rounds.  Only the public constructor Polynomial(ring, terms) checks its
input; arithmetic, the ring's var/const/zero/one and ring maps build
their results through the trusted Polynomial._make.
The canonical term order used for iteration and printing is graded
lexicographic, descending.

Also provided: ring homomorphisms given by variable images (RingMap),
applied term by term into one integer dict, with the image powers built
by the chain behind ** and kept on the map; rational points (Point);
and elements of the localization at a single variable (LaurentElement),
each a normalized polynomial numerator over a power of that variable,
with no arithmetic of their own.

The records of lndkit (Ring, Point and DegreeSpread here, and those of
the other modules) are plain classes on _Record, written out by hand
for import cost: the dataclasses module would add to every cold
`import lndkit` its own import, which brings in inspect, and the
methods it generates and compiles for each record.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, attrgetter
from typing import Iterable, Iterator, Mapping, Union

from .errors import (
    ExponentOverflowError,
    NotDivisibleError,
    RingMismatchError,
    UnknownVariableError,
)

Monomial = tuple  # exponent tuple, one entry per ring variable
Scalar = Union[int, Fraction]

# Safety rail: no Polynomial holds an exponent above this.  The public
# constructor and Derivation.apply check their result (_capped), * and
# RingMap.apply each product's exact exponents before building it, and
# the parser each literal; all raise ExponentOverflowError.  The Groebner
# engine's packed fields hold values below 2**15 and raise it too.
EXPONENT_CAP = 2**16


def grlex_key(mono: tuple[int, ...]) -> tuple:
    """Sort key realizing graded lexicographic order (ascending)."""
    return (sum(mono), mono)


class _Record:
    """Base of the immutable records.  A record names its fields in
    _fields; its __init__ checks its arguments and stores each field by
    object.__setattr__, past __setattr__, which raises, as __delattr__
    does.  (On CPython, reading or updating self.__dict__ there would
    give every record a dict object of its own, one more for the
    garbage collector to track.)  Two records are equal when they are
    of one class and their field tuples are equal; a record hashes as
    its field tuple and prints as Name(field=value, ...).  Values that
    a record derives once (functools.cached_property) are kept in the
    instance dict, where none of these look."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        # the field tuple, also for a record of one field
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Ring(_Record):
    """A polynomial ring over the rationals with named variables.

    weights assign a positive integer weight to each variable and induce
    the grading used by weighted_degree.  Left out (None), every weight
    is 1: the standard grading, stored as (1,)*n, so Ring(v) equals
    Ring(v, (1,)*n).
    """

    _fields = ("variables", "weights")

    def __init__(self, variables: Iterable[str], weights: Iterable[int] | None = None):
        variables = tuple(variables)
        if not variables:
            raise ValueError("ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for name in variables:
            if not _is_identifier(name):
                raise ValueError(f"bad variable name: {name!r}")
        weights = (1,) * len(variables) if weights is None else tuple(weights)
        if len(weights) != len(variables):
            raise ValueError("one weight per variable required")
        if any(not isinstance(w, int) or isinstance(w, bool) or w <= 0 for w in weights):
            raise ValueError("weights must be positive integers")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "weights", weights)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariableError(
                f"variable {name!r} not in ring {self.variables}"
            ) from None

    def var(self, name: str) -> Polynomial:
        """The variable `name` as a polynomial."""
        mono = [0] * self.nvars
        mono[self.index(name)] = 1
        return Polynomial._make(self, {tuple(mono): 1})

    def const(self, value: Scalar) -> Polynomial:
        c = Fraction(value)
        num = {(0,) * self.nvars: c.numerator} if c else {}
        return Polynomial._make(self, num, c.denominator)

    def zero(self) -> Polynomial:
        return Polynomial._make(self, {})

    def one(self) -> Polynomial:
        return Polynomial._make(self, {(0,) * self.nvars: 1})

def _is_identifier(name: str) -> bool:
    if not name:
        return False
    head, tail = name[0], name[1:]
    if not (head.isalpha() or head == "_"):
        return False
    return all(c.isalnum() or c == "_" for c in tail)


class Polynomial:
    """Immutable sparse polynomial: integer numerators keyed by exponent
    tuple over one positive denominator, in lowest terms (gcd of the
    denominator and all numerators is 1), so equal polynomials store
    equal data.  Arithmetic computes on the numerators; only accessors
    that hand out coefficients build Fractions.  Three views are filled
    lazily and kept: the terms in canonical order (terms()), the
    exponent shape (_exponent_shape()) and the square (self**2).
    """

    __slots__ = ("ring", "_num", "_den", "_sorted", "_shape", "_square")

    def __new__(cls, ring: Ring, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[tuple[int, ...], Fraction] = {}
        n = ring.nvars
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != n:
                raise ValueError(
                    f"exponent tuple {mono} has wrong length for {ring.variables}"
                )
            for e in mono:
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"exponents must be nonnegative ints: {mono}")
            c = Fraction(coeff)
            if c:
                clean[mono] = c
        den = lcm(*[c.denominator for c in clean.values()])
        num = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        return _capped(ring, num, den)

    @classmethod
    def _make(cls, ring: Ring, num: dict, den: int = 1) -> "Polynomial":
        """Trusted constructor for arithmetic results: `num` must map
        valid exponent tuples, none above EXPONENT_CAP, to nonzero ints
        and `den` must be positive.  Nothing is checked or copied; the
        pair is brought to lowest terms."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
        p = object.__new__(cls)
        for name, value in zip(cls.__slots__, (ring, num, den, None, None, None)):
            object.__setattr__(p, name, value)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return (Polynomial._make, (self.ring, self._num, self._den))

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def terms(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """Terms in descending graded-lex order."""
        if self._sorted is None:
            den = self._den
            ordered = sorted(self._num, key=grlex_key, reverse=True)
            terms = tuple((m, Fraction(self._num[m], den)) for m in ordered)
            object.__setattr__(self, "_sorted", terms)
        return self._sorted

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        return iter(self.terms())

    def _exponent_shape(self) -> tuple:
        """(largest exponent of each variable, ((i, exponents of variable
        i that occur), ...) for the variables that occur); ((), ()) for
        the zero polynomial."""
        if self._shape is None:
            columns = tuple(zip(*self._num))
            top = tuple(map(max, columns))
            used = tuple((i, frozenset(col)) for i, col in enumerate(columns) if top[i])
            object.__setattr__(self, "_shape", (top, used))
        return self._shape

    def term_dict(self) -> dict[tuple[int, ...], Fraction]:
        """The terms as a fresh exponent tuple -> Fraction mapping."""
        den = self._den
        return {m: Fraction(c, den) for m, c in self._num.items()}

    def coefficient(self, mono: Iterable[int]) -> Fraction:
        return Fraction(self._num.get(tuple(mono), 0), self._den)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.ring.nvars)

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self._num)

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading term under the canonical (grlex descending) order."""
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        if self._sorted is not None:
            return self._sorted[0]
        # without sorting every term or making a Fraction of each
        lead = max(self._num, key=grlex_key)
        return lead, Fraction(self._num[lead], self._den)

    def total_degree(self) -> int:
        """Max total degree of any term; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(sum(m) for m in self._num)

    def degree_in(self, name: str) -> int:
        """Max exponent of one variable; -1 for the zero polynomial."""
        if not self._num:
            return -1
        i = self.ring.index(name)
        return max(m[i] for m in self._num)

    def weighted_degree(self) -> Union[int, "DegreeSpread"]:
        """Weighted degree under the ring's grading (the total degree
        when the ring was given no weights).

        Returns the common degree for a homogeneous polynomial, a
        DegreeSpread(min, max) for an inhomogeneous one.  The zero
        polynomial is homogeneous of every degree; we report 0.
        """
        if not self._num:
            return 0
        w = self.ring.weights
        degs = {sum(e * wt for e, wt in zip(m, w)) for m in self._num}
        if len(degs) == 1:
            return degs.pop()
        return DegreeSpread(min(degs), max(degs))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError(
                    f"rings differ: {self.ring.variables} vs {other.ring.variables}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # a/d1 + b/d2 = (a*s + b*t) / (d1*s) with s = d2/g, t = d1/g
        g = gcd(self._den, other._den)
        s, t = other._den // g, self._den // g
        out = {m: c * s for m, c in self._num.items()}
        get = out.get
        for mono, c in other._num.items():
            v = get(mono, 0) + c * t
            if v:
                out[mono] = v
            else:
                del out[mono]
        return Polynomial._make(self.ring, out, self._den * s)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(
            self.ring, {m: -c for m, c in self._num.items()}, self._den
        )

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _scaled(self, a: int, b: int) -> "Polynomial":
        """self * a/b for a nonzero int a and a positive int b."""
        if a == b:
            return self
        num = {m: a * v for m, v in self._num.items()}
        return Polynomial._make(self.ring, num, self._den * b)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero()
            return self._scaled(other.numerator, other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._num or not other._num:
            return self.ring.zero()
        for f, g in ((self, other), (other, self)):
            if g.is_constant():  # it only scales the other factor
                (c,) = g._num.values()
                return f._scaled(c, g._den)
        # leading forms multiply in a domain, so each variable's largest
        # exponent in the product is exactly the sum of the factors'
        tops = map(add, self._exponent_shape()[0], other._exponent_shape()[0])
        _check_exponent(max(tops, default=0))
        out = _product(self._num.items(), other._num.items())
        return Polynomial._make(self.ring, out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        """self**n, by _power.  Only the square is kept on self, and
        nothing on the powers made on the way, so a high power costs no
        memory once it is dropped."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative ints")
        return self._power(n, {}) if n else self.ring.one()

    def _power(self, n: int, kept: dict) -> "Polynomial":
        """self**n for n >= 1, read from and filled into kept, a dict
        from exponent to power: an odd power is the power below times
        self, an even one the square of its half.  The square is the one
        kept on self."""
        if n == 1:
            return self
        power = kept.get(n)
        if power is None:
            if n == 2:
                if self._square is None:
                    object.__setattr__(self, "_square", self * self)
                power = self._square
            elif n & 1:
                power = self._power(n - 1, kept) * self
            else:
                half = self._power(n // 2, kept)
                power = half * half
            kept[n] = power
        return power

    # -- calculus and substitution -------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        i = self.ring.index(name)
        out: dict[tuple[int, ...], int] = {}
        for mono, c in self._num.items():
            e = mono[i]
            if e:
                out[mono[:i] + (e - 1,) + mono[i + 1 :]] = c * e
        return Polynomial._make(self.ring, out, self._den)

    def evaluate(self, point: "Point") -> Fraction:
        if point.ring is not self.ring and point.ring != self.ring:
            raise RingMismatchError("point lives in a different ring")
        top, used = self._exponent_shape()
        # with coordinate i = a/b and t = top[i], a term's factor
        # (a/b)^e is a^e * b^(t-e) over the common b^t; the tables hold
        # only the exponents that occur, since t may be near EXPONENT_CAP
        coords = point.coordinates
        den = self._den
        tables = []
        for i, exps in used:
            a, b, t = coords[i].numerator, coords[i].denominator, top[i]
            tables.append((i, {e: a**e * b ** (t - e) for e in exps}))
            den *= b**t
        total = 0
        for mono, num in self._num.items():
            for i, table in tables:
                num *= table[mono[i]]
            total += num
        return Fraction(total, den)

    def exact_divide_var(self, name: str, power: int = 1) -> "Polynomial":
        """Divide by name**power, raising NotDivisibleError on any remainder."""
        if not isinstance(power, int) or power < 0:
            raise ValueError("power must be a nonnegative int")
        if power == 0:
            return self
        i = self.ring.index(name)
        out: dict[tuple[int, ...], int] = {}
        for mono, c in self._num.items():
            if mono[i] < power:
                raise NotDivisibleError(
                    f"term with {name}^{mono[i]} not divisible by {name}^{power}",
                    witness=mono,
                )
            out[mono[:i] + (mono[i] - power,) + mono[i + 1 :]] = c
        return Polynomial._make(self.ring, out, self._den)

    def min_exponent(self, name: str) -> int:
        """Least exponent of name across terms (0 for the zero polynomial)."""
        if not self._num:
            return 0
        i = self.ring.index(name)
        return min(m[i] for m in self._num)

    def _leading_numerator(self) -> int:
        return self._num[max(self._num, key=grlex_key)]

    def content_and_primitive(self) -> tuple[Fraction, "Polynomial"]:
        """Write self = content * primitive with primitive having coprime
        integer coefficients and positive leading coefficient."""
        if not self._num:
            return Fraction(0), self
        g = gcd(*self._num.values())
        if self._leading_numerator() < 0:
            g = -g
        prim = {m: c // g for m, c in self._num.items()}
        return Fraction(g, self._den), Polynomial._make(self.ring, prim)

    def primitive(self) -> "Polynomial":
        return self.content_and_primitive()[1]

    def monic(self) -> "Polynomial":
        """Scale so the canonical leading coefficient is 1."""
        if not self._num:
            return self
        return self * Fraction(self._den, self._leading_numerator())

    # -- equality and printing ----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.ring, self._den, self._num) == (other.ring, other._den, other._num)

    def __hash__(self) -> int:
        if self.is_constant():  # equal to its value, so hashed like it
            return hash(self.constant_term())
        return hash((self.ring, self._den, frozenset(self._num.items())))

    def __str__(self) -> str:
        from .parse import print_canonical

        return print_canonical(self)

    def __repr__(self) -> str:
        return f"Polynomial({self!s})"


def _capped(ring: Ring, num: dict, den: int = 1) -> Polynomial:
    """Polynomial._make(ring, num, den), raising ExponentOverflowError
    past EXPONENT_CAP; the exponent shape it reads stays on the result."""
    p = Polynomial._make(ring, num, den)
    _check_exponent(max(p._exponent_shape()[0], default=0))
    return p


def _check_exponent(e: int) -> None:
    if e > EXPONENT_CAP:
        raise ExponentOverflowError(f"exponent {e} exceeds cap {EXPONENT_CAP}")


def _product(left: Iterable, right: Iterable) -> dict:
    """Product of two collections of (exponent tuple, int) terms as an
    exponent tuple -> nonzero int dict."""
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    right = tuple(right)
    for m1, c1 in left:
        for m2, c2 in right:
            mono = tuple(map(add, m1, m2))
            acc[mono] = get(mono, 0) + c1 * c2
    return {m: c for m, c in acc.items() if c}


class DegreeSpread(_Record):
    """Degree range of an inhomogeneous polynomial."""

    _fields = ("min", "max")

    def __init__(self, min: int, max: int):
        object.__setattr__(self, "min", min)
        object.__setattr__(self, "max", max)


class Point(_Record):
    """A rational point of the affine space attached to a ring."""

    _fields = ("ring", "coordinates")

    def __init__(self, ring: Ring, coordinates: Iterable[Scalar]):
        coords = tuple(c if type(c) is Fraction else Fraction(c) for c in coordinates)
        if len(coords) != ring.nvars:
            raise ValueError("one coordinate per variable required")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coordinates", coords)

    def coordinate(self, name: str) -> Fraction:
        return self.coordinates[self.ring.index(name)]


class RingMap:
    """Ring homomorphism determined by images of the source variables.

    apply makes one pass over the terms of its argument and builds one
    Polynomial, the result.  A zero image drops the term, and the image
    of any other is checked against EXPONENT_CAP before a power is built.
    An image of one term adds its exponents and scales the coefficient;
    only images of several terms multiply term dicts.  Each image power
    is built once, on first use, by the image's own _power (the chain
    behind **), and kept on the map for every later call; the square is
    the one kept on the image.
    """

    __slots__ = ("source", "target", "images", "_powers")

    def __init__(self, source: Ring, target: Ring, images: Iterable[Polynomial]):
        images = tuple(images)
        if len(images) != source.nvars:
            raise ValueError("one image per source variable required")
        for img in images:
            if img.ring != target:
                raise RingMismatchError("image lies outside the target ring")
        self.source = source
        self.target = target
        self.images = images
        self._powers: defaultdict[int, dict[int, Polynomial]] = defaultdict(dict)

    @classmethod
    def from_mapping(
        cls,
        source: Ring,
        target: Ring,
        mapping: Mapping[str, Polynomial],
    ) -> "RingMap":
        """Build a map from a partial {variable: image} table.

        Source variables absent from the table must exist in the target
        by the same name and are sent to themselves.
        """
        for name in mapping:
            source.index(name)  # raises on unknown names
        images = []
        for name in source.variables:
            if name in mapping:
                images.append(mapping[name])
            else:
                images.append(target.var(name))
        return cls(source, target, images)

    def _kept(self, mono: tuple) -> bool:
        """False when a zero image drops the term x^mono, else True after
        checking its image's exact exponents, each a sum over its factors."""
        reach = [0] * self.target.nvars
        for image, e in zip(self.images, mono):
            if e:
                if not image:
                    return False
                reach = [r + t * e for r, t in zip(reach, image._exponent_shape()[0])]
        _check_exponent(max(reach, default=0))
        return True

    def apply(self, f: Polynomial) -> Polynomial:
        if f.ring != self.source:
            raise RingMismatchError("polynomial lies outside the source ring")
        images = self.images
        powers = self._powers
        # every term's product of powers has a denominator dividing
        # den = prod b_i^top_i
        top, used = f._exponent_shape()
        den = prod(images[i]._den ** top[i] for i, _ in used)
        one = (0,) * self.target.nvars
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        items = f._num.items()
        reach = sum(
            top[i] * max(images[i]._exponent_shape()[0], default=0) for i, _ in used
        )
        if reach > EXPONENT_CAP or not all(images[i] for i, _ in used):
            items = [(m, c) for m, c in items if self._kept(m)]
        for mono, coeff in items:
            shift, scale, pden, factors = one, coeff, 1, []
            for i, e in enumerate(mono):
                if e:
                    p = images[i]._power(e, powers[i])
                    terms = p._num.items()
                    pden *= p._den
                    if len(terms) == 1:
                        ((m, c),) = terms
                        shift = tuple(map(add, shift, m))
                        scale *= c
                    else:
                        factors.append(terms)
            scale *= den // pden
            if not factors:
                acc[shift] = get(shift, 0) + scale
                continue
            piece = factors[0]
            for terms in factors[1:]:
                piece = _product(piece, terms).items()
            for m, c in piece:
                m = tuple(map(add, m, shift))
                acc[m] = get(m, 0) + c * scale
        out = {m: c for m, c in acc.items() if c}
        return Polynomial._make(self.target, out, den * f._den)

    __call__ = apply

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{v} -> {img!s}" for v, img in zip(self.source.variables, self.images)
        )
        return f"RingMap({pairs})"


class LaurentElement:
    """Element of the localization of a ring at one variable: a
    polynomial numerator over a power of that variable.

    Stored as numerator / denom_var**denom_power and kept normalized:
    either denom_power is 0, or denom_var does not divide the numerator.
    Over a canonical Polynomial this is a canonical form: equal
    elements have equal numerators and denominator powers.  It is a
    value only; it has no arithmetic.
    """

    __slots__ = ("numerator", "denom_var", "denom_power")

    def __init__(self, numerator: Polynomial, denom_var: str, denom_power: int = 0):
        numerator.ring.index(denom_var)  # validate the name
        if not isinstance(denom_power, int) or denom_power < 0:
            raise ValueError("denominator power must be a nonnegative int")
        if numerator.is_zero():
            denom_power = 0
        elif denom_power:
            drop = min(denom_power, numerator.min_exponent(denom_var))
            if drop:
                numerator = numerator.exact_divide_var(denom_var, drop)
                denom_power -= drop
        self.numerator = numerator
        self.denom_var = denom_var
        self.denom_power = denom_power

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (Polynomial, int, Fraction)):
            return not self.denom_power and self.numerator == other
        if not isinstance(other, LaurentElement):
            return NotImplemented
        if self.denom_power != other.denom_power:
            return False
        if self.denom_power and self.denom_var != other.denom_var:
            return False
        return self.numerator == other.numerator

    def __hash__(self) -> int:
        if not self.denom_power:  # equal to its numerator, so hashed like it
            return hash(self.numerator)
        return hash((self.numerator, self.denom_var, self.denom_power))

    def __str__(self) -> str:
        if self.denom_power == 0:
            return str(self.numerator)
        denom = self.denom_var
        if self.denom_power > 1:
            denom = f"{self.denom_var}^{self.denom_power}"
        return f"({self.numerator}) / {denom}"

    def __repr__(self) -> str:
        return f"LaurentElement({self!s})"

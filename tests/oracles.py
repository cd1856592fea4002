"""Independent oracles used to cross-check lndkit.

The relation-ideal oracle knows nothing about Groebner bases: it
enumerates tag monomials up to a degree bound, evaluates each as a
product of the given elements, and extracts the kernel of the resulting
linear map with Gaussian elimination over Fraction.  Any disagreement
with the elimination-based relation ideal is a bug in one of the two.

The membership oracle brute_member decides subalgebra membership for
weighted-homogeneous elements by linear algebra alone: the algebra is
graded, so f is a member exactly when each homogeneous component of f
is a linear combination of the products of the elements of its degree.

order_key is the textbook definition of each monomial order as a sort
key on exponent tuples, and tag_order_key that of the subalgebra
tester's order, both written independently of the weight rows that
lndkit packs monomials by.  first_divisor is the linear divisor scan on
exponent tuples, with no packing and no index.  s_polynomial is the
S-polynomial by its definition, in Polynomial arithmetic under
order_key, with nothing from the packed engine.

The term-dict oracles (naive_evaluate, naive_multiply, naive_apply,
naive_substitute, naive_orbit_point, naive_projection) redo polynomial
arithmetic on plain {exponent tuple: Fraction} dicts, one Fraction
operation per term, with no code from lndkit.poly: they check its
integer fast paths.
naive_projection sums the slice projection term by term with negative
exponents allowed, so it shares nothing with the single-numerator form
that lndkit builds.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from lndkit import Polynomial, Ring


def order_key(order):
    """Sort key on exponent tuples realizing the order (ascending)."""
    k = order.block
    if order.kind == "lex":
        return lambda m: m
    if order.kind == "grlex":
        return lambda m: (sum(m), m)
    if order.kind == "grevlex":
        return lambda m: (sum(m), tuple(-e for e in reversed(m)))
    if order.kind == "elim":
        return lambda m: (sum(m[:k]), m[:k], sum(m[k:]), m[k:])
    raise ValueError(f"unknown order kind {order.kind!r}")


def s_polynomial(f: Polynomial, g: Polynomial, order) -> Polynomial:
    """x^a*f/lc(f) - x^b*g/lc(g), with x^a*lm(f) = x^b*lm(g) the lcm of
    their leading monomials under order."""
    key = order_key(order)
    lf = max(f.term_dict(), key=key)
    lg = max(g.term_dict(), key=key)
    top = tuple(map(max, lf, lg))
    xa = Polynomial(f.ring, {tuple(t - e for t, e in zip(top, lf)): 1 / f.term_dict()[lf]})
    xb = Polynomial(g.ring, {tuple(t - e for t, e in zip(top, lg)): 1 / g.term_dict()[lg]})
    return xa * f - xb * g


def tag_order_key(block, weights, last):
    """Sort key on exponent tuples realizing the subalgebra tester's
    order (ascending): grlex on the first block variables, then the
    weighted degree of the rest (the tags), then the smaller exponent
    wins in the last tag that differs, the tag at index last counted
    last."""

    def key(m):
        tags = m[block:]
        seq = tags[:last] + tags[last + 1 :] + tags[last : last + 1]
        weighted = sum(w * e for w, e in zip(weights, tags))
        return sum(m[:block]), m[:block], weighted, tuple(-e for e in reversed(seq))

    return key


def first_divisor(lead: tuple[int, ...], leads: list[tuple[int, ...]]) -> int:
    """The index of the first exponent tuple in leads that divides lead,
    compared componentwise, or -1 when none does."""
    for k, m in enumerate(leads):
        if all(a <= b for a, b in zip(m, lead)):
            return k
    return -1


def tag_monomials(count: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples over `count` tags with total degree <= bound."""
    out = []
    for degree in range(max_degree + 1):
        for combo in combinations_with_replacement(range(count), degree):
            mono = [0] * count
            for i in combo:
                mono[i] += 1
            out.append(tuple(mono))
    return out


def gaussian_kernel(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of {v : v * rows == 0}, i.e. the left kernel of the matrix.

    Plain fraction-free-naive elimination; fine at oracle scale.
    """
    m = len(rows)
    width = len(rows[0]) if rows else 0
    # augment with the identity so the kernel can be read off the
    # coordinate part of fully reduced rows
    work = [list(row) + [Fraction(int(i == j)) for j in range(m)] for i, row in enumerate(rows)]
    pivot_row = 0
    for col in range(width):
        pivot = next(
            (r for r in range(pivot_row, m) if work[r][col] != 0), None
        )
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        lead = work[pivot_row][col]
        for r in range(m):
            if r != pivot_row and work[r][col] != 0:
                factor = work[r][col] / lead
                row = work[r]
                top = work[pivot_row]
                for c in range(col, width + m):
                    row[c] -= factor * top[c]
        pivot_row += 1
    kernel = []
    for r in range(m):
        if all(work[r][c] == 0 for c in range(width)):
            kernel.append(work[r][width:])
    return kernel


def brute_relations(
    elements: list[Polynomial], tag_ring: Ring, max_degree: int
) -> list[Polynomial]:
    """All relations among the elements with tag-degree <= max_degree,
    as a vector-space basis of tag-ring polynomials."""
    monos = tag_monomials(len(elements), max_degree)
    products = []
    for mono in monos:
        value = elements[0].ring.one()
        for element, e in zip(elements, mono):
            if e:
                value = value * element**e
        products.append(value)
    support = sorted({m for p in products for m, _ in p.terms()})
    index = {m: i for i, m in enumerate(support)}
    rows = []
    for p in products:
        row = [Fraction(0)] * len(support)
        for m, c in p.terms():
            row[index[m]] = c
        rows.append(row)
    vectors = gaussian_kernel(rows)
    return [
        Polynomial(tag_ring, {m: c for m, c in zip(monos, vec) if c})
        for vec in vectors
    ]


def _rank(rows: list[list[Fraction]]) -> int:
    if not rows:
        return 0
    work = [list(row) for row in rows]
    m, width = len(work), len(work[0])
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, m) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        for r in range(rank + 1, m):
            if work[r][col] != 0:
                factor = work[r][col] / lead
                for c in range(col, width):
                    work[r][c] -= factor * work[rank][c]
        rank += 1
    return rank


def in_span(vector: Polynomial, basis: list[Polynomial]) -> bool:
    """Whether a tag polynomial is a linear combination of the basis.

    Rank comparison over the union of the supports.
    """
    polys = basis + [vector]
    support = sorted({m for p in polys for m, _ in p.terms()})
    index = {m: i for i, m in enumerate(support)}

    def as_row(p: Polynomial) -> list[Fraction]:
        row = [Fraction(0)] * len(support)
        for m, c in p.terms():
            row[index[m]] = c
        return row

    basis_rows = [as_row(p) for p in basis]
    return _rank(basis_rows) == _rank(basis_rows + [as_row(vector)])


def brute_member(f: Polynomial, elements: list[Polynomial]) -> bool:
    """Whether f lies in the algebra generated by the weighted-homogeneous
    elements, graded by the ring's weights."""
    ring = f.ring
    weights = ring.weights

    def wdeg(mono):
        return sum(w * e for w, e in zip(weights, mono))

    # constants and zero add nothing to the algebra beyond the scalars
    graded = []
    for g in elements:
        terms = g.term_dict()
        degrees = {wdeg(m) for m in terms}
        if len(degrees) > 1:
            raise ValueError("elements must be weighted homogeneous")
        if degrees and degrees != {0}:
            graded.append((terms, degrees.pop()))
    components: dict = {}
    for m, c in f.term_dict().items():
        components.setdefault(wdeg(m), {})[m] = c

    def extend(i, rest, value):
        # value times each product of powers of graded[i:] of degree rest
        if i == len(graded):
            if rest == 0:
                yield value
            return
        terms, deg = graded[i]
        while True:
            yield from extend(i + 1, rest, value)
            if rest < deg:
                return
            rest -= deg
            value = naive_multiply(value, terms)

    one = {(0,) * ring.nvars: Fraction(1)}
    for d, part in components.items():
        products = list(extend(0, d, one))
        support = sorted({m for p in products + [part] for m in p})
        rows = [[Fraction(p.get(m, 0)) for m in support] for p in products]
        if _rank(rows) != _rank(rows + [[Fraction(part.get(m, 0)) for m in support]]):
            return False
    return True


# -- term-dict oracles ----------------------------------------------------


def naive_evaluate(terms: dict, coords) -> Fraction:
    """Sum over the terms of coefficient * prod(coordinate ** exponent)."""
    total = Fraction(0)
    for mono, coeff in terms.items():
        value = Fraction(coeff)
        for c, e in zip(coords, mono):
            value *= Fraction(c) ** e
        total += value
    return total


def naive_multiply(left: dict, right: dict) -> dict:
    """Product of two term dicts, zero coefficients dropped."""
    out: dict = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {m: c for m, c in out.items() if c != 0}


def _naive_add(left: dict, right: dict) -> dict:
    out = dict(left)
    for m, c in right.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c != 0}


def naive_apply(images: list, terms: dict) -> dict:
    """The derivation with variable images `images` (term dicts) applied
    to `terms`: sum over i of images[i] * d(terms)/dx_i."""
    total: dict = {}
    for i, image in enumerate(images):
        partial = {}
        for mono, coeff in terms.items():
            if mono[i]:
                lowered = mono[:i] + (mono[i] - 1,) + mono[i + 1 :]
                partial[lowered] = Fraction(coeff) * mono[i]
        total = _naive_add(total, naive_multiply(image, partial))
    return total


def naive_substitute(images: list, terms: dict, nvars: int) -> dict:
    """The ring map sending variable i to images[i] (term dicts in nvars
    variables) applied to terms: the sum over the terms of coefficient *
    prod images[i]**e, each power taken as repeated products."""
    total: dict = {}
    for mono, coeff in terms.items():
        piece = {(0,) * nvars: Fraction(coeff)}
        for image, e in zip(images, mono):
            for _ in range(e):
                piece = naive_multiply(piece, image)
        total = _naive_add(total, piece)
    return total


def naive_orbit_point(images: list, value, coords, cap: int = 64) -> tuple:
    """exp(value * D) applied to a point, D given by variable images:
    coordinate i is sum_k D^k(x_i)(coords) * value^k / k!."""
    n = len(coords)
    out = []
    for i in range(n):
        f = {tuple(int(j == i) for j in range(n)): Fraction(1)}
        total = Fraction(0)
        k = 0
        while f:
            if k >= cap:
                raise ValueError("derivation is not nilpotent on the variables")
            total += naive_evaluate(f, coords) * Fraction(value) ** k / factorial(k)
            f = naive_apply(images, f)
            k += 1
        out.append(total)
    return tuple(out)


def naive_projection(
    images: list, index: int, slice_index: int, loc_index: int, coefficient,
    power: int, cap: int = 64,
) -> dict:
    """The slice projection of variable `index`, D given by variable
    images with D(x_slice) = coefficient * x_loc**power:
    sum_k (-1)^k/k! * sigma^k * D^k(x_index), sigma = x_slice /
    (coefficient * x_loc**power), as a term dict whose exponent of x_loc
    may be negative."""
    n = len(images)
    one = (0,) * n
    sigma_mono = [0] * n
    sigma_mono[slice_index] += 1
    sigma_mono[loc_index] -= power
    sigma = {tuple(sigma_mono): 1 / Fraction(coefficient)}
    f = {tuple(int(j == index) for j in range(n)): Fraction(1)}
    sigma_k = {one: Fraction(1)}
    total: dict = {}
    k = 0
    while f:
        if k >= cap:
            raise ValueError("derivation is not nilpotent on the variable")
        scale = {one: Fraction((-1) ** k, factorial(k))}
        total = _naive_add(total, naive_multiply(naive_multiply(sigma_k, f), scale))
        f = naive_apply(images, f)
        sigma_k = naive_multiply(sigma_k, sigma)
        k += 1
    return total

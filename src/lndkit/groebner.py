"""Groebner bases over the rationals, plus the two derived tools this
package leans on: relation ideals of a list of ring elements, and
membership tests for the subalgebra they generate.

Two completion engines extend one basis record (_Basis): the entries,
their reducer, each lead unpacked with its weighted degree, and the lcm
of two leads.  Lead supports are kept once, as the reducer's
guard-field masks; its divisor index extends a key's list only when
that key is looked up again.  The Buchberger loop (_Engine) uses the
normal selection strategy (smallest lcm under the order first, ties
broken by pair indices; the tag ideals below pop by a weighted lcm
degree first) and prunes the pair queue with the Gebauer-Moller
criteria: coprime leading monomials, chains through a
dividing lcm, and duplicate lcms.  It always completes in full, and
serves buchberger, ideal_membership, relation_ideal, testers that are
not lazy and multiple_of's side engine.  The signature engine
(_SignatureEngine, F5 with Eder-Roune rewriting) serves every lazy
tester, and only it completes degree by degree.  A tester's ideal is a
graph ideal: its quotient is the ring itself, so its generators form a
regular sequence, and on one the F5 criterion removes every reduction
to zero, which was most of the Buchberger loop's work there.  On
relation_ideal's grlex tag order the signature engine is much slower,
so that tool keeps the loop.  Output bases are reduced and monic,
hence unique for a given ideal and order, with generators sorted
ascending by leading monomial.

Internally monomials are packed into single integers (see _Packing),
one 16-bit field per integer weight row of the order (see
_graded_rows), so the hot loops run on machine comparisons
instead of tuple traversals.  Coefficients are plain integers: a
Polynomial enters as its integer numerators and leaves as integers over
one denominator, every basis element is kept primitive (content 1,
positive leading coefficient) and division runs fraction-free, so no
Fraction is built in this module.  Subalgebra testers against
weighted-homogeneous elements grow their basis lazily, degree by
degree, just far enough to answer each membership query.

Both derived tools build one ideal the same way: one tag variable
X1..Xk per element, under a block order that eliminates the ring
variables (grlex on them).  They differ in how they order the tags.
relation_ideal orders them grlex (MonomialOrder.elimination), so its
reduced basis stays the pinned one.  The tester builds its own rows,
which no MonomialOrder names: weighted reverse-lex on the tags, each
tag weighted by the degree of its element, which is the grading its
lazy completion follows.  That basis is much smaller, and a membership
answer does not depend on the order; when the elements satisfy
relations, its representation is one of several tag polynomials with
the same value.  The tester takes the tag of one element last, and
decides whether a tag polynomial lies in the relation ideal plus that
tag, by one reduction when it is lazy (Bayer-Stillman).  That is how
kernel_check decides a relation quotient, with the localizer taken
last, without reducing it in the whole ring.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import ExponentOverflowError, RingMismatchError
from .poly import Polynomial, Ring, RingMap, _Record

# the one coefficient type, named for tools that report it
_Q = Fraction


def _graded_rows(
    n: int, lo: int, hi: int, weights: Sequence[int] | None = None,
    last: int | None = None,
) -> list[tuple[int, ...]]:
    """Integer weight rows on n variables that order the block lo..hi-1,
    most significant first, then one unit row per variable of it (its
    raw exponent).  Without weights the block is compared by degree,
    then lexicographically.  With weights, one positive int per variable
    of the block, it is compared by weighted degree, then by reverse-lex
    with variable lo + last (the final one when last is None) taken
    last: the weighted partial sums over its variables before the m-th,
    m from the last down, reproduce the reversed-negated ties."""
    seq = list(range(lo, hi))
    if weights is None:
        weights, sums = (1,) * len(seq), (len(seq),)
    else:
        if last is not None:
            seq.append(seq.pop(last))
        sums = (len(seq), *range(len(seq) - 1, 0, -1))

    def row(weighted: dict[int, int]) -> tuple[int, ...]:
        return tuple(weighted.get(i, 0) for i in range(n))

    return [row({j: weights[j - lo] for j in seq[:m]}) for m in sums] + [
        row({j: 1}) for j in range(lo, hi)
    ]


class MonomialOrder(_Record):
    """A monomial order.  Every one is a list of integer weight rows
    (Robbiano, "Term orderings on the polynomial ring", EUROCAL 1985);
    _rows gives them and _Packing packs by them.  The fields are
    checked at construction: kind is one of the four below, and block is
    a nonnegative int for elimination and None otherwise.  from_name
    reads every order str writes."""

    _fields = ("kind", "block")

    def __init__(self, kind: str, block: int | None = None):
        if kind in ("lex", "grlex", "grevlex"):
            if block is not None:
                raise ValueError(f"order {kind} takes no block size")
        elif kind == "elim":
            if not isinstance(block, int) or isinstance(block, bool) or block < 0:
                raise ValueError("block size must be a nonnegative int")
        else:
            raise ValueError(f"unknown order kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "block", block)

    @classmethod
    def lex(cls) -> "MonomialOrder":
        return cls("lex")

    @classmethod
    def grlex(cls) -> "MonomialOrder":
        return cls("grlex")

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls("grevlex")

    @classmethod
    def elimination(cls, block: int) -> "MonomialOrder":
        """Block order eliminating the first `block` variables.

        Monomials are compared grlex on the first block, ties broken
        grlex on the rest, so anything involving a block variable beats
        everything that avoids them.
        """
        return cls("elim", block)

    @classmethod
    def from_name(cls, name: str) -> "MonomialOrder":
        if name in ("lex", "grlex", "grevlex"):
            return cls(name)
        block = name.removeprefix("elim:")
        if block != name and block.isascii() and block.isdecimal():
            return cls.elimination(int(block))
        raise ValueError(f"unknown order {name!r}")

    def _rows(self, n: int) -> list[tuple[int, ...]]:
        """The order on n variables as integer weight rows (see
        _graded_rows): monomials compare as their row products do,
        lexicographically.  An elimination block larger than n raises
        ValueError."""
        block = self.block
        if block is not None and block > n:
            raise ValueError(
                f"order {self} eliminates {block} variables but the ring has {n}"
            )
        if self.kind == "lex":  # the exponents alone
            return _graded_rows(n, 0, n)[1:]
        if self.kind == "grevlex":
            return _graded_rows(n, 0, n, (1,) * n)
        if block is None:
            return _graded_rows(n, 0, n)
        return _graded_rows(n, 0, block) + _graded_rows(n, block, n)

    def __str__(self) -> str:
        return self.kind if self.block is None else f"{self.kind}:{self.block}"


# -- packed monomials ------------------------------------------------------


class _Packing:
    """Order-embedded packing of exponent tuples into single integers.

    Each monomial becomes one integer built from 16-bit fields, one per
    integer weight row of an order (MonomialOrder._rows, or the tester's
    rows of _tag_ideal), most significant first.  Integer comparison
    then agrees with the monomial order, addition and subtraction act
    exponentwise, and the spare top bit of every field is a guard that
    turns divisibility and lcm into a couple of bitwise operations.  Any
    field reaching 2^15, weighted rows included, raises
    ExponentOverflowError rather than corrupting a neighbour.
    """

    WIDTH = 16
    LIMIT = 1 << (WIDTH - 1)

    def __init__(self, rows: Sequence[tuple[int, ...]]):
        width = self.WIDTH
        self.shifts = tuple(width * i for i in range(len(rows) - 1, -1, -1))
        self.nvars = nvars = len(rows[0])
        self.units = tuple(
            sum(row[j] << s for row, s in zip(rows, self.shifts)) for j in range(nvars)
        )
        # a unit row's field holds its variable's exponent; a block sum of
        # one variable is a unit row too, and the last one is read
        raw = {row.index(1): s for row, s in zip(rows, self.shifts) if sum(row) == 1}
        self.raw_shifts = tuple(raw[j] for j in range(nvars))
        self.guard = sum(self.LIMIT << s for s in self.shifts)
        # the guard bits of the unit-row fields: a weighted row is nonzero
        # in two monomials that share no variable, a unit row is not
        self.unit = sum(self.LIMIT << s for s in self.raw_shifts)
        self.mask = (1 << width) - 1
        # every field is at most the heaviest weight times the degree
        self._rows = rows
        self._heaviest = max((w for row in rows for w in row), default=1)
        if self._heaviest >= self.LIMIT:
            raise ExponentOverflowError(
                f"weight {self._heaviest} exceeds the packed-field limit"
            )

    def pack(self, mono: tuple[int, ...]) -> int:
        limit = self.LIMIT
        if sum(mono) * self._heaviest >= limit and any(
            sum(w * e for w, e in zip(row, mono)) >= limit for row in self._rows
        ):
            raise ExponentOverflowError(
                f"monomial {mono} exceeds the packed-field limit"
            )
        p = 0
        units = self.units
        for j, e in enumerate(mono):
            if e:
                p += e * units[j]
        return p

    def unpack(self, p: int) -> tuple[int, ...]:
        mask = self.mask
        return tuple((p >> s) & mask for s in self.raw_shifts)

    def pack_poly(self, f: Polynomial, start: int = 0) -> tuple[dict, int]:
        """(packed integer numerators of f, their denominator).

        The exponents of f fill the variables from start on, as many as
        f's ring has.
        """
        pack = self.pack
        pad = (0,) * start
        return {pack(pad + m): c for m, c in f._num.items()}, f._den

    def unpack_poly(
        self, ring: Ring, d: dict, start: int = 0, den: int = 1
    ) -> Polynomial:
        """The packed integer terms d over the positive den, as a
        polynomial of ring.

        The first start exponents of every monomial are dropped.
        """
        unpack = self.unpack
        return Polynomial._make(
            ring, {unpack(p)[start:]: c for p, c in d.items()}, den
        )


def _checked(p: int, guard: int) -> int:
    if p & guard:
        raise ExponentOverflowError("monomial exceeds the packed-field limit")
    return p


# -- packed-dict engine ----------------------------------------------------
# Entries are (leading monomial, leading coefficient, tail items) with all
# monomials packed and all coefficients integers, content 1 and the
# leading coefficient positive.


def _primitive(d: dict) -> dict:
    """The rational multiple of the nonzero integer dict d with content 1
    and positive lead."""
    g = gcd(*d.values())
    if d[max(d)] < 0:
        g = -g
    if g != 1:
        d = {m: c // g for m, c in d.items()}
    return d


def _entry(d: dict) -> tuple:
    """The entry of the primitive multiple of the nonzero integer dict d."""
    d = _primitive(d)
    lm = max(d)
    return (lm, d[lm], tuple((m, c) for m, c in d.items() if m != lm))


class _Reducer:
    """Fraction-free multivariate division against a growable list of
    basis entries.

    candidates looks divisors up in an index keyed by the support of a
    lead: the set of its nonzero packed fields, marked by their guard
    bits.  supports() gives the support of every entry's lead, the one
    support form the engines read too.  Each support looked up maps to
    the indexes of the entries whose own support is a subset of it, in
    list order, and to how many entries it has seen.  Entries only ever
    get appended, so a key's list is extended by the entries appended
    since, and only when that key is looked up again; find, scanning
    one, returns the same first divisor as a scan of the whole list.
    """

    __slots__ = ("entries", "guard", "_low", "_supports", "_index")

    def __init__(self, entries: list, guard: int):
        self.entries = entries
        self.guard = guard
        # adding 2^15 - 1 to a field below 2^15 sets its guard bit
        # exactly when the field is nonzero
        self._low = guard - (guard >> (_Packing.WIDTH - 1))
        self._supports: list[int] = []
        self._index: dict[int, list] = {}

    def supports(self) -> list[int]:
        """The support of each entry's lead, in list order."""
        supports = self._supports
        low, guard = self._low, self.guard
        supports.extend((lm + low) & guard for lm, _, _ in self.entries[len(supports):])
        return supports

    def candidates(self, lead: int) -> list[int]:
        """The indexes, in list order, of the entries whose lead's
        support lies in the support of lead: every entry whose lead
        divides lead, and maybe others."""
        supports = self._supports
        n = len(self.entries)
        if len(supports) < n:
            self.supports()
        key = (lead + self._low) & self.guard
        kept = self._index.get(key)
        if kept is None:
            indexes = [k for k, sk in enumerate(supports) if sk | key == key]
            self._index[key] = [indexes, n]
            return indexes
        indexes, seen = kept
        if seen < n:
            for k in range(seen, n):
                if supports[k] | key == key:
                    indexes.append(k)
            kept[1] = n
        return indexes

    def find(self, lead: int) -> int:
        """The index of the first entry whose lead divides lead, or -1."""
        entries = self.entries
        guard = self.guard
        raised = lead | guard
        for k in self.candidates(lead):
            if (raised - entries[k][0]) & guard == guard:
                return k
        return -1

    def reduce(self, f: dict, find=None) -> tuple[dict, int]:
        """Full normal form of the integer dict f as (R, den), meaning
        R/den; f is consumed.  find, self.find by default, picks the
        divisor of each term, or -1 to keep the term.

        R has integer coefficients and den is positive.  A divisor with
        leading coefficient lc cancels a term c by first scaling
        everything, den included, by lc/gcd(lc, c).
        Tracks the current leading term with a lazy max-heap: every
        monomial of f has at least one heap entry, stale entries are
        skipped on pop.
        """
        remainder: dict = {}
        den = 1
        entries = self.entries
        guard = self.guard
        if find is None:
            find = self.find
        push = heapq.heappush
        heap = [-m for m in f]
        heapq.heapify(heap)
        while heap:
            lead = -heapq.heappop(heap)
            coeff = f.pop(lead, None)
            if coeff is None:
                continue
            k = find(lead)
            if k < 0:
                remainder[lead] = coeff
                continue
            lm, lc, tail = entries[k]
            shift = lead - lm
            if lc == 1:
                scale = coeff
            else:
                g = gcd(lc, coeff)
                scale = coeff // g
                if g != lc:
                    mult = lc // g
                    den *= mult
                    f = {m: c * mult for m, c in f.items()}
                    remainder = {m: c * mult for m, c in remainder.items()}
            for m, gc in tail:
                mm = m + shift
                old = f.get(mm)
                if old is None:
                    if mm & guard:
                        raise ExponentOverflowError(
                            "monomial exceeds the packed-field limit"
                        )
                    f[mm] = -scale * gc
                    push(heap, -mm)
                else:
                    val = old - scale * gc
                    if val:
                        f[mm] = val
                    else:
                        del f[mm]
        return remainder, den


def _spoly(a: tuple, b: tuple, plcm: int, guard: int) -> dict:
    """(lcb/g)*x^sa*A - (lca/g)*x^sb*B with g = gcd(lca, lcb), in integers.

    The leading terms cancel by construction, so only the tails enter.
    """
    lma, lca, ta = a
    lmb, lcb, tb = b
    sa, sb = plcm - lma, plcm - lmb
    g = gcd(lca, lcb)
    ca, cb = lcb // g, lca // g
    out = {_checked(m + sa, guard): ca * c for m, c in ta}
    for m, c in tb:
        mm = _checked(m + sb, guard)
        val = out.get(mm, 0) - cb * c
        if val:
            out[mm] = val
        else:
            out.pop(mm, None)
    return out


class _Basis:
    """The basis record both completion engines extend: the entries,
    their reducer, each lead unpacked (its nonzero exponents by
    variable) and its weighted degree under the selection weights, all
    0 without them.  Leads i and t share a variable exactly when the
    reducer's supports meet on a unit field, supports[i] & supports[t]
    & packing.unit.  Each engine's _step pops queue, a heap whose items
    lead with a weighted degree: complete_to(d) steps while the next is
    at most d, and complete until the queue is empty."""

    __slots__ = ("packing", "weights", "basis", "reducer", "leads", "wdegs", "queue")

    def __init__(self, packing: _Packing, weights: Sequence[int] | None):
        self.packing = packing
        self.weights = tuple(weights) if weights else (0,) * packing.nvars
        self.basis: list[tuple] = []
        self.reducer = _Reducer(self.basis, packing.guard)
        self.leads: list[dict[int, int]] = []
        self.wdegs: list[int] = []
        self.queue: list[tuple] = []

    def _append(self, d: dict) -> int:
        """Append the entry of the nonzero integer dict d; its index."""
        entry = _entry(d)
        self.basis.append(entry)
        lead = {j: e for j, e in enumerate(self.packing.unpack(entry[0])) if e}
        self.leads.append(lead)
        weights = self.weights
        self.wdegs.append(sum(weights[j] * e for j, e in lead.items()))
        return len(self.basis) - 1

    def _lcm(self, i: int, t: int) -> tuple[int, int]:
        """The packed lcm of the leads of entries i and t, and its
        weighted degree: their sum less the shared part."""
        # the fields of the sum stay below 2^16, so none carries
        plcm = self.basis[i][0] + self.basis[t][0]
        wdeg = self.wdegs[i] + self.wdegs[t]
        units = self.packing.units
        weights = self.weights
        L = self.leads[i]
        for j, e in self.leads[t].items():
            x = L.get(j)
            if x:
                if x > e:
                    x = e
                plcm -= x * units[j]
                wdeg -= x * weights[j]
        return plcm, wdeg

    def complete_to(self, wdeg: int) -> None:
        queue = self.queue
        while queue and queue[0][0] <= wdeg:
            self._step()

    def complete(self) -> None:
        queue = self.queue
        while queue:
            self._step()


class _Engine(_Basis):
    """Resumable Buchberger loop on packed, primitive integer entries.

    Pairs pop by the lcm under the order (whose top field is the degree
    under grlex and grevlex), then indices; given selection weights, by
    the weighted lcm degree first.  The pair set is maintained with the
    Gebauer-Moller update: a fresh pair dies to a coprime classmate or
    a pair whose lcm divides its own, surviving duplicates collapse to
    one, and old pairs die when the new lead divides their lcm strictly
    between the two old lcms.  Retired elements (lead
    divisible by a newer lead) stop forming pairs but keep reducing.

    Every caller in this module completes it in full.  When every input
    is homogeneous for the selection weights, the pop degree never
    decreases, so complete_to(d) would already give exact normal forms
    for anything of weighted degree at most d; the reducer's full
    reduction yields the canonical normal form even though the working
    basis is not interreduced.  Without selection weights every weight
    is 0.  Every adjoined element is made primitive, so the basis
    carries no denominators.
    """

    __slots__ = ("alive", "pairs")

    def __init__(
        self,
        pdicts: Sequence[dict],
        packing: _Packing,
        weights: Sequence[int] | None = None,
    ):
        super().__init__(packing, weights)
        self.alive: list[bool] = []
        self.pairs: dict[tuple[int, int], int] = {}
        for d in sorted(pdicts, key=lambda d: (max(d), sorted(d.items()))):
            self._adjoin(d)

    def _update(self, t: int) -> None:
        guard = self.packing.guard
        basis = self.basis
        wdegs = self.wdegs
        supports = self.reducer.supports()
        alive = self.alive
        pairs = self.pairs
        Tp, Tw = basis[t][0], wdegs[t]
        St = supports[t] & self.packing.unit
        lcms = []
        cand = []
        for i in range(t):
            shares = supports[i] & St
            if shares:
                plcm, wdeg = self._lcm(i, t)
            else:
                # coprime leads: the lcm is their sum, and no field carries
                plcm, wdeg = basis[i][0] + Tp, wdegs[i] + Tw
            _checked(plcm, guard)
            lcms.append(plcm)
            if alive[i]:
                cand.append((plcm, shares != 0, i, wdeg))
                if plcm == basis[i][0]:
                    alive[i] = False
        for key, plcm in list(pairs.items()):
            if (
                ((plcm | guard) - Tp) & guard == guard
                and lcms[key[0]] != plcm
                and lcms[key[1]] != plcm
            ):
                del pairs[key]
        # chain criterion: ascending, a candidate dies to any kept lcm
        # dividing its own; coprime ones sort first in a tie and are kept
        # for this test but never queued
        kept: list[int] = []
        queue = self.queue
        for plcm, shares, i, wdeg in sorted(cand):
            if shares:
                raised = plcm | guard
                for q in kept:
                    if (raised - q) & guard == guard:
                        break
                else:
                    pairs[(i, t)] = plcm
                    heapq.heappush(queue, (wdeg, plcm, i, t))
                    kept.append(plcm)
            else:
                kept.append(plcm)

    def _adjoin(self, d: dict) -> None:
        t = self._append(d)
        self.alive.append(True)
        self._update(t)

    def add(self, d: dict) -> None:
        """Adjoin the normal form of the integer dict d, unless it is 0."""
        remainder, _ = self.reducer.reduce(d)
        if remainder:
            self._adjoin(remainder)

    def _step(self) -> None:
        _, plcm, i, j = heapq.heappop(self.queue)
        if self.pairs.pop((i, j), None) is not None:
            self.add(_spoly(self.basis[i], self.basis[j], plcm, self.packing.guard))


class _SignatureEngine(_Basis):
    """Resumable signature-based completion of integer dicts that are
    homogeneous for nonnegative selection weights: Faugere's F5
    criterion (ISSAC 2002) with Eder-Roune rewriting (ISSAC 2013).

    Input i is the module term e_i.  Every entry carries the signature
    of the module element it was built from, a term m*e_i packed as
    i << bits | m, with m packed by the engine's packing and bits the
    width of a packed monomial.  Everything is homogeneous, so an entry,
    its signature and every multiple of either that reduction meets
    share one weighted degree, and signatures of one degree compare as
    these integers do: by index, then by m under the order.  Signatures
    pop by weighted degree, then as integers.

    A popped signature is dropped when the lead of an entry of smaller
    index divides m (the F5 criterion: m*e_i is then the signature of a
    module element that evaluates to 0).  Otherwise its canonical
    rewriter, the latest entry whose signature divides it, is multiplied
    up to it and regular-reduced: a term is reduced only by an entry
    whose multiplied signature is smaller.  A zero result is dropped,
    and so is one whose lead an entry divides with an equal multiplied
    signature; any other is adjoined.  An S-pair is never formed on
    coprime leads (its signature is a Koszul relation's) nor on equal
    multiplied signatures; otherwise it queues the larger one, and only
    its signature is kept.

    The entries are then a Groebner basis up to every popped degree, so
    after complete_to(d) reducer gives exact normal forms below degree
    d + 1; the basis is not minimal, but an entry whose lead an earlier
    lead divides is never the first divisor find returns.  On an ideal
    generated by a regular sequence, such as a tester's graph ideal, the
    F5 criterion leaves no reduction to zero, so a zero result is not
    recorded for later signatures to be checked against.

    A tag of weight 0, that of a constant element c, is safe: its
    generator c - X has degree 0, so its index is below that of every
    input of positive degree, and its lead X is shared by no other
    lead.  So it never enters a pair and only reduces.
    """

    __slots__ = ("bits", "sigs", "lowered", "members", "inputs", "bound")

    def __init__(
        self, pdicts: Sequence[dict], packing: _Packing, weights: Sequence[int]
    ):
        super().__init__(packing, weights)
        self.bits = bits = packing.shifts[0] + packing.WIDTH
        self.sigs: list[int] = []
        # sigs[k] - lead of entry k: a term m of the entry's degree
        # multiplies entry k up to signature m + lowered[k]
        self.lowered: list[int] = []
        # the entries of each signature index, as a bit set
        self.members = [0] * len(pdicts)
        self.inputs: dict[int, dict] = {}
        # the signature being reduced
        self.bound = 0
        # inputs take their indexes by weighted degree, ties in input
        # order, so the F5 criterion counts every input of lower degree
        # as an earlier one; the queue is then sorted, hence a heap
        degrees = [
            sum(w * e for w, e in zip(self.weights, packing.unpack(max(d))))
            for d in pdicts
        ]
        for i, k in enumerate(sorted(range(len(pdicts)), key=degrees.__getitem__)):
            self.inputs[i << bits] = pdicts[k]
            self.queue.append((degrees[k], i << bits))

    def _regular(self, lead: int) -> int:
        """The index of the first entry that reduces lead below the
        signature bound, or -1."""
        basis = self.basis
        lowered = self.lowered
        guard = self.packing.guard
        bound = self.bound
        raised = lead | guard
        for k in self.reducer.candidates(lead):
            if (raised - basis[k][0]) & guard == guard and lead + lowered[k] < bound:
                return k
        return -1

    def _rewritten(self, sig: int) -> dict | None:
        """The multiple of sig's canonical rewriter that has signature
        sig, or None when a criterion drops sig or no entry reduces the
        multiple's lead below sig: the rewriter's own lead then divides
        it at sig, so its reduction would be dropped as singular."""
        guard = self.packing.guard
        index = sig >> self.bits
        raised = sig | guard
        basis = self.basis
        sigs = self.sigs
        below = index << self.bits
        mono = sig - below
        raised_mono = mono | guard
        # the F5 criterion: the lead of an entry of smaller index divides mono
        for k in self.reducer.candidates(mono):
            if sigs[k] < below and (raised_mono - basis[k][0]) & guard == guard:
                return None
        # the canonical rewriter, the latest entry of this index whose
        # signature divides sig; the S-pair's own entry is one
        members = self.members[index]
        while True:
            k = members.bit_length() - 1
            if (raised - sigs[k]) & guard == guard:
                break
            members ^= 1 << k
        lm, lc, tail = basis[k]
        shift = sig - sigs[k]
        if self._regular(lm + shift) < 0:
            return None
        d = {m + shift: c for m, c in tail}
        d[lm + shift] = lc
        return d

    def _adjoin(self, d: dict, sig: int) -> None:
        t = self._append(d)
        lowered = self.lowered
        self.sigs.append(sig)
        lowered.append(sig - self.basis[t][0])
        self.members[sig >> self.bits] |= 1 << t
        supports = self.reducer.supports()
        St = supports[t] & self.packing.unit
        queue = self.queue
        # pairs on coprime leads are never formed
        for i in range(t):
            if supports[i] & St:
                plcm, pdeg = self._lcm(i, t)
                # both fields of each sum stay below 2^16, so no field carries
                a, b = plcm + lowered[i], plcm + lowered[t]
                if a != b:
                    heapq.heappush(queue, (pdeg, a if a > b else b))

    def _step(self) -> None:
        queue = self.queue
        wdeg, sig = heapq.heappop(queue)
        while queue and queue[0][1] == sig:
            heapq.heappop(queue)
        if wdeg >= _Packing.LIMIT:
            # every packed field of a term is at most its weighted degree
            raise ExponentOverflowError(
                f"weighted degree {wdeg} exceeds the packed-field limit"
            )
        self.bound = sig
        d = self.inputs.pop(sig, None)
        if d is None:
            d = self._rewritten(sig)
            if d is None:
                return
        remainder, _ = self.reducer.reduce(d, self._regular)
        if not remainder:
            return
        lead = max(remainder)
        guard = self.packing.guard
        raised = lead | guard
        basis = self.basis
        lowered = self.lowered
        for k in self.reducer.candidates(lead):
            if (raised - basis[k][0]) & guard == guard and lead + lowered[k] == sig:
                return
        self._adjoin(remainder, sig)


def _interreduce(basis: Sequence[tuple], guard: int) -> list[dict]:
    """The reduced basis of the entries as primitive integer dicts,
    ascending by lead; each over its leading coefficient is monic."""
    # minimal basis: ascending by lead, drop any lead that a kept lead
    # divides, so the first element of a tie wins
    kept: list[tuple] = []
    for entry in sorted(basis, key=lambda e: e[0]):
        raised = entry[0] | guard
        if not any((raised - k[0]) & guard == guard for k in kept):
            kept.append(entry)
    # no lead divides a term below itself, so one reducer over all the
    # survivors reduces each tail against the others
    reducer = _Reducer(kept, guard)
    reduced: list[dict] = []
    for lm, lc, tail in kept:
        nf, den = reducer.reduce(dict(tail))
        nf[lm] = lc * den
        reduced.append(_primitive(nf))
    return reduced


def _common_ring(polys: Sequence[Polynomial]) -> Ring:
    ring = polys[0].ring
    for p in polys[1:]:
        if p.ring != ring:
            raise RingMismatchError("generators live in different rings")
    return ring


def normal_form(
    f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder
) -> Polynomial:
    """Remainder of f under full multivariate division by basis.

    Divisors are tried in the order given, so the result is canonical
    only when basis is a Groebner basis.
    """
    nonzero = [g for g in basis if not g.is_zero()]
    ring = _common_ring([f, *nonzero])
    packing = _Packing(order._rows(ring.nvars))
    # scaling a divisor leaves every step's cancellation, hence the
    # remainder, unchanged
    entries = [_entry(packing.pack_poly(g)[0]) for g in nonzero]
    d, den = packing.pack_poly(f)
    remainder, scale = _Reducer(entries, packing.guard).reduce(d)
    return packing.unpack_poly(ring, remainder, den=den * scale)


def buchberger(
    generators: Sequence[Polynomial], order: MonomialOrder
) -> tuple[Polynomial, ...]:
    """Reduced monic Groebner basis of the ideal the generators span."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return ()
    ring = _common_ring(gens)
    packing = _Packing(order._rows(ring.nvars))
    engine = _Engine([packing.pack_poly(g)[0] for g in gens], packing)
    engine.complete()
    reduced = _interreduce(engine.basis, packing.guard)
    return tuple(packing.unpack_poly(ring, d, den=d[max(d)]) for d in reduced)


def ideal_membership(f: Polynomial, generators: Sequence[Polynomial]) -> bool:
    """Whether f lies in the ideal the generators span (decided under
    grevlex; the answer does not depend on the order)."""
    order = MonomialOrder.grevlex()
    return normal_form(f, buchberger(generators, order), order).is_zero()


def ideal_equal(first: Sequence[Polynomial], second: Sequence[Polynomial]) -> bool:
    """Whether two generator lists span the same ideal (compared as
    reduced grevlex bases, which are unique)."""
    order = MonomialOrder.grevlex()
    return buchberger(first, order) == buchberger(second, order)


# -- relation ideals and subalgebra membership ---------------------------


def _fresh_tag_names(ring: Ring, count: int) -> tuple[str, ...]:
    prefix = "X"
    while any(f"{prefix}{i + 1}" in ring.variables for i in range(count)):
        prefix += "X"
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _moved(d: dict, moves: tuple[tuple[int, int], ...], mask: int) -> dict:
    """The packed dict d with each move (shift, delta) applied: a
    monomial whose field at shift holds e gains e*delta."""
    for shift, delta in moves:
        d = {p + ((p >> shift) & mask) * delta: c for p, c in d.items()}
    return d


def _tag_ideal(
    elements: tuple[Polynomial, ...], last: int | None = None
) -> tuple[Ring, Ring, _Engine | _SignatureEngine, tuple]:
    """The ideal of the den*g_i - den*X_i, one fresh tag X_i per element
    g_i with denominator den, in the ring extended by the tags.

    When g_i is a ring variable y itself, y - X_i is kept as it is and
    every other generator reads X_i for y: the ideal is the same, so its
    reduced basis and every normal form are too, but no reduction needs
    y - X_i to rename y one exponent at a time.  The first such element
    names y.  Returns the ring, the ring of the tags, the engine on the
    ideal (it holds the packing) and the moves that rename a packed dict
    of the ring onto the tags (for _moved).  The engine is a
    _SignatureEngine, which completes lazily, when last is given and
    every element is weighted homogeneous, and an _Engine otherwise.  A
    tag's selection weight is the weighted degree of its element (1 for
    a zero element, 0 for a constant), so the rename keeps degrees.
    The rows (see _graded_rows) eliminate the ring variables;
    on the tags they are grlex when last is None, else weighted
    reverse-lex by the selection weights (1 in place of 0) with X_last
    taken last.  So a monomial is tag-only exactly when it packs below
    its head-degree field, 1 << packing.shifts[0].
    """
    if not elements:
        raise ValueError("at least one element required")
    ring = _common_ring(elements)
    tag_ring = Ring(_fresh_tag_names(ring, len(elements)))
    n, N = ring.nvars, ring.nvars + len(elements)
    degrees = [
        {sum(w * e for w, e in zip(ring.weights, m)) for m in g._num}
        for g in elements
    ]
    weights = (*ring.weights, *(max(ds, default=1) for ds in degrees))
    revlex = None if last is None else [max(w, 1) for w in weights[n:]]
    packing = _Packing(_graded_rows(N, 0, n) + _graded_rows(N, n, N, revlex, last))
    units = packing.units
    names: dict[int, int] = {}
    for i, g in enumerate(elements):
        if g._den == 1 and len(g._num) == 1:
            ((m, c),) = g._num.items()
            if c == 1 and sum(m) == 1:
                names.setdefault(m.index(1), i)
    moves = tuple(
        (packing.raw_shifts[j], units[n + i] - units[j]) for j, i in names.items()
    )
    kept = set(names.values())
    ideal = []
    for i, g in enumerate(elements):
        d, den = packing.pack_poly(g)
        if i not in kept:
            d = _moved(d, moves, packing.mask)
        d[units[n + i]] = -den
        ideal.append(d)
    if last is not None and all(len(ds) <= 1 for ds in degrees):
        engine = _SignatureEngine(ideal, packing, weights)
    else:
        engine = _Engine(ideal, packing, weights)
    return ring, tag_ring, engine, moves


class RelationIdeal(_Record):
    """All polynomial relations among a fixed list of ring elements.

    tag_ring has one tag variable per element, in element order.
    generators is the reduced Groebner basis, under grlex on tag_ring,
    of the kernel of tag_ring -> R, tag i -> element i, sorted ascending
    by leading monomial.
    """

    _fields = ("tag_ring", "generators")

    def __init__(self, tag_ring: Ring, generators: tuple[Polynomial, ...]):
        object.__setattr__(self, "tag_ring", tag_ring)
        object.__setattr__(self, "generators", generators)

    def evaluate(self, relation: Polynomial, elements: Sequence[Polynomial]) -> Polynomial:
        """Substitute the original elements back into a relation; the
        same as RingMap(tag_ring, ring, elements)(relation), kept because
        the benchmark's relations-r4 workload (perfbench/workloads.py)
        calls it."""
        if len(elements) != self.tag_ring.nvars:
            raise ValueError("one element per tag required")
        ring = _common_ring(list(elements))
        link = RingMap(self.tag_ring, ring, tuple(elements))
        return link(relation)


class SubalgebraTester:
    """Decides membership in the subalgebra generated by fixed elements.

    Builds a Groebner basis of the ideal (g_i - tag_i) in the ring
    extended by one tag per element, under a block order that eliminates
    the original variables (grlex on them) and breaks ties by weighted
    reverse-lex on the tags, each tag weighted by the degree of its
    element and the tag of element last taken last.  last is an int
    index of the elements, the final one when None, and anything else
    raises ValueError.  The tester builds that order's weight rows
    itself (_tag_ideal); relation_ideal builds the same ideal with
    grlex on the tags, whose larger basis it pins.  The normal form
    of f lands in the tag ring exactly when f belongs to the subalgebra,
    and the remainder is a representing polynomial: exact and
    deterministic, but when the elements satisfy relations not the only
    one.  When every element is homogeneous for the ring's weights, the
    basis is completed lazily: each membership query extends it just
    past the query's weighted degree, which is as far as the answer can
    depend on.  Otherwise the first query completes it.

    A lazy tester completes by signatures (_SignatureEngine), constant
    elements included: the g_i - tag_i are a regular sequence, so no
    pair reduces to zero.  Its basis is not minimal, but the full normal
    form modulo any Groebner basis through the query's degree is the
    same, so every answer and representation is the one the Buchberger
    loop (_Engine) gives; a tester that is not lazy keeps that loop and
    completes it in full.

    An element that is a ring variable y itself is renamed onto its tag
    (see _tag_ideal), and so is y in every query: the query keeps its
    normal form, hence its answer and its representation.

    multiple_of decides membership of a quotient P(elements)/element
    last from P alone, in the tag ring.
    """

    def __init__(self, elements: Sequence[Polynomial], last: int | None = None):
        self.elements = tuple(elements)
        if last is None:
            last = len(self.elements) - 1
        elif isinstance(last, bool) or not isinstance(last, int) or not (
            0 <= last < len(self.elements)
        ):
            raise ValueError(f"last must index one of {len(self.elements)} elements")
        self.last = last
        self.ring, self.tag_ring, self._engine, self._moves = _tag_ideal(
            self.elements, self.last
        )
        self._lazy = isinstance(self._engine, _SignatureEngine)

    def _complete(self, f: Polynomial, start: int = 0) -> None:
        """Complete the engine as far as reducing f, packed from variable
        start on, needs: fully unless the tester is lazy.  The weighted
        degree of f bounds the tag fields of f even after renaming, so
        one of 2^15 or more raises ExponentOverflowError."""
        engine = self._engine
        if f:
            weights = engine.weights[start:]
            degree = max(sum(w * e for w, e in zip(weights, m)) for m in f._num)
            if degree >= _Packing.LIMIT:
                raise ExponentOverflowError(
                    f"weighted degree {degree} exceeds the packed-field limit"
                )
        if not self._lazy:
            engine.complete()
        elif f:
            engine.complete_to(degree)

    def representation(self, f: Polynomial) -> Polynomial | None:
        """A polynomial over the tags evaluating to f, or None: the full
        normal form of f, unless its leading term involves a ring
        variable."""
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lies outside the base ring")
        engine = self._engine
        packing = engine.packing
        self._complete(f)
        d, den = packing.pack_poly(f)
        remainder, scale = engine.reducer.reduce(_moved(d, self._moves, packing.mask))
        if remainder and max(remainder) >= 1 << packing.shifts[0]:
            return None
        return packing.unpack_poly(
            self.tag_ring, remainder, self.ring.nvars, den * scale
        )

    def contains(self, f: Polynomial) -> bool:
        return self.representation(f) is not None

    def multiple_of(self, relation: Polynomial) -> bool:
        """Whether relation, over the tags, lies in J + (X), J the ideal
        of the relations among the elements and X the tag of element
        last.

        With g the elements and P(g) divisible by g[last], that is
        exactly when P(g)/g[last] lies in the subalgebra: P = X*R + j,
        j in J, gives P(g)/g[last] = R(g), and P(g)/g[last] = R(g) gives
        P - X*R in J.  The tester's tag-only entries generate J (the
        order eliminates the ring variables), and after complete_to(d)
        they are a Groebner basis of J up to degree d.  When the tester
        is lazy, J is homogeneous for the tag weights and X is the
        revlex-last tag, so if X has positive weight, in(J + (X)) =
        in(J) + (X) (Bayer-Stillman; Eisenbud, Prop. 15.12): those
        entries and X are a Groebner basis of J + (X), and relation lies
        in it exactly when one reduction of its terms prime to X leaves
        only multiples of X.  Otherwise (a tester that is not lazy, or a
        constant element taken last) one engine on those entries and X
        is completed in full.  No ring term is ever reduced.
        """
        if relation.ring != self.tag_ring:
            raise RingMismatchError("relation lies outside the tag ring")
        engine = self._engine
        packing = engine.packing
        n = self.ring.nvars
        last = n + self.last
        self._complete(relation, n)
        d, _ = packing.pack_poly(relation, n)
        if self._lazy and engine.weights[last]:
            shift, mask = packing.raw_shifts[last], packing.mask
            remainder, _ = engine.reducer.reduce(
                {m: c for m, c in d.items() if not (m >> shift) & mask}
            )
            return all((m >> shift) & mask for m in remainder)
        tag_only = 1 << packing.shifts[0]
        entries = [{**dict(t), lm: lc} for lm, lc, t in engine.basis if lm < tag_only]
        ideal = _Engine([{packing.units[last]: 1}, *entries], packing, engine.weights)
        ideal.complete()
        return not ideal.reducer.reduce(d)[0]


def relation_ideal(elements: Sequence[Polynomial]) -> RelationIdeal:
    """The ideal of algebraic relations among the given elements, as its
    reduced Groebner basis under grlex on the tags."""
    ring, tag_ring, engine, _ = _tag_ideal(tuple(elements))
    packing = engine.packing
    engine.complete()
    # the relations are the reduced basis's tag-only elements; no lead
    # holding a ring variable divides a tag-only term, so the tag-only
    # entries interreduced alone give them
    head = [e for e in engine.basis if e[0] < 1 << packing.shifts[0]]
    generators = tuple(
        packing.unpack_poly(tag_ring, d, ring.nvars, d[max(d)])
        for d in _interreduce(head, packing.guard)
    )
    return RelationIdeal(tag_ring, generators)


def subalgebra_membership(
    f: Polynomial, elements: Sequence[Polynomial]
) -> Polynomial | None:
    """Representation of f over the given elements, or None.

    One-shot convenience around SubalgebraTester.  Build the tester
    directly when testing many elements against one list.
    """
    return SubalgebraTester(elements).representation(f)

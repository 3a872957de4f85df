"""Sparse multivariate polynomials with packed exponents.

The ring is Z[a_1..a_n, b_1..b_n] for a fixed number n of parameter points;
variable v < n is a_{v+1} and variable n+i is b_{i+1}.  A polynomial is a
map from monomials to nonzero int coefficients: every polynomial the
package builds (vertex coordinates, 2x2 brackets, signs) is integral.

Each monomial is packed into one int of 2n+1 fields of 8 bits (after
Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  The top field holds the total
degree, then come a_1..a_n, then b_1..b_n in the lowest fields.  Two
monomials multiply by adding their ints.  No exponent exceeds the total
degree, so no field can carry into its neighbour while the total degree
stays at most MAX_DEGREE = 255; a product that would pass it raises
OverflowError.  The symbolic identities this package verifies are huge but
extremely sparse in these variables, which is the whole case for this
representation.

Printing (and therefore golden-file comparison) uses graded lexicographic
term order: higher total degree first, then lexicographically larger
exponent vector first, e.g. "a1*b2 - a2*b1".  With the total degree in the
top field that is descending int order.
"""

from __future__ import annotations

from math import comb
from typing import Mapping, Sequence

Exponents = tuple[int, ...]

FIELD_BITS = 8
MAX_DEGREE = (1 << FIELD_BITS) - 1


class MultiPoly:
    """An immutable sparse polynomial; arithmetic never mutates operands.

    The constructor takes exponent tuples (a_1..a_n, b_1..b_n) as keys.
    terms maps each packed monomial to its nonzero coefficient; exponents()
    gives the same map with exponent tuples as keys.
    """

    __slots__ = ("n_points", "terms")

    def __init__(self, n_points: int, terms: Mapping[Exponents, int] = ()):
        if n_points < 1:
            raise ValueError("need at least one parameter point")
        width = 2 * n_points
        clean: dict[int, int] = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(exps)
            if len(exps) != width or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            degree = sum(exps)
            if degree > MAX_DEGREE:
                raise OverflowError(
                    f"total degree {degree} exceeds {MAX_DEGREE}")
            if type(coeff) is not int:
                raise TypeError(f"coefficient {coeff!r} is not an int")
            if coeff:
                key = degree
                for e in exps:
                    key = (key << FIELD_BITS) | e
                clean[key] = coeff
        object.__setattr__(self, "n_points", n_points)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors

    @classmethod
    def _raw(cls, n_points: int, terms: dict) -> "MultiPoly":
        out = object.__new__(cls)
        object.__setattr__(out, "n_points", n_points)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def zero(cls, n_points: int) -> "MultiPoly":
        return cls._raw(n_points, {})

    @classmethod
    def constant(cls, n_points: int, c: int) -> "MultiPoly":
        return cls(n_points, {(0,) * (2 * n_points): c})

    @classmethod
    def one(cls, n_points: int) -> "MultiPoly":
        return cls.constant(n_points, 1)

    @classmethod
    def var_a(cls, n_points: int, i: int) -> "MultiPoly":
        """The variable a_i, 1-based."""
        return cls._var(n_points, i - 1, i)

    @classmethod
    def var_b(cls, n_points: int, i: int) -> "MultiPoly":
        """The variable b_i, 1-based."""
        return cls._var(n_points, n_points + i - 1, i)

    @classmethod
    def _var(cls, n_points: int, slot: int, i: int) -> "MultiPoly":
        if not 1 <= i <= n_points:
            raise ValueError(f"variable index {i} outside 1..{n_points}")
        width = 2 * n_points
        degree_one = 1 << FIELD_BITS * width
        return cls._raw(
            n_points, {degree_one | 1 << FIELD_BITS * (width - 1 - slot): 1})

    # -- ring structure

    def _check(self, other: "MultiPoly") -> None:
        if self.n_points != other.n_points:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        _add_terms(out, other.terms)
        return MultiPoly._raw(self.n_points, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(
            self.n_points, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        left, right = self.terms, other.terms
        if not left or not right:
            return MultiPoly.zero(self.n_points)
        top = 2 * FIELD_BITS * self.n_points
        if (max(left) >> top) + (max(right) >> top) > MAX_DEGREE:
            raise OverflowError(f"product degree exceeds {MAX_DEGREE}")
        if len(left) < len(right):
            left, right = right, left
        items = left.items()
        out: dict[int, int] = {}
        get = out.get
        for e2, c2 in right.items():
            for e1, c1 in items:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return MultiPoly._raw(
            self.n_points, {e: c for e, c in out.items() if c})

    def relabel(self, perm: Mapping[int, int]) -> "MultiPoly":
        """The image under a_i -> a_perm[i], b_i -> b_perm[i] for the
        1-based points perm moves; perm must permute its own keys, and
        points it omits stay.  Each packed monomial moves its a_i and b_i
        fields to the new point's fields."""
        n = self.n_points
        if set(perm) != set(perm.values()) or not all(
                1 <= i <= n for i in perm):
            raise ValueError(f"not a permutation of points in 1..{n}: "
                             f"{dict(perm)}")
        width = 2 * n
        moves = [(FIELD_BITS * (width - base - i),
                  FIELD_BITS * (width - base - j))
                 for i, j in perm.items() if i != j for base in (0, n)]
        moved = sum(MAX_DEGREE << src for src, _ in moves)
        out = {}
        for key, c in self.terms.items():
            new = key & ~moved
            for src, dst in moves:
                new |= (key >> src & MAX_DEGREE) << dst
            out[new] = c
        return MultiPoly._raw(n, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n_points == other.n_points and self.terms == other.terms

    # -- queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _unpack(self, key: int) -> Exponents:
        width = 2 * self.n_points
        return tuple((key >> FIELD_BITS * (width - 1 - slot)) & MAX_DEGREE
                     for slot in range(width))

    def exponents(self) -> dict[Exponents, int]:
        """The terms with exponent tuples (a_1..a_n, b_1..b_n) as keys."""
        return {self._unpack(key): c for key, c in self.terms.items()}

    # -- printing

    def _var_name(self, slot: int) -> str:
        n = self.n_points
        return f"a{slot + 1}" if slot < n else f"b{slot - n + 1}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms, reverse=True):
            coeff = self.terms[key]
            factors = []
            for slot, e in enumerate(self._unpack(key)):
                if e == 1:
                    factors.append(self._var_name(slot))
                elif e > 1:
                    factors.append(f"{self._var_name(slot)}^{e}")
            if abs(coeff) != 1 or not factors:
                factors.insert(0, str(abs(coeff)))
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"<MultiPoly {self}>"


def _add_terms(acc: dict, terms: Mapping, sign: int = 1) -> None:
    """Add sign * terms into the term dict acc in place, dropping zeros."""
    get = acc.get
    for e, c in terms.items():
        s = get(e, 0) + sign * c
        if s:
            acc[e] = s
        else:
            del acc[e]


def _block_minors(rows: Sequence[Sequence[MultiPoly]], n: int,
                  ring: int) -> dict[int, MultiPoly]:
    """Every maximal minor of a block of rows of width n, keyed by its
    column mask, by the row-by-row minor dynamic program; each minor of
    the next row accumulates its terms in one dict."""
    minors: dict[int, MultiPoly] = {0: MultiPoly.one(ring)}
    for r, row in enumerate(rows):
        nxt: dict[int, dict] = {}
        for mask, minor in minors.items():
            if minor.is_zero:
                continue
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                entry = row[j]
                if entry.is_zero:
                    continue
                sign = -1 if (r + bin(mask & (bit - 1)).count("1")) % 2 else 1
                _add_terms(nxt.setdefault(mask | bit, {}),
                           (minor * entry).terms, sign)
        minors = {mask: MultiPoly._raw(ring, terms)
                  for mask, terms in nxt.items()}
    return minors


def poly_det(rows: Sequence[Sequence[MultiPoly]], split: int = 0) -> MultiPoly:
    """Determinant of a square matrix of polynomials.

    Laplace expansion along the first k = split rows: the minor of
    rows[:k] on the columns S times the minor of rows[k:] on the other
    columns, with sign (-1)^(sum of S + k(k-1)/2) for 0-based columns.  A
    split pays when the two blocks share no variables; at split = 0 this
    is the minor dynamic program over all rows.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if not 0 <= split <= n:
        raise ValueError(f"split {split} outside 0..{n}")
    ring = rows[0][0].n_points
    full = (1 << n) - 1
    bottom = _block_minors(rows[split:], n, ring)
    out: dict[int, int] = {}
    for mask, top in _block_minors(rows[:split], n, ring).items():
        if (full ^ mask) in bottom:
            e = sum(j for j in range(n) if mask >> j & 1) + comb(split, 2)
            _add_terms(out, (top * bottom[full ^ mask]).terms,
                       -1 if e % 2 else 1)
    return MultiPoly._raw(ring, out)

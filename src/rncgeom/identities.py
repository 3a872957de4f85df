"""Symbolic verification of the simplex-vertex bracket factorization and of
the polynomial vanishing of the curve equations on the 2d+2 vertices.

Setting: 2d+2 parameter points split into a first group T1 = {1..d+1} and a
second group T2 = {d+2..2d+2}.  The vertex R_k is the simplex vertex built
from the other d members of k's own group, so its coordinates are
bihomogeneous polynomials in the a_i, b_i.  The central fact is that the
bracket of any d+1 vertices factors completely into 2x2 brackets
|Q_iQ_j| = a_i b_j - a_j b_i:

    |R_{k_1} ... R_{k_{d+1}}| = sign(K) * prod_{i<j in K1} |Q_iQ_j|
                                        * prod_{i<j in K2} |Q_iQ_j|
                                        * prod_{i in T1\\K1, j in T2\\K2} |Q_iQ_j|

with K1 = K cap T1, K2 = K cap T2 and sign(K) = (-1)^(C(|K1|,2)+C(|K2|,2)).
verify_factorization checks this by full expansion.  On top of it, each
curve equation evaluated on the vertices is a difference of two products of
four such brackets, multiplied by the same kernel that evaluates equations
numerically (equations.monomial_products).  The factor route feeds it each
bracket's sign times one distinct prime per 2x2 factor, so two monomials
agree exactly when their signs and factor multisets do; this proves the
difference identically zero without expanding degree-4d(d+1) products.
The expand route feeds it the expanded vertex brackets and serves as a
cross-check where full expansion is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import comb
from typing import Literal

from .curve import linear_product_coeffs
from .equations import BracketEquation, inversion_count, monomial_products
from .errors import MismatchError
from .polynomials import MultiPoly, poly_det


def require_degree(d: int) -> None:
    if d < 2:
        raise ValueError("the construction needs degree at least 2")


def first_group(d: int) -> tuple[int, ...]:
    return tuple(range(1, d + 2))


def second_group(d: int) -> tuple[int, ...]:
    return tuple(range(d + 2, 2 * d + 3))


def group_of(d: int, k: int) -> int:
    if not 1 <= k <= 2 * d + 2:
        raise ValueError(f"label {k} outside 1..{2 * d + 2}")
    return 1 if k <= d + 1 else 2


@dataclass(frozen=True)
class SubsetSplit:
    """A (d+1)-subset K of the 2d+2 labels, remembered with its split
    K1 = K cap T1, K2 = K cap T2."""

    d: int
    members: tuple[int, ...]

    def __post_init__(self):
        require_degree(self.d)
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if len(members) != self.d + 1 or list(members) != sorted(set(members)):
            raise ValueError(f"need a sorted ({self.d + 1})-subset")
        if members[0] < 1 or members[-1] > 2 * self.d + 2:
            raise ValueError(f"labels outside 1..{2 * self.d + 2}")

    @property
    def group1(self) -> tuple[int, ...]:
        return tuple(k for k in self.members if k <= self.d + 1)

    @property
    def group2(self) -> tuple[int, ...]:
        return tuple(k for k in self.members if k > self.d + 1)

    @property
    def absent1(self) -> tuple[int, ...]:
        inside = set(self.members)
        return tuple(k for k in first_group(self.d) if k not in inside)

    @property
    def absent2(self) -> tuple[int, ...]:
        inside = set(self.members)
        return tuple(k for k in second_group(self.d) if k not in inside)


def two_bracket(n_points: int, i: int, j: int) -> MultiPoly:
    """The 2x2 bracket a_i b_j - a_j b_i; zero when i = j."""
    if not (1 <= i <= n_points and 1 <= j <= n_points):
        raise ValueError(f"labels outside 1..{n_points}")
    ai, bi = MultiPoly.var_a(n_points, i), MultiPoly.var_b(n_points, i)
    aj, bj = MultiPoly.var_a(n_points, j), MultiPoly.var_b(n_points, j)
    return ai * bj - aj * bi


@cache
def vertex_polys(d: int, omit: int, side: int) -> tuple[MultiPoly, ...]:
    """Symbolic coordinates of the vertex R_omit.

    With S the chosen side's label set minus omit, coordinate k is
    sum over (d-k)-subsets S' of S of a_{S'} b_{S \\ S'}; equivalently the
    x^(d-k) y^k coefficient of prod_{i in S} (a_i x + b_i y).
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    group = first_group(d) if side == 1 else second_group(d)
    if omit not in group:
        raise ValueError(f"label {omit} is not on side {side}")
    n = 2 * d + 2
    return linear_product_coeffs(
        [(MultiPoly.var_a(n, i), MultiPoly.var_b(n, i))
         for i in group if i != omit],
        MultiPoly.one(n), MultiPoly.zero(n))


def vertex_bracket_poly(d: int, split: SubsetSplit) -> MultiPoly:
    """The bracket of the d+1 vertices R_k, k in the split, fully expanded
    along the group-1 vertex rows (first, as members are sorted), which
    share no variables with the group-2 rows."""
    if split.d != d:
        raise MismatchError("split does not match the degree")
    rows = [vertex_polys(d, k, group_of(d, k)) for k in split.members]
    return poly_det(rows, split=len(split.group1))


def split_sign(split: SubsetSplit) -> int:
    """(-1)^(C(|K1|,2) + C(|K2|,2)) for the split's two halves."""
    e = comb(len(split.group1), 2) + comb(len(split.group2), 2)
    return -1 if e % 2 else 1


def factor_pairs(split: SubsetSplit) -> tuple[tuple[int, int], ...]:
    """The 2x2 bracket factors of the vertex bracket, as ordered pairs
    (i, j) with i < j: all pairs inside each present half, plus all cross
    pairs of absentees."""
    pairs = list(combinations(split.group1, 2))
    pairs += list(combinations(split.group2, 2))
    pairs += [(i, j) for i, j in product(split.absent1, split.absent2)]
    return tuple(pairs)


def factored_bracket(d: int, split: SubsetSplit) -> MultiPoly:
    """The factored form of the vertex bracket, expanded for comparison."""
    if split.d != d:
        raise MismatchError("split does not match the degree")
    n = 2 * d + 2
    out = MultiPoly.constant(n, split_sign(split))
    for i, j in factor_pairs(split):
        out = out * two_bracket(n, i, j)
    return out


def verify_factorization(split: SubsetSplit) -> bool:
    """Whether the vertex bracket equals its predicted factorization,
    checked by full expansion."""
    d = split.d
    return (vertex_bracket_poly(d, split) - factored_bracket(d, split)).is_zero


def factorization_record(split: SubsetSplit, ok: bool) -> dict:
    return {"kind": "factorization", "d": split.d,
            "K": list(split.members), "ok": ok}


# ---------------------------------------------------------------------------
# the equation-level identity


def _require_symbolic(eq: BracketEquation) -> int:
    d = eq.dim
    if eq.n_points != 2 * d + 2:
        raise MismatchError(
            f"symbolic verification needs n = {2 * d + 2}, got {eq.n_points}")
    return d


def _primes(count: int) -> list[int]:
    out: list[int] = []
    k = 2
    while len(out) < count:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out


class _FactorCodes(dict):
    """Each sorted (d+1)-subset K of the labels mapped to its factored
    vertex bracket, encoded as split_sign(K) times one distinct prime per
    2x2 factor |Q_iQ_j| in factor_pairs(K).  By unique factorization two
    products of these agree exactly when their signs and factor multisets
    do.  Codes are filled on first lookup, so a sample reads only the
    subsets its equations touch."""

    def __init__(self, d: int):
        super().__init__()
        n = 2 * d + 2
        self.d = d
        self.prime = dict(zip(combinations(range(1, n + 1), 2),
                              _primes(comb(n, 2))))

    def __missing__(self, members: tuple[int, ...]) -> int:
        split = SubsetSplit(self.d, members)
        value = split_sign(split)
        for pair in factor_pairs(split):
            value *= self.prime[pair]
        self[members] = value
        return value


@cache
def _factor_table(d: int) -> _FactorCodes:
    return _FactorCodes(d)


def verify_equation_identity(
        eq: BracketEquation,
        method: Literal["auto", "factors", "expand"] = "auto") -> bool:
    """Whether the equation, evaluated on the symbolic vertices, is the
    zero polynomial.

    Both routes multiply the monomials' sorted brackets with
    equations.monomial_products; sorting costs no sign, since each
    monomial's written column orders have even total parity.  The factor
    route compares the two monomials' signs and factor multisets; it is
    sound given the bracket factorization, which verify_factorization
    establishes by expansion.  The expand route multiplies out both
    monomials and compares; degree 4d(d+1) makes it infeasible much beyond
    d = 2, where it serves as an independent guard of the factor route
    itself.  All of d = 3 takes about a minute; d >= 4 is refused, as one
    d = 4 identity ran past 10 minutes and 3.4 GB.
    """
    d = _require_symbolic(eq)
    if method == "expand" and d >= 4:
        raise ValueError(f"the expand route is limited to d <= 3, got {d}")
    if method == "auto":
        method = "expand" if d == 2 else "factors"
    if method == "factors":
        minor = _factor_table(d).__getitem__
    elif method == "expand":
        def minor(cols):
            return vertex_bracket_poly(d, SubsetSplit(d, cols))
    else:
        raise ValueError(f"unknown method {method!r}")
    [(_, _, n1, n2)] = monomial_products(minor, d, [(eq.support, eq.sextet)])
    return n1 == n2


def identity_record(eq: BracketEquation, ok: bool) -> dict:
    return {"kind": "psi-identity", "d": eq.dim,
            "J": list(eq.support), "I": list(eq.sextet), "ok": ok}


# ---------------------------------------------------------------------------
# parity bookkeeping behind the factor route


@dataclass(frozen=True)
class SignAnalysis:
    """The combinatorial facts that make the two monomials agree in sign.

    parity sums: the summed column-permutation parities of each monomial's
    four brackets, always even.  The split signs then match case by case
    according to how the sextet distributes over the two groups; m3_* hold
    the closed forms of the balanced case (sextet_in_first = 3), where p is
    the number of shared labels in the first group.
    """

    sextet_in_first: int
    parity_sum_1: int
    parity_sum_2: int
    signs_1: tuple[int, int, int, int]
    signs_2: tuple[int, int, int, int]
    case_ok: bool
    total_sign_1: int
    total_sign_2: int

    @property
    def ok(self) -> bool:
        return (self.parity_sum_1 == 0 and self.parity_sum_2 == 0
                and self.case_ok
                and self.total_sign_1 == self.total_sign_2)


def _case_sign(k1: int, k2: int) -> int:
    return -1 if (comb(k1, 2) + comb(k2, 2)) % 2 else 1


def equation_sign_analysis(eq: BracketEquation) -> SignAnalysis:
    """Check the parity and sign-case structure of one symbolic equation."""
    d = _require_symbolic(eq)
    first, second = eq.monomial_columns()
    par1 = sum(inversion_count(cols) for cols in first) % 2
    par2 = sum(inversion_count(cols) for cols in second) % 2
    signs1 = tuple(
        split_sign(SubsetSplit(d, tuple(sorted(cols)))) for cols in first)
    signs2 = tuple(
        split_sign(SubsetSplit(d, tuple(sorted(cols)))) for cols in second)
    m = sum(1 for i in eq.sextet if i <= d + 1)
    if m in (0, 6):
        case_ok = len(set(signs1) | set(signs2)) == 1
    elif m == 3:
        p = sum(1 for j in eq.shared if j <= d + 1)
        case_ok = (
            signs1[0] == _case_sign(p, d + 1 - p)
            and signs1[1] == signs1[2] == signs1[3]
            == _case_sign(p + 2, d - 1 - p)
            and signs2[0] == signs2[1] == signs2[2]
            == _case_sign(p + 1, d - p)
            and signs2[3] == _case_sign(p + 3, d - 2 - p))
    else:
        case_ok = all(s1 == s2 for s1, s2 in zip(signs1, signs2))
    total1 = (1 if par1 == 0 else -1)
    for s in signs1:
        total1 *= s
    total2 = (1 if par2 == 0 else -1)
    for s in signs2:
        total2 *= s
    return SignAnalysis(
        sextet_in_first=m, parity_sum_1=par1, parity_sum_2=par2,
        signs_1=signs1, signs_2=signs2, case_ok=case_ok,
        total_sign_1=total1, total_sign_2=total2)

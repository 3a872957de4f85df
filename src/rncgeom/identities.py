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
verify_factorization checks this by full expansion; FactorizationProofs
proves it by divisibility, from two facts about each vertex row and one
table of the rows' integer minors.  On top of it, each curve equation
evaluated on the vertices is a difference of two products of four such
brackets, multiplied by the same kernel that evaluates equations
numerically (equations.support_products).  The factor route feeds it each
bracket's sign times one distinct prime per 2x2 factor, so two monomials
agree exactly when their signs and factor multisets do; this proves the
difference identically zero without expanding degree-4d(d+1) products.
The expand route feeds it the expanded vertex brackets and serves as a
cross-check where full expansion is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, count, islice, product
from math import comb, prod
from operator import add
from typing import Callable, Literal, Sequence

from .curve import linear_product_coeffs
from .equations import BracketEquation, inversion_count, support_products
from .errors import MismatchError
from .fields import is_prime
from .polynomials import MultiPoly, poly_det
from .projective import BracketTable


def require_degree(d: int) -> None:
    if d < 2:
        raise ValueError("the construction needs degree at least 2")


def first_group(d: int) -> tuple[int, ...]:
    return tuple(range(1, d + 2))


def second_group(d: int) -> tuple[int, ...]:
    return tuple(range(d + 2, 2 * d + 3))


def group_others(d: int, k: int) -> tuple[int, ...]:
    """The labels of k's group other than k: the parameters of R_k."""
    if not 1 <= k <= 2 * d + 2:
        raise ValueError(f"label {k} outside 1..{2 * d + 2}")
    group = first_group(d) if k <= d + 1 else second_group(d)
    return tuple(i for i in group if i != k)


@dataclass(frozen=True)
class SubsetSplit:
    """A (d+1)-subset K of the 2d+2 labels, remembered with its split
    K1 = K cap T1 (group1), K2 = K cap T2 (group2) and the labels absent
    from each group (absent1, absent2).  The halves are worked out once,
    on construction; ==, hash and repr see only (d, members)."""

    d: int
    members: tuple[int, ...]

    def __post_init__(self):
        require_degree(self.d)
        d, members = self.d, tuple(self.members)
        if len(members) != d + 1 or list(members) != sorted(set(members)):
            raise ValueError(f"need a sorted ({d + 1})-subset")
        if members[0] < 1 or members[-1] > 2 * d + 2:
            raise ValueError(f"labels outside 1..{2 * d + 2}")
        inside = set(members)
        group1 = tuple(k for k in members if k <= d + 1)
        vars(self).update(
            members=members, group1=group1, group2=members[len(group1):],
            absent1=tuple(k for k in first_group(d) if k not in inside),
            absent2=tuple(k for k in second_group(d) if k not in inside))


def two_bracket(n_points: int, i: int, j: int) -> MultiPoly:
    """The 2x2 bracket a_i b_j - a_j b_i; zero when i = j."""
    if not (1 <= i <= n_points and 1 <= j <= n_points):
        raise ValueError(f"labels outside 1..{n_points}")
    ai, bi = MultiPoly.var_a(n_points, i), MultiPoly.var_b(n_points, i)
    aj, bj = MultiPoly.var_a(n_points, j), MultiPoly.var_b(n_points, j)
    return ai * bj - aj * bi


@cache
def vertex_polys(d: int, omit: int) -> tuple[MultiPoly, ...]:
    """Symbolic coordinates of the vertex R_omit.

    With S the label set of omit's group minus omit, coordinate k is
    sum over (d-k)-subsets S' of S of a_{S'} b_{S \\ S'}; equivalently the
    x^(d-k) y^k coefficient of prod_{i in S} (a_i x + b_i y), which
    curve.linear_product_coeffs computes here as in simplex_vertex.
    """
    n = 2 * d + 2
    return linear_product_coeffs(
        [(MultiPoly.var_a(n, i), MultiPoly.var_b(n, i))
         for i in group_others(d, omit)], MultiPoly.one(n))


def vertex_bracket_poly(split: SubsetSplit) -> MultiPoly:
    """The bracket of the d+1 vertices R_k, k in the split, fully expanded
    along the group-1 vertex rows (first, as members are sorted), which
    share no variables with the group-2 rows."""
    rows = [vertex_polys(split.d, k) for k in split.members]
    return poly_det(rows, split=len(split.group1))


def _case_sign(k1: int, k2: int) -> int:
    return -1 if (comb(k1, 2) + comb(k2, 2)) % 2 else 1


def split_sign(split: SubsetSplit) -> int:
    """(-1)^(C(|K1|,2) + C(|K2|,2)) for the split's two halves."""
    return _case_sign(len(split.group1), len(split.group2))


def factor_pairs(split: SubsetSplit) -> tuple[tuple[int, int], ...]:
    """The 2x2 bracket factors of the vertex bracket, as ordered pairs
    (i, j) with i < j: all pairs inside each present half, plus all cross
    pairs of absentees."""
    pairs = list(combinations(split.group1, 2))
    pairs += list(combinations(split.group2, 2))
    pairs += [(i, j) for i, j in product(split.absent1, split.absent2)]
    return tuple(pairs)


def factored_bracket(split: SubsetSplit) -> MultiPoly:
    """The factored form of the vertex bracket, expanded for comparison."""
    n = 2 * split.d + 2
    out = MultiPoly.constant(n, split_sign(split))
    for i, j in factor_pairs(split):
        out = out * two_bracket(n, i, j)
    return out


def verify_factorization(split: SubsetSplit) -> bool:
    """Whether the vertex bracket equals its predicted factorization,
    checked by full expansion."""
    return (vertex_bracket_poly(split) - factored_bracket(split)).is_zero


def _at_point(poly: MultiPoly, xs: Sequence[int]) -> int:
    """The integer value of poly at a_i = xs[i-1], b_i = 1."""
    return sum(c * prod(x ** e for x, e in zip(xs, exps))
               for exps, c in poly.exponents().items())


def _row_facts(d: int, k: int, row: Sequence[MultiPoly]) -> bool:
    """Whether the vertex row R_k passes the shape and osculation facts of
    FactorizationProofs."""
    n = 2 * d + 2
    others = group_others(d, k)
    shape = tuple(int(p in others) for p in range(1, n + 1))
    if len(row) != d + 1 or any(
            tuple(map(add, exps, exps[n:])) != shape
            for entry in row for exps in entry.exponents()):
        return False
    for p in others:
        a, b = MultiPoly.var_a(n, p), MultiPoly.var_b(n, p)
        form, power = MultiPoly.zero(n), MultiPoly.one(n)
        for entry in row:  # Horner: form * b + (-a)^t R_k[t]
            form, power = form * b + power * entry, power * -a
        if not form.is_zero:
            return False
    return True


class FactorizationProofs:
    """verify_factorization's verdicts for the splits of one degree, proved
    by divisibility instead of expansion.

    Each vertex row R_k must pass two facts: shape (each term has degree 1
    in (a_p, b_p) for p in group_others(d, k) and 0 in every other point)
    and osculation (sum_t (-1)^t a_p^t b_p^(d-t) R_k[t] = 0 for those p).
    Then Q_j := Q_i makes the rows of K dependent for each predicted pair
    i < j (two rows of one half share the kernel of d osculating forms;
    with i and j absent from different halves, every row lies on the
    osculating hyperplane at Q_i), so a_i b_j - a_j b_i divides B_K and, by
    degree, B_K = c * the product of the predicted factors.  The integer c
    is read from the determinant of the rows at the fixed point
    Q_i = [i : 1], where every factor i - j is nonzero: table[K], of the
    2d+2 rows there, a row that fails a fact being zero.  By unique
    factorization B_K = F_K exactly when factor_pairs(K) are the predicted
    pairs, unordered, and c is split_sign(K) times their orientation sign.
    A split with a failing row, or with c = 0, reads 0 and falls back to
    expansion; expanded counts those.  A full run fills the table first.
    """

    def __init__(self, d: int):
        self.d = d
        self.expanded = 0
        labels = range(1, 2 * d + 3)  # the a_i of the Q_i = [i : 1]
        rows = [(k, vertex_polys(d, k)) for k in labels]
        self.table = BracketTable([
            [_at_point(p, labels) for p in row] if _row_facts(d, k, row)
            else [0] * (d + 1) for k, row in rows])

    def verify(self, split: SubsetSplit) -> bool:
        if split.d != self.d:
            raise ValueError(f"split of degree {split.d}, not {self.d}")
        value = self.table[split.members]  # c times the factors, at the point
        if value == 0:
            self.expanded += 1
            return verify_factorization(split)
        claimed = factor_pairs(split)
        predicted = [*combinations(split.group1, 2),
                     *combinations(split.group2, 2),
                     *product(split.absent1, split.absent2)]
        if len(claimed) != len(predicted) or {
                1 << i | 1 << j for i, j in claimed} != {
                1 << i | 1 << j for i, j in predicted}:
            return False
        return value == split_sign(split) * prod(i - j for i, j in claimed)


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


def _primes(k: int) -> list[int]:
    """The first k primes."""
    return list(islice(filter(is_prime, count(2)), k))


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


_factor_table = cache(_FactorCodes)


def identity_minor(d: int, method: str = "auto") -> Callable:
    """The vertex brackets a route feeds equations.support_products.

    The factor route ("auto" above d = 2) is sound given the bracket
    factorization, which FactorizationProofs establishes by divisibility.
    The expand route ("auto" at d = 2) multiplies out both monomials of
    degree 4d(d+1), an independent guard of the factor route: all of d = 3
    takes about a minute, and d >= 4 is refused, as one d = 4 identity ran
    past 10 minutes and 3.4 GB.
    """
    if method == "expand" and d >= 4:
        raise ValueError(f"the expand route is limited to d <= 3, got {d}")
    if method == "auto":
        method = "expand" if d == 2 else "factors"
    if method == "factors":
        return _factor_table(d).__getitem__
    if method == "expand":
        return lambda cols: vertex_bracket_poly(SubsetSplit(d, cols))
    raise ValueError(f"unknown method {method!r}")


def verify_equation_identity(
        eq: BracketEquation,
        method: Literal["auto", "factors", "expand"] = "auto") -> bool:
    """Whether the equation, evaluated on the symbolic vertices, is the
    zero polynomial: the two monomials of the method's brackets agree."""
    d = _require_symbolic(eq)
    [(_, [(_, n1, n2)])] = support_products(identity_minor(d, method), d,
                                            [eq.pick])
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
    four brackets, always even.  case_ok: the split signs of the brackets
    match case by case according to how many sextet labels lie in the
    first group, with closed forms in the balanced case of three.  total
    signs: each monomial's parity sign times its four split signs.
    """

    parity_sum_1: int
    parity_sum_2: int
    case_ok: bool
    total_sign_1: int
    total_sign_2: int

    @property
    def ok(self) -> bool:
        return (self.parity_sum_1 == 0 and self.parity_sum_2 == 0
                and self.case_ok
                and self.total_sign_1 == self.total_sign_2)


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
        parity_sum_1=par1, parity_sum_2=par2, case_ok=case_ok,
        total_sign_1=total1, total_sign_2=total2)

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
verify_factorization checks this by full expansion.  FactorizationOrbits
expands one split per orbit of relabellings within the two groups and
carries its verdict to the rest of the orbit by exact renaming.  On top of
it, each curve equation evaluated on the vertices is a difference of two
products of four such brackets, multiplied by the same kernel that
evaluates equations numerically (equations.support_products).  The
factor route feeds it each bracket's sign times one distinct prime per 2x2
factor, so two monomials agree exactly when their signs and factor
multisets do; this proves the difference identically zero without
expanding degree-4d(d+1) products.  The expand route feeds it the expanded
vertex brackets and serves as a cross-check where full expansion is
feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, count, islice, product
from math import comb
from typing import Callable, Literal, Sequence

from .curve import linear_product_coeffs
from .equations import BracketEquation, inversion_count, support_products
from .errors import MismatchError
from .fields import is_prime
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


def group_others(d: int, k: int) -> tuple[int, ...]:
    """The labels of k's group other than k: the parameters of R_k."""
    group = first_group(d) if group_of(d, k) == 1 else second_group(d)
    return tuple(i for i in group if i != k)


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
def vertex_polys(d: int, omit: int) -> tuple[MultiPoly, ...]:
    """Symbolic coordinates of the vertex R_omit.

    With S the label set of omit's group minus omit, coordinate k is
    sum over (d-k)-subsets S' of S of a_{S'} b_{S \\ S'}; equivalently the
    x^(d-k) y^k coefficient of prod_{i in S} (a_i x + b_i y).
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


class FactorizationOrbits:
    """verify_factorization's verdicts for the splits of one degree, by one
    expansion per orbit of Sym(T1) x Sym(T2).

    The orbit of a split K is fixed by m = |K1|; its representative is
    R = T1[:m] + T2[:d+1-m], expanded when a split of that m first comes.
    Take sigma mapping R's present labels onto K's and R's absent labels
    onto K's, in increasing order within each group.  If split_sign(K) ==
    split_sign(R), factor_pairs(K) is sigma applied to factor_pairs(R)
    pair by pair, and every vertex row of R renamed by sigma is the
    matching row of K, then B_K - F_K is B_R - F_R renamed by sigma, so it
    is zero exactly when that is, and K takes R's verdict.  If any of
    these facts fails, K is expanded on its own.

    The row fact is cached per (k, sigma(k)).  That is sound because
    vertex_polys(d, k) is symmetric in the other labels of k's group,
    which is checked once per k on adjacent transpositions; a row that
    fails the check never transports.  The caches belong to one instance,
    so one run; expanded counts its verify_factorization calls.
    """

    def __init__(self, d: int):
        self.d = d
        self.expanded = 0
        self._verdicts: dict[int, bool] = {}
        self._rows: dict[tuple[int, int], bool] = {}
        self._symmetric: dict[int, bool] = {}

    def verify(self, split: SubsetSplit) -> bool:
        if split.d != self.d:
            raise ValueError(f"split of degree {split.d}, not {self.d}")
        d, m = self.d, len(split.group1)
        rep = SubsetSplit(d, first_group(d)[:m] + second_group(d)[:d + 1 - m])
        if split.members != rep.members:
            sigma = dict(zip(
                rep.group1 + rep.absent1 + rep.group2 + rep.absent2,
                split.group1 + split.absent1 + split.group2 + split.absent2))
            if not (split_sign(split) == split_sign(rep)
                    and factor_pairs(split) == tuple(
                        (sigma[i], sigma[j]) for i, j in factor_pairs(rep))
                    and all(self._row_moves(k, sigma) for k in rep.members)):
                return self._expand(split)
        if m not in self._verdicts:
            self._verdicts[m] = self._expand(rep)
        return self._verdicts[m]

    def _expand(self, split: SubsetSplit) -> bool:
        self.expanded += 1
        return verify_factorization(split)

    def _row_moves(self, k: int, sigma: dict[int, int]) -> bool:
        """Whether the row of R_k renamed by sigma is the row of
        R_sigma(k), for every sigma with that image of k."""
        key = (k, sigma[k])
        if key not in self._rows:
            row = vertex_polys(self.d, k)
            self._rows[key] = self._row_symmetric(k, row) and [
                p.relabel(sigma) for p in row] == list(
                vertex_polys(self.d, sigma[k]))
        return self._rows[key]

    def _row_symmetric(self, k: int, row) -> bool:
        if k not in self._symmetric:
            others = group_others(self.d, k)
            self._symmetric[k] = all(
                p.relabel({i: j, j: i}) == p
                for i, j in zip(others, others[1:]) for p in row)
        return self._symmetric[k]


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


@cache
def _factor_table(d: int) -> _FactorCodes:
    return _FactorCodes(d)


def identity_minor(d: int, method: str = "auto") -> Callable:
    """The vertex brackets a route feeds equations.support_products.

    The factor route ("auto" above d = 2) is sound given the bracket
    factorization, which verify_factorization establishes by expansion.
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
                                            [(eq.support, eq.sextet)])
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

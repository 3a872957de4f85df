"""The bracket equations cutting out configurations on rational normal curves.

For n points in P^d, each equation is indexed by a (d+4)-subset J of the
point labels together with a 6-subset I = {i1 < ... < i6} of J.  Writing
j1 < ... < j_{d-2} for J \\ I, the equation is the difference of two
products of four brackets,

    |i4 i5 i6 j...| |i2 i3 i6 j...| |i1 i3 i5 j...| |i1 i2 i4 j...|
  - |i3 i5 i6 j...| |i2 i4 i6 j...| |i1 i4 i5 j...| |i1 i2 i3 j...|

where each bracket is the determinant of the point coordinates taken as
columns in the written order.  A configuration in general linear position
lies on a rational normal curve iff all of these vanish.

Evaluation caches the determinant of each sorted column set, since one
support J shares its brackets across many I; the written-order value is the
cached value times the permutation sign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional, Sequence

from .errors import MismatchError
from .fields import Field, Scalar
from .projective import (
    Configuration,
    bracket,
    bracket_vectors,
    is_general_linear_position,
)

# positions within the sorted 6-subset whose triples make up each monomial
_TRIPLES_FIRST = ((3, 4, 5), (1, 2, 5), (0, 2, 4), (0, 1, 3))
_TRIPLES_SECOND = ((2, 4, 5), (1, 3, 5), (0, 3, 4), (0, 1, 2))


@dataclass(frozen=True)
class BracketEquation:
    """One equation, pinned by ambient data (dim, n_points) and the index
    pair (support J, sextet I)."""

    dim: int
    n_points: int
    support: tuple[int, ...]
    sextet: tuple[int, ...]

    def __post_init__(self):
        d, n = self.dim, self.n_points
        if d < 2:
            raise ValueError("equations need dimension at least 2")
        if n < d + 4:
            raise MismatchError(
                f"equations in P^{d} need at least {d + 4} points, got {n}")
        support = tuple(self.support)
        sextet = tuple(self.sextet)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "sextet", sextet)
        if len(support) != d + 4 or list(support) != sorted(set(support)):
            raise ValueError(f"support must be a sorted ({d + 4})-subset")
        if support[0] < 1 or support[-1] > n:
            raise ValueError("support indices out of range")
        if len(sextet) != 6 or list(sextet) != sorted(set(sextet)):
            raise ValueError("sextet must be a sorted 6-subset")
        if not set(sextet) <= set(support):
            raise ValueError("sextet must be contained in the support")

    @property
    def shared(self) -> tuple[int, ...]:
        """The d-2 labels of the support outside the sextet, increasing."""
        inner = set(self.sextet)
        return tuple(k for k in self.support if k not in inner)

    def monomial_columns(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Column labels of the 4+4 brackets, in written (unsorted) order."""
        shared = self.shared
        first = tuple(
            tuple(self.sextet[p] for p in triple) + shared
            for triple in _TRIPLES_FIRST)
        second = tuple(
            tuple(self.sextet[p] for p in triple) + shared
            for triple in _TRIPLES_SECOND)
        return first, second

    def to_json(self) -> dict:
        return {"J": list(self.support), "I": list(self.sextet)}


def equation_from_json(obj: dict, dim: int, n_points: int) -> BracketEquation:
    return BracketEquation(dim=dim, n_points=n_points,
                           support=tuple(obj["J"]), sextet=tuple(obj["I"]))


# ---------------------------------------------------------------------------
# enumeration


def count_equations(dim: int, n: int) -> int:
    if dim < 2 or n < dim + 4:
        raise MismatchError(f"no equations for dim {dim} with {n} points")
    return comb(n, dim + 4) * comb(dim + 4, 6)


def enumerate_equations(dim: int, n: int) -> Iterator[BracketEquation]:
    """All equations in lexicographic (support, then sextet) order."""
    from itertools import combinations

    if dim < 2 or n < dim + 4:
        raise MismatchError(f"no equations for dim {dim} with {n} points")
    for support in combinations(range(1, n + 1), dim + 4):
        for sextet in combinations(support, 6):
            yield BracketEquation(dim=dim, n_points=n,
                                  support=support, sextet=sextet)


def _unrank_combination(n: int, k: int, r: int) -> tuple[int, ...]:
    """The r-th (0-based, lexicographic) k-subset of {1..n}."""
    out = []
    x = 1
    for slot in range(k, 0, -1):
        while comb(n - x, slot - 1) <= r:
            r -= comb(n - x, slot - 1)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def equation_at(dim: int, n: int, index: int) -> BracketEquation:
    """The equation at a given position of the enumeration order."""
    total = count_equations(dim, n)
    if not 0 <= index < total:
        raise ValueError(f"index {index} outside [0, {total})")
    per_support = comb(dim + 4, 6)
    support = _unrank_combination(n, dim + 4, index // per_support)
    positions = _unrank_combination(dim + 4, 6, index % per_support)
    sextet = tuple(support[p - 1] for p in positions)
    return BracketEquation(dim=dim, n_points=n,
                           support=support, sextet=sextet)


def sample_equations(dim: int, n: int, k: int,
                     seed: int = 0) -> list[BracketEquation]:
    """A seeded uniform sample of k equations, in enumeration order.

    Falls back to the full list when k is not smaller than the total.
    """
    total = count_equations(dim, n)
    if k >= total:
        return list(enumerate_equations(dim, n))
    ranks = sorted(random.Random(seed).sample(range(total), k))
    return [equation_at(dim, n, r) for r in ranks]


# ---------------------------------------------------------------------------
# evaluation


def inversion_count(seq: Sequence[int]) -> int:
    n = len(seq)
    return sum(1 for i in range(n) for j in range(i + 1, n)
               if seq[i] > seq[j])


class BracketTable:
    """Cache of sorted-column brackets for one configuration, and of the
    sorted columns and permutation parity of each written column order."""

    def __init__(self, config: Configuration):
        self.config = config
        self._cache: dict = {}
        self._orders: dict = {}

    def minor(self, cols: tuple[int, ...]) -> Scalar:
        """Bracket of the 1-based sorted column labels."""
        value = self._cache.get(cols)
        if value is None:
            value = bracket([self.config.points[c - 1] for c in cols])
            self._cache[cols] = value
        return value

    def signed(self, cols: tuple[int, ...]) -> Scalar:
        """Bracket with the columns in the written order."""
        order = self._orders.get(cols)
        if order is None:
            order = (tuple(sorted(cols)), inversion_count(cols) % 2)
            self._orders[cols] = order
        value = self.minor(order[0])
        return -value if value and order[1] else value


@dataclass(frozen=True)
class EquationReport:
    """An evaluated equation: both monomials and their difference."""

    equation: BracketEquation
    m1: Scalar
    m2: Scalar
    value: Scalar


def report_to_json(report: EquationReport, field: Field) -> dict:
    return {
        "J": list(report.equation.support),
        "I": list(report.equation.sextet),
        "m1": field.format(report.m1),
        "m2": field.format(report.m2),
        "value": field.format(report.value),
    }


def _check_match(config: Configuration, eq: BracketEquation) -> None:
    if config.dim != eq.dim or len(config) != eq.n_points:
        raise MismatchError(
            f"equation for {eq.n_points} points in P^{eq.dim} does not match "
            f"{len(config)} points in P^{config.dim}")


def evaluate_equation(config: Configuration, eq: BracketEquation,
                      table: Optional[BracketTable] = None) -> EquationReport:
    """Exact value of one equation on the configuration.

    A monomial is zero as soon as one of its brackets is, so evaluation of
    that monomial stops there; the reported value is exact either way.
    """
    _check_match(config, eq)
    if table is None:
        table = BracketTable(config)
    field = config.field
    first, second = eq.monomial_columns()

    def monomial(cols_list):
        total = field.one
        for cols in cols_list:
            v = table.signed(cols)
            if not v:
                return field.zero
            total = total * v
        return total

    m1 = monomial(first)
    m2 = monomial(second)
    return EquationReport(equation=eq, m1=m1, m2=m2, value=m1 - m2)


def evaluate_many(config: Configuration, eqs: Sequence[BracketEquation],
                  table: Optional[BracketTable] = None) -> list[EquationReport]:
    if table is None:
        table = BracketTable(config)
    return [evaluate_equation(config, eq, table) for eq in eqs]


def evaluate_equation_vectors(field: Field, vectors: Sequence[Sequence[Scalar]],
                              eq: BracketEquation) -> EquationReport:
    """Evaluate one equation on raw coordinate vectors, no canonicalization
    and no cache; each bracket is a direct determinant in written column
    order.  Exposed for scale-covariance testing against the cached path.
    """
    if len(vectors) != eq.n_points:
        raise MismatchError("vector count does not match the equation")

    def monomial(cols_list):
        total = field.one
        for cols in cols_list:
            v = bracket_vectors(field, [vectors[c - 1] for c in cols])
            if not v:
                return field.zero
            total = total * v
        return total

    first, second = eq.monomial_columns()
    m1 = monomial(first)
    m2 = monomial(second)
    return EquationReport(equation=eq, m1=m1, m2=m2, value=m1 - m2)


# ---------------------------------------------------------------------------
# membership


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    reports: tuple[EquationReport, ...]


def membership(config: Configuration, sample: Optional[int] = None,
               seed: int = 0) -> MembershipResult:
    """Whether every (or, if sampling, every sampled) equation vanishes.

    Degenerate configurations pass trivially: every bracket of d+1
    dependent points is zero.
    """
    d, n = config.dim, len(config)
    if n < d + 4:
        raise MismatchError(f"membership needs at least {d + 4} points")
    if sample is None:
        eqs = list(enumerate_equations(d, n))
    else:
        eqs = sample_equations(d, n, sample, seed)
    reports = evaluate_many(config, eqs)
    member = all(not r.value for r in reports)
    return MembershipResult(member=member, reports=tuple(reports))


def lies_on_rnc(config: Configuration) -> bool:
    """Whether the points lie on a smooth rational normal curve.

    True iff the configuration is in general linear position and every
    equation vanishes; under the general-position hypothesis this is an
    exact certificate.  Without it no claim is made (degenerate
    configurations satisfy the equations vacuously).
    """
    if len(config) < config.dim + 4:
        raise MismatchError(
            f"need at least {config.dim + 4} points, got {len(config)}")
    if not is_general_linear_position(config):
        return False
    return membership(config).member

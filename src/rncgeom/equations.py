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

Evaluation reads the configuration's integer bracket table, so each sorted
column set is computed once however many equations share it.  Which sorted
column sets an equation needs depends only on where I sits inside J, and
sorting the written columns never changes a monomial's sign; a per-degree
template holds, for each sextet position, the indices of its eight sorted
sets among the C(d+4, d+1) column sets of a support.  A full check walks
the supports once each, reads each support's minors into one list and
multiplies along the template, building no per-equation objects.
Both monomials then are products of plain integers over one common scale:
every sextet label appears twice and every shared label four times in each.
monomial_products is the one place the monomials are multiplied; the
symbolic identities run it over factored or expanded vertex brackets.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import comb, gcd
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import MismatchError
from .fields import Field, Scalar
from .projective import BracketTable, Configuration, is_general_linear_position

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


def _equation(dim: int, n_points: int, support: tuple[int, ...],
              sextet: tuple[int, ...]) -> BracketEquation:
    """An equation whose indices are valid by construction, built without
    the checks of BracketEquation's constructor."""
    eq = object.__new__(BracketEquation)
    object.__setattr__(eq, "dim", dim)
    object.__setattr__(eq, "n_points", n_points)
    object.__setattr__(eq, "support", support)
    object.__setattr__(eq, "sextet", sextet)
    return eq


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
    if dim < 2 or n < dim + 4:
        raise MismatchError(f"no equations for dim {dim} with {n} points")
    for support in combinations(range(1, n + 1), dim + 4):
        for sextet in combinations(support, 6):
            yield _equation(dim, n, support, sextet)


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
    return _equation(dim, n, support, sextet)


def sample_ranks(total: int, k: Optional[int] = None,
                 seed: int = 0) -> Sequence[int]:
    """The ranks 0..total-1 to check: all of them, as a range, when k is
    None or not below total; otherwise a seeded uniform sample of k, in
    increasing order.  The one place any command decides between
    everything and a sample; ranks follow combinations order, so sorted
    picks come out in enumeration order."""
    if k is None or k >= total:
        return range(total)
    if total > sys.maxsize:
        raise ValueError(f"cannot sample from {total} items; "
                         f"at most {sys.maxsize} are supported")
    return sorted(random.Random(seed).sample(range(total), k))


def sample_equations(dim: int, n: int, k: Optional[int] = None,
                     seed: int = 0) -> list[BracketEquation]:
    """Every equation when k is None or not below the total; otherwise a
    seeded uniform sample of k equations, in enumeration order."""
    ranks = sample_ranks(count_equations(dim, n), k, seed)
    if isinstance(ranks, range):
        # one pass of the generator beats unranking each equation
        return list(enumerate_equations(dim, n))
    return [equation_at(dim, n, r) for r in ranks]


# ---------------------------------------------------------------------------
# evaluation


def inversion_count(seq: Sequence[int]) -> int:
    n = len(seq)
    return sum(1 for i in range(n) for j in range(i + 1, n)
               if seq[i] > seq[j])


class _Template(dict):
    """Where each equation's eight brackets sit among its support's.

    ``columns`` picks each sorted (dim+1)-subset of the support's local
    positions 0..dim+3 out of a support tuple, in combinations order.  For
    each sextet I of local positions the template holds a picker for I's
    labels and, per monomial, the indices into ``columns`` of its four
    brackets.  Entries are built on first lookup, so a sample compiles only
    the sextets its equations use; ``every`` holds all of them, in
    enumeration order, for a walk over whole supports.

    Sorting needs no sign: the triples are written in increasing order, and
    a sextet label crosses a smaller shared label in two brackets of each
    monomial, so each monomial's written orders have even total parity.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        local = list(combinations(range(dim + 4), dim + 1))
        self.columns = [itemgetter(*cols) for cols in local]
        self._index = {cols: i for i, cols in enumerate(local)}

    def __missing__(self, sextet: tuple[int, ...]) -> tuple:
        shared = tuple(k for k in range(self.dim + 4) if k not in sextet)
        value = self[sextet] = (itemgetter(*sextet),) + tuple(
            tuple(self._index[tuple(sorted(
                tuple(sextet[p] for p in t) + shared))] for t in triples)
            for triples in (_TRIPLES_FIRST, _TRIPLES_SECOND))
        return value

    @cached_property
    def every(self) -> list[tuple]:
        return [self[s] for s in combinations(range(self.dim + 4), 6)]


@cache
def _template(dim: int) -> _Template:
    return _Template(dim)


def equation_scale(scales: Sequence[int], support: Sequence[int],
                   sextet: Sequence[int]) -> int:
    """The common denominator of both monomials over Q: each bracket is its
    integer over the product of its columns' scales, and in each monomial
    every sextet label appears twice and every shared label four times."""
    whole = inner = 1
    for k in support:
        whole *= scales[k - 1]
    for k in sextet:
        inner *= scales[k - 1]
    return (whole * whole // inner) ** 2


@dataclass(slots=True)
class EquationReport:
    """An evaluated equation: both monomials and their difference.

    Evaluation keeps each monomial as a product n1, n2 of integer brackets
    (reduced mod p over Z/p); m1, m2 and value are field scalars formed
    from them when read.
    """

    equation: BracketEquation
    n1: int
    n2: int
    table: BracketTable
    _scale: Optional[int] = None

    @property
    def nonzero(self) -> bool:
        return self.n1 != self.n2

    def _scalar(self, n: int) -> Scalar:
        table = self.table
        if table.modulus:
            return table.field.from_int(n)
        if not n:
            return Fraction(0)
        if self._scale is None:
            eq = self.equation
            self._scale = equation_scale(table.scales, eq.support, eq.sextet)
        return Fraction(n, self._scale)

    @property
    def m1(self) -> Scalar:
        return self._scalar(self.n1)

    @property
    def m2(self) -> Scalar:
        return self._scalar(self.n2)

    @property
    def value(self) -> Scalar:
        return self._scalar(self.n1 - self.n2)


def report_to_json(report: EquationReport, field: Field) -> dict:
    return {
        "J": list(report.equation.support),
        "I": list(report.equation.sextet),
        "m1": field.format(report.m1),
        "m2": field.format(report.m2),
        "value": field.format(report.value),
    }


def format_ratio(n: int, scale: int) -> str:
    """str(Fraction(n, scale)) for a positive scale, by one gcd."""
    if not n:
        return "0"
    g = gcd(n, scale)
    if g == scale:
        return str(n // g)
    return f"{n // g}/{scale // g}"


def report_line(table: BracketTable, support: Sequence[int],
                sextet: Sequence[int], n1: int, n2: int) -> str:
    """The JSON line json.dumps(report_to_json(...)) gives for the equation
    (support, sextet) with products n1, n2 on the table, with its newline,
    formed straight from the integers."""
    p = table.modulus
    if p:
        m1, m2, value = n1, n2, (n1 - n2) % p
    else:
        scale = (equation_scale(table.scales, support, sextet)
                 if n1 or n2 else 1)
        m1 = format_ratio(n1, scale)
        m2 = m1 if n1 == n2 else format_ratio(n2, scale)
        value = format_ratio(n1 - n2, scale)
    return (f'{{"J": {list(support)}, "I": {list(sextet)}, '
            f'"m1": "{m1}", "m2": "{m2}", "value": "{value}"}}\n')


def check_match(config: Configuration, dim: int, n_points: int) -> None:
    """Refuse a configuration that is not n_points points in P^dim."""
    if config.dim != dim or len(config) != n_points:
        raise MismatchError(
            f"equation for {n_points} points in P^{dim} does not match "
            f"{len(config)} points in P^{config.dim}")


def monomial_products(minor: Callable, dim: int,
                      picks: Iterable[tuple]) -> Iterator[tuple]:
    """(support, sextet, n1, n2) for each equation picked: the products of
    minor(cols) over the sorted column tuples of its first and second
    monomial.

    Each pick is a support and one sextet of it, or the support and None
    for all its sextets in enumeration order.  A whole support reads each
    of its C(dim+4, dim+1) minors once into a local list; one sextet reads
    only its eight.  minor is the bracket kernel's table: integer minors
    for evaluation, factored or expanded symbolic brackets for the
    identities.
    """
    template = _template(dim)
    columns = template.columns
    for support, sextet in picks:
        if sextet is None:
            m = [minor(cols(support)) for cols in columns]
            entries = template.every
        else:
            entry = template[tuple(map(support.index, sextet))]
            m = {i: minor(columns[i](support)) for i in entry[1] + entry[2]}
            entries = (entry,)
        for pick, (a, b, c, e), (f, g, h, k) in entries:
            yield (support, pick(support), m[a] * m[b] * m[c] * m[e],
                   m[f] * m[g] * m[h] * m[k])


def equation_products(config: Configuration, sample: Optional[int] = None,
                      seed: int = 0) -> Iterator[tuple]:
    """(support, sextet, n1, n2) for every equation on the configuration,
    or for a seeded sample of them (as sample_equations picks), in
    enumeration order, n1 and n2 reduced mod p over Z/p.

    A full run walks the supports once each and builds no equation
    objects; a sample reads only the brackets its equations use.  The
    point count is checked here, before the first product is asked for.
    """
    d, n = config.dim, len(config)
    ranks = sample_ranks(count_equations(d, n), sample, seed)
    if isinstance(ranks, range):
        picks = ((support, None)
                 for support in combinations(range(1, n + 1), d + 4))
    else:
        eqs = (equation_at(d, n, r) for r in ranks)
        picks = ((eq.support, eq.sextet) for eq in eqs)
    table = config.bracket_table
    products = monomial_products(table.minor, d, picks)
    p = table.modulus
    if p:
        return ((J, I, n1 % p, n2 % p) for J, I, n1, n2 in products)
    return products


def evaluate_many(config: Configuration,
                  eqs: Sequence[BracketEquation]) -> list[EquationReport]:
    """Exact values of the equations on the configuration, in order, each
    read bracket by bracket: the slow path the streaming evaluation of
    equation_products is pinned against."""
    for eq in eqs:
        check_match(config, eq.dim, eq.n_points)
    table = config.bracket_table
    p = table.modulus
    out = []
    products = monomial_products(
        table.minor, config.dim, ((eq.support, eq.sextet) for eq in eqs))
    for eq, (_, _, n1, n2) in zip(eqs, products):
        if p:
            n1 %= p
            n2 %= p
        out.append(EquationReport(eq, n1, n2, table))
    return out


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
    reports = evaluate_many(config, sample_equations(d, n, sample, seed))
    member = not any(r.nonzero for r in reports)
    return MembershipResult(member=member, reports=tuple(reports))


def lies_on_rnc(config: Configuration) -> bool:
    """Whether the points lie on a smooth rational normal curve.

    True iff the configuration is in general linear position and every
    equation vanishes; under the general-position hypothesis this is an
    exact certificate.  Without it no claim is made (degenerate
    configurations satisfy the equations vacuously).  Both tests read the
    configuration's one bracket table.
    """
    if len(config) < config.dim + 4:
        raise MismatchError(
            f"need at least {config.dim + 4} points, got {len(config)}")
    if not is_general_linear_position(config):
        return False
    return membership(config).member

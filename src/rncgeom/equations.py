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
sets among the C(d+4, d+1) column sets of a support.  The support stream,
support_products, is the one place the monomials are multiplied: it reads
a support's minors once and yields the support with a lazy batch of its
equations' products, so every consumer does its per-support work once.
Over Q both monomials are integers over one common scale: every sextet
label appears twice and every shared label four times in each.  The
symbolic identities run the same stream over their vertex brackets.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, count, repeat
from math import comb, prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import MismatchError, json_int
from .fields import Field, format_ratio
# BracketTable stays importable from here: perfbench/tracing.py reads it
from .projective import BracketTable, Configuration, is_general_linear_position

# positions within the sorted 6-subset whose triples make up each monomial
_TRIPLES_FIRST = ((3, 4, 5), (1, 2, 5), (0, 2, 4), (0, 1, 3))
_TRIPLES_SECOND = ((2, 4, 5), (1, 3, 5), (0, 3, 4), (0, 1, 2))


def _monomial_columns(sextet: Sequence, shared: tuple) -> tuple:
    """Both monomials' bracket columns, in written order: each triple of
    sextet positions, then the shared labels."""
    return tuple(tuple(tuple(sextet[p] for p in t) + shared for t in triples)
                 for triples in (_TRIPLES_FIRST, _TRIPLES_SECOND))


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
        return _monomial_columns(self.sextet, self.shared)

    @property
    def pick(self) -> tuple[tuple[int, ...], int]:
        """This equation's support_products pick: (support, sextet rank)."""
        local = tuple(map(self.support.index, self.sextet))
        return self.support, _template(self.dim).rank[local]

    def to_json(self) -> dict:
        return {"J": list(self.support), "I": list(self.sextet)}


def _equation(dim: int, n_points: int, support: tuple[int, ...],
              sextet: tuple[int, ...]) -> BracketEquation:
    """An equation whose indices are valid by construction, built without
    the checks of BracketEquation's constructor."""
    eq = object.__new__(BracketEquation)
    vars(eq).update(dim=dim, n_points=n_points, support=support, sextet=sextet)
    return eq


def equation_from_json(obj: dict, dim: int, n_points: int) -> BracketEquation:
    return BracketEquation(
        dim=dim, n_points=n_points,
        support=tuple(json_int(k, "J label") for k in obj["J"]),
        sextet=tuple(json_int(k, "I label") for k in obj["I"]))


# ---------------------------------------------------------------------------
# enumeration


def count_equations(dim: int, n: int) -> int:
    if dim < 2 or n < dim + 4:
        raise MismatchError(f"no equations for dim {dim} with {n} points")
    return comb(n, dim + 4) * comb(dim + 4, 6)


def enumerate_equations(dim: int, n: int) -> Iterator[BracketEquation]:
    """All equations in lexicographic (support, then sextet) order."""
    count_equations(dim, n)
    for support in combinations(range(1, n + 1), dim + 4):
        for sextet in combinations(support, 6):
            yield _equation(dim, n, support, sextet)


def _unrank_combination(n: int, k: int, r: int) -> tuple[int, ...]:
    """The r-th (0-based, lexicographic) k-subset of {1..n}."""
    out = []
    x = 1
    for slot in range(k, 0, -1):
        while r >= (skip := comb(n - x, slot - 1)):
            r -= skip
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def sample_ranks(total: int, k: Optional[int] = None,
                 seed: int = 0) -> Optional[list[int]]:
    """The ranks among 0..total-1 to check: None, for all of them, when k
    is None or not below total; otherwise a seeded uniform sample of k, in
    increasing order.  The one place any command decides between
    everything and a sample; ranks follow combinations order, so sorted
    picks come out in enumeration order."""
    if k is None or k >= total:
        return None
    if total > sys.maxsize:
        raise ValueError(f"cannot sample from {total} items; "
                         f"at most {sys.maxsize} are supported")
    return sorted(random.Random(seed).sample(range(total), k))


def sample_equations(dim: int, n: int, k: Optional[int] = None,
                     seed: int = 0) -> list[BracketEquation]:
    """The equations of equation_picks: every equation when k is None or
    not below the total; otherwise a seeded uniform sample of k equations,
    in enumeration order."""
    return [_equation(dim, n, support, sextet)
            for support, i in equation_picks(dim, n, k, seed)
            for sextet in (combinations(support, 6) if i is None
                           else (_template(dim)[i][0](support),))]


# ---------------------------------------------------------------------------
# evaluation


def inversion_count(seq: Sequence[int]) -> int:
    n = len(seq)
    return sum(1 for i in range(n) for j in range(i + 1, n)
               if seq[i] > seq[j])


class _Template(dict):
    """Where each equation's eight brackets sit among its support's.

    ``columns`` picks each sorted (dim+1)-subset of the support's local
    positions 0..dim+3 out of a support tuple, in combinations order.  Entry
    i, for the i-th sextet I of local positions in that order, holds a
    picker for I's labels and, per monomial, the indices into ``columns``
    of its four brackets; ``rank`` maps I back to i.  Entries are built on
    first lookup, so a sample compiles only the sextets its equations use;
    ``every`` holds all of them, in order, for a walk over whole supports.

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

    def __missing__(self, i: int) -> tuple:
        sextet = [k - 1 for k in _unrank_combination(self.dim + 4, 6, i)]
        shared = tuple(k for k in range(self.dim + 4) if k not in sextet)
        value = self[i] = (itemgetter(*sextet),) + tuple(
            tuple(self._index[tuple(sorted(cols))] for cols in monomial)
            for monomial in _monomial_columns(sextet, shared))
        return value

    @cached_property
    def every(self) -> list[tuple]:
        return [self[i] for i in range(comb(self.dim + 4, 6))]

    @cached_property
    def rank(self) -> dict[tuple[int, ...], int]:
        return dict(zip(combinations(range(self.dim + 4), 6), count()))


_template = cache(_Template)


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
    config: Configuration
    _scale: Optional[int] = None

    @property
    def nonzero(self) -> bool:
        return self.n1 != self.n2

    def _scalar(self, n: int) -> Fraction | int:
        field = self.config.field
        if field.characteristic:
            return field.scalar(n)
        if not n:
            return Fraction(0)
        if self._scale is None:
            # the common denominator of both monomials (module docstring)
            eq, points = self.equation, self.config.points
            scale = {k: points[k - 1].scale for k in eq.support}
            self._scale = (prod(scale.values()) ** 2
                           // prod(map(scale.get, eq.sextet))) ** 2
        return Fraction(n, self._scale)

    @property
    def m1(self) -> Fraction | int:
        return self._scalar(self.n1)

    @property
    def m2(self) -> Fraction | int:
        return self._scalar(self.n2)

    @property
    def value(self) -> Fraction | int:
        return self._scalar(self.n1 - self.n2)


def report_to_json(report: EquationReport, field: Field) -> dict:
    # both fields' scalars print as str; the field stays in the signature
    # that perfbench/workloads.py calls
    return {
        "J": list(report.equation.support),
        "I": list(report.equation.sextet),
        "m1": str(report.m1),
        "m2": str(report.m2),
        "value": str(report.value),
    }


def report_lines(config: Configuration, support: Sequence[int],
                 rows: Iterable[tuple]) -> tuple[list[str], int]:
    """The check-psi lines of one support's rows, each the JSON line
    json.dumps(report_to_json(...)) gives with its newline, formed straight
    from the integers; and how many rows are nonzero."""
    head = f'{{"J": {list(support)}, "I": ['
    labels = [str(k) for k in support]
    p = config.field.characteristic
    scales = [config.points[k - 1].scale for k in support]
    whole = prod(scales) ** 2
    lines, nonzero = [], 0
    for pick, n1, n2 in rows:
        if p:
            m1, m2, value = n1, n2, (n1 - n2) % p
        else:
            scale = (whole // prod(pick(scales))) ** 2
            m1 = format_ratio(n1, scale)
            m2 = m1 if n1 == n2 else format_ratio(n2, scale)
            value = format_ratio(n1 - n2, scale)
        nonzero += n1 != n2
        lines.append(f'{head}{", ".join(pick(labels))}], "m1": "{m1}", '
                     f'"m2": "{m2}", "value": "{value}"}}\n')
    return lines, nonzero


def support_products(minor: Callable, dim: int, picks: Iterable[tuple],
                     modulus: int = 0) -> Iterator[tuple]:
    """The support stream: (support, rows) once per pick, a support and
    the rank i of one of its sextets, or the support and None for all of
    them.  rows lazily yields (pick, n1, n2) per equation, in enumeration
    order: pick is the template's itemgetter of the sextet's positions, so
    it applies to the support or any sequence as long (labels, scales); n1,
    n2 are the products of minor(sorted cols) over each monomial, reduced
    mod a nonzero modulus.  A whole support reads its C(dim+4, dim+1)
    minors once, one sextet only its eight; a row's products form when it
    is drawn, so an expanded pair can be freed before the next one forms."""
    template = _template(dim)
    columns = template.columns
    for support, i in picks:
        if i is None:
            m = [minor(cols(support)) for cols in columns]
            entries = template.every
        else:
            entry = template[i]
            m = {c: minor(columns[c](support)) for c in entry[1] + entry[2]}
            entries = (entry,)
        yield support, _rows(m, entries, modulus)


def _rows(m, entries: Iterable[tuple], p: int) -> Iterator[tuple]:
    # no local holds a row's products, so a drawn pair is the consumer's
    for pick, (a, b, c, e), (f, g, h, k) in entries:
        if p:
            yield (pick, m[a] * m[b] * m[c] * m[e] % p,
                   m[f] * m[g] * m[h] * m[k] % p)
        else:
            yield pick, m[a] * m[b] * m[c] * m[e], m[f] * m[g] * m[h] * m[k]


def equation_picks(dim: int, n: int, sample: Optional[int] = None,
                   seed: int = 0) -> Iterator[tuple]:
    """The support_products picks: each support once with None, or for a
    seeded sample one (support, i) per equation, its rank split by divmod
    into the support's and the sextet's; checked before the first pick."""
    return _picks(dim, n, sample_ranks(count_equations(dim, n), sample, seed))


def _picks(dim: int, n: int, ranks: Optional[list[int]]) -> Iterator[tuple]:
    if ranks is None:
        return ((support, None)
                for support in combinations(range(1, n + 1), dim + 4))
    return ((_unrank_combination(n, dim + 4, j), i)
            for j, i in map(divmod, ranks, repeat(comb(dim + 4, 6))))


def equation_products(config: Configuration, sample: Optional[int] = None,
                      seed: int = 0) -> Iterator[tuple]:
    """The support stream of the equation_picks on the configuration's
    bracket table, reduced mod p over Z/p.  Every equation reads every
    bracket, so that run fills the table first by its shared walk; a
    sample reads only the brackets its equations use, one by one."""
    dim, n = config.dim, len(config)
    ranks = sample_ranks(count_equations(dim, n), sample, seed)
    table = config.bracket_table
    table = table.fill() if ranks is None else table
    return support_products(table.minor, dim, _picks(dim, n, ranks),
                            table.modulus)


def evaluate_many(config: Configuration,
                  eqs: Sequence[BracketEquation]) -> list[EquationReport]:
    """Exact values of the equations on the configuration, in order, each
    read bracket by bracket: the slow path the streaming evaluation of
    equation_products is pinned against."""
    for eq in eqs:
        if eq.dim != config.dim or eq.n_points != len(config):
            raise MismatchError(
                f"equation for {eq.n_points} points in P^{eq.dim} does not "
                f"match {len(config)} points in P^{config.dim}")
    table = config.bracket_table
    stream = support_products(table.minor, config.dim,
                              (eq.pick for eq in eqs), table.modulus)
    return [EquationReport(eq, n1, n2, config)
            for eq, (_, [(_, n1, n2)]) in zip(eqs, stream)]


# ---------------------------------------------------------------------------
# membership


@dataclass(frozen=True)
class MembershipResult:
    member: bool


def membership(config: Configuration) -> MembershipResult:
    """Whether every equation vanishes, stopping at the first that does
    not.  Degenerate configurations pass trivially: every bracket of d+1
    dependent points is zero."""
    return MembershipResult(member=all(
        n1 == n2 for _, rows in equation_products(config)
        for _, n1, n2 in rows))


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
    return is_general_linear_position(config) and membership(config).member

"""Projective points, configurations and exact linear algebra.

Homogeneous coordinates are stored canonically: scaled so the first nonzero
coordinate is 1.  Equality and hashing act on canonical tuples, so two points
given by proportional coordinate vectors compare equal.  The one point type
serves every projective space in the package: parameters are points of P^1,
and a hyperplane of P^d is the point of the dual P^d given by its
coefficient vector.

Linear algebra is exact and has one integer kernel for both fields: each
point caches an integer representative (over Q its primitive vector, over
Z/p its residues), a bracket is the integer determinant of those
(fraction-free Bareiss elimination) divided by the points' scales over Q or
reduced mod p, and the full-rank test of a few points reads minors of the
same vectors.  Every family of maximal minors of one integer matrix is a
BracketTable, a dict keyed by sorted row labels, so each minor is computed
once however often it is read: a configuration keeps one of its points'
brackets for the general-position test and the bracket equations.  A
reader of every minor (the general-position test, a run over every
equation) fills the whole table by one Bareiss walk that shares each
prefix's elimination among all the subsets extending it; a minor read
before that is computed when it is missing, one determinant apiece.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from math import gcd, lcm, prod
from operator import add
from typing import Sequence

from .errors import MismatchError, json_int, malformed_input
from .fields import Field, PrimeField, Scalar, field_from_json, field_to_json


def canonical_coords(coords: Sequence[Scalar], field: Field) -> tuple:
    """Scale so the first nonzero coordinate is 1; reject the zero vector."""
    vals = tuple(field.scalar(c) for c in coords)
    for v in vals:
        if v:
            return tuple(x / v for x in vals)
    raise ValueError("zero vector has no projective class")


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of projective d-space, canonical homogeneous coordinates."""

    coords: tuple
    field: Field

    def __post_init__(self):
        object.__setattr__(
            self, "coords", canonical_coords(self.coords, self.field))

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    @cached_property
    def primitive(self) -> tuple[tuple[int, ...], int]:
        """Integer representative and its integer scale.

        Over the rationals ints[i] == coords[i]*scale, the vector has content
        1 and positive first nonzero entry, and the scale is that entry (the
        canonical first nonzero coordinate is 1).  Over Z/p the
        representative is the residues' least nonnegative values and the
        scale is 1.  BracketTable divides out the scales afterwards.
        """
        if isinstance(self.field, PrimeField):
            return tuple(c.value for c in self.coords), 1
        dens = lcm(*(c.denominator for c in self.coords))
        ints = [int(c * dens) for c in self.coords]
        g = gcd(*ints)
        return tuple(v // g for v in ints), dens // g

    def __repr__(self) -> str:
        inner = ":".join(str(c) for c in self.coords)
        return f"[{inner}]"


@dataclass(frozen=True)
class Configuration:
    """An ordered tuple of points sharing one field and ambient dimension."""

    field: Field
    dim: int
    points: tuple[ProjectivePoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        for p in self.points:
            if p.field != self.field:
                raise MismatchError("configuration mixes fields")
            if p.dim != self.dim:
                raise MismatchError(
                    f"point in P^{p.dim} inside a P^{self.dim} configuration")

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def bracket_table(self) -> "BracketTable":
        """The integer brackets of these points, computed as they are read
        or all at once by its fill()."""
        return BracketTable([p.primitive[0] for p in self.points],
                            self.field.characteristic)


# ---------------------------------------------------------------------------
# determinants


def _det_int(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (rows may be tuples) by
    fraction-free Bareiss elimination; the empty matrix has determinant 1."""
    n = len(m)
    if not n:
        return 1
    m = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _maximal_minors(vectors: Sequence[Sequence[int]],
                    modulus: int = 0) -> dict:
    """Every maximal minor of the integer vectors, keyed by sorted 1-based
    labels: _det_int of the labelled vectors as rows, reduced mod a
    nonzero modulus.

    One fraction-free Bareiss walk over the combinations tree.  After k
    steps a row's reduced form depends only on the k pivot rows and on the
    row itself, so each prefix eliminates once for every subset extending
    it.  The pivot column is the pivot row's first nonzero entry, the sign
    following the column moved to the front; a pivot row that is all zero
    is dependent on its prefix, which zeroes its whole subtree.  The tree
    is walked by an explicit stack, never by recursion.
    """
    n = len(vectors)
    size = len(vectors[0]) if n else 0
    out: dict = {}
    if not size or size > n:
        return out
    # (prefix labels, sign, previous pivot, [(label, reduced row)] after it)
    stack = [((), 1, 1, [(k, list(v)) for k, v in enumerate(vectors, 1)])]
    while stack:
        prefix, sign, prev, rows = stack.pop()
        left = size - len(prefix)   # labels still to pick, at least 1
        if left == 1:
            for label, row in rows:
                value = sign * row[0]
                out[prefix + (label,)] = value % modulus if modulus else value
            continue
        children = []
        for at in range(len(rows) - left + 1):
            label, row = rows[at]
            head = prefix + (label,)
            q = next((c for c, x in enumerate(row) if x), None)
            if q is None:
                for rest in combinations([k for k, _ in rows[at + 1:]],
                                         left - 1):
                    out[head + rest] = 0
                continue
            pivot = row.pop(q)
            sgn = -sign if q & 1 else sign
            if left == 2:   # one column stays: the reduced entries are leaves
                (other,) = row
                for k, r in rows[at + 1:]:
                    value = sgn * ((pivot * r[1 - q] - r[q] * other) // prev)
                    out[head + (k,)] = value % modulus if modulus else value
                continue
            reduced = []
            for k, r in rows[at + 1:]:
                x = r[q]
                r = r[:q] + r[q + 1:]
                reduced.append((k, [(pivot * a - x * b) // prev
                                    for a, b in zip(r, row)]))
            children.append((head, sgn, pivot, reduced))
        stack.extend(reversed(children))
    return out


def bracket(points: Sequence[ProjectivePoint]) -> Scalar:
    """Bracket of d+1 points of P^d: the determinant of their canonical
    coordinates as columns.  Zero iff the points fail to span.  Computed
    from the points' integer representatives, as in BracketTable.
    """
    if not points:
        raise ValueError("bracket of no points")
    field = points[0].field
    d = points[0].dim
    for p in points:
        if p.field != field or p.dim != d:
            raise MismatchError("bracket mixes fields or dimensions")
    if len(points) != d + 1:
        raise MismatchError(
            f"bracket in P^{d} needs {d + 1} points, got {len(points)}")
    # a determinant is unchanged by transposition
    reps = [p.primitive for p in points]
    value = _det_int([vec for vec, _ in reps])
    if field.characteristic:
        return field.from_int(value)
    return Fraction(value, prod(scale for _, scale in reps))


class BracketTable(dict):
    """The maximal minors of one integer matrix, each computed once.

    A dict keyed by sorted 1-based row labels: table[cols], or its named
    read minor(cols), is _det_int of the labelled vectors as rows, reduced
    mod a nonzero modulus.  A configuration holds the table of its points'
    integer representatives (``Configuration.bracket_table``), so the
    general-position test and every bracket equation share it.

    A missing minor is computed on its own by _det_int, as a sample wants.
    fill() computes every minor at once by the prefix-shared walk of
    _maximal_minors, as a reader of every minor wants.
    """

    def __init__(self, vectors: Sequence[Sequence[int]], modulus: int = 0):
        super().__init__()
        self.vectors = vectors
        self.modulus = modulus
        self._filled = False

    def __missing__(self, cols: tuple[int, ...]) -> int:
        value = _det_int([self.vectors[c - 1] for c in cols])
        value = self[cols] = value % self.modulus if self.modulus else value
        return value

    minor = dict.__getitem__

    def fill(self) -> "BracketTable":
        """The table holding every maximal minor, filled in place on the
        first call."""
        if not self._filled:
            self.update(_maximal_minors(self.vectors, self.modulus))
            self._filled = True
        return self


def mat_vec(m: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> list:
    return [reduce(add, (a * x for a, x in zip(row, v))) for row in m]


# ---------------------------------------------------------------------------
# position predicates


def is_general_linear_position(config: Configuration) -> bool:
    """Whether every subset of at most d+1 points spans projectively.

    For n <= d+1 this is full rank: some n x n minor of the points' integer
    representatives is nonzero (mod p over Z/p), read from a table of their
    d+1 coordinate rows up to the first nonzero one.  For larger n it is
    equivalent to every (d+1)-subset having nonzero bracket, since any
    dependent subset extends to a dependent one of size d+1; those are
    read from the configuration's bracket table, filled whole.
    """
    n = len(config)
    d = config.dim
    if n <= d + 1:
        rows = BracketTable(list(zip(*(pt.primitive[0]
                                       for pt in config.points))),
                            config.field.characteristic)
        return any(map(rows.__getitem__, combinations(range(1, d + 2), n)))
    return all(config.bracket_table.fill().values())


# ---------------------------------------------------------------------------
# serialization


def points_to_json(points: Sequence[ProjectivePoint]) -> list:
    """Rows of canonical coordinate strings, one per point."""
    return [[p.field.format(c) for c in p.coords] for p in points]


def points_from_json(rows, field: Field) -> tuple[ProjectivePoint, ...]:
    """The points written by points_to_json, in any dimension."""
    if not (isinstance(rows, list) and all(type(r) is list for r in rows)):
        raise TypeError("points must be a JSON list of coordinate lists")
    return tuple(ProjectivePoint(tuple(field.parse(c) for c in row), field)
                 for row in rows)


def config_to_json(config: Configuration) -> dict:
    return {
        "field": field_to_json(config.field),
        "dim": config.dim,
        "points": points_to_json(config.points),
    }


def config_from_json(obj: dict) -> Configuration:
    with malformed_input("configuration"):
        field = field_from_json(obj["field"])
        dim = json_int(obj["dim"], "dim")
        points = points_from_json(obj["points"], field)
        return Configuration(field=field, dim=dim, points=points)

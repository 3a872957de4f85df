"""Projective points, configurations and exact linear algebra.

Homogeneous coordinates are stored canonically as one integer vector: over
Q the primitive vector (content 1, first nonzero entry positive), over Z/p
the residues scaled so the first nonzero entry is 1.  Equality and hashing
act on that vector, so two points given by proportional coordinate
vectors compare equal.  A point's scale is its first nonzero entry; the
canonical coordinates that serialization prints, first nonzero one 1, are
the vector divided by it (over Z/p the scale is 1).  The one point type
serves every projective space in the package: parameters are points of
P^1, and a hyperplane of P^d is the point of the dual P^d given by its
coefficient vector.

Linear algebra is exact and has one integer kernel for both fields: a
bracket is the integer determinant of the points' vectors (fraction-free
Bareiss elimination), reduced mod p over Z/p, and the full-rank test of a
few points reads minors of the same vectors.  Every family of maximal
minors of one integer matrix is a BracketTable, a dict keyed by sorted
row labels, so each minor is computed once however often it is read: a
configuration keeps one of its points' brackets for the general-position
test and the bracket equations.  A reader of every minor (the
general-position test, a run over every equation) fills the whole table
by one Bareiss walk that shares each prefix's elimination among all the
subsets extending it and streams each minor into the table as it is
found; a minor read before that is computed when it is missing, one
determinant apiece.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from typing import Iterator, Sequence

from .errors import MismatchError, json_int, malformed_input
from .fields import Field, field_from_json, field_to_json, format_ratio


def canonical_coords(coords: Sequence, field: Field) -> tuple[int, ...]:
    """The canonical integer vector of the class of coords (ints,
    Fractions or strings): primitive with positive first nonzero entry
    over Q, first nonzero entry 1 over Z/p.  The zero vector raises."""
    vals = [field.scalar(c) for c in coords]
    lead = next((v for v in vals if v), None)
    if lead is None:
        raise ValueError("zero vector has no projective class")
    p = field.characteristic
    if p:
        inverse = pow(lead, -1, p)
        return tuple(v * inverse % p for v in vals)
    den = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (den // v.denominator) for v in vals]
    g = gcd(*ints) if lead > 0 else -gcd(*ints)
    return tuple(v // g for v in ints)


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of projective d-space, held as its canonical integer
    vector (module docstring); coords may be given as ints, Fractions or
    strings, or as field scalars."""

    coords: tuple
    field: Field

    def __post_init__(self):
        object.__setattr__(
            self, "coords", canonical_coords(self.coords, self.field))

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    @cached_property
    def scale(self) -> int:
        """The first nonzero entry: the canonical coordinates are the
        vector divided by it (1 over Z/p)."""
        return next(c for c in self.coords if c)

    def __repr__(self) -> str:
        inner = ":".join(format_ratio(c, self.scale) for c in self.coords)
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
        return BracketTable([p.coords for p in self.points],
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


def _maximal_minors(vectors: Sequence[Sequence[int]], modulus: int = 0
                    ) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every maximal minor of the integer vectors, as (labels, minor) in
    combinations order: the sorted 1-based labels and _det_int of the
    labelled vectors as rows, reduced mod a nonzero modulus.

    One fraction-free Bareiss walk over the combinations tree.  After k
    steps a row's reduced form depends only on the k pivot rows and on the
    row itself, so each prefix eliminates once for every subset extending
    it.  The pivot column is the pivot row's first nonzero entry, the sign
    following the column moved to the front; a pivot row that is all zero
    is dependent on its prefix, which zeroes its whole subtree (sign 0).
    The tree is walked by an explicit stack, never by recursion, and only
    the stack's reduced rows are held: the minors are yielded, not kept.
    """
    n = len(vectors)
    size = len(vectors[0]) if n else 0
    if not size or size > n:
        return
    # (prefix labels, sign, previous pivot, [(label, reduced row)] after it)
    stack = [((), 1, 1, [(k, list(v)) for k, v in enumerate(vectors, 1)])]
    while stack:
        prefix, sign, prev, rows = stack.pop()
        left = size - len(prefix)   # labels still to pick, at least 1
        if not sign:
            for rest in combinations([k for k, _ in rows], left):
                yield prefix + rest, 0
            continue
        if left == 1:
            for label, row in rows:
                value = sign * row[0]
                yield prefix + (label,), value % modulus if modulus else value
            continue
        children = []
        for at in range(len(rows) - left + 1):
            label, row = rows[at]
            head = prefix + (label,)
            q = next((c for c, x in enumerate(row) if x), 0)
            pivot = row.pop(q)   # 0 for a zero row, which zeroes each leaf
            sgn = -sign if q & 1 else sign
            if left == 2:   # one column stays: the reduced entries are leaves
                (other,) = row
                for k, r in rows[at + 1:]:
                    value = sgn * ((pivot * r[1 - q] - r[q] * other) // prev)
                    yield head + (k,), value % modulus if modulus else value
                continue
            if not pivot:
                children.append((head, 0, prev, rows[at + 1:]))
                continue
            reduced = []
            for k, r in rows[at + 1:]:
                x = r[q]
                r = r[:q] + r[q + 1:]
                reduced.append((k, [(pivot * a - x * b) // prev
                                    for a, b in zip(r, row)]))
            children.append((head, sgn, pivot, reduced))
        stack.extend(reversed(children))


def bracket(points: Sequence[ProjectivePoint]) -> int:
    """Bracket of d+1 points of P^d: the integer determinant of their
    vectors, reduced mod p over Z/p.  Zero iff the points fail to span.
    Over Q it is the determinant of their canonical coordinates times the
    points' scales."""
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
    value = _det_int([p.coords for p in points])
    return value % field.characteristic if field.characteristic else value


class BracketTable(dict):
    """The maximal minors of one integer matrix, each computed once.

    A dict keyed by sorted 1-based row labels: table[cols], or its named
    read minor(cols), is _det_int of the labelled vectors as rows, reduced
    mod a nonzero modulus.  A configuration holds the table of its points'
    integer vectors (``Configuration.bracket_table``), so the
    general-position test and every bracket equation share it.

    A missing minor is computed on its own by _det_int, as a sample wants.
    fill() streams every minor into the table from the prefix-shared walk
    of _maximal_minors, as a reader of every minor wants.
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


# ---------------------------------------------------------------------------
# position predicates


def is_general_linear_position(config: Configuration) -> bool:
    """Whether every subset of at most d+1 points spans projectively.

    For n <= d+1 this is full rank: some n x n minor of the points' integer
    vectors is nonzero (mod p over Z/p), read from a table of their
    d+1 coordinate rows up to the first nonzero one.  For larger n it is
    equivalent to every (d+1)-subset having nonzero bracket, since any
    dependent subset extends to a dependent one of size d+1; those are
    read from the configuration's bracket table, filled whole.
    """
    n = len(config)
    d = config.dim
    if n <= d + 1:
        rows = BracketTable(list(zip(*(pt.coords for pt in config.points))),
                            config.field.characteristic)
        return any(map(rows.__getitem__, combinations(range(1, d + 2), n)))
    return all(config.bracket_table.fill().values())


# ---------------------------------------------------------------------------
# serialization


def points_to_json(points: Sequence[ProjectivePoint]) -> list:
    """Rows of canonical coordinate strings, one per point."""
    return [[format_ratio(c, p.scale) for c in p.coords] for p in points]


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

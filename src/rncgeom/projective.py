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

Linear algebra is exact and has one integer kernel for both fields: the
fraction-free Bareiss walk of _maximal_minors, which yields the maximal
minors of one integer matrix in combinations order, sharing each
prefix's elimination among all the subsets extending it, and pruned to
the wanted minors when a reader names them.  A bracket is the one minor
of the walk over its points' vectors, reduced mod p over Z/p, and the
full-rank test of a few points reads minors of the same vectors.  A
reader of each minor once (the small general-position test, the fit's
coincident-ratio check, a full sym-factorization) reads the walk up to
the first deciding value.  Minors read again, or sampled, are a
BracketTable, a dict keyed by sorted row labels that one walk fills,
whole or with the minors a sample reads, before they are read: a
configuration's brackets, shared by the general-position test and the
bracket equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .errors import MismatchError, json_int, json_typed, malformed_input
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
        """The integer brackets of these points, each filled in by a walk
        before it is read (BracketTable.fill)."""
        return BracketTable([p.coords for p in self.points],
                            self.field.characteristic)


# ---------------------------------------------------------------------------
# determinants


def _maximal_minors(vectors: Sequence[Sequence[int]], modulus: int = 0,
                    wanted: Optional[Collection[tuple[int, ...]]] = None
                    ) -> Iterator[tuple[tuple[int, ...], int]]:
    """The maximal minors of the integer vectors, as (labels, minor) in
    combinations order: the sorted 1-based labels and the determinant of
    the labelled vectors as rows, reduced mod a nonzero modulus.  Every
    minor, or only the wanted ones, distinct sorted label tuples.

    One fraction-free Bareiss walk over the combinations tree.  After k
    steps a row's reduced form depends only on the k pivot rows and on the
    row itself, so each prefix eliminates once for every subset extending
    it.  The pivot column is the pivot row's first nonzero entry, the sign
    following the column moved to the front; a pivot row that is all zero
    is dependent on its prefix, which zeroes its whole subtree (sign 0).
    A wanted set prunes the tree: a child whose labels begin no wanted
    minor is never reduced, a leaf is yielded when it is wanted, and a
    zero subtree yields its wanted leaves straight from the set.  The
    tree is walked by an explicit stack, never by recursion, and only the
    stack's reduced rows are held: the minors are yielded, not kept.
    """
    size = len(vectors[0]) if vectors else 0
    if not size or size > len(vectors):
        return
    if wanted is not None:   # every prefix of a wanted minor, level by level
        begun = level = set(wanted)
        for _ in range(size - 1):
            level = {cols[:-1] for cols in level}
            begun |= level
    # (prefix labels, sign, previous pivot, [(label, reduced row)] after it)
    stack = [((), 1, 1, list(enumerate(vectors, 1)))]
    while stack:
        prefix, sign, prev, rows = stack.pop()
        left = size - len(prefix)   # labels still to pick, at least 1
        if not sign:   # a zero subtree: its leaves, or its wanted ones
            leaves = (prefix + rest for rest in combinations(
                [k for k, _ in rows], left)) if wanted is None else sorted(
                    cols for cols in wanted if cols[:len(prefix)] == prefix)
            yield from ((labels, 0) for labels in leaves)
            continue
        children = []
        for at in range(len(rows) - left + 1):
            label, row = rows[at]
            head = prefix + (label,)
            if wanted is not None and head not in begun:
                continue
            q = 0 if row[0] else next((c for c, x in enumerate(row) if x), 0)
            pivot = row[q]   # 0 for a zero row, which zeroes each leaf
            sgn = -sign if q & 1 else sign
            if left == 1:   # only a root of width 1 has leaves for children
                yield head, sgn * pivot % modulus if modulus else sgn * pivot
                continue
            if left == 2:   # one column stays: the reduced entries are leaves
                other = row[1 - q]
                for k, r in rows[at + 1:] if wanted is None else [
                        (k, r) for k, r in rows[at + 1:]
                        if head + (k,) in wanted]:
                    value = sgn * ((pivot * r[1 - q] - r[q] * other) // prev)
                    yield head + (k,), value % modulus if modulus else value
                continue
            if not pivot:
                children.append((head, 0, prev, rows[at + 1:]))
                continue
            reduced = []
            for k, r in rows[at + 1:]:
                x = r[q]
                r = [(pivot * a - x * b) // prev for a, b in zip(r, row)]
                del r[q]   # the pivot column, now zero
                reduced.append((k, r))
            children.append((head, sgn, pivot, reduced))
        stack.extend(reversed(children))


def bracket(points: Sequence[ProjectivePoint]) -> int:
    """Bracket of d+1 points of P^d: the integer determinant of their
    vectors, reduced mod p over Z/p, the one minor the walk yields.  Zero
    iff the points fail to span.  Over Q it is the determinant of their
    canonical coordinates times the points' scales."""
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
    [(_, value)] = _maximal_minors([p.coords for p in points],
                                   field.characteristic)
    return value


class BracketTable(dict):
    """The maximal minors of one integer matrix, each computed once.

    A dict keyed by sorted 1-based row labels: table[cols], or its named
    read minor(cols), is the minor of the labelled vectors as rows,
    reduced mod a nonzero modulus.  A configuration holds the table of its
    points' integer vectors (``Configuration.bracket_table``), so the
    general-position test and every bracket equation share it.

    A minor is in the table before it is read: fill() streams in every
    minor from the walk of _maximal_minors, for readers of every minor
    more than once, and a sample fills the minors its picks read.
    """

    def __init__(self, vectors: Sequence[Sequence[int]], modulus: int = 0):
        super().__init__()
        self.vectors = vectors
        self.modulus = modulus
        self.size = comb(len(vectors), len(vectors[0])) if vectors else 0

    minor = dict.__getitem__

    def fill(self, wanted: Optional[Iterable[tuple[int, ...]]] = None
             ) -> "BracketTable":
        """The table holding every maximal minor, or at least the wanted
        sorted label tuples, filled in place by one walk.  A table holding
        all C(n, d+1) minors is whole and reads nothing of wanted.  The
        wanted minors it lacks come from a walk pruned to them, or from the
        whole walk once they pass half of all minors: gathering and pruning
        then cost more than they save (measured at d = 4, 5, 6 on both
        fields)."""
        if len(self) == self.size:
            return self
        if wanted is not None:
            missing, half = set(), self.size // 2
            for cols in wanted:
                if cols not in self:
                    missing.add(cols)
                    if len(missing) > half:
                        break
            else:
                self.update(_maximal_minors(self.vectors, self.modulus,
                                            missing))
                return self
        self.update(_maximal_minors(self.vectors, self.modulus))
        return self


# ---------------------------------------------------------------------------
# position predicates


def is_general_linear_position(config: Configuration) -> bool:
    """Whether every subset of at most d+1 points spans projectively.

    For n <= d+1 this is full rank: some n x n minor of the points' integer
    vectors is nonzero (mod p over Z/p), walked over their d+1 coordinate
    rows up to the first nonzero one (no points: the empty minor, 1).  For
    larger n it is equivalent to every (d+1)-subset having nonzero
    bracket, since any dependent subset extends to a dependent one of size
    d+1; those are read from the configuration's bracket table, filled
    whole for the equations to read again.
    """
    if len(config) <= config.dim + 1:
        rows = list(zip(*(pt.coords for pt in config.points)))
        return not rows or any(value for _, value in _maximal_minors(
            rows, config.field.characteristic))
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
        json_typed(obj, "document", dict)
        field = field_from_json(obj["field"])
        dim = json_int(obj["dim"], "dim")
        points = points_from_json(obj["points"], field)
        return Configuration(field=field, dim=dim, points=points)

"""The standard rational normal curve and its attendant constructions.

The degree-d curve is the image of the parameter line under

    [a : b]  ->  [ C(d,0) a^d : C(d,1) a^(d-1) b : ... : C(d,d) b^d ],

binomial coefficients included; they are what makes the osculating
hyperplane at [a0 : b0] take the closed form

    b0^d X_0 - a0 b0^(d-1) X_1 + ... + (-1)^d a0^d X_d = 0,

i.e. coefficient (-1)^i a0^i b0^(d-i) on X_i.  Everything downstream
(simplex vertices, fitted curves) assumes this normalization.  Parameters
are ProjectivePoints of P^1, and an osculating hyperplane is the point of
the dual P^d given by its coefficient vector.  Construction needs no
division: linear_product_coeffs, the one recurrence behind the curve
points, the simplex vertices and identities.vertex_polys, runs on the
parameters' integer vectors, and each point takes its canonical form once.

Fitting sends the first d+2 of d+3 points to the standard frame by one
frame map, the integer cofactors of the frame: the bracket of the frame
with one point p replaced is that map applied to p.  The failure modes of
that normalization (zero or coincident ratios) are exactly
general-position violations, so no other degeneracy detection is needed.
Containment applies the same map and tests rank 2 by one cross product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Optional, Sequence

from .errors import DegenerateInputError, MismatchError
from .fields import Field, require_characteristic_over
from . import projective
from .projective import Configuration, ProjectivePoint, bracket


def param_point(field: Field, a, b=1) -> ProjectivePoint:
    """The point [a : b] of the parameter line P^1, coercing plain numbers
    or strings."""
    return ProjectivePoint((a, b), field)


def _require_distinct(qs: Sequence[ProjectivePoint]) -> None:
    # canonical vectors make equality exact
    for q1, q2 in combinations(qs, 2):
        if q1 == q2:
            raise DegenerateInputError(f"repeated parameter point {q1}")


# ---------------------------------------------------------------------------
# embedding, osculating hyperplanes, vertices


def veronese_embed(q: ProjectivePoint, d: int) -> ProjectivePoint:
    """The point of the standard degree-d curve at parameter q: the
    coefficients C(d,i) a^(d-i) b^i of (a x + b y)^d."""
    require_characteristic_over(q.field, d)
    return ProjectivePoint(linear_product_coeffs([q.coords] * d, 1), q.field)


def osculating_coeffs(q: ProjectivePoint, d: int) -> tuple:
    """Raw hyperplane coefficients ((-1)^i a^i b^(d-i))_{i=0..d}."""
    a, b = q.coords
    out = []
    for i in range(d + 1):
        c = a ** i * b ** (d - i)
        out.append(-c if i % 2 else c)
    return tuple(out)


def osculating_hyperplane(q: ProjectivePoint, d: int) -> ProjectivePoint:
    """The hyperplane with contact of order d with the curve at q, as the
    point of the dual P^d given by its canonical coefficient vector.

    Its form evaluates on veronese_embed([a:b]) to (a b0 - b a0)^d, so it
    meets the curve set-theoretically only at q.
    """
    require_characteristic_over(q.field, d)
    return ProjectivePoint(osculating_coeffs(q, d), q.field)


def linear_product_coeffs(pairs: Sequence[tuple], one) -> tuple:
    """The coefficients of prod (a_i x + b_i y) over the pairs (a_i, b_i),
    x^d y^0 first, for d = len(pairs).

    Works over any commutative ring given its one: ints in veronese_embed
    and simplex_vertex, MultiPoly in vertex_polys.
    """
    coeffs = [one]   # coeffs[m] multiplies x^(len(coeffs) - 1 - m) y^m
    for a, b in pairs:
        coeffs = ([a * coeffs[0]]
                  + [a * c + b * prev for prev, c in zip(coeffs, coeffs[1:])]
                  + [b * coeffs[-1]])
    return tuple(coeffs)


def simplex_vertex(qs: Sequence[ProjectivePoint]) -> ProjectivePoint:
    """The common point of the d osculating hyperplanes at d distinct
    parameters, for d = len(qs): the coefficients of prod (a_i x + b_i y)."""
    d = len(qs)
    if d < 1:
        raise ValueError("need at least one parameter point")
    field = qs[0].field
    for q in qs:
        if q.field != field:
            raise MismatchError("parameter points from different fields")
    require_characteristic_over(field, d)
    _require_distinct(qs)
    return ProjectivePoint(
        linear_product_coeffs([q.coords for q in qs], 1), field)


# ---------------------------------------------------------------------------
# Castelnuovo fitting


@dataclass(frozen=True)
class RNCModel:
    """A rational normal curve through a frame of fitted points p_0..p_{d+2},
    in integer brackets.  With [v@i] the bracket of p_0..p_d with p_i
    replaced by v, and s, t the scales of p_{d+1}, p_{d+2}:
    frame_map[i][j] = [e_j@i] s t, unit[i] = [p_{d+1}@i] t and
    last[i] = [p_{d+2}@i] s, so frame_map applied to v is ([v@i] s t)_i.
    The standard frame map is frame_map[i][j] / unit[i] and alphas_i =
    -unit[i] / last[i], as the canonical coordinates' brackets give; there
    the curve is t = [u:v]  ->  ( prod_{j != i} (u - alphas_j v) )_i.
    """

    dim: int
    field: Field
    frame_map: tuple[tuple[int, ...], ...]
    unit: tuple[int, ...]
    last: tuple[int, ...]


def _apply(matrix, coords: Sequence[int], modulus: int) -> list[int]:
    """The integer matrix times a vector, reduced mod a nonzero modulus."""
    out = [sum(map(mul, row, coords)) for row in matrix]
    return [x % modulus for x in out] if modulus else out


def fit_rnc(config: Configuration) -> RNCModel:
    """The unique rational normal curve through d+3 points in general
    linear position.

    The first d+2 points are sent to the standard frame e_0..e_d, [1:...:1];
    the image [q_0:...:q_d] of the last point then has all q_i nonzero and
    pairwise distinct, and the curve is pinned by alphas_i = -1/q_i.  By
    Cramer's rule the frame map is C_ij / u_i and q_i = w_i / u_i, where
    C_ij = [e_j@i] are the only brackets taken: u_i = [p_{d+1}@i] and
    w_i = [p_{d+2}@i] are C applied to the points, by linearity in row i.

    The checks that no u_i, w_i or u_i w_j - u_j w_i is zero are the
    general-position test: by the three-term Pluecker relation, a
    dependent (d+1)-subset zeroes one of them.
    """
    d = config.dim
    field = config.field
    if len(config) != d + 3:
        raise MismatchError(
            f"fitting in P^{d} needs exactly {d + 3} points, got {len(config)}")
    points = config.points
    axes = [ProjectivePoint(tuple(int(k == j) for k in range(d + 1)), field)
            for j in range(d + 1)]
    cofactors = [[bracket(points[:i] + (e,) + points[i + 1:d + 1])
                  for e in axes] for i in range(d + 1)]
    unit = _apply(cofactors, points[d + 1].coords, field.characteristic)
    if not all(unit):
        raise DegenerateInputError("unit point degenerates against the frame")
    last = _apply(cofactors, points[d + 2].coords, field.characteristic)
    if not all(last):
        raise DegenerateInputError("last point lies on a frame hyperplane")
    if not all(value for _, value in projective._maximal_minors(
            list(zip(unit, last)), field.characteristic)):
        raise DegenerateInputError("last point has coincident frame ratios")
    s, t = points[d + 1].scale, points[d + 2].scale
    return RNCModel(
        dim=d, field=field,
        frame_map=tuple(tuple(c * s * t for c in row) for row in cofactors),
        unit=tuple(u * t for u in unit), last=tuple(w * s for w in last))


def curve_contains(model: RNCModel,
                   p: ProjectivePoint) -> Optional[ProjectivePoint]:
    """The parameter mapping to p under the model's curve, or None.

    Let v be the frame_map applied to p, ([p@i])_i up to one common factor,
    so that x_i = v_i / unit[i] are p's frame coordinates.  The curve
    meets the frame hyperplanes only at the frame points: x = e_i is the
    point at [alphas_i : 1].  Elsewhere x_i is proportional to
    1/(u - alphas_i v), so p lies on the curve exactly when no v_i is zero
    and 1/x_i = c0 + c1 alphas_i for every i, that is
    u_i w_i = c0 v_i w_i - c1 u_i v_i with u = unit and w = last: the rows
    r_i = (u_i w_i, v_i w_i, u_i v_i) have rank 2.  With the (u_i, w_i)
    pairwise independent, as fit_rnc's checks make them, r_0 and r_1 are
    independent, the rank is 2 exactly when every r_i is orthogonal to
    their cross product k, and [u : v] = [c0 : -c1] = [k_1 : k_2].
    """
    if p.field != model.field or p.dim != model.dim:
        raise MismatchError("point does not match the model")
    modulus = model.field.characteristic
    v = _apply(model.frame_map, p.coords, modulus)
    nonzero = [i for i, x in enumerate(v) if x]
    if len(nonzero) == 1:
        i = nonzero[0]
        return ProjectivePoint((-model.unit[i], model.last[i]), model.field)
    if len(nonzero) <= model.dim:
        return None
    rows = [(u * w, x * w, u * x)
            for u, x, w in zip(model.unit, v, model.last)]
    (a0, a1, a2), (b0, b1, b2) = rows[:2]
    k = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    if any(_apply(rows[2:], k, modulus)):
        return None
    return ProjectivePoint(k[1:], model.field)


def fit_and_test(config: Configuration) -> tuple[RNCModel, list[bool]]:
    """Fit the curve through the first d+3 points and test each remaining
    point.  fit_rnc's ratio checks are the general-position test: they
    raise DegenerateInputError unless those points are in general position."""
    d = config.dim
    if len(config) < d + 3:
        raise MismatchError(f"fitting in P^{d} needs at least {d + 3} points")
    model = fit_rnc(Configuration(field=config.field, dim=d,
                                  points=config.points[:d + 3]))
    return model, [curve_contains(model, p) is not None
                   for p in config.points[d + 3:]]


def model_to_json(model: RNCModel) -> dict:
    ratio = model.field.ratio
    return {
        "dim": model.dim,
        "frame_map": [[ratio(c, u) for c in row]
                      for row, u in zip(model.frame_map, model.unit)],
        "alphas": [ratio(-u, w) for u, w in zip(model.unit, model.last)],
    }

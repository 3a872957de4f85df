"""The standard rational normal curve and its attendant constructions.

The degree-d curve is the image of the parameter line under

    [a : b]  ->  [ C(d,0) a^d : C(d,1) a^(d-1) b : ... : C(d,d) b^d ],

binomial coefficients included; they are what makes the osculating
hyperplane at [a0 : b0] take the closed form

    b0^d X_0 - a0 b0^(d-1) X_1 + ... + (-1)^d a0^d X_d = 0,

i.e. coefficient (-1)^i a0^i b0^(d-i) on X_i.  Everything downstream
(simplex vertices, fitted curves) assumes this normalization.  Parameters
are ProjectivePoints of P^1, and an osculating hyperplane is the point of
the dual P^d given by its coefficient vector.  linear_product_coeffs is
the one recurrence behind the curve points, the simplex vertices and
identities.vertex_polys.

Fitting moves the first d+2 of d+3 points in general position to the
standard frame by ratios of brackets; the failure modes of that
normalization (zero or coincident ratios) are exactly general-position
violations, so no other degeneracy detection is needed.  Containment is
then one exact test on a point's frame coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .errors import DegenerateInputError, MismatchError
from .fields import Field, require_characteristic_over
from .projective import (
    Configuration,
    ProjectivePoint,
    bracket,
    mat_vec,
)


def param_point(field: Field, a, b=1) -> ProjectivePoint:
    """The point [a : b] of the parameter line P^1, coercing plain numbers
    or strings."""
    return ProjectivePoint((field.scalar(a), field.scalar(b)), field)


def _require_distinct(qs: Sequence[ProjectivePoint]) -> None:
    # canonical coordinates make equality exact
    for q1, q2 in combinations(qs, 2):
        if q1 == q2:
            raise DegenerateInputError(f"repeated parameter point {q1}")


# ---------------------------------------------------------------------------
# embedding, osculating hyperplanes, vertices


def veronese_embed(q: ProjectivePoint, d: int) -> ProjectivePoint:
    """The point of the standard degree-d curve at parameter q: the
    coefficients C(d,i) a^(d-i) b^i of (a x + b y)^d."""
    require_characteristic_over(q.field, d)
    return ProjectivePoint(linear_product_coeffs([q.coords] * d, q.field.one),
                           q.field)


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

    Works over any commutative ring given its one: field scalars in
    veronese_embed and simplex_vertex, MultiPoly in vertex_polys.
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
        linear_product_coeffs([q.coords for q in qs], field.one), field)


# ---------------------------------------------------------------------------
# Castelnuovo fitting


@dataclass(frozen=True)
class RNCModel:
    """A rational normal curve through a frame of fitted points: frame_map
    sends them to the standard frame, where the curve is
    t = [u:v]  ->  ( prod_{j != i} (u - alphas[j] v) )_i.
    """

    dim: int
    field: Field
    frame_map: tuple[tuple, ...]
    alphas: tuple


def fit_rnc(config: Configuration) -> RNCModel:
    """The unique rational normal curve through d+3 points in general
    linear position.

    The first d+2 points are sent to the standard frame e_0..e_d, [1:...:1];
    the image [q_0:...:q_d] of the last point then has all q_i nonzero and
    pairwise distinct, and the curve is pinned by alphas_i = -1/q_i.  By
    Cramer's rule, with [v@i] the bracket of the frame p_0..p_d with p_i
    replaced by v: frame_map[i][j] = [e_j@i] / [p_{d+1}@i] and
    q_i = [p_{d+2}@i] / [p_{d+1}@i].

    The checks that each [p_{d+1}@i] and q_i is nonzero and the q_i are
    distinct are the general-position test: by the three-term Pluecker
    relation, a dependent (d+1)-subset zeroes one of them or makes two
    q_i equal.
    """
    d = config.dim
    field = config.field
    if len(config) != d + 3:
        raise MismatchError(
            f"fitting in P^{d} needs exactly {d + 3} points, got {len(config)}")
    points = config.points
    frame = points[:d + 1]

    def at(v: ProjectivePoint, i: int):
        return bracket(frame[:i] + (v,) + frame[i + 1:])

    unit = [at(points[d + 1], i) for i in range(d + 1)]
    if not all(unit):
        raise DegenerateInputError("unit point degenerates against the frame")
    axes = [ProjectivePoint(tuple(field.from_int(int(k == j))
                                  for k in range(d + 1)), field)
            for j in range(d + 1)]
    frame_map = tuple(tuple(at(e, i) / unit[i] for e in axes)
                      for i in range(d + 1))
    q = [at(points[d + 2], i) / unit[i] for i in range(d + 1)]
    if not all(q):
        raise DegenerateInputError("last point lies on a frame hyperplane")
    if len(set(q)) != d + 1:
        raise DegenerateInputError("last point has coincident frame ratios")
    alphas = tuple(-(field.one / qi) for qi in q)
    return RNCModel(dim=d, field=field, frame_map=frame_map, alphas=alphas)


def curve_contains(model: RNCModel,
                   p: ProjectivePoint) -> Optional[ProjectivePoint]:
    """The parameter mapping to p under the model's curve, or None.

    Let x = frame_map . p.  The curve meets the frame hyperplanes only at
    the frame points: x = e_i is the point at [alphas_i : 1].  Elsewhere
    x_i is proportional to 1/(u - alphas_i v), so p lies on the curve
    exactly when x has no zero entry and 1/x_i = c0 + c1 alphas_i for
    every i; then [u : v] = [c0 : -c1].  The alphas are distinct, so the
    first two entries pin c0 and c1 and the rest are checked exactly.
    """
    if p.field != model.field or p.dim != model.dim:
        raise MismatchError("point does not match the model")
    field = model.field
    alphas = model.alphas
    x = mat_vec(model.frame_map, p.coords)
    nonzero = [i for i, xi in enumerate(x) if xi]
    if len(nonzero) == 1:
        return ProjectivePoint((alphas[nonzero[0]], field.one), field)
    if len(nonzero) <= model.dim:
        return None
    y = [field.one / xi for xi in x]
    c1 = (y[1] - y[0]) / (alphas[1] - alphas[0])
    c0 = y[0] - c1 * alphas[0]
    if any(yi != c0 + c1 * a for yi, a in zip(y, alphas)):
        return None
    return ProjectivePoint((c0, -c1), field)


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
    fmt = model.field.format
    return {
        "dim": model.dim,
        "frame_map": [[fmt(c) for c in row] for row in model.frame_map],
        "alphas": [fmt(a) for a in model.alphas],
    }

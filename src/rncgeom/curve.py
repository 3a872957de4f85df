"""The standard rational normal curve and its attendant constructions.

The degree-d curve is the image of the parameter line under

    [a : b]  ->  [ C(d,0) a^d : C(d,1) a^(d-1) b : ... : C(d,d) b^d ],

binomial coefficients included; they are what makes the osculating
hyperplane at [a0 : b0] take the closed form

    b0^d X_0 - a0 b0^(d-1) X_1 + ... + (-1)^d a0^d X_d = 0,

i.e. coefficient (-1)^i a0^i b0^(d-i) on X_i.  Everything downstream
(simplex vertices, fitted curves) assumes this normalization.

Fitting recovers a curve through d+3 points in general position by moving
the first d+2 of them to the standard frame; the failure modes of that
normalization (singular frame, zero or coincident cross ratios) correspond
exactly to general-position violations, so no other degeneracy detection is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Optional, Sequence, Union

from .errors import DegenerateInputError, MismatchError
from .fields import Field, Scalar, require_characteristic_over
from .projective import (
    Configuration,
    Hyperplane,
    ProjectivePoint,
    canonical_coords,
    is_general_linear_position,
    mat_inverse,
    mat_vec,
    solve_linear,
)


@dataclass(frozen=True)
class ParamPoint:
    """A point [a : b] of the parameter line, canonicalized."""

    a: Scalar
    b: Scalar
    field: Field

    def __post_init__(self):
        a, b = canonical_coords((self.a, self.b), self.field)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __repr__(self) -> str:
        return f"[{self.a}:{self.b}]"


def param_point(field: Field, a, b=1) -> ParamPoint:
    """Convenience constructor coercing plain numbers or strings."""
    return ParamPoint(field.scalar(a), field.scalar(b), field)


def cross_value(q1: ParamPoint, q2: ParamPoint) -> Scalar:
    """The 2x2 bracket a1 b2 - a2 b1 on canonical representatives.

    Zero iff the two parameter points coincide.
    """
    if q1.field != q2.field:
        raise MismatchError("parameter points from different fields")
    return q1.a * q2.b - q2.a * q1.b


def _require_distinct(qs: Sequence[ParamPoint]) -> None:
    for q1, q2 in combinations(qs, 2):
        if not cross_value(q1, q2):
            raise DegenerateInputError(f"repeated parameter point {q1}")


def param_to_json(q: ParamPoint) -> list:
    return [q.field.format(q.a), q.field.format(q.b)]


def param_from_json(obj: Sequence[str], field: Field) -> ParamPoint:
    a, b = obj
    return ParamPoint(field.parse(a), field.parse(b), field)


# ---------------------------------------------------------------------------
# embedding, osculating hyperplanes, vertices


def veronese_coords(q: ParamPoint, d: int) -> tuple:
    """Raw curve coordinates C(d,i) a^(d-i) b^i, not canonicalized."""
    field = q.field
    return tuple(
        field.from_int(comb(d, i)) * q.a ** (d - i) * q.b ** i
        for i in range(d + 1))


def veronese_embed(q: ParamPoint, d: int) -> ProjectivePoint:
    """The point of the standard degree-d curve at parameter q."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    require_characteristic_over(q.field, d)
    return ProjectivePoint(veronese_coords(q, d), q.field)


def osculating_coeffs(q: ParamPoint, d: int) -> tuple:
    """Raw hyperplane coefficients ((-1)^i a^i b^(d-i))_{i=0..d}."""
    field = q.field
    out = []
    for i in range(d + 1):
        c = q.a ** i * q.b ** (d - i)
        out.append(-c if i % 2 else c)
    return tuple(out)


def osculating_hyperplane(q: ParamPoint, d: int) -> Hyperplane:
    """The hyperplane with contact of order d with the curve at q.

    Its form evaluates on veronese_embed([a:b]) to (a b0 - b a0)^d, so it
    meets the curve set-theoretically only at q.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    require_characteristic_over(q.field, d)
    return Hyperplane(osculating_coeffs(q, d), q.field)


def linear_product_coeffs(pairs: Sequence[tuple], one, zero) -> tuple:
    """The coefficients of prod (a_i x + b_i y) over the pairs (a_i, b_i),
    x^d y^0 first, for d = len(pairs).

    Works over any commutative ring given its one and zero: field scalars
    here, MultiPoly for the symbolic vertices.
    """
    coeffs = [one]   # coeffs[m] multiplies x^(len(coeffs) - 1 - m) y^m
    for a, b in pairs:
        nxt = [zero] * (len(coeffs) + 1)
        for m, c in enumerate(coeffs):
            nxt[m] = nxt[m] + a * c
            nxt[m + 1] = nxt[m + 1] + b * c
        coeffs = nxt
    return tuple(coeffs)


def vertex_coords(qs: Sequence[ParamPoint]) -> tuple:
    """Raw coordinates r_k = sum over (d-k)-subsets S' of a_{S'} b_{rest},
    for d = len(qs); equivalently the coefficients of prod (a_i x + b_i y).
    """
    field = qs[0].field
    return linear_product_coeffs(
        [(q.a, q.b) for q in qs], field.one, field.zero)


def simplex_vertex(qs: Sequence[ParamPoint]) -> ProjectivePoint:
    """The common point of the d osculating hyperplanes at d distinct
    parameters, for d = len(qs)."""
    d = len(qs)
    if d < 1:
        raise ValueError("need at least one parameter point")
    field = qs[0].field
    for q in qs:
        if q.field != field:
            raise MismatchError("parameter points from different fields")
    require_characteristic_over(field, d)
    _require_distinct(qs)
    return ProjectivePoint(vertex_coords(qs), field)


# ---------------------------------------------------------------------------
# apolarity


@dataclass(frozen=True)
class BinaryForm:
    """A binary form of degree len(coeffs)-1; coeffs[i] multiplies
    x0^(deg-i) x1^i.  The zero form is allowed.

    The same coefficients also describe a constant-coefficient operator,
    coeffs[i] multiplying D0^(deg-i) D1^i where Dk differentiates in x_k;
    apolarity_apply reads its first argument that way.
    """

    coeffs: tuple
    field: Field

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(self.field.scalar(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a form needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        return BinaryForm(
            _convolve(self.coeffs, other.coeffs, self.field), self.field)

    def power(self, k: int) -> "BinaryForm":
        out = BinaryForm((self.field.one,), self.field)
        for _ in range(k):
            out = out * self
        return out


def _convolve(c1: tuple, c2: tuple, field: Field) -> tuple:
    out = [field.zero] * (len(c1) + len(c2) - 1)
    for i, a in enumerate(c1):
        if a:
            for j, b in enumerate(c2):
                out[i + j] = out[i + j] + a * b
    return tuple(out)


def linear_form(q: ParamPoint) -> BinaryForm:
    """The linear form a x0 + b x1 attached to [a:b]."""
    return BinaryForm((q.a, q.b), q.field)


def apolar_operator(q: ParamPoint) -> BinaryForm:
    """The operator b D0 - a D1, which annihilates (a x0 + b x1)^n."""
    return BinaryForm((q.b, -q.a), q.field)


def _falling(field: Field, n: int, k: int) -> Scalar:
    out = field.one
    for t in range(k):
        out = out * field.from_int(n - t)
    return out


def apolarity_apply(op: BinaryForm, f: BinaryForm) -> Union[Scalar, BinaryForm]:
    """Apply op, read as a differential operator, to the form f by formal
    differentiation.

    Returns a form of degree f.degree - op.degree, collapsed to a bare
    scalar when the degrees are equal (the apolarity pairing).
    """
    if op.field != f.field:
        raise MismatchError("operator and form from different fields")
    k, n = op.degree, f.degree
    if k > n:
        raise MismatchError(
            f"cannot apply a degree-{k} operator to a degree-{n} form")
    field = f.field
    out = [field.zero] * (n - k + 1)
    for r in range(n - k + 1):
        acc = field.zero
        for i in range(k + 1):
            j = r + i
            c = op.coeffs[i] * f.coeffs[j]
            if c:
                acc = acc + c * _falling(field, n - j, k - i) \
                    * _falling(field, j, i)
        out[r] = acc
    if k == n:
        return out[0]
    return BinaryForm(tuple(out), field)


# ---------------------------------------------------------------------------
# Castelnuovo fitting


@dataclass(frozen=True)
class RNCModel:
    """A rational normal curve through a frame of fitted points.

    frame_map sends the fitted points to the standard frame; the curve is
    t = [u:v]  ->  frame_map^(-1) . ( prod_{j != i} (u - alphas[j] v) )_i.
    """

    dim: int
    field: Field
    frame_map: tuple[tuple, ...]
    alphas: tuple

    @cached_property
    def frame_inverse(self) -> tuple[tuple, ...]:
        inv = mat_inverse([list(r) for r in self.frame_map], self.field)
        return tuple(tuple(r) for r in inv)


def fit_rnc(config: Configuration) -> RNCModel:
    """The unique rational normal curve through d+3 points in general
    linear position.

    The first d+2 points are sent to the standard frame e_0..e_d, [1:...:1];
    the image [q_0:...:q_d] of the last point then has all q_i nonzero and
    pairwise distinct, and the curve is pinned by alphas_i = -1/q_i.
    """
    d = config.dim
    field = config.field
    if len(config) != d + 3:
        raise MismatchError(
            f"fitting in P^{d} needs exactly {d + 3} points, got {len(config)}")
    if not is_general_linear_position(config):
        raise DegenerateInputError("points are not in general linear position")
    cols = [p.coords for p in config.points]
    frame = [[cols[j][i] for j in range(d + 1)] for i in range(d + 1)]
    lam = solve_linear(frame, list(cols[d + 1]), field)
    if not all(lam):
        raise DegenerateInputError("unit point degenerates against the frame")
    inv = mat_inverse(frame, field)
    a = [[inv[i][j] / lam[i] for j in range(d + 1)] for i in range(d + 1)]
    q = mat_vec(a, list(cols[d + 2]))
    if not all(q):
        raise DegenerateInputError("last point lies on a frame hyperplane")
    if len(set(q)) != d + 1:
        raise DegenerateInputError("last point has coincident frame ratios")
    alphas = tuple(-(field.one / qi) for qi in q)
    return RNCModel(dim=d, field=field,
                    frame_map=tuple(tuple(r) for r in a), alphas=alphas)


def curve_point(model: RNCModel, t: ParamPoint) -> ProjectivePoint:
    """Evaluate the fitted parametrization at t = [u:v]."""
    if t.field != model.field:
        raise MismatchError("parameter from a different field")
    u, v = t.a, t.b
    xs = []
    for i in range(model.dim + 1):
        prod = model.field.one
        for j, alpha in enumerate(model.alphas):
            if j != i:
                prod = prod * (u - alpha * v)
        xs.append(prod)
    coords = mat_vec([list(r) for r in model.frame_inverse], xs)
    return ProjectivePoint(tuple(coords), model.field)


def curve_contains(model: RNCModel, p: ProjectivePoint) -> Optional[ParamPoint]:
    """The parameter mapping to p under the model's curve, or None.

    In frame coordinates x = frame_map . p, a curve point has either no
    zero entries or exactly one nonzero entry (a frame point e_i, parameter
    [alphas_i : 1]).  In the first case x_i (u - alphas_i v) is independent
    of i, so any two distinct entries pin [u : v]; equal entries across the
    board mean [1 : 0].  Candidates are verified exactly, so tie-breaking
    cannot produce a wrong answer.
    """
    if p.field != model.field or p.dim != model.dim:
        raise MismatchError("point does not match the model")
    field = model.field
    x = mat_vec([list(r) for r in model.frame_map], list(p.coords))
    nonzero = [i for i, xi in enumerate(x) if xi]
    if len(nonzero) == 1:
        i = nonzero[0]
        candidate = ParamPoint(model.alphas[i], field.one, field)
    elif len(nonzero) == model.dim + 1:
        j = next((k for k in range(1, model.dim + 1) if x[k] != x[0]), None)
        if j is None:
            candidate = ParamPoint(field.one, field.zero, field)
        else:
            candidate = ParamPoint(
                model.alphas[0] * x[0] - model.alphas[j] * x[j],
                x[0] - x[j], field)
    else:
        return None
    if curve_point(model, candidate) == p:
        return candidate
    return None


def model_to_json(model: RNCModel) -> dict:
    fmt = model.field.format
    return {
        "dim": model.dim,
        "frame_map": [[fmt(c) for c in row] for row in model.frame_map],
        "alphas": [fmt(a) for a in model.alphas],
    }


def model_from_json(obj: dict, field: Field) -> RNCModel:
    return RNCModel(
        dim=int(obj["dim"]),
        field=field,
        frame_map=tuple(
            tuple(field.parse(c) for c in row) for row in obj["frame_map"]),
        alphas=tuple(field.parse(a) for a in obj["alphas"]),
    )

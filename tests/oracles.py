"""Independent recomputations used to pin expected values.

Everything here goes through sympy or first-principles formulas, never
through the package's own linear algebra, so a bug cannot cancel out of
both sides of an assertion.  sympy is a test dependency only.

The last sections hold helpers only the tests use: the equation at a
rank of the enumeration order, unranked subset by subset, polynomial
evaluation and degrees over MultiPoly.exponents(), powers by repeated
product, the vertex bracket by the plain row DP, the raw vector bracket,
the degeneracy predicate, model decoding (which calls the package's
scalar parsers), the Castelnuovo fit and containment by division in the
field (the scalar route the integer brackets replaced) and the fitted
curve's parametrization; then the incidence of hyperplanes, given as
points of the dual space, and the apolarity pairing of binary forms,
which the package itself never needs.

Field scalars are Fractions over Q and ints in [0, p) over Z/p.  Where
an oracle divides, it computes on elements that divide in the field:
Fractions over Q, sympy's GF(p) elements over Z/p (to_element and
to_scalar convert).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul
from typing import Optional, Union

import sympy
from sympy.polys.matrices import DomainMatrix

from rncgeom import identities
from rncgeom.curve import RNCModel, model_to_json
from rncgeom.equations import BracketEquation, count_equations, inversion_count
from rncgeom.errors import DegenerateInputError, MismatchError
from rncgeom.fields import QQ, Field
from rncgeom.polynomials import MultiPoly, poly_det
from rncgeom.projective import Configuration, ProjectivePoint


def to_sympy(x):
    """An int or Fraction as a sympy Rational."""
    return sympy.Rational(x.numerator, x.denominator)


def to_element(x, field: Field):
    """A scalar (an int, Fraction or string) as an element that divides
    in the field: a Fraction over Q, sympy's GF(p) element over Z/p."""
    if field.characteristic:
        return sympy.GF(field.characteristic)(field.scalar(x))
    return field.scalar(x)


def to_scalar(e, field: Field):
    """An element back as the field's scalar."""
    return field.scalar(int(e)) if field.characteristic else e


def canonical_scalars(point: ProjectivePoint) -> tuple:
    """The point's canonical coordinates, first nonzero one 1, as field
    scalars."""
    if point.field.characteristic:
        return point.coords
    return tuple(Fraction(c, point.scale) for c in point.coords)


def sympy_det(rows, field: Field = QQ):
    """Exact determinant of a square scalar matrix, as a field scalar."""
    m = sympy.Matrix([[to_sympy(x) for x in row] for row in rows])
    d = m.det(method="berkowitz")
    if field.characteristic:
        return field.scalar(int(d))
    return Fraction(int(d.p), int(d.q))


def domain_matrix(rows, field: Field = QQ) -> DomainMatrix:
    """A matrix of field scalars over sympy's QQ or GF(p), so that rank,
    null space and inverse are taken in the field itself."""
    if field.characteristic:
        dom = sympy.GF(field.characteristic)
        vals = [[dom(int(x)) for x in row] for row in rows]
    else:
        dom = sympy.QQ
        vals = [[dom(x.numerator, x.denominator) for x in row]
                for row in rows]
    return DomainMatrix(vals, (len(rows), len(rows[0])), dom)


def from_domain(row, field: Field = QQ) -> tuple:
    """Entries of a DomainMatrix row as field scalars."""
    if field.characteristic:
        return tuple(field.scalar(int(x)) for x in row)
    return tuple(Fraction(int(x.numerator), int(x.denominator)) for x in row)


def sympy_rank(rows, field: Field = QQ) -> int:
    return domain_matrix(rows, field).rank()


def vandermonde(ts):
    """prod_{i<j} (t_j - t_i) over exact rationals."""
    out = Fraction(1)
    for i, j in combinations(range(len(ts)), 2):
        out *= Fraction(ts[j]) - Fraction(ts[i])
    return out


def binomial_coords(a, b, d):
    """Coefficients of (a x + b y)^d in x^(d-i) y^i order, via sympy."""
    x, y = sympy.symbols("x y")
    poly = sympy.Poly(sympy.expand((to_sympy(a) * x + to_sympy(b) * y) ** d),
                      x, y)
    out = []
    for i in range(d + 1):
        c = poly.coeff_monomial(x ** (d - i) * y ** i)
        out.append(Fraction(int(c.p), int(c.q)))
    return tuple(out)


def product_form_coords(pairs):
    """Coefficients of prod (a_i x + b_i y), highest x-power first."""
    x, y = sympy.symbols("x y")
    expr = sympy.Integer(1)
    for a, b in pairs:
        expr *= to_sympy(a) * x + to_sympy(b) * y
    poly = sympy.Poly(sympy.expand(expr), x, y)
    d = len(pairs)
    out = []
    for i in range(d + 1):
        c = poly.coeff_monomial(x ** (d - i) * y ** i)
        out.append(Fraction(int(c.p), int(c.q)))
    return tuple(out)


def multipoly_to_sympy(p):
    """A MultiPoly as a sympy expression in a1..an, b1..bn.

    Exponent slots are laid out a_1..a_n then b_1..b_n.
    """
    n = p.n_points
    sa = sympy.symbols(f"a1:{n + 1}")
    sb = sympy.symbols(f"b1:{n + 1}")
    expr = sympy.Integer(0)
    for exps, coeff in p.exponents().items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for i in range(n):
            term *= sa[i] ** exps[i] * sb[i] ** exps[n + i]
        expr += term
    return sympy.expand(expr), sa, sb


def rand_fraction(rng, height=10) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def rand_distinct_fractions(rng, count, height=30):
    out = []
    seen = set()
    while len(out) < count:
        v = rand_fraction(rng, height)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def element_det(rows, field: Field):
    """Determinant of a square matrix of scalars by Gaussian elimination,
    dividing in the field, as an element (to_element)."""
    m = [[to_element(x, field) for x in r] for r in rows]
    n = len(m)
    det = to_element(1, field)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return to_element(0, field)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


@dataclass(frozen=True)
class VectorReport:
    m1: object
    m2: object
    value: object


def evaluate_equation_vectors(field: Field, vectors, eq) -> VectorReport:
    """Evaluate one equation on raw coordinate vectors, with no
    canonicalization, no cache and no integer kernel: each bracket is a
    direct determinant of the vectors as columns in written order."""
    assert len(vectors) == eq.n_points

    def monomial(cols_list):
        total = to_element(1, field)
        for cols in cols_list:
            k = len(cols)
            total = total * element_det(
                [[vectors[c - 1][i] for c in cols] for i in range(k)], field)
        return total

    first, second = eq.monomial_columns()
    m1 = monomial(first)
    m2 = monomial(second)
    return VectorReport(m1=to_scalar(m1, field), m2=to_scalar(m2, field),
                        value=to_scalar(m1 - m2, field))


def monomial_summary(eq, which: int):
    """Total sign and multiset of 2x2 factors of one of the equation's two
    monomials (which = 0 or 1) evaluated on the symbolic vertices, from
    the brackets in written order: each contributes its column inversion
    parity and its split sign, and its factors come from the closed-form
    factorization.

    split_sign and factor_pairs are looked up on the identities module at
    each call, so a test that patches them reaches this route too.
    """
    sign = 1
    factors: Counter = Counter()
    for cols in eq.monomial_columns()[which]:
        if inversion_count(cols) % 2:
            sign = -sign
        split = identities.SubsetSplit(eq.dim, tuple(sorted(cols)))
        sign *= identities.split_sign(split)
        factors.update(identities.factor_pairs(split))
    return sign, factors


def factor_route_oracle(eq) -> bool:
    """Whether the two monomials agree in sign and factor multiset."""
    return monomial_summary(eq, 0) == monomial_summary(eq, 1)


# ---------------------------------------------------------------------------
# test-only helpers


def _nth_subset(items, k: int, r: int) -> tuple:
    """The r-th (0-based) k-subset of items in combinations order: the
    first item leads the first C(len - 1, k - 1) of them."""
    items, out = list(items), []
    while k:
        lead = comb(len(items) - 1, k - 1)
        if r < lead:
            out.append(items[0])
            k -= 1
        else:
            r -= lead
        items = items[1:]
    return tuple(out)


def equation_at(dim: int, n: int, index: int) -> BracketEquation:
    """The equation at a position of the enumeration order: a support's
    C(dim+4, 6) equations have consecutive ranks, in sextet order."""
    total = count_equations(dim, n)
    if not 0 <= index < total:
        raise ValueError(f"index {index} outside [0, {total})")
    j, i = divmod(index, comb(dim + 4, 6))
    support = _nth_subset(range(1, n + 1), dim + 4, j)
    return BracketEquation(dim=dim, n_points=n, support=support,
                           sextet=_nth_subset(support, 6, i))


def evaluate(p, values) -> Fraction:
    """The MultiPoly p at a_i = values[i-1][0], b_i = values[i-1][1]."""
    if len(values) != p.n_points:
        raise ValueError(
            f"need {p.n_points} value pairs, got {len(values)}")
    flat = [Fraction(a) for a, _ in values] + \
        [Fraction(b) for _, b in values]
    total = Fraction(0)
    for exps, coeff in p.exponents().items():
        term = Fraction(coeff)
        for v, e in zip(flat, exps):
            if e:
                term *= v ** e
        total += term
    return total


def power(p, k: int):
    """The MultiPoly p to the k-th power, by repeated product."""
    out = MultiPoly.one(p.n_points)
    for _ in range(k):
        out = out * p
    return out


def total_degree(p) -> int:
    """Largest term degree of a MultiPoly; the zero polynomial reports 0."""
    return max((sum(e) for e in p.exponents()), default=0)


def degree_in_point(p, i: int) -> int:
    """Joint degree of a MultiPoly in a_i and b_i, 1-based."""
    n = p.n_points
    return max((e[i - 1] + e[n + i - 1] for e in p.exponents()), default=0)


def transposed_vertex_bracket(d: int, split):
    """The vertex bracket by the plain row DP, with the symbolic vertex
    coordinates as columns and no block split: the route the expansion
    along the group-1 vertex rows replaced."""
    cols = [identities.vertex_polys(d, k) for k in split.members]
    return poly_det([[col[r] for col in cols] for r in range(d + 1)])


def per_subset_factorizations(splits) -> list[bool]:
    """The sym-factorization verdicts by expansion: every split expanded
    on its own, the reference the proof route is pinned against."""
    return [identities.verify_factorization(split) for split in splits]


def bracket_vectors(field: Field, vectors):
    """Determinant of the matrix whose columns are the given coordinate
    vectors, in the order written.

    This is the raw multilinear bracket; it sees the actual vectors, not
    projective classes, so rescaling one vector rescales the value.
    """
    k = len(vectors)
    if any(len(v) != k for v in vectors):
        raise MismatchError(
            f"need {k} vectors of length {k} for a full bracket")
    # a determinant is unchanged by transposition, so the column vectors
    # serve as rows
    return to_scalar(element_det(vectors, field), field)


def is_degenerate(config: Configuration) -> bool:
    """Whether the configuration lies in a hyperplane; needs n >= d+1."""
    if len(config) < config.dim + 1:
        raise MismatchError(
            f"need at least {config.dim + 1} points to test degeneracy")
    return sympy_rank([p.coords for p in config.points],
                      config.field) <= config.dim


@dataclass(frozen=True)
class ScalarModel:
    """A fitted curve in field scalars, as curve.model_to_json prints it:
    the map to the standard frame and the alphas."""

    dim: int
    field: Field
    frame_map: tuple
    alphas: tuple


def model_from_json(obj: dict, field: Field) -> ScalarModel:
    """The inverse of curve.model_to_json."""
    return ScalarModel(
        dim=int(obj["dim"]),
        field=field,
        frame_map=tuple(
            tuple(field.parse(c) for c in row) for row in obj["frame_map"]),
        alphas=tuple(field.parse(a) for a in obj["alphas"]),
    )


@lru_cache(maxsize=64)
def scalar_model(model: Union[RNCModel, ScalarModel]) -> ScalarModel:
    """The model's printed scalars: a fitted RNCModel decoded from
    model_to_json, a ScalarModel as it is."""
    if isinstance(model, ScalarModel):
        return model
    return model_from_json(model_to_json(model), model.field)


def reference_fit_rnc(config: Configuration) -> ScalarModel:
    """The Castelnuovo fit by division in the field, the scalar route that
    curve.fit_rnc's integer brackets replaced.  With [v@i] the determinant
    of the canonical coordinates of the frame p_0..p_d with p_i replaced by
    v: frame_map[i][j] = [e_j@i] / [p_{d+1}@i], q_i = [p_{d+2}@i] /
    [p_{d+1}@i] and alphas_i = -1/q_i, the q_i nonzero and distinct."""
    d, field = config.dim, config.field
    if len(config) != d + 3:
        raise MismatchError(
            f"fitting in P^{d} needs exactly {d + 3} points, got {len(config)}")
    cols = [canonical_scalars(p) for p in config.points]
    frame = cols[:d + 1]

    def at(v, i):
        return element_det(frame[:i] + [v] + frame[i + 1:], field)

    unit = [at(cols[d + 1], i) for i in range(d + 1)]
    if not all(unit):
        raise DegenerateInputError("unit point degenerates against the frame")
    axes = [[int(k == j) for k in range(d + 1)] for j in range(d + 1)]
    frame_map = [[at(e, i) / unit[i] for e in axes] for i in range(d + 1)]
    q = [at(cols[d + 2], i) / unit[i] for i in range(d + 1)]
    if not all(q):
        raise DegenerateInputError("last point lies on a frame hyperplane")
    if len(set(q)) != d + 1:
        raise DegenerateInputError("last point has coincident frame ratios")
    one = to_element(1, field)
    return ScalarModel(
        dim=d, field=field,
        frame_map=tuple(tuple(to_scalar(x, field) for x in row)
                        for row in frame_map),
        alphas=tuple(to_scalar(-(one / qi), field) for qi in q))


def reference_curve_contains(model, p: ProjectivePoint
                             ) -> Optional[ProjectivePoint]:
    """curve_contains by division in the field, the scalar route the
    integer rank test replaced: x = frame_map . p, and p is on the curve
    when x = e_i (parameter [alphas_i : 1]) or when x has no zero entry
    and 1/x_i = c0 + c1 alphas_i for every i, c0 and c1 pinned by the
    first two entries; the parameter is then [c0 : -c1]."""
    model = scalar_model(model)
    field = model.field
    if p.field != field or p.dim != model.dim:
        raise MismatchError("point does not match the model")
    el = [to_element(c, field) for c in canonical_scalars(p)]
    alphas = [to_element(a, field) for a in model.alphas]
    x = [sum(to_element(a, field) * c for a, c in zip(row, el))
         for row in model.frame_map]
    nonzero = [i for i, xi in enumerate(x) if xi]
    if len(nonzero) == 1:
        return ProjectivePoint((model.alphas[nonzero[0]], 1), field)
    if len(nonzero) <= model.dim:
        return None
    y = [1 / xi for xi in x]
    c1 = (y[1] - y[0]) / (alphas[1] - alphas[0])
    c0 = y[0] - c1 * alphas[0]
    if any(yi != c0 + c1 * a for yi, a in zip(y, alphas)):
        return None
    return ProjectivePoint((to_scalar(c0, field), to_scalar(-c1, field)),
                           field)


@lru_cache(maxsize=64)
def _frame_inverse(model: ScalarModel) -> DomainMatrix:
    return domain_matrix(model.frame_map, model.field).inv()


def from_frame(model, xs) -> ProjectivePoint:
    """The point with frame coordinates xs: xs mapped back through sympy's
    inverse of the frame map."""
    model = scalar_model(model)
    column = domain_matrix([[x] for x in xs], model.field)
    image = (_frame_inverse(model) * column).to_list()
    return ProjectivePoint(from_domain([x for x, in image], model.field),
                           model.field)


def curve_frame_coords(model, t: ProjectivePoint) -> list:
    """The frame coordinates (prod_{j != i} (u - alphas_j v))_i of the
    fitted curve at t = [u:v], as field scalars."""
    model = scalar_model(model)
    field = model.field
    if t.field != field:
        raise MismatchError("parameter from a different field")
    u, v = (to_element(c, field) for c in t.coords)
    factors = [u - to_element(alpha, field) * v for alpha in model.alphas]
    xs = []
    for i in range(model.dim + 1):
        x = to_element(1, field)
        for f in factors[:i] + factors[i + 1:]:
            x = x * f
        xs.append(to_scalar(x, field))
    return xs


def curve_point(model, t: ProjectivePoint) -> ProjectivePoint:
    """The fitted curve at t = [u:v]."""
    return from_frame(model, curve_frame_coords(model, t))


# ---------------------------------------------------------------------------
# hyperplanes as points of the dual space


def pairing(plane: ProjectivePoint, point: ProjectivePoint):
    """The value of the plane's linear form on the point's vector (mod p
    over Z/p), zero iff the point lies on the plane."""
    if point.field != plane.field or point.dim != plane.dim:
        raise MismatchError("hyperplane and point do not match")
    return plane.field.scalar(sum(map(mul, plane.coords, point.coords)))


def contains(plane: ProjectivePoint, point: ProjectivePoint) -> bool:
    return not pairing(plane, point)


def hyperplane_intersection(planes) -> ProjectivePoint:
    """The common point of d hyperplanes of P^d, when it is unique."""
    if not planes:
        raise ValueError("no hyperplanes")
    field = planes[0].field
    d = planes[0].dim
    for h in planes:
        if h.field != field or h.dim != d:
            raise MismatchError("hyperplanes mix fields or dimensions")
    null = domain_matrix([h.coords for h in planes], field).nullspace()
    if null.shape[0] != 1:
        raise DegenerateInputError(
            f"intersection has dimension {null.shape[0] - 1}, not a point")
    return ProjectivePoint(from_domain(null.to_list()[0], field), field)


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
        out = BinaryForm((self.field.scalar(1),), self.field)
        for _ in range(k):
            out = out * self
        return out


def _convolve(c1: tuple, c2: tuple, field: Field) -> tuple:
    out = [field.scalar(0)] * (len(c1) + len(c2) - 1)
    for i, a in enumerate(c1):
        if a:
            for j, b in enumerate(c2):
                out[i + j] = out[i + j] + a * b
    return tuple(out)


def linear_form(q: ProjectivePoint) -> BinaryForm:
    """The linear form a x0 + b x1 attached to the point [a:b] of P^1."""
    return BinaryForm(q.coords, q.field)


def apolar_operator(q: ProjectivePoint) -> BinaryForm:
    """The operator b D0 - a D1, which annihilates (a x0 + b x1)^n."""
    a, b = q.coords
    return BinaryForm((b, -a), q.field)


def _falling(field: Field, n: int, k: int):
    out = field.scalar(1)
    for t in range(k):
        out = out * field.scalar(n - t)
    return out


def apolarity_apply(op: BinaryForm, f: BinaryForm):
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
    out = [field.scalar(0)] * (n - k + 1)
    for r in range(n - k + 1):
        acc = field.scalar(0)
        for i in range(k + 1):
            j = r + i
            c = op.coeffs[i] * f.coeffs[j]
            if c:
                acc = acc + c * _falling(field, n - j, k - i) \
                    * _falling(field, j, i)
        out[r] = acc
    if k == n:
        return field.scalar(out[0])
    return BinaryForm(tuple(out), field)

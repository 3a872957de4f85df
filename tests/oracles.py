"""Independent recomputations used to pin expected values.

Everything here goes through sympy or first-principles formulas, never
through the package's own linear algebra, so a bug cannot cancel out of
both sides of an assertion.  sympy is a test dependency only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import sympy

from rncgeom import identities
from rncgeom.equations import inversion_count
from rncgeom.fields import QQ, Field, Residue


def to_sympy(x):
    if isinstance(x, Residue):
        return sympy.Integer(x.value)
    return sympy.Rational(x.numerator, x.denominator)


def sympy_det(rows, field: Field = QQ):
    """Exact determinant of a square scalar matrix, as a field scalar."""
    m = sympy.Matrix([[to_sympy(x) for x in row] for row in rows])
    d = m.det(method="berkowitz")
    if field.kind == "prime":
        return field.from_int(int(d))
    return Fraction(int(d.p), int(d.q))


def sympy_rank(rows) -> int:
    return sympy.Matrix([[to_sympy(x) for x in row] for row in rows]).rank()


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
    for exps, coeff in p.terms.items():
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


def field_det(rows, field: Field):
    """Determinant of a square matrix of field scalars by Gaussian
    elimination, dividing in the field (Fractions or residues)."""
    m = [list(r) for r in rows]
    n = len(m)
    det = field.one
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return field.zero
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
        total = field.one
        for cols in cols_list:
            k = len(cols)
            total = total * field_det(
                [[field.scalar(vectors[c - 1][i]) for c in cols]
                 for i in range(k)], field)
        return total

    first, second = eq.monomial_columns()
    m1 = monomial(first)
    m2 = monomial(second)
    return VectorReport(m1=m1, m2=m2, value=m1 - m2)


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

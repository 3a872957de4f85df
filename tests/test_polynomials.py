import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    degree_in_point,
    evaluate,
    multipoly_to_sympy,
    power,
    rand_fraction,
    sympy_det,
    total_degree,
)
from rncgeom.polynomials import MultiPoly, poly_det

N = 3


def make_poly(n, terms):
    return MultiPoly(n, {tuple(e): c for e, c in terms.items()})


@st.composite
def polys(draw, n=N, max_terms=4, max_exp=2):
    count = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(count):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(2 * n))
        coeff = draw(st.integers(-9, 9))
        if coeff:
            terms[exps] = coeff
    return MultiPoly(n, terms)


@st.composite
def wide_polys(draw, n=N, max_terms=4, max_high=120):
    """Polynomials whose terms reach far into one exponent field, so a
    product of two gets within a few degrees of the 255 bound."""
    count = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(count):
        exps = [draw(st.integers(0, 1)) for _ in range(2 * n)]
        exps[draw(st.integers(0, 2 * n - 1))] = draw(
            st.integers(max_high - 10, max_high))
        terms[tuple(exps)] = draw(st.integers(-50, 50))
    return MultiPoly(n, terms)


# ---------------------------------------------------------------------------
# construction and normalization


def test_zero_coefficients_are_dropped():
    p = make_poly(1, {(1, 0): 0, (0, 1): 2})
    assert p.exponents() == {(0, 1): 2}
    assert MultiPoly.zero(2).is_zero
    assert not MultiPoly.one(2).is_zero


def test_exponent_width_is_validated():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, 0): 1})


def test_variable_constructors():
    # slots run a_1..a_n then b_1..b_n
    a2 = MultiPoly.var_a(3, 2)
    assert a2.exponents() == {(0, 1, 0, 0, 0, 0): 1}
    b3 = MultiPoly.var_b(3, 3)
    assert b3.exponents() == {(0, 0, 0, 0, 0, 1): 1}
    with pytest.raises(ValueError):
        MultiPoly.var_a(3, 4)


@pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(3), 2.0])
def test_non_int_coefficients_raise(coeff):
    """Coefficients lie in Z and are ints; nothing else gets in, and a
    polynomial times a number is not a product."""
    with pytest.raises(TypeError):
        MultiPoly(1, {(1, 0): coeff})
    with pytest.raises(TypeError):
        MultiPoly.constant(1, coeff)
    for c in (coeff, 3):
        with pytest.raises(TypeError):
            MultiPoly.var_a(2, 1) * c
        with pytest.raises(TypeError):
            c * MultiPoly.var_a(2, 1)


@pytest.mark.parametrize("other", [1, Fraction(1, 2), 2.0, "a", None])
def test_sum_and_difference_with_a_non_polynomial_raise(other):
    """A polynomial plus or minus anything but a polynomial, from either
    side, is a TypeError, as a product is."""
    p = MultiPoly.one(1)
    for form in (lambda: p + other, lambda: other + p,
                 lambda: p - other, lambda: other - p):
        with pytest.raises(TypeError):
            form()


def test_immutability():
    p = MultiPoly.one(2)
    with pytest.raises(AttributeError):
        p.terms = {}


# ---------------------------------------------------------------------------
# ring laws


@given(polys(), polys())
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys(), polys(), polys())
def test_addition_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys(), polys())
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@given(polys(), polys(), polys())
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys(), polys(), polys())
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys())
def test_additive_inverse(p):
    assert (p - p).is_zero
    assert p + (-p) == MultiPoly.zero(N)


@given(polys())
def test_units(p):
    assert p * MultiPoly.one(N) == p
    assert p + MultiPoly.zero(N) == p
    assert p * MultiPoly.zero(N) == MultiPoly.zero(N)


# ---------------------------------------------------------------------------
# the packed exponent layout


@given(st.one_of(polys(), wide_polys()), st.one_of(polys(), wide_polys()))
def test_product_and_sum_match_sympy(p, q):
    expr_p, _, _ = multipoly_to_sympy(p)
    expr_q, _, _ = multipoly_to_sympy(q)
    assert multipoly_to_sympy(p * q)[0] == sympy.expand(expr_p * expr_q)
    assert multipoly_to_sympy(p + q)[0] == sympy.expand(expr_p + expr_q)


@given(wide_polys())
def test_packed_order_is_graded_lex(p):
    exps = p.exponents()
    unpacked = dict(zip(p.terms, exps))
    assert [unpacked[k] for k in sorted(p.terms, reverse=True)] == sorted(
        exps, key=lambda e: (-sum(e), tuple(-x for x in e)))


def test_exponents_at_the_field_width():
    a1, b1 = MultiPoly.var_a(2, 1), MultiPoly.var_b(2, 1)
    b2 = MultiPoly.var_b(2, 2)
    p = power(a1, 200) * power(b2, 55)
    assert p.exponents() == {(200, 0, 0, 55): 1}
    assert str(p) == "a1^200*b2^55"
    q = power(a1 + b1, 5) * (power(a1, 195) * power(b2, 55))
    assert total_degree(q) == 255 and degree_in_point(q, 1) == 200
    assert len(q.terms) == 6
    assert str(q).startswith("a1^200*b2^55 + 5*a1^199*b1*b2^55")
    assert str(q).endswith("+ a1^195*b1^5*b2^55")


def test_product_past_degree_255_raises():
    a1, b2 = MultiPoly.var_a(2, 1), MultiPoly.var_b(2, 2)
    p = power(a1, 200) * power(b2, 55)
    with pytest.raises(OverflowError):
        p * a1
    with pytest.raises(OverflowError):
        power(a1, 128) * power(b2, 128)
    with pytest.raises(OverflowError):
        MultiPoly(2, {(256, 0, 0, 0): 1})
    with pytest.raises(OverflowError):
        MultiPoly(2, {(128, 0, 0, 128): 1})


# ---------------------------------------------------------------------------
# evaluation and degrees


@given(polys(), polys())
def test_product_evaluates_pointwise(p, q):
    rng = random.Random(7)
    values = [(rand_fraction(rng, 5), rand_fraction(rng, 5))
              for _ in range(N)]
    assert evaluate(p * q, values) == evaluate(p, values) * evaluate(q, values)
    assert evaluate(p + q, values) == evaluate(p, values) + evaluate(q, values)


@given(polys())
def test_evaluation_matches_sympy(p):
    expr, sa, sb = multipoly_to_sympy(p)
    rng = random.Random(11)
    values = [(rand_fraction(rng, 5), rand_fraction(rng, 5))
              for _ in range(N)]
    subs = {}
    for i in range(N):
        subs[sa[i]] = sympy.Rational(values[i][0])
        subs[sb[i]] = sympy.Rational(values[i][1])
    expected = expr.subs(subs)
    got = evaluate(p, values)
    assert sympy.Rational(got) == expected


def test_degrees():
    a1 = MultiPoly.var_a(2, 1)
    b2 = MultiPoly.var_b(2, 2)
    p = power(a1, 3) * b2 + a1 * b2
    assert total_degree(p) == 4
    assert degree_in_point(p, 1) == 3
    assert degree_in_point(p, 2) == 1
    assert total_degree(MultiPoly.zero(2)) == 0


# ---------------------------------------------------------------------------
# printing


def test_str_golden():
    a1 = MultiPoly.var_a(2, 1)
    a2 = MultiPoly.var_a(2, 2)
    b1 = MultiPoly.var_b(2, 1)
    b2 = MultiPoly.var_b(2, 2)
    assert str(a1 * b2 - a2 * b1) == "a1*b2 - a2*b1"
    assert str(MultiPoly.zero(2)) == "0"
    assert str(power(a1, 2) * (MultiPoly.constant(2, 4) * b1)) == "4*a1^2*b1"
    assert str(MultiPoly.constant(2, 3)
               - a1 * (MultiPoly.constant(2, 2) * a1)) == "-2*a1^2 + 3"


def test_str_orders_by_grade_then_lex():
    a1 = MultiPoly.var_a(2, 1)
    b2 = MultiPoly.var_b(2, 2)
    p = b2 + a1 * a1 + a1
    assert str(p) == "a1^2 + a1 + b2"


def test_repr_is_distinct_from_str():
    p = MultiPoly.var_a(1, 1)
    assert "MultiPoly" in repr(p)


# ---------------------------------------------------------------------------
# symbolic determinants


def test_poly_det_constant_matrix_matches_numeric(rng):
    for n in (1, 2, 3, 4):
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        sym = [[MultiPoly.constant(1, x) for x in row] for row in m]
        expected = sympy_det(m)
        for split in range(n + 1):
            got = poly_det(sym, split)
            assert got == MultiPoly.constant(1, int(expected)), split


def test_poly_det_matches_evaluation(rng):
    for n in (2, 3, 4):
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                # random small linear forms in 2 points
                p = MultiPoly.zero(2)
                for idx in (1, 2):
                    p = p + MultiPoly.constant(2, rng.randint(-3, 3)) \
                        * MultiPoly.var_a(2, idx)
                    p = p + MultiPoly.constant(2, rng.randint(-3, 3)) \
                        * MultiPoly.var_b(2, idx)
                entries[i][j] = p
        dp = poly_det(entries)
        values = [(rand_fraction(rng, 5), rand_fraction(rng, 5))
                  for _ in range(2)]
        numeric = [[evaluate(entries[i][j], values) for j in range(n)]
                   for i in range(n)]
        assert evaluate(dp, values) == sympy_det(numeric)
        # every Laplace split gives the same polynomial as the row DP
        for split in range(1, n + 1):
            assert poly_det(entries, split) == dp, split


def test_poly_det_alternating():
    a1 = MultiPoly.var_a(2, 1)
    b1 = MultiPoly.var_b(2, 1)
    rows = [[a1, b1], [a1, b1]]
    assert poly_det(rows).is_zero
    assert poly_det(rows, 1).is_zero


def test_poly_det_rejects_bad_split():
    rows = [[MultiPoly.one(1)]]
    for split in (-1, 2):
        with pytest.raises(ValueError):
            poly_det(rows, split)

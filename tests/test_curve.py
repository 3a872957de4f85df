import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    binomial_coords,
    product_form_coords,
    rand_distinct_fractions,
    rand_fraction,
)
from rncgeom.curve import (
    BinaryForm,
    ParamPoint,
    RNCModel,
    apolar_operator,
    apolarity_apply,
    cross_value,
    curve_contains,
    curve_point,
    fit_rnc,
    linear_form,
    model_from_json,
    model_to_json,
    osculating_coeffs,
    osculating_hyperplane,
    param_from_json,
    param_point,
    param_to_json,
    simplex_vertex,
    veronese_coords,
    veronese_embed,
    vertex_coords,
)
from rncgeom.errors import CharacteristicError, DegenerateInputError, MismatchError
from rncgeom.fields import QQ, PrimeField
from rncgeom.polynomials import MultiPoly
from rncgeom.projective import (
    Configuration,
    ProjectivePoint,
    bracket,
    hyperplane_intersection,
)

FP = PrimeField(101)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=10)

param_values = st.tuples(fractions, fractions).filter(lambda ab: any(ab))


def qq_param(a, b=1):
    return param_point(QQ, a, b)


def pt(*coords):
    return ProjectivePoint(tuple(Fraction(c) for c in coords), QQ)


# ---------------------------------------------------------------------------
# parameter points


def test_param_canonicalization_and_equality():
    assert qq_param(2, 4) == qq_param(1, 2)
    assert qq_param(0, 5) == qq_param(0, 1)
    with pytest.raises(ValueError):
        ParamPoint(QQ.zero, QQ.zero, QQ)


@given(param_values, param_values)
def test_cross_value_zero_iff_equal(ab1, ab2):
    q1 = qq_param(*ab1)
    q2 = qq_param(*ab2)
    assert (cross_value(q1, q2) == 0) == (q1 == q2)
    assert cross_value(q1, q2) == -cross_value(q2, q1)


def test_param_json_round_trip():
    q = qq_param(Fraction(-3, 7), 2)
    assert param_from_json(param_to_json(q), QQ) == q
    r = param_point(FP, 5, 3)
    assert param_from_json(param_to_json(r), FP) == r


# ---------------------------------------------------------------------------
# embedding


def test_veronese_known_points():
    assert veronese_embed(qq_param(1, 0), 3) == pt(1, 0, 0, 0)
    assert veronese_embed(qq_param(1, 1), 2) == pt(1, 2, 1)
    assert veronese_embed(qq_param(2, 1), 3) == pt(8, 12, 6, 1)


@given(param_values, st.integers(1, 6))
def test_veronese_matches_binomial_expansion(ab, d):
    q = qq_param(*ab)
    assert veronese_coords(q, d) == binomial_coords(q.a, q.b, d)


def test_veronese_rejects_small_characteristic():
    q = param_point(PrimeField(3), 1, 1)
    with pytest.raises(CharacteristicError):
        veronese_embed(q, 3)
    with pytest.raises(ValueError):
        veronese_embed(qq_param(1), 0)


# ---------------------------------------------------------------------------
# osculating hyperplanes


def test_osculating_known_coefficients():
    assert osculating_hyperplane(qq_param(0, 1), 3).coeffs == \
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    # canonicalization flips the overall sign of (0,0,0,-1)
    assert osculating_hyperplane(qq_param(1, 0), 3).coeffs == \
        (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    assert osculating_hyperplane(qq_param(1, 1), 2).coeffs == \
        (Fraction(1), Fraction(-1), Fraction(1))


@given(param_values, param_values, st.integers(1, 5))
def test_osculating_pairing_closed_form(ab0, ab, d):
    """On raw coordinates the pairing with the curve collapses to a d-th
    power of the 2x2 bracket, so the contact point is the only zero."""
    q0 = qq_param(*ab0)
    q = qq_param(*ab)
    h = osculating_coeffs(q0, d)
    v = veronese_coords(q, d)
    pair = sum((hc * vc for hc, vc in zip(h, v)), Fraction(0))
    assert pair == (q.a * q0.b - q.b * q0.a) ** d


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_osculating_pairing_identity_symbolic(d):
    # point variables a1,b1; contact-point variables a2,b2
    a1 = MultiPoly.var_a(2, 1)
    b1 = MultiPoly.var_b(2, 1)
    a2 = MultiPoly.var_a(2, 2)
    b2 = MultiPoly.var_b(2, 2)
    pairing = MultiPoly.zero(2)
    for i in range(d + 1):
        h_i = (a2 ** i) * (b2 ** (d - i))
        if i % 2:
            h_i = -h_i
        v_i = (a1 ** (d - i)) * (b1 ** i) * MultiPoly.constant(2, comb(d, i))
        pairing = pairing + h_i * v_i
    assert pairing == (a1 * b2 - a2 * b1) ** d


@given(param_values, st.integers(1, 4))
def test_curve_point_lies_on_its_osculating_hyperplane(ab, d):
    q = qq_param(*ab)
    assert osculating_hyperplane(q, d).contains(veronese_embed(q, d))


# ---------------------------------------------------------------------------
# simplex vertices


def test_vertex_coordinates_match_product_expansion(rng):
    for _ in range(15):
        d = rng.randint(1, 5)
        ts = rand_distinct_fractions(rng, d)
        qs = [qq_param(t) for t in ts]
        coeffs = product_form_coords([(q.a, q.b) for q in qs])
        # r_k is the coefficient of x^(d-k) y^k, which the oracle lists at k
        assert vertex_coords(qs) == coeffs


def test_vertex_known_value():
    qs = [qq_param(t) for t in (0, 1, 2)]
    assert simplex_vertex(qs) == pt(0, 2, 3, 1)


def test_vertex_is_the_intersection_of_its_planes(rng):
    for d in (2, 3, 4):
        ts = rand_distinct_fractions(rng, d)
        qs = [qq_param(t) for t in ts]
        planes = [osculating_hyperplane(q, d) for q in qs]
        v = simplex_vertex(qs)
        assert hyperplane_intersection(planes) == v
        for h in planes:
            assert h.contains(v)


def test_vertex_avoids_other_osculating_planes(rng):
    for d in (2, 3):
        ts = rand_distinct_fractions(rng, d + 1)
        qs = [qq_param(t) for t in ts[:d]]
        other = qq_param(ts[d])
        v = simplex_vertex(qs)
        assert not osculating_hyperplane(other, d).contains(v)


def test_vertex_rejects_repeats():
    with pytest.raises(DegenerateInputError):
        simplex_vertex([qq_param(1), qq_param(2), qq_param(1)])


# ---------------------------------------------------------------------------
# apolarity


def test_apolar_operator_annihilates_its_power():
    q = qq_param(1, 2)
    f = linear_form(q).power(3)
    assert f.coeffs == (Fraction(1), Fraction(6), Fraction(12), Fraction(8))
    op = apolar_operator(q).power(3)
    assert op.coeffs == (Fraction(8), Fraction(-12), Fraction(6), Fraction(-1))
    assert apolarity_apply(op, f) == 0
    # one application already kills the form
    partial = apolarity_apply(apolar_operator(q), f)
    assert all(c == 0 for c in partial.coeffs)


def test_apolarity_pairing_on_distinct_points():
    d = 3
    q1 = qq_param(1, 2)
    q2 = qq_param(3, 1)
    op = apolar_operator(q1).power(d)
    f = linear_form(q2).power(d)
    cross = q1.b * q2.a - q1.a * q2.b
    assert apolarity_apply(op, f) == factorial(d) * cross ** d


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_apolarity_monomial_pairing_is_diagonal(d):
    """D0^(d-i) D1^i against x0^(d-j) x1^j pairs to (d-i)! i! on the
    diagonal and zero off it: a perfect pairing."""
    for i in range(d + 1):
        op_c = tuple(QQ.one if k == i else QQ.zero for k in range(d + 1))
        op = BinaryForm(op_c, QQ)
        for j in range(d + 1):
            f_c = tuple(QQ.one if k == j else QQ.zero for k in range(d + 1))
            f = BinaryForm(f_c, QQ)
            expected = factorial(d - i) * factorial(i) if i == j else 0
            assert apolarity_apply(op, f) == expected


def test_apolarity_degree_mismatch_raises():
    op = BinaryForm((QQ.one, QQ.one), QQ)
    f = BinaryForm((QQ.one,), QQ)
    with pytest.raises(MismatchError):
        apolarity_apply(op, f)


def test_apolarity_partial_application_differentiates():
    # D0 applied to x0^2 x1 gives 2 x0 x1
    op = BinaryForm((QQ.one, QQ.zero), QQ)
    f = BinaryForm((QQ.zero, QQ.one, QQ.zero, QQ.zero), QQ)
    g = apolarity_apply(op, f)
    assert g.coeffs == (Fraction(0), Fraction(2), Fraction(0))


# ---------------------------------------------------------------------------
# fitting


def standard_config(d, ts):
    pts = tuple(veronese_embed(qq_param(t), d) for t in ts)
    return Configuration(field=QQ, dim=d, points=pts)


def test_fit_frame_example():
    config = Configuration(field=QQ, dim=2, points=(
        pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1), pt(1, 2, 4)))
    model = fit_rnc(Configuration(field=QQ, dim=2, points=config.points[:5]))
    ident = tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    assert model.frame_map == ident
    assert model.alphas == (Fraction(-1), Fraction(-1, 2), Fraction(-1, 4))
    assert curve_point(model, qq_param(1, 0)) == pt(1, 1, 1)
    assert curve_point(model, qq_param(0, 1)) == pt(1, 2, 4)
    for p in config.points:
        assert curve_contains(model, p) is not None


def test_fit_round_trip_on_curve_samples(rng):
    for d in (2, 3, 4):
        ts = rand_distinct_fractions(rng, d + 4)
        model = fit_rnc(standard_config(d, ts[:d + 3]))
        # every sample point is recovered, including ones not fitted
        for t in ts:
            found = curve_contains(model, veronese_embed(qq_param(t), d))
            assert found is not None


def test_fit_input_validation():
    with pytest.raises(MismatchError):
        fit_rnc(standard_config(2, [0, 1, 2, 3]))
    config = standard_config(3, [0, 1, 2, 3, 4])
    bad = Configuration(field=QQ, dim=3,
                        points=config.points + (config.points[-1],))
    with pytest.raises(DegenerateInputError):
        fit_rnc(bad)


def test_curve_point_injective(rng):
    ts = rand_distinct_fractions(rng, 6)
    model = fit_rnc(standard_config(3, ts))
    p1 = curve_point(model, qq_param(5, 7))
    p2 = curve_point(model, qq_param(7, 5))
    assert p1 != p2


def test_curve_contains_round_trip(rng):
    ts = rand_distinct_fractions(rng, 5)
    model = fit_rnc(standard_config(2, ts))
    for _ in range(12):
        a = rand_fraction(rng)
        b = rand_fraction(rng)
        if a == 0 and b == 0:
            continue
        t = qq_param(a, b)
        assert curve_contains(model, curve_point(model, t)) == t


def test_curve_contains_frame_points(rng):
    ts = rand_distinct_fractions(rng, 5)
    model = fit_rnc(standard_config(2, ts))
    # frame points have a single nonzero frame coordinate
    e1 = curve_point(model, ParamPoint(model.alphas[1], QQ.one, QQ))
    t = curve_contains(model, e1)
    assert t == ParamPoint(model.alphas[1], QQ.one, QQ)
    assert curve_contains(model, curve_point(model, qq_param(1, 0))) == \
        qq_param(1, 0)


def test_curve_contains_rejects_off_curve_points(rng):
    ts = rand_distinct_fractions(rng, 5)
    model = fit_rnc(standard_config(2, ts))
    misses = 0
    for _ in range(10):
        p = pt(*(rand_fraction(rng) + Fraction(1, 997) for _ in range(3)))
        if curve_contains(model, p) is None:
            misses += 1
    assert misses >= 9  # a random point essentially never lies on the conic


def test_fit_transformed_frame(rng):
    """Fitting is frame-independent: transform curve samples by a random
    projectivity, fit, and every transformed sample is still recovered."""
    d = 2
    while True:
        m = [[rand_fraction(rng) for _ in range(d + 1)] for _ in range(d + 1)]
        from rncgeom.projective import det
        if det(m, QQ):
            break
    ts = rand_distinct_fractions(rng, d + 4)
    pts = []
    for t in ts:
        v = veronese_coords(qq_param(t), d)
        pts.append(ProjectivePoint(
            tuple(sum((m[i][j] * v[j] for j in range(d + 1)), Fraction(0))
                  for i in range(d + 1)), QQ))
    model = fit_rnc(Configuration(field=QQ, dim=d, points=tuple(pts[:d + 3])))
    for p in pts:
        assert curve_contains(model, p) is not None


def test_fit_over_prime_field():
    ts = [0, 1, 2, 3, 4]
    pts = tuple(veronese_embed(param_point(FP, t), 2) for t in ts)
    model = fit_rnc(Configuration(field=FP, dim=2, points=pts[:5]))
    for p in pts:
        assert curve_contains(model, p) is not None


def test_model_json_round_trip(rng):
    ts = rand_distinct_fractions(rng, 6)
    model = fit_rnc(standard_config(3, ts))
    obj = model_to_json(model)
    assert set(obj) == {"dim", "frame_map", "alphas"}
    back = model_from_json(obj, QQ)
    assert back == model

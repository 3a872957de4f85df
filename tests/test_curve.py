import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    BinaryForm,
    apolar_operator,
    apolarity_apply,
    binomial_coords,
    contains,
    curve_frame_coords,
    curve_point,
    from_frame,
    hyperplane_intersection,
    linear_form,
    model_from_json,
    power,
    product_form_coords,
    rand_distinct_fractions,
    rand_fraction,
    reference_curve_contains,
    reference_fit_rnc,
    scalar_model,
    sympy_det,
)
from rncgeom import curve
from rncgeom.curve import (
    RNCModel,
    curve_contains,
    fit_and_test,
    fit_rnc,
    linear_product_coeffs,
    model_to_json,
    osculating_coeffs,
    osculating_hyperplane,
    param_point,
    simplex_vertex,
    veronese_embed,
)
from rncgeom.errors import CharacteristicError, DegenerateInputError, MismatchError
from rncgeom.fields import QQ, PrimeField
from rncgeom.polynomials import MultiPoly
from rncgeom.staudt import sample_instance
from rncgeom.projective import (
    Configuration,
    ProjectivePoint,
    bracket,
    is_general_linear_position,
    points_from_json,
    points_to_json,
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
        param_point(QQ, 0, 0)


@given(param_values, param_values)
def test_cross_value_zero_iff_equal(ab1, ab2):
    """The 2x2 bracket a1 b2 - a2 b1 of two parameter points, the cross
    value, vanishes exactly when they coincide, and is antisymmetric."""
    q1 = qq_param(*ab1)
    q2 = qq_param(*ab2)
    assert (bracket([q1, q2]) == 0) == (q1 == q2)
    assert bracket([q1, q2]) == -bracket([q2, q1])


def test_param_json_round_trip():
    qs = (qq_param(Fraction(-3, 7), 2), qq_param(1, 0))
    assert points_from_json(points_to_json(qs), QQ) == qs
    rs = (param_point(FP, 5, 3), param_point(FP, 0, 1))
    assert points_from_json(points_to_json(rs), FP) == rs


# ---------------------------------------------------------------------------
# embedding


def test_veronese_known_points():
    assert veronese_embed(qq_param(1, 0), 3) == pt(1, 0, 0, 0)
    assert veronese_embed(qq_param(1, 1), 2) == pt(1, 2, 1)
    assert veronese_embed(qq_param(2, 1), 3) == pt(8, 12, 6, 1)


@given(param_values, st.integers(1, 6))
def test_veronese_matches_binomial_expansion(ab, d):
    q = qq_param(*ab)
    assert linear_product_coeffs([q.coords] * d, 1) == binomial_coords(
        *q.coords, d)


def test_veronese_rejects_small_characteristic():
    q = param_point(PrimeField(3), 1, 1)
    with pytest.raises(CharacteristicError):
        veronese_embed(q, 3)
    for embed in (veronese_embed, osculating_hyperplane):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            embed(qq_param(1), 0)


# ---------------------------------------------------------------------------
# osculating hyperplanes


def test_osculating_known_coefficients():
    assert osculating_hyperplane(qq_param(0, 1), 3).coords == \
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    # canonicalization flips the overall sign of (0,0,0,-1)
    assert osculating_hyperplane(qq_param(1, 0), 3).coords == \
        (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    assert osculating_hyperplane(qq_param(1, 1), 2).coords == \
        (Fraction(1), Fraction(-1), Fraction(1))


@given(param_values, param_values, st.integers(1, 5))
def test_osculating_pairing_closed_form(ab0, ab, d):
    """On raw coordinates the pairing with the curve collapses to a d-th
    power of the 2x2 bracket, so the contact point is the only zero."""
    q0 = qq_param(*ab0)
    q = qq_param(*ab)
    h = osculating_coeffs(q0, d)
    v = linear_product_coeffs([q.coords] * d, 1)
    pair = sum(hc * vc for hc, vc in zip(h, v))
    (a, b), (a0, b0) = q.coords, q0.coords
    assert pair == (a * b0 - b * a0) ** d


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_osculating_pairing_identity_symbolic(d):
    # point variables a1,b1; contact-point variables a2,b2
    a1 = MultiPoly.var_a(2, 1)
    b1 = MultiPoly.var_b(2, 1)
    a2 = MultiPoly.var_a(2, 2)
    b2 = MultiPoly.var_b(2, 2)
    pairing = MultiPoly.zero(2)
    for i in range(d + 1):
        h_i = power(a2, i) * power(b2, d - i)
        if i % 2:
            h_i = -h_i
        v_i = power(a1, d - i) * power(b1, i) * MultiPoly.constant(
            2, comb(d, i))
        pairing = pairing + h_i * v_i
    assert pairing == power(a1 * b2 - a2 * b1, d)


@given(param_values, st.integers(1, 4))
def test_curve_point_lies_on_its_osculating_hyperplane(ab, d):
    q = qq_param(*ab)
    assert contains(osculating_hyperplane(q, d), veronese_embed(q, d))


# ---------------------------------------------------------------------------
# simplex vertices


def test_vertex_coordinates_match_product_expansion(rng):
    for _ in range(15):
        d = rng.randint(1, 5)
        ts = rand_distinct_fractions(rng, d)
        qs = [qq_param(t) for t in ts]
        coeffs = product_form_coords([q.coords for q in qs])
        # r_k is the coefficient of x^(d-k) y^k, which the oracle lists at k
        assert linear_product_coeffs([q.coords for q in qs], 1) == coeffs


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
            assert contains(h, v)


def test_vertex_avoids_other_osculating_planes(rng):
    for d in (2, 3):
        ts = rand_distinct_fractions(rng, d + 1)
        qs = [qq_param(t) for t in ts[:d]]
        other = qq_param(ts[d])
        v = simplex_vertex(qs)
        assert not contains(osculating_hyperplane(other, d), v)


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
    (a1, b1), (a2, b2) = q1.coords, q2.coords
    cross = b1 * a2 - a1 * b2
    assert apolarity_apply(op, f) == factorial(d) * cross ** d


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_apolarity_monomial_pairing_is_diagonal(d):
    """D0^(d-i) D1^i against x0^(d-j) x1^j pairs to (d-i)! i! on the
    diagonal and zero off it: a perfect pairing."""
    for i in range(d + 1):
        op_c = tuple(QQ.scalar(int(k == i)) for k in range(d + 1))
        op = BinaryForm(op_c, QQ)
        for j in range(d + 1):
            f_c = tuple(QQ.scalar(int(k == j)) for k in range(d + 1))
            f = BinaryForm(f_c, QQ)
            expected = factorial(d - i) * factorial(i) if i == j else 0
            assert apolarity_apply(op, f) == expected


def test_apolarity_degree_mismatch_raises():
    op = BinaryForm((QQ.scalar(1), QQ.scalar(1)), QQ)
    f = BinaryForm((QQ.scalar(1),), QQ)
    with pytest.raises(MismatchError):
        apolarity_apply(op, f)


def test_apolarity_partial_application_differentiates():
    # D0 applied to x0^2 x1 gives 2 x0 x1
    op = BinaryForm((QQ.scalar(1), QQ.scalar(0)), QQ)
    f = BinaryForm(tuple(map(QQ.scalar, (0, 1, 0, 0))), QQ)
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
    assert scalar_model(model).frame_map == ident
    assert scalar_model(model).alphas == (
        Fraction(-1), Fraction(-1, 2), Fraction(-1, 4))
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
    """The fitted alphas make an embedding: through the oracle
    parametrization, distinct parameters give distinct points."""
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
    alpha = scalar_model(model).alphas[1]
    e1 = curve_point(model, qq_param(alpha))
    t = curve_contains(model, e1)
    assert t == qq_param(alpha)
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
        if sympy_det(m):
            break
    ts = rand_distinct_fractions(rng, d + 4)
    pts = []
    for t in ts:
        v = linear_product_coeffs([qq_param(t).coords] * d, 1)
        pts.append(ProjectivePoint(
            tuple(sum(m[i][j] * v[j] for j in range(d + 1))
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


# ---------------------------------------------------------------------------
# containment pinned against the oracle parametrization


def random_scalar(rng, field):
    if field == QQ:
        return rand_fraction(rng)
    return field.scalar(rng.randrange(field.characteristic))


def random_point(rng, field, dim=1):
    while True:
        coords = tuple(random_scalar(rng, field) for _ in range(dim + 1))
        if any(coords):
            return ProjectivePoint(coords, field)


def parameter_line(field):
    """Every point of P^1 over a prime field."""
    return [param_point(field, 1, 0)] + [param_point(field, t)
                                         for t in range(field.characteristic)]


def random_model(rng, field, d):
    """The curve fitted through d+3 samples of the standard curve moved by
    a random projectivity."""
    while True:
        m = [[random_scalar(rng, field) for _ in range(d + 1)]
             for _ in range(d + 1)]
        if sympy_det(m, field):
            break
    if field == QQ:
        ts = [qq_param(t) for t in rand_distinct_fractions(rng, d + 3)]
    else:
        ts = rng.sample(parameter_line(field), d + 3)
    pts = []
    for t in ts:
        v = linear_product_coeffs([t.coords] * d, 1)
        pts.append(ProjectivePoint(
            tuple(sum(a * x for a, x in zip(row, v)) for row in m), field))
    pts = tuple(pts)
    return fit_rnc(Configuration(field=field, dim=d, points=pts))


def combination(rng, field, points):
    """A random nonzero combination of the given points' coordinates."""
    while True:
        cs = [random_scalar(rng, field) for _ in points]
        coords = tuple(sum((c * x for c, x in zip(cs, xs)), field.scalar(0))
                       for xs in zip(*(p.coords for p in points)))
        if any(coords):
            return ProjectivePoint(coords, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), FP],
                         ids=["Q", "Z7", "Z101"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fit_ratio_checks_decide_general_position(rng, field, d):
    """fit_rnc raises DegenerateInputError exactly when its d+3 points are
    not in general linear position, and never divides by zero.  Each
    round forces one dependent (d+1)-subset of each kind: the frame
    p_0..p_d, the frame with p_i replaced by p_{d+1} or by p_{d+2}, and
    the frame with p_i, p_j replaced by both; then it tries random
    points, which over Z/7 are often degenerate."""
    for _ in range(3):
        pts = [random_point(rng, field, d) for _ in range(d + 3)]
        i, j = sorted(rng.sample(range(d + 1), 2))
        frame = pts[:d + 1]
        rest = frame[:i] + frame[i + 1:]
        others = [p for k, p in enumerate(frame) if k not in (i, j)]
        forced = [("frame", i, rest), ("unit", d + 1, rest),
                  ("last", d + 2, rest),
                  ("both", d + 2, [pts[d + 1]] + others)]
        for kind, k, span in forced:
            bad = list(pts)
            bad[k] = combination(rng, field, span)
            config = Configuration(field=field, dim=d, points=tuple(bad))
            assert not is_general_linear_position(config), kind
            with pytest.raises(DegenerateInputError):
                fit_rnc(config)
    for _ in range(10):
        config = Configuration(field=field, dim=d, points=tuple(
            random_point(rng, field, d) for _ in range(d + 3)))
        try:
            fit_rnc(config)
        except DegenerateInputError:
            assert not is_general_linear_position(config)
        else:
            assert is_general_linear_position(config)


@pytest.mark.parametrize("field", [QQ, PrimeField(13), FP],
                         ids=["Q", "Z13", "Z101"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_curve_contains_pins_the_oracle_parametrization(rng, field, d):
    """curve_contains returns the oracle's parameter for every curve
    point (the frame points [alphas_i : 1], [1:0], [0:1] and random
    parameters) and None off the curve: frame coordinates with 2..d
    nonzero entries, a curve point with one frame coordinate rescaled,
    and, checked against the oracle when found, random points."""
    nonzero = [x for x in (random_scalar(rng, field) for _ in range(50)) if x]
    for _ in range(3):
        model = random_model(rng, field, d)
        frame_params = [param_point(field, a)
                        for a in scalar_model(model).alphas]
        ts = frame_params + [param_point(field, 1, 0), param_point(field, 0, 1)]
        ts += [random_point(rng, field) for _ in range(20)]
        for t in ts:
            assert curve_contains(model, curve_point(model, t)) == t
        for k in range(2, d + 1):
            for _ in range(5):
                xs = [field.scalar(0)] * (d + 1)
                for i in rng.sample(range(d + 1), k):
                    xs[i] = rng.choice(nonzero)
                assert curve_contains(model, from_frame(model, xs)) is None
        for _ in range(10):
            t = random_point(rng, field)
            while t in frame_params:
                t = random_point(rng, field)
            xs = curve_frame_coords(model, t)
            i = rng.randrange(d + 1)
            scale = rng.choice([x for x in nonzero if x != field.scalar(1)])
            xs[i] = xs[i] * scale
            assert curve_contains(model, from_frame(model, xs)) is None
        for _ in range(10):
            p = random_point(rng, field, d)
            t = curve_contains(model, p)
            assert t is None or curve_point(model, t) == p


@pytest.mark.parametrize("q, d", [(7, 2), (13, 2), (7, 3), (13, 3), (7, 4)])
def test_curve_contains_on_every_point_of_a_small_space(rng, q, d):
    """Over Z/q every point of P^d is tested: curve_contains returns the
    parameter the oracle parametrization sends there, or None when there
    is none."""
    field = PrimeField(q)
    model = random_model(rng, field, d)
    on_curve = {curve_point(model, t): t for t in parameter_line(field)}
    assert len(on_curve) == q + 1
    checked = 0
    for coords in product(range(q), repeat=d + 1):
        if next((c for c in coords if c), None) != 1:
            continue  # not the canonical representative of its point
        p = ProjectivePoint(tuple(map(field.scalar, coords)), field)
        assert curve_contains(model, p) == on_curve.get(p)
        checked += 1
    assert checked == (q ** (d + 1) - 1) // (q - 1)


@pytest.mark.parametrize("q", [7, 11])
def test_curve_contains_agrees_with_the_scalar_route_over_small_primes(
        rng, q):
    """Over Z/7 and Z/11, where sample_instance cannot place 2d+2 distinct
    parameters once d >= 3, curves are fitted through 60 random frames for
    each d = 2..5 (most are degenerate at large d), and curve_contains
    gives reference_curve_contains's answer on every fitted point, on
    every point of the reference curve and on 20 random points."""
    field = PrimeField(q)
    outcomes = set()
    for d, _ in product(range(2, 6), range(60)):
        config = Configuration(field=field, dim=d, points=tuple(
            random_point(rng, field, d) for _ in range(d + 3)))
        try:
            model = fit_rnc(config)
        except DegenerateInputError:
            continue
        reference = reference_fit_rnc(config)
        points = list(config.points)
        points += [curve_point(reference, t) for t in parameter_line(field)]
        points += [random_point(rng, field, d) for _ in range(20)]
        for p in points:
            found = curve_contains(model, p)
            assert found == reference_curve_contains(reference, p)
            outcomes.add((d, found is not None))
    assert {(2, True), (2, False), (3, True), (3, False)} <= outcomes


def test_model_json_round_trip(rng):
    """The printed model is the one the scalar fit computes by division."""
    ts = rand_distinct_fractions(rng, 6)
    config = standard_config(3, ts)
    obj = model_to_json(fit_rnc(config))
    assert set(obj) == {"dim", "frame_map", "alphas"}
    assert model_from_json(obj, QQ) == reference_fit_rnc(config)


def tamper(rng, config):
    """The configuration with one random coordinate of one random point
    moved by a nonzero amount."""
    points = list(config.points)
    k = rng.randrange(len(points))
    coords = list(points[k].coords)
    i = rng.randrange(len(coords))
    coords[i] += rng.choice([-3, -2, -1, 1, 2, 3])
    if not any(coords):
        coords[i] = 1
    points[k] = ProjectivePoint(tuple(coords), config.field)
    return Configuration(field=config.field, dim=config.dim,
                         points=tuple(points))


@pytest.mark.parametrize("field", [QQ, FP], ids=["Q", "Z101"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_integer_containment_pins_the_scalar_route(rng, field, d):
    """fit_rnc and curve_contains agree with the scalar route they
    replaced (reference_fit_rnc, reference_curve_contains): on sampled
    vertex configurations, honest and with one coordinate tampered in
    each of three ways, the fit raises on the same inputs, prints the
    reference model, and finds the same parameter, or none, for every
    point."""
    outcomes = set()
    for seed in range(3):
        honest = sample_instance(d, field, seed=seed).vertices
        for config in [honest] + [tamper(rng, honest) for _ in range(3)]:
            fitted = Configuration(field=field, dim=d,
                                   points=config.points[:d + 3])
            try:
                reference = reference_fit_rnc(fitted)
            except DegenerateInputError as exc:
                with pytest.raises(DegenerateInputError, match=str(exc)):
                    fit_rnc(fitted)
                outcomes.add("degenerate")
                continue
            model = fit_rnc(fitted)
            assert model_from_json(model_to_json(model), field) == reference
            for p in config.points:
                found = curve_contains(model, p)
                assert found == reference_curve_contains(reference, p)
                outcomes.add(found is not None)
    assert {True, False} <= outcomes


@pytest.mark.parametrize("field", [QQ, FP], ids=["Q", "Z101"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_fit_and_test_takes_one_frame_map(monkeypatch, computed, field, d):
    """On a vertex configuration, fit_and_test takes exactly the (d+1)^2
    cofactor brackets [e_j@i] and walks once, for the fit's coincident
    ratio check; containment of the d-1 tested points reads no minor."""
    config = sample_instance(d, field, seed=d).vertices
    calls = []

    def counted(points):
        calls.append(points)
        return bracket(points)

    monkeypatch.setattr(curve, "bracket", counted)
    computed.walks.clear()
    _, contained = fit_and_test(config)
    assert contained == [True] * (d - 1)
    assert len(calls) == (d + 1) ** 2
    assert computed.walks == [(d + 1, comb(d + 1, 2))]
    assert computed.single == []


@pytest.mark.parametrize("field", [QQ, FP], ids=["Q", "Z101"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fit_ratio_check_stops_at_the_first_zero(computed, field, d):
    """The coincident-ratio check reads the walk of 2x2 minors of the
    (u_i, w_i) only up to its first zero: with the standard frame, unit
    point [1 : ... : 1] and last point [2 : 2 : 3 : ... : d+1], the first
    minor u_1 w_2 - u_2 w_1 is zero and no other minor is taken."""
    rows = [tuple(int(k == j) for k in range(d + 1)) for j in range(d + 1)]
    rows += [(1,) * (d + 1), (2,) + tuple(range(2, d + 2))]
    config = Configuration(field=field, dim=d, points=tuple(
        ProjectivePoint(r, field) for r in rows))
    computed.walks.clear()
    with pytest.raises(DegenerateInputError, match="coincident frame ratios"):
        fit_rnc(config)
    assert computed.walks == [(d + 1, 1)]

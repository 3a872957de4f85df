"""Tests for the two-simplex construction and its certification."""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeom.curve import curve_contains, fit_rnc, param_point
from rncgeom.equations import count_equations, evaluate_many, lies_on_rnc
from rncgeom.fields import QQ, PrimeField
from rncgeom.identities import first_group, second_group, vertex_polys
from rncgeom.projective import Configuration, ProjectivePoint
from rncgeom.staudt import (
    build_instance,
    castelnuovo_check,
    certificate_from_json,
    certificate_text,
    certificate_to_json,
    dual_configuration,
    instance_from_json,
    instance_to_json,
    reduce_instance_mod,
    sample_instance,
    verify_instance,
)
from rncgeom.errors import (
    CharacteristicError,
    DegenerateInputError,
    MismatchError,
)

from oracles import (
    canonical_scalars,
    contains,
    domain_matrix,
    evaluate,
    from_domain,
    hyperplane_intersection,
    pairing,
    rand_distinct_fractions,
    sympy_det,
    sympy_rank,
)


DATA = Path(__file__).parent / "data"


def small_instance(d, seed=0):
    return sample_instance(d, QQ, seed=seed, height=10)


def group_of_label(d, k):
    return first_group(d) if k <= d + 1 else second_group(d)


# ---------------------------------------------------------------------------
# construction


def test_build_instance_shapes():
    params = [param_point(QQ, t) for t in (0, 1, 2, 3, 4, 5)]
    inst = build_instance(2, params, seed=7)
    assert inst.d == 2
    assert inst.field == QQ
    assert inst.seed == 7
    assert len(inst.params) == 6
    assert len(inst.curve_points) == 6
    assert len(inst.planes) == 6
    assert len(inst.vertices.points) == 6
    assert inst.vertices.dim == 2


def test_build_field_inferred_from_params():
    field = PrimeField(11)
    params = [param_point(field, t) for t in (0, 1, 2, 3, 4, 5)]
    inst = build_instance(2, params)
    assert inst.field == field
    assert inst.seed is None


def test_build_rejects_bad_degree():
    params = [param_point(QQ, t) for t in (0, 1, 2, 3)]
    with pytest.raises(ValueError):
        build_instance(1, params)


def test_build_rejects_wrong_count():
    params = [param_point(QQ, t) for t in (0, 1, 2, 3, 4)]
    with pytest.raises(MismatchError):
        build_instance(2, params)


def test_build_rejects_mixed_fields():
    params = [param_point(QQ, t) for t in (0, 1, 2, 3, 4)]
    params.append(param_point(PrimeField(11), 5))
    with pytest.raises(MismatchError):
        build_instance(2, params)


def test_build_rejects_params_outside_p1():
    # a parameter must be a point of the projective line
    params = [param_point(QQ, t) for t in (0, 1, 2, 3, 4)]
    params.append(ProjectivePoint((1, 1, 1), QQ))
    with pytest.raises(MismatchError, match=r"parameter point \[1:1:1\] "
                                            r"is not in P\^1"):
        build_instance(2, params)


def test_build_rejects_repeated_parameter():
    # the repeat spans the two groups, so no single vertex sees both copies
    params = [param_point(QQ, t) for t in (0, 1, 2, 0, 4, 5)]
    with pytest.raises(DegenerateInputError):
        build_instance(2, params)
    params = [param_point(QQ, t) for t in (7, 1, 2, 3, 7, 5, 6, 8)]
    with pytest.raises(DegenerateInputError):
        build_instance(3, params)


def test_build_rejects_small_characteristic():
    field = PrimeField(3)
    params = [param_point(field, t % 3) for t in range(8)]
    with pytest.raises(CharacteristicError):
        build_instance(3, params)


def test_curve_points_and_planes_match_parameters():
    inst = small_instance(3, seed=4)
    for q, p, h in zip(inst.params, inst.curve_points, inst.planes):
        assert contains(h, p)
        # the osculating hyperplane meets the curve only at its own point
        for other, point in zip(inst.params, inst.curve_points):
            if other != q:
                assert not contains(h, point)


def test_vertex_incidence_pattern():
    for d in (2, 3):
        inst = small_instance(d, seed=1)
        n = 2 * d + 2
        for k in range(1, n + 1):
            vertex = inst.vertices.points[k - 1]
            on = {j for j in range(1, n + 1)
                  if contains(inst.planes[j - 1], vertex)}
            assert on == set(group_of_label(d, k)) - {k}


def test_vertices_equal_hyperplane_intersections():
    inst = small_instance(3, seed=2)
    for k in range(1, 9):
        planes = [inst.planes[j - 1]
                  for j in group_of_label(3, k) if j != k]
        assert hyperplane_intersection(planes) == inst.vertices.points[k - 1]


def test_group_vertices_span():
    for d in (2, 3):
        inst = small_instance(d, seed=3)
        for group in (first_group(d), second_group(d)):
            sub = Configuration(
                field=QQ, dim=d,
                points=tuple(inst.vertices.points[k - 1] for k in group))
            assert sympy_rank([p.coords for p in sub.points]) == d + 1


def test_hexagon_vertices():
    # six tangent lines of a conic; the three "diagonal" vertices from each
    # triple of tangents meet the opposite tangents nowhere
    params = [param_point(QQ, t) for t in (0, 1, 2, 3, 4, 5)]
    inst = build_instance(2, params)
    for k in range(1, 7):
        vertex = inst.vertices.points[k - 1]
        for j in group_of_label(2, k):
            value = pairing(inst.planes[j - 1], vertex)
            assert (value == 0) == (j != k)


def test_vertices_match_symbolic_specialization():
    qs = [param_point(QQ, Fraction(t)) for t in (0, 1, 2, 3, 4, 5, 6, 7)]
    inst = build_instance(3, qs)
    values = [q.coords for q in qs]
    for k in range(1, 9):
        sym = vertex_polys(3, k)
        coords = tuple(evaluate(p, values) for p in sym)
        assert ProjectivePoint(coords, QQ) == inst.vertices.points[k - 1]


# ---------------------------------------------------------------------------
# sampling


def test_sample_determinism():
    a = sample_instance(3, QQ, seed=5)
    b = sample_instance(3, QQ, seed=5)
    assert a == b
    c = sample_instance(3, QQ, seed=6)
    assert a != c


def test_sample_distinct_parameters():
    inst = sample_instance(3, QQ, seed=1)
    assert len(set(inst.params)) == 8
    # drawn values are finite, so no parameter lands at infinity
    assert all(q.coords[1] != 0 for q in inst.params)


def test_sample_respects_height():
    inst = sample_instance(2, QQ, seed=9, height=4)
    for q in inst.params:
        value = Fraction(*q.coords)
        assert abs(value.numerator) <= 4 * 4
        assert value.denominator <= 4


def test_sample_rejects_bad_height():
    with pytest.raises(ValueError):
        sample_instance(2, QQ, seed=0, height=0)


def test_sample_small_prime_rejected():
    with pytest.raises(CharacteristicError):
        sample_instance(2, PrimeField(5), seed=0)


def test_sample_prime_field():
    field = PrimeField(7)
    inst = sample_instance(2, field, seed=0)
    assert len(set(inst.params)) == 6
    assert inst.field == field


def test_sample_prime_matches_rational_reduction():
    # the two fields share one integer stream, so a seed diverges only when
    # two rational draws collide mod p and the prime run consumes extra draws
    agreements = 0
    for seed in range(10):
        rational = sample_instance(2, QQ, seed=seed)
        direct = sample_instance(2, PrimeField(101), seed=seed)
        try:
            reduced = reduce_instance_mod(rational, 101)
        except DegenerateInputError:
            continue
        if reduced.params == direct.params:
            agreements += 1
            assert reduced == direct
    assert agreements >= 5


# ---------------------------------------------------------------------------
# verification


def test_verify_sampled_instances():
    for d, expected_total in ((2, 1), (3, 56)):
        for seed in range(3):
            cert = verify_instance(small_instance(d, seed))
            assert cert.verdict
            assert cert.glp_ok
            assert cert.psi_total == expected_total
            assert cert.psi_zero == expected_total
            assert cert.psi_failures == ()
            assert cert.castelnuovo_ok is None
            assert cert.sample is None


def test_verify_with_castelnuovo():
    cert = verify_instance(small_instance(3, seed=0), with_castelnuovo=True)
    assert cert.castelnuovo_ok is True
    assert cert.verdict


def test_castelnuovo_contains_every_vertex():
    # the fitted curve must pass through all 2d+2 vertices, not just the
    # d+3 used to pin it down
    for d in (2, 3):
        inst = small_instance(d, seed=6)
        head = Configuration(field=QQ, dim=d,
                             points=inst.vertices.points[:d + 3])
        model = fit_rnc(head)
        for p in inst.vertices.points:
            assert curve_contains(model, p) is not None
        assert castelnuovo_check(inst)


def test_verify_sampled_equations():
    inst = small_instance(4, seed=0)
    cert = verify_instance(inst, sample=25, sample_seed=3)
    assert cert.sample == 25
    assert cert.psi_total == 25
    assert cert.verdict


def test_verify_records_seed_and_field():
    inst = sample_instance(2, PrimeField(101), seed=12)
    cert = verify_instance(inst)
    assert cert.seed == 12
    assert cert.field == PrimeField(101)
    assert cert.verdict


def test_tampered_vertex_fails():
    inst = small_instance(3, seed=8)
    rng = random.Random(99)
    points = list(inst.vertices.points)
    points[2] = ProjectivePoint(
        tuple(Fraction(rng.randint(-30, 30)) for _ in range(4)), QQ)
    tampered = dataclasses.replace(
        inst, vertices=Configuration(field=QQ, dim=3, points=tuple(points)))
    cert = verify_instance(tampered)
    assert not cert.verdict
    assert cert.psi_failures
    assert cert.psi_zero < cert.psi_total


def test_degenerate_vertices_fail_glp():
    inst = small_instance(2, seed=8)
    points = list(inst.vertices.points)
    points[1] = points[0]
    tampered = dataclasses.replace(
        inst, vertices=Configuration(field=QQ, dim=2, points=tuple(points)))
    cert = verify_instance(tampered)
    assert not cert.glp_ok
    assert not cert.verdict


def test_evaluator_hook():
    inst = small_instance(3, seed=5)
    seen = []

    def evaluator(config, eqs):
        seen.append(len(eqs))
        return evaluate_many(config, eqs)

    cert = verify_instance(inst, evaluator=evaluator)
    assert seen == [56]
    assert cert == verify_instance(inst)


@settings(max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_verdict_holds_for_random_seeds(seed):
    assert verify_instance(sample_instance(2, QQ, seed=seed)).verdict


# ---------------------------------------------------------------------------
# symmetry


def test_verdict_invariant_under_group_permutations():
    base = [Fraction(t) for t in (-3, -1, 0, 2, 5, 9)]
    orders = [
        base,
        [base[2], base[0], base[1]] + base[3:],       # permute first group
        base[:3] + [base[5], base[3], base[4]],       # permute second group
        base[3:] + base[:3],                          # swap the groups
    ]
    reference = None
    for values in orders:
        inst = build_instance(2, [param_point(QQ, t) for t in values])
        assert verify_instance(inst).verdict
        vertex_set = set(inst.vertices.points)
        if reference is None:
            reference = vertex_set
        assert vertex_set == reference


def test_bracket_checks_invariant_under_projective_transformation(rng):
    inst = small_instance(2, seed=11)
    while True:
        matrix = [[Fraction(rng.randint(-5, 5)) for _ in range(3)]
                  for _ in range(3)]
        if sympy_det(matrix) != 0:
            break
    inverse = [from_domain(row)
               for row in domain_matrix(matrix).inv().to_list()]
    inverse_t = [list(row) for row in zip(*inverse)]

    def moved_by(m, p):
        return ProjectivePoint(
            tuple(sum(a * x for a, x in zip(row, p.coords)) for row in m), QQ)

    points = tuple(moved_by(matrix, p) for p in inst.vertices.points)
    curve_points = tuple(moved_by(matrix, p) for p in inst.curve_points)
    planes = tuple(moved_by(inverse_t, h) for h in inst.planes)
    moved = dataclasses.replace(
        inst, curve_points=curve_points, planes=planes,
        vertices=Configuration(field=QQ, dim=2, points=points))
    # incidences survive the transformation, and so does every check made
    # on the vertices; the moved data is no longer the standard
    # construction of its parameters, so the verdict is false
    for k in range(1, 7):
        vertex = moved.vertices.points[k - 1]
        for j in group_of_label(2, k):
            assert contains(moved.planes[j - 1], vertex) == (j != k)
    cert = verify_instance(moved, with_castelnuovo=True)
    assert cert.glp_ok
    assert cert.psi_zero == cert.psi_total and not cert.psi_failures
    assert cert.castelnuovo_ok is True
    assert cert.construction_ok is False
    assert not cert.verdict


# ---------------------------------------------------------------------------
# dual configuration


def test_dual_configuration_lies_on_curve():
    for d in (2, 3):
        inst = small_instance(d, seed=7)
        dual = dual_configuration(inst)
        assert dual.dim == d
        assert len(dual.points) == 2 * d + 2
        assert lies_on_rnc(dual)


def test_dual_point_at_zero_parameter():
    qs = [param_point(QQ, t) for t in (0, 1, 2, 3, 4, 5, 6, 7)]
    inst = build_instance(3, qs)
    dual = dual_configuration(inst)
    assert dual.points[0] == ProjectivePoint(
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)), QQ)


def test_dual_points_distinct(rng):
    ts = rand_distinct_fractions(rng, 8)
    inst = build_instance(3, [param_point(QQ, t) for t in ts])
    dual = dual_configuration(inst)
    assert len(set(dual.points)) == 8


# ---------------------------------------------------------------------------
# reduction mod p


def test_reduce_preserves_structure():
    inst = small_instance(2, seed=3)
    reduced = reduce_instance_mod(inst, 101)
    assert reduced.field == PrimeField(101)
    assert reduced.d == 2
    assert reduced.seed == inst.seed
    assert verify_instance(reduced).verdict


def test_reduce_sends_big_denominator_to_infinity():
    # 1/101 is the point [1 : 101], which reduces to [1 : 0] mod 101
    values = [Fraction(1, 101), 1, 2, 3, 4, 5]
    inst = build_instance(2, [param_point(QQ, t) for t in values])
    reduced = reduce_instance_mod(inst, 101)
    field = PrimeField(101)
    assert reduced.params[0] == param_point(field, 1, 0)
    assert verify_instance(reduced).verdict


def test_reduce_rejects_collisions():
    values = [0, 1, 2, 3, 4, 101]
    inst = build_instance(2, [param_point(QQ, t) for t in values])
    with pytest.raises(DegenerateInputError):
        reduce_instance_mod(inst, 101)


def test_reduce_requires_rational_instance():
    inst = sample_instance(2, PrimeField(101), seed=0)
    with pytest.raises(MismatchError):
        reduce_instance_mod(inst, 101)


# ---------------------------------------------------------------------------
# serialization


def test_instance_json_round_trip():
    inst = small_instance(2, seed=4)
    obj = instance_to_json(inst)
    assert obj["schema"] == "vonstaudt-inst/1"
    assert instance_from_json(obj) == inst


def test_instance_json_rebuilds_from_params():
    inst = small_instance(3, seed=4)
    obj = instance_to_json(inst)
    for key in ("points", "planes", "vertices"):
        del obj[key]
    assert instance_from_json(obj) == inst


def test_instance_json_keeps_stored_vertices():
    # a tampered file must load as stored, so negative controls survive
    # a round trip instead of being silently repaired
    inst = small_instance(2, seed=4)
    obj = instance_to_json(inst)
    obj["vertices"]["points"][0] = ["1", "17", "-3"]
    loaded = instance_from_json(obj)
    assert loaded != inst
    assert loaded.vertices.points[0] == ProjectivePoint(
        (Fraction(1), Fraction(17), Fraction(-3)), QQ)
    assert not verify_instance(loaded).verdict


def test_verify_checks_a_loaded_instance_against_a_fresh_build(
        monkeypatch, capsys):
    """A verify run builds the instance twice, once to load it and once
    for the construction check, which keeps no build from the load; an
    instance made in Python is rebuilt the same way."""
    import rncgeom.staudt as staudt
    from rncgeom.cli import main

    builds = []
    build = staudt.build_instance
    monkeypatch.setattr(staudt, "build_instance", lambda *args, **kwargs: (
        builds.append(args) or build(*args, **kwargs)))
    assert main(["verify", "--input", str(DATA / "d5.json")]) == 0
    capsys.readouterr()
    assert len(builds) == 2
    builds.clear()
    assert verify_instance(small_instance(2)).construction_ok
    assert len(builds) == 2  # sample_instance's, then the check's


@pytest.mark.parametrize("name", ["d3", "d3-tampered", "d3-mod101-tampered"])
def test_kept_build_gives_the_certificate_of_a_fresh_one(name):
    """A loaded instance, honest or tampered, certifies as its copy."""
    obj = json.loads((DATA / f"{name}.json").read_text())
    loaded = instance_from_json(obj)
    assert certificate_to_json(verify_instance(loaded)) == certificate_to_json(
        verify_instance(dataclasses.replace(loaded)))


def test_kept_build_is_not_used_for_other_parameters():
    """A loaded instance given other parameters is checked against their
    construction: false while the stored data is the old build, true
    once it is the new one."""
    loaded = instance_from_json(instance_to_json(small_instance(2, seed=1)))
    other = small_instance(2, seed=2)
    moved = dataclasses.replace(loaded, params=other.params)
    assert verify_instance(moved).construction_ok is False
    rebuilt = dataclasses.replace(
        moved, curve_points=other.curve_points, planes=other.planes,
        vertices=other.vertices)
    assert verify_instance(rebuilt).construction_ok is True


@pytest.mark.parametrize("change", [
    lambda inst: {"field": PrimeField(101)},
    lambda inst: {"params": (inst.params[0],) + inst.params[:5]},
    lambda inst: {"params": inst.params[:5]},
], ids=["other-field", "repeated-parameter", "missing-parameter"])
def test_parameters_that_build_no_instance_fail_the_construction(change):
    """Parameters over another field than the instance's, repeated or too
    few do not rebuild it: a failed construction check and a false
    verdict, recorded rather than thrown."""
    inst = small_instance(2)
    cert = verify_instance(dataclasses.replace(inst, **change(inst)))
    assert cert.construction_ok is False
    assert not cert.verdict


def test_instance_json_prime_round_trip():
    inst = sample_instance(2, PrimeField(101), seed=2)
    assert instance_from_json(instance_to_json(inst)) == inst


def test_certificate_json_round_trip():
    """Full, sampled and --castelnuovo certificates load as written."""
    for d, kwargs in ((2, {"with_castelnuovo": True}), (3, {}),
                      (3, {"sample": 5, "sample_seed": 2})):
        cert = verify_instance(small_instance(d, seed=1), **kwargs)
        obj = certificate_to_json(cert)
        assert obj["schema"] == "vonstaudt-cert/2"
        assert certificate_from_json(obj) == cert


def test_certificate_json_reads_schema_one():
    """A certificate written before the construction check and the sample
    seed still loads, with both read as null."""
    cert = verify_instance(small_instance(2, seed=1), sample=1,
                           sample_seed=7)
    obj = certificate_to_json(cert)
    obj["schema"] = "vonstaudt-cert/1"
    del obj["construction_ok"], obj["sample_seed"]
    assert certificate_from_json(obj) == dataclasses.replace(
        cert, construction_ok=None, sample_seed=None)


def test_certificate_json_keeps_failures():
    inst = small_instance(3, seed=8)
    points = list(inst.vertices.points)
    points[0] = ProjectivePoint(
        (Fraction(3), Fraction(1), Fraction(4), Fraction(1)), QQ)
    tampered = dataclasses.replace(
        inst, vertices=Configuration(field=QQ, dim=3, points=tuple(points)))
    cert = verify_instance(tampered)
    assert cert.psi_failures
    restored = certificate_from_json(certificate_to_json(cert))
    assert restored == cert


def shifted(inst, label, coord, delta):
    """The instance with one vertex coordinate moved by delta, the way the
    benchmark tampers an instance file."""
    points = list(inst.vertices.points)
    coords = list(canonical_scalars(points[label - 1]))
    coords[coord] += inst.field.scalar(delta)
    points[label - 1] = ProjectivePoint(tuple(coords), inst.field)
    return dataclasses.replace(inst, vertices=Configuration(
        field=inst.field, dim=inst.d, points=tuple(points)))


def loaded(name):
    return instance_from_json(json.loads((DATA / name).read_text()))


@pytest.mark.parametrize("run", [
    lambda: verify_instance(small_instance(3, seed=1)),
    lambda: verify_instance(small_instance(3, seed=1), sample=5,
                            sample_seed=2),
    lambda: verify_instance(small_instance(2, seed=1), with_castelnuovo=True),
    lambda: verify_instance(shifted(sample_instance(5, QQ, 9, height=6),
                                    3, 2, 4), with_castelnuovo=True),
    lambda: verify_instance(shifted(sample_instance(
        6, PrimeField(101), 9, height=6), 9, 0, 3), sample=2000,
        sample_seed=5),
    lambda: verify_instance(loaded("d3-tampered.json")),
    lambda: verify_instance(loaded("d3-mod101-tampered.json"),
                            with_castelnuovo=True),
    lambda: verify_instance(dataclasses.replace(
        small_instance(2), vertices=Configuration(
            field=QQ, dim=2, points=small_instance(2).vertices.points[:5]))),
], ids=["honest", "honest-sampled", "castelnuovo", "tampered-d5",
        "tampered-d6-F101-sampled", "tampered-d3", "tampered-d3-F101",
        "no-equations"])
def test_certificate_text_is_the_indented_json(run):
    """The certificate verify writes is byte for byte the indented JSON
    encoder's, failures or none, castelnuovo_ok null or not."""
    cert = run()
    assert certificate_text(cert) == json.dumps(certificate_to_json(cert),
                                                indent=2)


@pytest.mark.parametrize("vertices", [
    lambda inst: inst.vertices.points[:5],
    lambda inst: inst.vertices.points[:4],
    lambda inst: inst.vertices.points + inst.vertices.points[:1],
    lambda inst: small_instance(3).vertices.points,
], ids=["5-of-6", "4-of-6", "7-points", "points-of-P3"])
def test_vertices_of_the_wrong_shape_fail_the_construction(vertices):
    """Stored vertices that are not 2d+2 points of P^d have no equations to
    evaluate: a failed construction check, no equation and a false
    verdict, recorded rather than thrown."""
    inst = small_instance(2)
    points = vertices(inst)
    config = Configuration(field=QQ, dim=points[0].dim, points=points)
    cert = verify_instance(dataclasses.replace(inst, vertices=config),
                           with_castelnuovo=True)
    assert cert.construction_ok is False
    assert (cert.psi_total, cert.psi_zero, cert.psi_failures) == (0, 0, ())
    assert not cert.verdict
    assert certificate_from_json(certificate_to_json(cert)) == cert


@pytest.mark.parametrize("key,bad", [
    ("d", 2.9), ("d", "2"), ("d", True),
    ("psi_total", 1.0), ("psi_total", "1"), ("psi_zero", False),
    ("glp_ok", "false"), ("glp_ok", 1), ("glp_ok", None),
    ("verdict", "false"), ("verdict", 0), ("verdict", None),
    ("construction_ok", "true"), ("construction_ok", 1),
    ("castelnuovo_ok", "false"), ("castelnuovo_ok", 0),
    ("sample", 5.0), ("sample", "5"), ("sample", True),
    ("sample_seed", "7"), ("sample_seed", False),
    ("seed", 1.5), ("seed", "1"),
])
def test_certificate_json_refuses_wrong_types(key, bad):
    """Each key holds its own JSON type; what int() or bool() would quietly
    convert is refused with one line, whichever schema is read."""
    cert = verify_instance(small_instance(2, seed=1), sample=1,
                           sample_seed=7)
    for schema in ("vonstaudt-cert/1", "vonstaudt-cert/2"):
        obj = certificate_to_json(cert)
        obj["schema"] = schema
        obj[key] = bad
        with pytest.raises(ValueError) as err:
            certificate_from_json(obj)
        assert key in str(err.value) and "\n" not in str(err.value)


def tampered_d3_certificate():
    """The certificate verify writes for tests/data/d3-tampered.json: 49 of
    its 56 equations fail."""
    obj = json.loads((DATA / "d3-tampered.json").read_text())
    cert = certificate_to_json(verify_instance(instance_from_json(obj)))
    assert (cert["psi_total"], len(cert["psi_failures"])) == (56, 49)
    return cert


def refuse(obj, message):
    with pytest.raises(ValueError) as err:
        certificate_from_json(obj)
    assert message in str(err.value) and "\n" not in str(err.value)


def test_certificate_counts_must_add_up():
    obj = tampered_d3_certificate()
    certificate_from_json(obj)
    obj.update(verdict=True, psi_zero=999)
    refuse(obj, "psi_zero 999 plus 49 failures is not psi_total 56")
    obj.update(verdict=False, psi_zero=8)
    refuse(obj, "psi_zero 8 plus 49 failures is not psi_total 56")


@pytest.mark.parametrize("edit", [
    {"psi_zero": 0, "psi_failures": [{"J": [1, 2, 3, 4, 5, 6],
                                      "I": [1, 2, 3, 4, 5, 6]}]},
    {"psi_total": 0, "psi_zero": 0},
    {"glp_ok": False},
    {"construction_ok": False},
    {"castelnuovo_ok": False},
], ids=["a-failure", "no-equations", "glp", "construction", "castelnuovo"])
def test_true_verdict_must_rest_on_passed_checks(edit):
    obj = certificate_to_json(verify_instance(small_instance(2, seed=1),
                                              with_castelnuovo=True))
    assert certificate_from_json(obj).verdict
    obj.update(edit)
    refuse(obj, "a true verdict needs")
    obj["verdict"] = False
    certificate_from_json(obj)


def test_false_verdict_must_follow_from_failed_checks():
    """The loader recomputes the verdict from the checks, so a false one
    whose checks all passed is refused like a true one that rests on a
    failure."""
    obj = certificate_to_json(verify_instance(small_instance(3, seed=1),
                                              with_castelnuovo=True))
    certificate_from_json(obj)
    obj["verdict"] = False
    refuse(obj, "verdict false does not follow from its checks; "
                "a true verdict needs")


def test_certificate_counts_are_bounded():
    """A count beyond the equations there are, or beyond the sample, a
    negative count and a repeated failure are refused."""
    full = certificate_to_json(verify_instance(small_instance(3, seed=1)))
    assert full["psi_total"] == count_equations(3, 8) == 56
    refuse(dict(full, psi_total=10 ** 6, psi_zero=10 ** 6),
           "psi_total 1000000 exceeds the equations for d=3")
    refuse(dict(full, psi_total=57, psi_zero=57),
           "psi_total 57 exceeds the equations for d=3")
    sampled = certificate_to_json(verify_instance(
        small_instance(3, seed=1), sample=5, sample_seed=2))
    certificate_from_json(sampled)
    refuse(dict(sampled, psi_total=500, psi_zero=500),
           "psi_total 500 exceeds the sample 5")
    refuse(dict(sampled, psi_total=6, psi_zero=6),
           "psi_total 6 exceeds the sample 5")
    # a sample larger than the equations checks them all
    everything = certificate_to_json(verify_instance(
        small_instance(2, seed=1), sample=5, sample_seed=2))
    assert certificate_from_json(everything).psi_total == 1
    refuse(dict(full, psi_total=-1, psi_zero=-1, verdict=False),
           "psi_zero -1 < 0")
    tampered = tampered_d3_certificate()
    failures = tampered["psi_failures"]
    refuse(dict(tampered, psi_failures=[failures[0]] + failures[:-1]),
           "a failure repeats")
    one = {"J": [1, 2, 3, 4, 5, 6], "I": [1, 2, 3, 4, 5, 6]}
    conic = certificate_to_json(verify_instance(small_instance(2, seed=1)))
    refuse(dict(conic, psi_total=2, psi_zero=0, psi_failures=[one, one],
                verdict=False), "psi_total 2 exceeds the equations for d=2")


def test_count_bound_skips_only_totals_below_the_count():
    """The loader compares psi_total with the count only from 2^(d-1) on;
    every smaller total is below the count, which starts at 1 for d = 2."""
    for d in range(2, 80):
        assert count_equations(d, 2 * d + 2) >= 2 ** (d - 1) - 1


@pytest.mark.parametrize("label", [1.0, True, "1"],
                         ids=["float", "bool", "string"])
@pytest.mark.parametrize("key", ["J", "I"])
def test_failure_labels_are_json_integers(key, label):
    obj = tampered_d3_certificate()
    bad = obj["psi_failures"][0]
    assert bad[key][0] == 1
    bad[key] = [label] + bad[key][1:]
    refuse(obj, f"{key} label must be a JSON integer")


@pytest.mark.parametrize("sample, sample_seed", [(None, 5), (3, None)])
def test_sample_seed_is_null_exactly_when_sample_is(sample, sample_seed):
    obj = certificate_to_json(verify_instance(small_instance(3, seed=1),
                                              sample=3, sample_seed=5))
    certificate_from_json(obj)
    obj.update(sample=sample, sample_seed=sample_seed)
    refuse(obj, "sample_seed must be null exactly when sample is")
    # a /1 certificate predates the sample seed
    obj["schema"] = "vonstaudt-cert/1"
    assert certificate_from_json(obj).sample == sample


def test_certificate_json_refuses_non_object():
    with pytest.raises(ValueError):
        certificate_from_json(["vonstaudt-cert/2"])


@pytest.mark.parametrize("key", ["d", "field", "glp_ok", "psi_total",
                                 "psi_zero", "psi_failures", "verdict"])
def test_certificate_json_names_a_missing_key(key):
    """A certificate without a required key is a ValueError naming it,
    not a KeyError."""
    obj = certificate_to_json(verify_instance(small_instance(2, seed=1)))
    del obj[key]
    with pytest.raises(ValueError, match=f"missing key '{key}'"):
        certificate_from_json(obj)


def test_certificate_json_names_a_missing_failure_label():
    with pytest.raises(ValueError, match="missing key 'J'"):
        certificate_from_json({"schema": "vonstaudt-cert/2", "d": 2,
                               "field": {"kind": "rationals"},
                               "glp_ok": True, "psi_total": 1,
                               "psi_zero": 0, "psi_failures": [{"I": []}],
                               "verdict": False})


def test_certificate_json_rejects_unknown_schema():
    cert = verify_instance(small_instance(2, seed=1))
    obj = certificate_to_json(cert)
    obj["schema"] = "vonstaudt-cert/9"
    with pytest.raises(ValueError):
        certificate_from_json(obj)

import dataclasses
import json
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    canonical_scalars,
    equation_at,
    evaluate_equation_vectors,
    rand_distinct_fractions,
    rand_fraction,
)
from rncgeom.curve import param_point, veronese_embed
from rncgeom.equations import (
    BracketEquation,
    _template,
    count_equations,
    enumerate_equations,
    equation_from_json,
    equation_picks,
    equation_products,
    evaluate_many,
    format_ratio,
    inversion_count,
    lies_on_rnc,
    membership,
    report_to_json,
    sample_equations,
    sample_ranks,
    support_products,
)
from rncgeom.errors import MismatchError
from rncgeom.fields import QQ, PrimeField
from rncgeom import projective
from rncgeom.cli import main
from rncgeom.identities import FactorizationProofs
from rncgeom.projective import (
    BracketTable,
    Configuration,
    ProjectivePoint,
    is_general_linear_position,
)
from rncgeom.staudt import (
    dual_configuration,
    instance_from_json,
    instance_to_json,
    sample_instance,
    verify_instance,
)

DATA = Path(__file__).parent / "data"
FP = PrimeField(101)


def curve_config(d, ts, field=QQ):
    pts = tuple(veronese_embed(param_point(field, t), d) for t in ts)
    return Configuration(field=field, dim=d, points=pts)


def flat(stream):
    """The support stream's rows as (support, sextet, n1, n2), one per
    equation."""
    return [(support, pick(support), n1, n2)
            for support, rows in stream for pick, n1, n2 in rows]


def random_config(rng, d, n):
    pts = []
    while len(pts) < n:
        coords = tuple(rand_fraction(rng) for _ in range(d + 1))
        if any(coords):
            pts.append(ProjectivePoint(coords, QQ))
    return Configuration(field=QQ, dim=d, points=tuple(pts))


# ---------------------------------------------------------------------------
# the index set


def test_equation_counts():
    assert count_equations(2, 6) == 1
    assert count_equations(3, 8) == 56
    assert count_equations(4, 10) == 1260
    assert count_equations(5, 12) == 18480
    assert count_equations(6, 14) == 210210


@pytest.mark.parametrize("d,n", [(2, 6), (2, 7), (3, 8), (3, 9), (4, 10)])
def test_enumeration_count_and_order(d, n):
    eqs = list(enumerate_equations(d, n))
    assert len(eqs) == count_equations(d, n)
    assert len(set(eqs)) == len(eqs)
    keys = [(e.support, e.sextet) for e in eqs]
    assert keys == sorted(keys)
    for e in eqs:
        assert len(e.support) == d + 4
        assert len(e.sextet) == 6
        assert set(e.sextet) <= set(e.support) <= set(range(1, n + 1))


@pytest.mark.parametrize("d,n", [(2, 6), (3, 8), (3, 9)])
def test_equation_at_matches_enumeration(d, n):
    eqs = list(enumerate_equations(d, n))
    for idx in range(len(eqs)):
        assert equation_at(d, n, idx) == eqs[idx]
    with pytest.raises(ValueError):
        equation_at(d, n, len(eqs))
    with pytest.raises(ValueError):
        equation_at(d, n, -1)


def test_sampling_is_deterministic_and_sorted():
    a = sample_equations(3, 8, 10, seed=4)
    b = sample_equations(3, 8, 10, seed=4)
    assert a == b
    assert len(a) == 10
    everything = list(enumerate_equations(3, 8))
    positions = [everything.index(e) for e in a]
    assert positions == sorted(positions)
    assert sample_equations(3, 8, 10, seed=5) != a
    # asking for at least the population returns everything
    assert sample_equations(2, 6, 99, seed=0) == list(enumerate_equations(2, 6))


def test_displayed_monomials_for_the_first_cubic_equation():
    eq = BracketEquation(dim=3, n_points=8,
                         support=(1, 2, 3, 4, 5, 6, 7),
                         sextet=(1, 2, 3, 4, 5, 6))
    first, second = eq.monomial_columns()
    assert first == ((4, 5, 6, 7), (2, 3, 6, 7), (1, 3, 5, 7), (1, 2, 4, 7))
    assert second == ((3, 5, 6, 7), (2, 4, 6, 7), (1, 4, 5, 7), (1, 2, 3, 7))


def test_equation_validation():
    with pytest.raises(ValueError):
        BracketEquation(dim=1, n_points=6, support=(1, 2, 3, 4, 5),
                        sextet=(1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        BracketEquation(dim=2, n_points=6, support=(1, 2, 3, 4, 5, 7),
                        sextet=(1, 2, 3, 4, 5, 7))
    with pytest.raises(ValueError):
        BracketEquation(dim=2, n_points=6, support=(1, 2, 3, 4, 5, 6),
                        sextet=(1, 2, 3, 4, 5, 7))
    with pytest.raises(ValueError):
        BracketEquation(dim=2, n_points=6, support=(2, 1, 3, 4, 5, 6),
                        sextet=(1, 2, 3, 4, 5, 6))


def test_equation_json_round_trip():
    eq = equation_at(3, 8, 17)
    obj = eq.to_json()
    assert list(obj) == ["J", "I"]
    assert equation_from_json(obj, 3, 8) == eq


# ---------------------------------------------------------------------------
# evaluation


def test_inversion_count_basics():
    assert inversion_count((1, 2, 3)) == 0
    assert inversion_count((2, 1, 3)) == 1
    assert inversion_count((3, 2, 1)) == 3


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_template_parities_match_inversion_count(d):
    """The compiled template picks each bracket's sorted columns, with no
    sign: the written column orders of each monomial have even total
    inversion count."""
    template = _template(d)
    support = tuple(range(1, d + 5))
    odd_brackets = 0
    for i, local in enumerate(combinations(range(d + 4), 6)):
        assert template.rank[local] == i
        pick, *monomials = template[i]
        eq = BracketEquation(dim=d, n_points=d + 4, support=support,
                             sextet=tuple(k + 1 for k in local))
        assert pick(support) == eq.sextet
        for picks, written in zip(monomials, eq.monomial_columns()):
            assert [template.columns[i](support) for i in picks] == [
                tuple(sorted(cols)) for cols in written]
            parities = [inversion_count(cols) % 2 for cols in written]
            assert sum(parities) % 2 == 0
            odd_brackets += sum(parities)
    assert len(template) == comb(d + 4, 6)
    # single brackets do change sign once a shared label is smaller than a
    # sextet label, which needs d > 2
    assert (odd_brackets > 0) == (d > 2)


def perturbed(config, label):
    """The configuration with one coordinate of one point shifted by 1."""
    points = list(config.points)
    coords = list(canonical_scalars(points[label - 1]))
    coords[-1] = coords[-1] + config.field.scalar(1)
    points[label - 1] = ProjectivePoint(tuple(coords), config.field)
    return Configuration(field=config.field, dim=config.dim,
                         points=tuple(points))


def repeated(config):
    """The configuration with its first point repeated in slot 2, so every
    bracket holding both columns is zero."""
    points = list(config.points)
    points[1] = points[0]
    return Configuration(field=config.field, dim=config.dim,
                         points=tuple(points))


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "F101"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_evaluate_many_matches_vector_oracle(field, d):
    """The integer-minor path against direct determinants in written column
    order, on honest, tampered and degenerate configurations."""
    n = 2 * d + 2
    honest = sample_instance(d, field, seed=d).vertices
    if d < 4:
        eqs = list(enumerate_equations(d, n))
    else:
        eqs = sample_equations(d, n, 150, seed=1)
    for config, kind in ((honest, "honest"),
                         (perturbed(honest, 3), "tampered"),
                         (repeated(honest), "degenerate")):
        vectors = [canonical_scalars(p) for p in config.points]
        reports = evaluate_many(config, eqs)
        assert [r.equation for r in reports] == eqs
        for r, eq in zip(reports, eqs):
            want = evaluate_equation_vectors(field, vectors, eq)
            assert (r.m1, r.m2, r.value) == (want.m1, want.m2, want.value)
            assert r.nonzero == bool(want.value)
        nonzero = sum(1 for r in reports if r.nonzero)
        if kind == "honest":
            assert nonzero == 0
        elif kind == "tampered":
            assert nonzero > 0
        else:
            assert any(not r.m1 for r in reports)


@pytest.mark.parametrize("d", [2, 3])
def test_curve_points_satisfy_every_equation(rng, d):
    ts = rand_distinct_fractions(rng, 2 * d + 2)
    config = curve_config(d, ts)
    for r in evaluate_many(config, list(enumerate_equations(d, 2 * d + 2))):
        assert r.value == 0
        assert r.m1 == r.m2


def test_curve_points_satisfy_equations_beyond_minimum(rng):
    # n strictly larger than d+4
    ts = rand_distinct_fractions(rng, 9)
    config = curve_config(3, ts)
    assert membership(config).member
    assert len(flat(equation_products(config))) == count_equations(3, 9)


def test_random_configuration_is_not_a_member(rng):
    config = random_config(rng, 2, 6)
    # a generic configuration violates the single equation
    assert not membership(config).member
    [report] = evaluate_many(config, list(enumerate_equations(2, 6)))
    assert report.value != 0


def test_cached_and_raw_paths_agree(rng):
    for d in (2, 3):
        n = d + 4
        config = random_config(rng, d, n)
        vectors = [canonical_scalars(p) for p in config.points]
        for eq in enumerate_equations(d, n):
            cached = evaluate_many(config, [eq])[0]
            raw = evaluate_equation_vectors(QQ, vectors, eq)
            assert cached.value == raw.value
            assert cached.m1 == raw.m1


def test_monomials_scale_covariantly(rng):
    """Scaling point i multiplies each monomial by lambda^m, where m counts
    the appearances of i among the monomial's columns: one bracket when i
    is only in the sextet side, four when i is a shared column."""
    d, n = 2, 6
    eq = equation_at(d, n, 0)
    vectors = [[rand_fraction(rng) for _ in range(d + 1)] for _ in range(n)]
    base = evaluate_equation_vectors(QQ, vectors, eq)
    lam = Fraction(3, 2)
    for i in range(1, n + 1):
        scaled = [list(v) for v in vectors]
        scaled[i - 1] = [lam * x for x in scaled[i - 1]]
        got = evaluate_equation_vectors(QQ, scaled, eq)
        appearances = sum(1 for cols in eq.monomial_columns()[0] if i in cols)
        assert got.m1 == lam ** appearances * base.m1
        assert got.m2 == lam ** appearances * base.m2


def test_scaling_exponents_by_role(rng):
    """The whole equation is covariant of weight 0, 2 or 4 in each point:
    a point outside J does not appear, a sextet point sits in two of the
    four brackets of each monomial, a shared point in all four."""
    d, n = 3, 8
    vectors = [[rand_fraction(rng) for _ in range(d + 1)] for _ in range(n)]
    eq = next(e for e in enumerate_equations(d, n)
              if n not in e.support)
    base = evaluate_equation_vectors(QQ, vectors, eq)
    assert base.m1 != 0 and base.m2 != 0  # generic vectors
    lam = Fraction(5, 3)
    cases = {n: 0, eq.sextet[0]: 2, eq.shared[0]: 4}
    for label, exponent in cases.items():
        scaled = [list(v) for v in vectors]
        scaled[label - 1] = [lam * x for x in scaled[label - 1]]
        got = evaluate_equation_vectors(QQ, scaled, eq)
        assert got.value == lam ** exponent * base.value
        assert got.m1 == lam ** exponent * base.m1


def test_evaluation_validates_shape(rng):
    config = random_config(rng, 2, 6)
    eq = equation_at(3, 8, 0)
    with pytest.raises(MismatchError):
        evaluate_many(config, [eq])


def test_report_json_fields(rng):
    config = random_config(rng, 2, 6)
    report = evaluate_many(config, [equation_at(2, 6, 0)])[0]
    obj = report_to_json(report, QQ)
    assert list(obj) == ["J", "I", "m1", "m2", "value"]
    assert obj["J"] == [1, 2, 3, 4, 5, 6]
    assert Fraction(obj["m1"]) - Fraction(obj["m2"]) == Fraction(obj["value"])
    json.dumps(obj)


# ---------------------------------------------------------------------------
# streaming evaluation against the slow exact paths


def stream_cases(field, d):
    """Honest, tampered and degenerate vertices of one instance."""
    honest = sample_instance(d, field, seed=d).vertices
    return [honest, perturbed(honest, 3), repeated(honest)]


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "F101"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_equation_products_match_evaluate_many(field, d):
    """The support stream, its batches flattened, gives the products,
    order, counts and failures that evaluate_many gives equation by
    equation, on honest, tampered and degenerate vertices; so do
    verify_instance, for full runs and for samples below, at and above the
    total, and membership."""
    n = 2 * d + 2
    total = count_equations(d, n)
    eqs = list(enumerate_equations(d, n))
    inst = sample_instance(d, field, seed=d)
    for config in stream_cases(field, d):
        reports = evaluate_many(config, eqs)
        want = [(r.equation.support, r.equation.sextet, r.n1, r.n2)
                for r in reports]
        for sample in (None, total, total + 5):
            assert flat(equation_products(config, sample, seed=3)) == want
        failures = tuple(r.equation for r in reports if r.nonzero)
        assert membership(config).member is not bool(failures)
        picked = evaluate_many(config, sample_equations(d, n, 11, 3))
        streamed = flat(equation_products(config, 11, seed=3))
        assert streamed == [(r.equation.support, r.equation.sextet, r.n1,
                             r.n2) for r in picked]
        assert [n1 != n2 for *_, n1, n2 in streamed] == [
            r.nonzero for r in picked]
        tampered = dataclasses.replace(inst, vertices=config)
        assert verify_instance(tampered, sample=11, sample_seed=3) == \
            verify_instance(tampered, sample=11, sample_seed=3,
                            evaluator=evaluate_many)
        cert = verify_instance(tampered)
        assert cert.psi_total == total
        assert cert.psi_zero == total - len(failures)
        assert cert.psi_failures == failures
        assert cert == verify_instance(tampered, evaluator=evaluate_many)
        assert verify_instance(tampered, sample=total, sample_seed=3) == \
            dataclasses.replace(cert, sample=total, sample_seed=3)
        if d <= 4:
            vectors = [list(p.coords) for p in config.points]
            step = 1 if d < 4 else 7
            for eq, (_, _, n1, n2) in zip(eqs[::step], want[::step]):
                oracle = evaluate_equation_vectors(field, vectors, eq)
                assert (n1 != n2) == bool(oracle.value)


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "F101"])
@pytest.mark.parametrize("d", [3, 6])
def test_sampled_products_match_evaluate_many(field, d):
    n = 2 * d + 2
    config = sample_instance(d, field, seed=1).vertices
    for config in (config, perturbed(config, 2)):
        for k, seed in ((1, 0), (17, 4), (200, 9)):
            eqs = sample_equations(d, n, k, seed)
            assert flat(equation_products(config, k, seed)) == [
                (r.equation.support, r.equation.sextet, r.n1, r.n2)
                for r in evaluate_many(config, eqs)]


def test_full_walk_reads_each_support_minor_once(monkeypatch):
    """A full run looks up each of a support's C(d+4, d+1) minors once; a
    sample looks up only the eight brackets of each of its equations."""
    looked_up = []
    minor = BracketTable.minor

    def counted(self, cols):
        looked_up.append(cols)
        return minor(self, cols)

    monkeypatch.setattr(BracketTable, "minor", counted)
    d, n = 4, 11
    config = curve_config(d, list(range(1, n + 1)))
    assert len(flat(equation_products(config))) == count_equations(d, n)
    assert len(looked_up) == comb(n, d + 4) * comb(d + 4, d + 1)
    looked_up.clear()
    assert len(flat(equation_products(config, 1, seed=2))) == 1
    assert len(looked_up) == len(set(looked_up)) == 8


def test_support_rows_are_lazy():
    """Drawing a row of a full support forms that row's six products and
    no others, so the expand route holds one pair of polynomials at a
    time."""
    products = []

    class Counted:
        def __mul__(self, other):
            products.append(other)
            return self

    d = 3
    [(support, rows)] = support_products(
        lambda cols: Counted(), d, [(tuple(range(1, d + 5)), None)])
    assert iter(rows) is rows and not products
    pick, n1, n2 = next(rows)
    assert pick(support) == (1, 2, 3, 4, 5, 6)
    assert len(products) == 6
    assert sum(1 for _ in rows) == comb(d + 4, 6) - 1
    assert len(products) == 6 * comb(d + 4, 6)


def test_equation_products_check_the_point_count():
    config = curve_config(3, list(range(1, 7)))
    with pytest.raises(MismatchError):
        equation_products(config)


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "F101"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_check_psi_lines_match_report_json(field, d, tmp_path, capsys):
    """Every streamed check-psi line is the json.dumps of report_to_json
    for the same equation, on honest, tampered and degenerate vertices,
    for full runs and samples below, at and above the total."""
    n = 2 * d + 2
    total = count_equations(d, n)
    inst = sample_instance(d, field, seed=d)
    for config in stream_cases(field, d):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_to_json(
            dataclasses.replace(inst, vertices=config))))
        expected = {}
        for sample in (None, 11, total, total + 1):
            argv = ["check-psi", "--input", str(path), "--seed", "5"]
            if sample is not None:
                argv += ["--sample", str(sample)]
            code = main(argv)
            out = capsys.readouterr().out
            picked = 11 if sample == 11 else None
            if picked not in expected:
                reports = evaluate_many(
                    config, sample_equations(d, n, picked, 5))
                expected[picked] = ("".join(
                    json.dumps(report_to_json(r, field)) + "\n"
                    for r in reports), int(any(r.nonzero for r in reports)))
            assert (out, code) == expected[picked]


@settings(max_examples=300)
@given(n=st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6),
                   st.integers(-10 ** 300, 10 ** 300)),
       scale=st.one_of(st.integers(1, 10 ** 6), st.integers(1, 10 ** 300)),
       common=st.integers(1, 10 ** 40))
def test_format_ratio_matches_fraction(n, scale, common):
    for num, den in ((n, scale), (n * common, scale * common)):
        assert format_ratio(num, den) == str(Fraction(num, den))


def test_verify_peak_memory_stays_small():
    """A full d=5 run keeps no per-equation objects: the traced peak stays
    far below the ~7 MB that a report per equation took."""
    inst = instance_from_json(json.loads((DATA / "d5.json").read_text()))
    tracemalloc.start()
    try:
        cert = verify_instance(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.verdict and cert.psi_total == 18480
    assert peak < 2 * 2 ** 20


def test_equation_picks_are_checked_when_asked_for():
    """Full picks are the supports, each once; a sampled pick is the
    sampled equation's support and its sextet's rank in the support, which
    indexes the template entry that picks that sextet; bad counts and
    samples raise before any pick."""
    d, n = 3, 9
    assert list(equation_picks(d, n)) == [
        (support, None) for support in combinations(range(1, n + 1), 7)]
    ranks = sample_ranks(count_equations(d, n), 17, 4)
    eqs = [equation_at(d, n, r) for r in ranks]
    picks = list(equation_picks(d, n, 17, seed=4))
    assert picks == [(eq.support, r % comb(d + 4, 6))
                     for eq, r in zip(eqs, ranks)]
    assert [_template(d)[i][0](support) for support, i in picks] == [
        eq.sextet for eq in eqs]
    assert [eq.pick for eq in eqs] == picks
    assert sample_equations(d, n, 17, 4) == eqs
    with pytest.raises(MismatchError):
        equation_picks(d, 6)
    with pytest.raises(ValueError, match="cannot sample"):
        equation_picks(24, 50, 5)


def test_membership_peak_memory_stays_small():
    """membership streams: on the d=5 dual it keeps no per-equation
    report, far below the ~7 MB that 18,480 of them took."""
    inst = instance_from_json(json.loads((DATA / "d5.json").read_text()))
    dual = dual_configuration(inst)
    tracemalloc.start()
    try:
        member = membership(dual).member
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert member
    assert peak < 2 * 2 ** 20


# ---------------------------------------------------------------------------
# membership verdicts


def test_membership_needs_enough_points(rng):
    config = random_config(rng, 3, 6)
    with pytest.raises(MismatchError):
        membership(config)
    with pytest.raises(MismatchError):
        lies_on_rnc(config)


def test_membership_sampling(rng):
    ts = rand_distinct_fractions(rng, 10)
    config = curve_config(3, ts)
    products = flat(equation_products(config, 12, seed=1))
    assert len(products) == 12
    assert all(n1 == n2 for _, _, n1, n2 in products)


def test_lies_on_rnc_for_curve_and_not_for_noise(rng):
    ts = rand_distinct_fractions(rng, 8)
    assert lies_on_rnc(curve_config(3, ts))
    assert not lies_on_rnc(random_config(rng, 3, 8))


def test_coplanar_points_pass_membership_but_fail_glp(rng):
    # planar points inside P^3: every 4x4 bracket vanishes
    pts = []
    while len(pts) < 8:
        coords = (rand_fraction(rng), rand_fraction(rng), rand_fraction(rng),
                  Fraction(0))
        if any(coords):
            pts.append(ProjectivePoint(coords, QQ))
    config = Configuration(field=QQ, dim=3, points=tuple(pts))
    assert membership(config).member
    assert not lies_on_rnc(config)


def test_prime_field_membership_matches_reduction(rng):
    ts = list(range(1, 9))
    config_q = curve_config(3, ts)
    config_p = curve_config(3, ts, field=FP)
    for eq in enumerate_equations(3, 8):
        rq = evaluate_many(config_q, [eq])[0]
        rp = evaluate_many(config_p, [eq])[0]
        assert FP.scalar(rq.m1) == rp.m1
        assert FP.scalar(rq.value) == rp.value


# ---------------------------------------------------------------------------
# one bracket table per configuration


def filled_once(computed) -> bool:
    """One table, filled by one walk with every bracket of 8 points of
    P^3."""
    return computed.walks == [(8, comb(8, 4))]


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "F101"])
def test_verify_computes_each_bracket_once(computed, field):
    cert = verify_instance(sample_instance(3, field, seed=2))
    assert cert.glp_ok and cert.verdict
    assert filled_once(computed)


def test_lies_on_rnc_and_dual_check_share_one_table(computed, capsys):
    ts = list(range(1, 9))
    assert lies_on_rnc(curve_config(3, ts))
    assert filled_once(computed)
    computed.walks.clear()
    assert main(["dual-check", "--d", "3", "--seed", "1"]) == 0
    capsys.readouterr()
    assert filled_once(computed)


def test_every_equation_fills_the_table_and_a_sample_does_not(computed):
    """A run over every equation fills the table before its first support;
    a sample on an unfilled table fills only the brackets it reads, by
    one pruned walk."""
    config = curve_config(3, list(range(1, 9)))
    assert membership(config).member
    assert filled_once(computed)
    computed.walks.clear()
    config = curve_config(3, list(range(1, 9)))
    products = flat(equation_products(config, 3, seed=1))
    assert len(products) == 3
    assert all(n1 == n2 for _, _, n1, n2 in products)
    assert computed.walks == [(8, len(config.bracket_table))]
    assert 0 < len(config.bracket_table) <= 3 * 8


def test_sampled_readers_start_one_walk_at_most(monkeypatch):
    """The readers the benchmark runs: on a table the general-position
    test filled, a sampled equation_products starts no walk and gathers
    no wanted minor; evaluate_many on an unfilled table and a sampled
    FactorizationProofs(4).verdicts start exactly one walk each."""
    walks, gathered = [], []
    walk, fill = projective._maximal_minors, BracketTable.fill

    def counted_walk(*args):
        walks.append(args)
        return walk(*args)

    def counted_fill(self, wanted=None):
        return fill(self, None if wanted is None else (
            gathered.append(cols) or cols for cols in wanted))

    monkeypatch.setattr(projective, "_maximal_minors", counted_walk)
    monkeypatch.setattr(BracketTable, "fill", counted_fill)
    points = sample_instance(6, FP, seed=1, height=6).vertices.points
    config = Configuration(field=FP, dim=6, points=points)
    assert is_general_linear_position(config)
    assert len(walks) == 1
    rows = [row for _, rows in equation_products(config, 2000, seed=1)
            for row in rows]
    assert len(rows) == 2000
    assert len(walks) == 1 and not gathered
    fresh = Configuration(field=FP, dim=6, points=points)
    reports = evaluate_many(fresh, sample_equations(6, 14, 50, seed=2))
    assert len(reports) == 50 and not any(r.nonzero for r in reports)
    assert len(walks) == 2 and 0 < len(gathered) <= 50 * 8
    assert 0 < len(fresh.bracket_table) < comb(14, 7)
    proofs = FactorizationProofs(4)
    picks = list(combinations(range(1, 11), 5))[::3]
    verdicts = list(proofs.verdicts(picks))
    assert [split.members for split, _ in verdicts] == picks
    assert all(ok for _, ok in verdicts)
    assert len(walks) == 3 and len(proofs.table) == len(picks)

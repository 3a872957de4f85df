"""Acceptance suite: one test per headline claim, each printing a summary line.

Every check is exact; there are no tolerances anywhere.  The instance cache
is shared across tests so the fitted-curve and duality checks run against
the same instances the verification sweep certified.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from rncgeom.equations import (
    BracketEquation,
    count_equations,
    enumerate_equations,
    lies_on_rnc,
    membership,
)
from rncgeom.errors import DegenerateInputError
from rncgeom.fields import QQ, PrimeField
from rncgeom.identities import (
    SubsetSplit,
    equation_sign_analysis,
    factor_pairs,
    split_sign,
    verify_equation_identity,
    verify_factorization,
)
from rncgeom.projective import (
    Configuration,
    ProjectivePoint,
    is_general_linear_position,
)
from rncgeom.staudt import (
    castelnuovo_check,
    dual_configuration,
    reduce_instance_mod,
    sample_instance,
    verify_instance,
)

SEEDS = range(50)
F101 = PrimeField(101)

_instances = {}


def get_instance(d, seed, field=QQ):
    key = (d, seed, field)
    if key not in _instances:
        _instances[key] = sample_instance(d, field, seed=seed, height=20)
    return _instances[key]


@contextmanager
def criterion(capsys, number, description):
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"criterion {number}: {status} - {description}")


def bracket_string(columns):
    return "".join(
        "|" + "".join(str(c) for c in cols) + "|" for cols in columns)


def coplanar_configuration(d, field):
    # Vandermonde rows padded with a zero: distinct points inside the
    # hyperplane x_d = 0, so every bracket vanishes but so does the span
    points = tuple(
        ProjectivePoint(
            tuple(field.scalar(t ** i) for i in range(d))
            + (field.scalar(0),), field)
        for t in range(1, d + 5))
    return Configuration(field=field, dim=d, points=points)


def tampered_certificate(d, field, trial):
    """Replace one vertex of a sampled instance by a random point chosen
    to keep general linear position, then reverify."""
    import dataclasses

    inst = get_instance(d, trial, field)
    n = 2 * d + 2
    rng = random.Random(7000 * d + trial)
    slot = trial % n
    points = list(inst.vertices.points)
    while True:
        if field == QQ:
            coords = tuple(
                Fraction(rng.randint(-30, 30)) for _ in range(d + 1))
        else:
            coords = tuple(
                field.scalar(rng.randrange(field.characteristic))
                for _ in range(d + 1))
        if not any(coords):
            continue
        points[slot] = ProjectivePoint(coords, field)
        if points[slot] == inst.vertices.points[slot]:
            continue
        config = Configuration(field=field, dim=d, points=tuple(points))
        if is_general_linear_position(config):
            break
    tampered = dataclasses.replace(inst, vertices=config)
    return verify_instance(tampered)


def test_criterion_1(capsys):
    with criterion(capsys, 1,
                   "sampled rational instances verify exactly "
                   "(d=2..5 full, d=6 sampled)"):
        for d in (2, 3, 4, 5):
            slowest = 0.0
            for seed in SEEDS:
                start = time.perf_counter()
                cert = verify_instance(get_instance(d, seed))
                slowest = max(slowest, time.perf_counter() - start)
                assert cert.verdict, (d, seed)
                assert cert.psi_zero == cert.psi_total, (d, seed)
            if d <= 4:
                assert slowest < 1.0, (d, slowest)
            else:
                assert slowest < 10.0, (d, slowest)
        start = time.perf_counter()
        cert = verify_instance(get_instance(6, 0), sample=2000)
        elapsed = time.perf_counter() - start
        assert cert.verdict
        assert cert.psi_total == 2000
        assert elapsed < 10.0, elapsed


def test_criterion_2(capsys):
    with criterion(capsys, 2,
                   "cubic census: 56 equations, lead equation prints "
                   "as |4567||2367||1357||1247|"):
        assert count_equations(3, 8) == 56
        assert len(list(enumerate_equations(3, 8))) == 56
        eq = BracketEquation(dim=3, n_points=8,
                             support=tuple(range(1, 8)),
                             sextet=tuple(range(1, 7)))
        first, second = eq.monomial_columns()
        assert bracket_string(first) == "|4567||2367||1357||1247|"
        assert bracket_string(second) == "|3567||2467||1457||1237|"


CUBIC_ANCHORS = [
    ((4, 5, 6, 7), -1, [(5, 6), (5, 7), (6, 7), (1, 8), (2, 8), (3, 8)]),
    ((2, 3, 6, 7), 1, [(2, 3), (6, 7), (1, 5), (1, 8), (4, 5), (4, 8)]),
    ((1, 3, 5, 7), 1, [(1, 3), (5, 7), (2, 6), (2, 8), (4, 6), (4, 8)]),
    ((1, 2, 4, 7), -1, [(1, 2), (1, 4), (2, 4), (3, 5), (3, 6), (3, 8)]),
    ((3, 5, 6, 7), -1, [(5, 6), (5, 7), (6, 7), (1, 8), (2, 8), (4, 8)]),
    ((2, 4, 6, 7), 1, [(2, 4), (6, 7), (1, 5), (1, 8), (3, 5), (3, 8)]),
    ((1, 4, 5, 7), 1, [(1, 4), (5, 7), (2, 6), (2, 8), (3, 6), (3, 8)]),
    ((1, 2, 3, 7), -1, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (4, 8)]),
]


def test_criterion_3(capsys):
    with criterion(capsys, 3,
                   "vertex brackets factor into parameter cross terms "
                   "(20 conic and 70 cubic subsets, 8 spot checks)"):
        start = time.perf_counter()
        for d in (2, 3):
            for members in combinations(range(1, 2 * d + 3), d + 1):
                assert verify_factorization(SubsetSplit(d, members)), members
        for members, sign, pairs in CUBIC_ANCHORS:
            split = SubsetSplit(3, members)
            assert split_sign(split) == sign, members
            assert sorted(factor_pairs(split)) == sorted(pairs), members
        assert time.perf_counter() - start < 30.0


def test_criterion_4(capsys):
    with criterion(capsys, 4,
                   "equations vanish identically on symbolic vertices "
                   "(conic by expansion, all 56 cubic by factors)"):
        start = time.perf_counter()
        conic = list(enumerate_equations(2, 6))
        assert len(conic) == 1
        assert verify_equation_identity(conic[0], method="expand")
        for eq in enumerate_equations(3, 8):
            assert verify_equation_identity(eq, method="factors"), eq
        example = BracketEquation(dim=3, n_points=8,
                                  support=tuple(range(1, 8)),
                                  sextet=tuple(range(1, 7)))
        assert verify_equation_identity(example, method="expand")
        assert time.perf_counter() - start < 60.0


def test_criterion_5(capsys):
    with criterion(capsys, 5,
                   "bracket parity sums are even and split signs match "
                   "case by case (d=3,4,5, fixed support)"):
        for d in (3, 4, 5):
            support = tuple(range(1, d + 5))
            for sextet in combinations(support, 6):
                eq = BracketEquation(dim=d, n_points=2 * d + 2,
                                     support=support, sextet=sextet)
                analysis = equation_sign_analysis(eq)
                assert analysis.parity_sum_1 == 0, (d, sextet)
                assert analysis.parity_sum_2 == 0, (d, sextet)
                assert analysis.case_ok, (d, sextet)
                assert analysis.total_sign_1 == analysis.total_sign_2


def test_criterion_6(capsys):
    with criterion(capsys, 6,
                   "curve fitted through d+3 vertices contains the rest "
                   "(d=2..4, all seeds)"):
        for d in (2, 3, 4):
            for seed in SEEDS:
                assert castelnuovo_check(get_instance(d, seed)), (d, seed)


def test_criterion_7(capsys):
    with criterion(capsys, 7,
                   "osculating coefficient vectors lie on their own "
                   "rational normal curve (d=2..4)"):
        for d in (2, 3, 4):
            for seed in range(20):
                dual = dual_configuration(get_instance(d, seed))
                assert lies_on_rnc(dual), (d, seed)


def test_criterion_8(capsys):
    with criterion(capsys, 8,
                   "single-vertex tampering and coplanar configurations "
                   "are rejected"):
        for d in (2, 3):
            for trial in range(20):
                cert = tampered_certificate(d, QQ, trial)
                assert not cert.verdict, (d, trial)
                assert cert.glp_ok, (d, trial)
                assert len(cert.psi_failures) >= 1, (d, trial)
            flat = coplanar_configuration(d, QQ)
            assert membership(flat).member
            assert not is_general_linear_position(flat)
            assert not lies_on_rnc(flat)


def test_criterion_9(capsys):
    with criterion(capsys, 9,
                   "mod-101 instances verify, reject tampering, and "
                   "match reduced rational runs"):
        for d in (2, 3):
            for seed in SEEDS:
                cert = verify_instance(get_instance(d, seed, F101))
                assert cert.verdict, (d, seed)
                assert cert.psi_zero == cert.psi_total
            for trial in range(20):
                cert = tampered_certificate(d, F101, trial)
                assert not cert.verdict, (d, trial)
                assert cert.glp_ok, (d, trial)
                assert len(cert.psi_failures) >= 1, (d, trial)
            flat = coplanar_configuration(d, F101)
            assert membership(flat).member
            assert not lies_on_rnc(flat)
            agreements = 0
            for seed in SEEDS:
                try:
                    reduced = reduce_instance_mod(get_instance(d, seed), 101)
                except DegenerateInputError:
                    # two rational parameters collided mod 101
                    continue
                direct = get_instance(d, seed, F101)
                if reduced.params != direct.params:
                    # the shared integer stream diverged at a mod-p
                    # collision; nothing to compare for this seed
                    continue
                agreements += 1
                assert reduced == direct, (d, seed)
                assert verify_instance(reduced) == verify_instance(direct)
            assert agreements >= len(SEEDS) // 2, (d, agreements)

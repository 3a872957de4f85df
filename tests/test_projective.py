import inspect
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bracket_vectors,
    contains,
    hyperplane_intersection,
    is_degenerate,
    pairing,
    rand_fraction,
    sympy_det,
    sympy_rank,
    vandermonde,
)
from rncgeom.errors import DegenerateInputError, MismatchError
from rncgeom.fields import QQ, PrimeField
from rncgeom.identities import FactorizationProofs
from rncgeom.projective import (
    Configuration,
    ProjectivePoint,
    _det_int,
    _maximal_minors,
    bracket,
    canonical_coords,
    config_from_json,
    config_to_json,
    is_general_linear_position,
    points_to_json,
)
from rncgeom.staudt import sample_instance

FP = PrimeField(101)

fractions = st.fractions(
    min_value=-30, max_value=30, max_denominator=12)


def pt(*coords):
    return ProjectivePoint(tuple(Fraction(c) for c in coords), QQ)


def config_of(*rows):
    pts = tuple(pt(*r) for r in rows)
    return Configuration(field=QQ, dim=pts[0].dim, points=pts)


# ---------------------------------------------------------------------------
# canonical representatives


def test_canonical_scales_first_nonzero_to_one():
    """Over Z/p the first nonzero entry becomes 1; over Q the vector
    becomes primitive with a positive first nonzero entry."""
    assert canonical_coords((Fraction(2), Fraction(4), Fraction(6)), QQ) == \
        (1, 2, 3)
    assert canonical_coords((Fraction(0), Fraction(-3), Fraction(6)), QQ) == \
        (0, 1, -2)
    assert canonical_coords((Fraction(1, 2), "-1/3"), QQ) == (3, -2)
    assert canonical_coords((0, 3, "6"), FP) == (0, 1, 2)


def test_canonical_rejects_zero_vector():
    with pytest.raises(ValueError):
        canonical_coords((Fraction(0), Fraction(0)), QQ)
    with pytest.raises(ValueError):
        ProjectivePoint((Fraction(0),) * 3, QQ)


def test_point_equality_is_projective():
    assert pt(2, 4, 6) == pt(1, 2, 3)
    assert pt(2, 4, 6) != pt(1, 2, 4)
    assert len({pt(2, 4, 6), pt(1, 2, 3)}) == 1


def test_prime_field_canonicalization():
    p = ProjectivePoint((FP.scalar(3), FP.scalar(6)), FP)
    assert p.coords == (FP.scalar(1), FP.scalar(2))


def test_primitive_vector_is_integral_and_reduced():
    """Over Q a point holds its primitive vector, and its scale is the
    first nonzero entry, by which the canonical coordinates divide it."""
    given = (1, Fraction(3, 2), Fraction(3, 4), Fraction(1, 8))
    p = pt(*given)
    assert p.coords == (8, 12, 6, 1) and p.scale == 8
    assert all(Fraction(v, p.scale) == c for v, c in zip(p.coords, given))
    # first nonzero entry made positive, gcd cleared
    assert pt(0, Fraction(-1, 2), Fraction(1, 4)).coords == (0, 2, -1)
    assert points_to_json([pt(0, -4, 6)]) == [["0", "1", "-3/2"]]
    assert ProjectivePoint((0, 3, 6), FP).scale == 1


# ---------------------------------------------------------------------------
# determinants


def test_det_identity_and_repeat():
    assert bracket([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)]) == 1
    assert bracket([pt(1, 0, 0), pt(1, 0, 0), pt(0, 0, 1)]) == 0


def test_det_vandermonde_example():
    points = [pt(1, 2, 4), pt(1, 3, 9), pt(1, 5, 25)]
    assert bracket(points) == vandermonde([2, 3, 5])


def random_points(rng, n, field):
    """n random points of P^(n-1), now and then repeating the last one."""
    points = []
    while len(points) < n:
        if points and rng.random() < 0.1:
            points.append(points[-1])
            continue
        if field == QQ:
            row = [rand_fraction(rng) for _ in range(n)]
        else:
            row = [field.scalar(rng.randint(0, field.characteristic - 1))
                   for _ in range(n)]
        if any(row):
            points.append(ProjectivePoint(tuple(row), field))
    return points


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_matches_sympy(rng, n):
    for _ in range(8):
        points = random_points(rng, n, QQ)
        assert bracket(points) == sympy_det([p.coords for p in points])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_matches_sympy_mod_p(rng, n):
    for _ in range(8):
        points = random_points(rng, n, FP)
        assert bracket(points) == sympy_det([p.coords for p in points], FP)


def test_det_prime_agrees_with_rational_reduction(rng):
    # entries in [-50, 50] keep every leading coordinate nonzero mod 101,
    # so both fields scale the rows alike
    for n in (2, 3, 4, 5):
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        if not all(any(row) for row in rows):
            continue
        points = [ProjectivePoint(tuple(map(Fraction, row)), QQ)
                  for row in rows]
        b_q = bracket(points)
        b_p = bracket([ProjectivePoint(tuple(map(FP.scalar, row)), FP)
                       for row in rows])
        # b_p is over the canonical coordinates, first nonzero entry 1
        assert FP.scalar(Fraction(b_q, prod(p.scale for p in points))) == b_p


@given(st.integers(2, 4), st.data())
def test_bracket_swap_antisymmetry(n, data):
    rows = data.draw(st.lists(
        st.lists(fractions, min_size=n, max_size=n),
        min_size=n, max_size=n))
    field_rows = [[Fraction(x) for x in r] for r in rows]
    base = bracket_vectors(QQ, field_rows)
    i, j = data.draw(st.sampled_from(
        [(a, b) for a in range(n) for b in range(n) if a < b]))
    swapped = list(field_rows)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert bracket_vectors(QQ, swapped) == -base


@given(st.integers(2, 4), fractions, st.data())
def test_bracket_vectors_scale_linearly(n, lam, data):
    rows = data.draw(st.lists(
        st.lists(fractions, min_size=n, max_size=n),
        min_size=n, max_size=n))
    field_rows = [[Fraction(x) for x in r] for r in rows]
    base = bracket_vectors(QQ, field_rows)
    k = data.draw(st.integers(0, n - 1))
    scaled = list(field_rows)
    scaled[k] = [Fraction(lam) * x for x in scaled[k]]
    assert bracket_vectors(QQ, scaled) == Fraction(lam) * base


def test_bracket_validates_shape():
    with pytest.raises(MismatchError):
        bracket([pt(1, 0, 0), pt(0, 1, 0)])
    q = ProjectivePoint((FP.scalar(1), FP.scalar(1), FP.scalar(1)), FP)
    with pytest.raises(MismatchError):
        bracket([pt(1, 0, 0), pt(0, 1, 0), q])


# ---------------------------------------------------------------------------
# ranks, intersections


def test_hyperplane_intersection_coordinate_planes():
    planes = [pt(1, 0, 0), pt(0, 1, 0)]
    assert hyperplane_intersection(planes) == pt(0, 0, 1)


def test_hyperplane_intersection_degenerate_raises():
    h = pt(1, 0, 0)
    with pytest.raises(DegenerateInputError):
        hyperplane_intersection([h, h])


def test_hyperplane_incidence():
    h = pt(1, -1, 1)
    assert contains(h, pt(1, 1, 0))
    assert not contains(h, pt(1, 1, 1))
    assert pairing(h, pt(1, 1, 1)) == 1


# ---------------------------------------------------------------------------
# position predicates


def test_glp_frame_points():
    config = config_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4))
    assert is_general_linear_position(config)


def test_glp_fails_on_collinear_triple():
    config = config_of((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1))
    assert not is_general_linear_position(config)


def test_glp_small_configs_use_rank():
    assert is_general_linear_position(config_of((1, 0, 0), (0, 1, 0)))
    assert not is_general_linear_position(config_of((1, 0, 0), (1, 0, 0)))
    # no points: the one 0 x 0 minor is 1
    assert is_general_linear_position(
        Configuration(field=QQ, dim=2, points=()))


@pytest.mark.parametrize("field", [QQ, FP], ids=["Q", "Z101"])
@pytest.mark.parametrize("axes,taken", [
    ((0,), 1), ((0, 1), 1), ((0, 1, 2), 1), ((1, 2), 4), ((2,), 3)])
def test_glp_small_configs_stop_at_the_first_nonzero_minor(
        computed, field, axes, taken):
    """Fewer than d+1 points are in general position as soon as one
    maximal minor of their coordinate rows is nonzero, so the walk is read
    up to that minor only: axis points e_a in P^3 take the minors in
    combinations order up to the first one on rows a + 1."""
    config = Configuration(field=field, dim=3, points=tuple(
        ProjectivePoint(tuple(int(k == a) for k in range(4)), field)
        for a in axes))
    computed.walks.clear()
    assert is_general_linear_position(config)
    assert computed.walks == [(4, taken)]


def test_glp_small_configs_match_sympy(rng):
    """With at most d+1 points, general position is full rank in the field
    itself, which the minors of the integer lifts read mod p: the lifts of
    (1,0,60), (0,1,60), (1,1,19) are independent, but mod 101 the third is
    the sum of the other two.  Random points, some of them combinations of
    earlier ones, are checked against sympy over Q and mod small primes."""
    rows = ((1, 0, 60), (0, 1, 60), (1, 1, 19))
    lifted = config_of(*rows)
    reduced = Configuration(field=FP, dim=2, points=tuple(
        ProjectivePoint(tuple(map(FP.scalar, row)), FP) for row in rows))
    assert is_general_linear_position(lifted)
    assert not is_general_linear_position(reduced)
    for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(5), FP):
        for _ in range(60):
            d = rng.randint(1, 5)
            n = rng.randint(1, d + 1)
            rows = []
            while len(rows) < n:
                if rows and rng.random() < 0.3:
                    # a combination of earlier rows
                    a, b = rng.choice(rows), rng.choice(rows)
                    k = rng.randint(-3, 3)
                    row = [x + k * y for x, y in zip(a, b)]
                else:
                    row = [rng.randint(-6, 6) for _ in range(d + 1)]
                if any(field.scalar(x) for x in row):
                    rows.append(row)
            points = tuple(ProjectivePoint(tuple(map(field.scalar, row)),
                                           field) for row in rows)
            config = Configuration(field=field, dim=d, points=points)
            full = sympy_rank([p.coords for p in points], field) == n
            assert is_general_linear_position(config) == full


# ---------------------------------------------------------------------------
# the filled bracket table


def per_minor(vectors, d, modulus=0):
    """Each maximal minor by its own _det_int: the slow path fill replaces."""
    minors = {cols: _det_int([vectors[c - 1] for c in cols])
              for cols in combinations(range(1, len(vectors) + 1), d + 1)}
    if modulus:
        return {cols: m % modulus for cols, m in minors.items()}
    return minors


@st.composite
def integer_vectors(draw):
    """n integer vectors of length d+1, d in 0..6 and n in d+1..d+6, with
    many zeros, sometimes a zero first column, repeated rows and a row
    that depends on the ones before it."""
    d = draw(st.integers(0, 6))
    n = draw(st.integers(d + 1, d + 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=d + 1, max_size=d + 1),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        for row in rows:
            row[0] = 0
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[j] = list(rows[i])
    if n > 2 and draw(st.booleans()):
        # a dependent prefix: row 2 is a combination of rows 0 and 1
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[2] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return d, rows


@settings(max_examples=150, deadline=None)
@given(integer_vectors(), st.sampled_from([0, 2, 7, 101]))
def test_filled_minors_match_each_determinant(case, modulus):
    d, rows = case
    assert dict(_maximal_minors(rows, modulus)) == per_minor(rows, d, modulus)


@settings(max_examples=150, deadline=None)
@given(integer_vectors(), st.lists(st.integers(0, 20), max_size=3))
# a zero row at the root, whose subtree is deferred behind its elder
# siblings', and a row that depends on the two before it, mid-tree
@example((3, [[1, 2, 0, 1], [0, 0, 0, 0], [2, 1, 1, 0], [0, 1, 3, 1],
              [2, 2, 4, 1], [1, 0, 0, 5]]), [])
def test_walk_streams_labels_in_combinations_order(case, zeroed):
    """The walk yields each label set once, in combinations order, through
    the zero subtrees of rows that are zero or depend on their prefix."""
    d, rows = case
    for i in zeroed:
        rows[i % len(rows)] = [0] * (d + 1)
    labels = [cols for cols, _ in _maximal_minors(rows)]
    assert labels == list(combinations(range(1, len(rows) + 1), d + 1))


def test_fill_holds_one_copy_of_the_minors():
    """fill() streams the walk into the table: tracemalloc's peak during
    the fill of the d = 6 proof table (3,432 minors) is within 10% of the
    table it leaves.  Building a dict of every minor and copying it in
    peaks at 1.24 times the table."""
    proofs = FactorizationProofs(6)
    tracemalloc.start()
    try:
        proofs.table.fill()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(proofs.table) == 3432
    assert peak <= 1.10 * held, (peak, held)


@settings(max_examples=60, deadline=None)
@given(integer_vectors(), st.sampled_from([QQ, PrimeField(7), FP]),
       st.lists(st.integers(0, 10 ** 6), max_size=6))
def test_filled_table_matches_each_determinant(case, field, lazy):
    """Through a configuration: the table holds every subset's bracket,
    reduced mod p over Z/p, whether or not some were read lazily before
    the fill, and the general-position test is the per-minor rule."""
    d, rows = case
    # a point needs a nonzero vector in the field
    rows = [row if any(field.scalar(x) for x in row) else [1] + row[1:]
            for row in rows]
    points = tuple(ProjectivePoint(tuple(map(field.scalar, row)), field)
                   for row in rows)
    config = Configuration(field=field, dim=d, points=points)
    table = config.bracket_table
    expected = per_minor(table.vectors, d, field.characteristic)
    keys = list(expected)
    for i in lazy:
        cols = keys[i % len(keys)]
        assert table[cols] == table.minor(cols) == expected[cols]
    assert table.fill() is table
    assert table == expected
    if len(rows) > d + 1:
        assert is_general_linear_position(config) == all(expected.values())


def test_fill_needs_no_recursion():
    """The walk keeps its own stack: a table 41 levels deep fills within a
    recursion limit 20 frames above the caller's."""
    rng = random.Random(4)
    d = 40
    rows = [[rng.randint(-3, 3) for _ in range(d + 1)] for _ in range(d + 2)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 20)
    try:
        filled = dict(_maximal_minors(rows))
    finally:
        sys.setrecursionlimit(limit)
    assert filled == per_minor(rows, d)


def test_glp_agrees_with_the_per_minor_rule():
    """Honest vertices, a repeated vertex and a tampered vertex: the test
    that reads the filled table gives what each minor on its own gives."""
    for field, d in ((QQ, 3), (QQ, 5), (FP, 4), (FP, 6)):
        inst = sample_instance(d, field, seed=d, height=6)
        points = list(inst.vertices.points)
        repeated = points[:-1] + [points[0]]
        tampered = list(points)
        vec = list(tampered[2].coords)
        vec[-1] += field.scalar(1)
        tampered[2] = ProjectivePoint(tuple(vec), field)
        for pts, general in ((points, True), (repeated, False),
                             (tampered, None)):
            config = Configuration(field=field, dim=d, points=tuple(pts))
            vectors = [p.coords for p in pts]
            rule = all(per_minor(vectors, d, field.characteristic).values())
            assert is_general_linear_position(config) == rule
            assert general is None or rule == general


def test_degenerate_requires_enough_points():
    with pytest.raises(MismatchError):
        is_degenerate(config_of((1, 0, 0), (0, 1, 0)))


def test_degenerate_detects_hyperplane_configs():
    config = config_of((1, 0, 0), (0, 1, 0), (1, 2, 0), (1, 5, 0))
    assert is_degenerate(config)
    assert not is_general_linear_position(config)
    spread = config_of((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    assert not is_degenerate(spread)


# ---------------------------------------------------------------------------
# serialization


def test_config_json_round_trip():
    config = config_of((1, 2, 3), (0, 1, Fraction(-5, 7)), (1, 0, 0))
    obj = config_to_json(config)
    assert obj["field"] == {"kind": "rationals"}
    assert obj["dim"] == 2
    assert config_from_json(obj) == config


def test_config_json_round_trip_prime():
    pts = tuple(ProjectivePoint((FP.scalar(a), FP.scalar(b)), FP)
                for a, b in ((1, 5), (0, 1), (1, 0)))
    config = Configuration(field=FP, dim=1, points=pts)
    assert config_from_json(config_to_json(config)) == config


def test_configuration_validates_members():
    with pytest.raises(MismatchError):
        Configuration(field=QQ, dim=2, points=(pt(1, 0, 0), pt(1, 0)))

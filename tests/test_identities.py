import dataclasses
import hashlib
import json
import os
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from pathlib import Path

import pytest

from oracles import (
    equation_at,
    evaluate,
    factor_route_oracle,
    monomial_summary,
    per_subset_factorizations,
    rand_distinct_fractions,
    total_degree,
    transposed_vertex_bracket,
)
from rncgeom import equations, identities
from rncgeom.cli import main
from rncgeom.curve import linear_product_coeffs, param_point, simplex_vertex
from rncgeom.equations import (
    BracketEquation,
    _unrank_combination,
    enumerate_equations,
    evaluate_many,
    sample_equations,
    sample_ranks,
)
from rncgeom.errors import MismatchError
from rncgeom.fields import QQ
from rncgeom.identities import (
    FactorizationProofs,
    SubsetSplit,
    _at_point,
    equation_sign_analysis,
    factor_pairs,
    factored_bracket,
    factorization_record,
    first_group,
    group_others,
    identity_record,
    second_group,
    split_sign,
    two_bracket,
    verify_equation_identity,
    verify_factorization,
    vertex_bracket_poly,
    vertex_polys,
)
from rncgeom.polynomials import MultiPoly
from rncgeom.projective import Configuration, bracket

DATA = Path(__file__).parent / "data"

def rand_values(rng, n, height=12):
    """Distinct parameter pairs (a_i, b_i) with b_i = 1."""
    ts = rand_distinct_fractions(rng, n, height)
    return [(t, Fraction(1)) for t in ts]


def rand_params(rng, n, height=12):
    """Random distinct parameter points plus their canonical coordinate pairs,
    so symbolic evaluations line up with the numeric constructions."""
    qs = [param_point(QQ, t) for t in rand_distinct_fractions(rng, n, height)]
    return qs, [q.coords for q in qs]


# ---------------------------------------------------------------------------
# groups and splits


def test_group_partition():
    assert first_group(3) == (1, 2, 3, 4)
    assert second_group(3) == (5, 6, 7, 8)


def test_group_others():
    assert group_others(3, 2) == (1, 3, 4)
    assert group_others(3, 5) == (6, 7, 8)
    for bad in (0, 9):
        with pytest.raises(ValueError):
            group_others(3, bad)


def test_subset_split_parts():
    s = SubsetSplit(3, (1, 2, 3, 7))
    assert s.group1 == (1, 2, 3)
    assert s.group2 == (7,)
    assert s.absent1 == (4,)
    assert s.absent2 == (5, 6, 8)
    # the halves are worked out once; equality, hash and repr see only
    # (d, members), and replace() works the halves out again
    assert s == SubsetSplit(3, [1, 2, 3, 7])
    assert hash(s) == hash(SubsetSplit(3, (1, 2, 3, 7))) == hash(
        (3, (1, 2, 3, 7)))
    assert repr(s) == "SubsetSplit(d=3, members=(1, 2, 3, 7))"
    assert s != SubsetSplit(3, (1, 2, 3, 8))
    t = dataclasses.replace(s, members=(2, 5, 6, 8))
    assert (t.group1, t.group2, t.absent1, t.absent2) == (
        (2,), (5, 6, 8), (1, 3, 4), (7,))
    u = dataclasses.replace(s, d=4, members=(1, 2, 3, 7, 10))
    assert (u.group1, u.group2, u.absent1, u.absent2) == (
        (1, 2, 3), (7, 10), (4, 5), (6, 8, 9))


def test_subset_split_validation():
    with pytest.raises(ValueError):
        SubsetSplit(3, (1, 2, 3))
    with pytest.raises(ValueError):
        SubsetSplit(3, (1, 2, 3, 9))
    with pytest.raises(ValueError):
        SubsetSplit(3, (2, 1, 3, 7))
    with pytest.raises(ValueError, match="degree at least 2"):
        SubsetSplit(1, (1, 2))


def test_sampled_splits_are_unranked_not_enumerated():
    """Picking 3 of the C(26, 13) = 10400600 subsets at d = 12 unranks
    the seeded ranks; nothing walks the combinations before them."""
    total = comb(26, 13)
    start = time.perf_counter()
    ranks = sample_ranks(total, 3, seed=5)
    splits = [SubsetSplit(12, _unrank_combination(26, 13, r))
              for r in ranks]
    assert time.perf_counter() - start < 0.5
    assert len(ranks) == 3 and ranks == sorted(ranks)
    for r, split in zip(ranks, splits):
        # the lexicographic rank of the subset, from its members
        rank, prev = 0, 0
        for slot, x in enumerate(split.members):
            rank += sum(comb(26 - y, 12 - slot) for y in range(prev + 1, x))
            prev = x
        assert rank == r


# ---------------------------------------------------------------------------
# the 2x2 brackets


def test_two_bracket_basics():
    assert str(two_bracket(6, 1, 2)) == "a1*b2 - a2*b1"
    assert two_bracket(6, 2, 1) == -two_bracket(6, 1, 2)
    assert two_bracket(6, 3, 3).is_zero
    with pytest.raises(ValueError):
        two_bracket(6, 0, 1)


# ---------------------------------------------------------------------------
# symbolic vertices


def test_vertex_polys_base_case():
    r = vertex_polys(2, 3)
    assert [str(x) for x in r] == ["a1*a2", "a1*b2 + a2*b1", "b1*b2"]


def test_vertex_polys_dehomogenized_base_case():
    # with b_1 = b_2 = 1 the coordinates reduce to (a1 a2, a1 + a2, 1)
    r = vertex_polys(2, 3)
    values = [(Fraction(0), Fraction(1))] * 6
    values[0] = (Fraction(5), Fraction(1))
    values[1] = (Fraction(7), Fraction(1))
    assert [evaluate(x, values) for x in r] == [35, 12, 1]


def test_vertex_polys_validation():
    """A label outside 1..2d+2 has no vertex."""
    for bad in (0, 7, -1):
        with pytest.raises(ValueError, match="outside 1..6"):
            vertex_polys(2, bad)


def test_vertex_polys_are_bihomogeneous():
    for d, omit in ((2, 1), (3, 6), (4, 2)):
        for r in vertex_polys(d, omit):
            assert all(sum(e) == d for e in r.exponents())


def test_vertex_polys_specialize_to_numeric_vertices(rng):
    for d in (2, 3):
        n = 2 * d + 2
        qs, values = rand_params(rng, n)
        for group in (first_group(d), second_group(d)):
            for omit in group:
                sym = vertex_polys(d, omit)
                numeric = linear_product_coeffs(
                    [values[i - 1] for i in group if i != omit],
                    QQ.scalar(1))
                assert tuple(evaluate(p, values) for p in sym) == numeric


# ---------------------------------------------------------------------------
# bracket factorization


def test_primes_are_the_first_primes():
    assert identities._primes(0) == []
    assert identities._primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    # one prime per 2x2 bracket at d = 12: the 325th prime is 2153
    primes = identities._primes(comb(26, 2))
    assert primes[-1] == 2153 and len(set(primes)) == 325


def test_split_sign_cases():
    assert split_sign(SubsetSplit(3, (4, 5, 6, 7))) == -1
    assert split_sign(SubsetSplit(3, (2, 3, 6, 7))) == 1
    # all of one side
    for d in (2, 3, 4):
        members = tuple(second_group(d))
        assert split_sign(SubsetSplit(d, members)) == \
            (-1) ** comb(d + 1, 2)


def test_factor_pairs_shape():
    s = SubsetSplit(3, (4, 5, 6, 7))
    pairs = factor_pairs(s)
    assert Counter(pairs) == Counter(
        [(5, 6), (5, 7), (6, 7), (1, 8), (2, 8), (3, 8)])
    assert all(i < j for i, j in pairs)


def test_factored_bracket_degree():
    for d, members in ((2, (1, 2, 4)), (3, (1, 2, 5, 6))):
        p = factored_bracket(SubsetSplit(d, members))
        assert total_degree(p) == d * (d + 1)


def test_factorization_holds_for_all_conic_splits():
    for members in combinations(range(1, 7), 3):
        assert verify_factorization(SubsetSplit(2, members))


@pytest.mark.parametrize("members", [
    (4, 5, 6, 7), (2, 3, 6, 7), (1, 2, 3, 7), (1, 2, 5, 8)])
def test_factorization_holds_for_cubic_splits(members):
    assert verify_factorization(SubsetSplit(3, members))


def test_factorization_spot_check_quartic(rng):
    members = tuple(sorted(rng.sample(range(1, 11), 5)))
    assert verify_factorization(SubsetSplit(4, members))


def test_bracket_printing_golden():
    """str() of both bracket forms, byte for byte as recorded in the
    golden file."""
    for line in (DATA / "vertex-bracket-str.jsonl").read_text().splitlines():
        case = json.loads(line)
        split = SubsetSplit(case["d"], tuple(case["K"]))
        assert str(vertex_bracket_poly(split)) == case["str"]
        assert str(factored_bracket(split)) == case["str"]


def test_vertex_bracket_matches_transposed_row_dp():
    """The expansion along the group-1 rows against the plain row DP on
    the transposed matrix, on every split at d = 2..4."""
    for d in (2, 3, 4):
        for members in combinations(range(1, 2 * d + 3), d + 1):
            split = SubsetSplit(d, members)
            assert vertex_bracket_poly(split) == \
                transposed_vertex_bracket(d, split), (d, members)


# a faulty factorization of the splits with label 1 among their members
def affected(split):
    return 1 in split.members


def holds_1_and_2(split):
    return {1, 2} <= set(split.members)


FACTORIZATION_MUTATIONS = {
    "drop-first-pair": ("factor_pairs", lambda pairs: lambda s: (
        pairs(s)[1:] if affected(s) else pairs(s))),
    "flip-sign": ("split_sign", lambda sign: lambda s: (
        -sign(s) if affected(s) else sign(s))),
    "flip-orientation": ("factor_pairs", lambda pairs: lambda s: (
        (pairs(s)[0][::-1],) + pairs(s)[1:] if affected(s) else pairs(s))),
}


@pytest.fixture(params=sorted(FACTORIZATION_MUTATIONS))
def mutated_factorization(request, monkeypatch):
    name, replace = FACTORIZATION_MUTATIONS[request.param]
    monkeypatch.setattr(identities, name,
                        replace(getattr(identities, name)))


def test_verify_factorization_rejects_mutations(mutated_factorization):
    for d in (2, 3, 4):
        for members in combinations(range(1, 2 * d + 3), d + 1):
            split = SubsetSplit(d, members)
            assert verify_factorization(split) is not affected(split), (
                d, members)


def test_sym_factorization_cli_rejects_mutations(mutated_factorization,
                                                 capsys):
    assert main(["sym-factorization", "--d", "3"]) == 1
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert len(records) == comb(8, 4)
    assert "failed=35" in captured.err
    for record in records:
        assert record["ok"] is not (1 in record["K"]), record


# SHA-256 of the stdout of a full sym-factorization --d 6 (3,432 lines)
SYM_FACTORIZATION_D6_SHA256 = (
    "d2ee8dd4d190a53a7c6ca4ad56a8a0987eb89881e263dd4bfdbb2bad877fb148")


def test_full_sym_factorization_walks_once_and_a_sample_walks_its_picks(
        computed, capsys, monkeypatch):
    """A full run reads its splits and their minors from one walk over the
    2d+2 vertex rows and unranks no split; a sample unranks each sampled
    split and takes exactly their minors from one walk pruned to them.  A
    sample of every split, or more, is a full run."""
    unranked = []
    unrank = equations._unrank_combination
    monkeypatch.setattr(equations, "_unrank_combination", lambda *args: (
        unranked.append(args) or unrank(*args)))
    assert main(["sym-factorization", "--d", "4"]) == 0
    capsys.readouterr()
    assert computed.walks == [(10, comb(10, 5))]
    assert not unranked
    computed.walks.clear()
    assert main(["sym-factorization", "--d", "4", "--sample", "40",
                 "--seed", "1"]) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 40
    assert computed.walks == [(10, 40)]
    assert len(unranked) == 40
    computed.walks.clear()
    unranked.clear()
    golden = (DATA / "sym-factorization-d3.jsonl").read_text()
    for sample in ("70", "71"):
        assert main(["sym-factorization", "--d", "3",
                     "--sample", sample]) == 0
        assert capsys.readouterr().out == golden
        assert computed.walks == [(8, comb(8, 4))]
        assert not unranked
        computed.walks.clear()
    assert main(["sym-factorization", "--d", "6"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == comb(14, 7)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        SYM_FACTORIZATION_D6_SHA256)


def test_full_sym_factorization_holds_no_table(tmp_path, capsys):
    """A full run streams each verdict from the walk to the output: with
    the vertex rows cached beforehand, tracemalloc's peak over a full
    --d 7 run (12,870 splits) stays under 1.5 MiB.  Reading the walk into
    a list first, then the verdicts from it, peaked at about 3.8 MiB.  A
    sampled run first warms the lazy imports and the allocator's free
    lists, so the peak is the same whichever tests ran before."""
    d = 7
    for k in range(1, 2 * d + 3):
        vertex_polys(d, k)
    assert main(["sym-factorization", "--d", str(d), "--sample", "1",
                 "--output", os.devnull]) == 0
    capsys.readouterr()
    out = tmp_path / f"d{d}.jsonl"
    tracemalloc.start()
    try:
        code = main(["sym-factorization", "--d", str(d),
                     "--output", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "subsets=12870 failed=0 expanded=0" in capsys.readouterr().err
    assert out.read_text().count("\n") == comb(2 * d + 2, d + 1)
    assert peak < 1.5 * 2 ** 20, peak


def all_splits(d):
    return [SubsetSplit(d, members)
            for members in combinations(range(1, 2 * d + 3), d + 1)]


def proof_verdicts(d, splits, walked=False):
    """The proof route's verdicts on the splits, in order, and the number
    of splits it expanded: each split's minor taken on its own, by a walk
    pruned to it, as a one-split sample takes it, or every split's read
    from one walk, as a full run reads them, and the splits' verdicts
    taken from that run."""
    proofs = FactorizationProofs(d)
    if not walked:
        return [ok for split in splits
                for _, ok in proofs.verdicts([split.members])], \
            proofs.expanded
    every = dict(proofs.verdicts())
    assert list(every) == all_splits(d)
    return [every[split] for split in splits], proofs.expanded


def picked_then_walked(argname, values):
    """Parametrize argname over the values with the splits picked, each
    under its own id, then walked, under the id and "-filled": the walk
    yields every minor that filling a table would store."""
    return pytest.mark.parametrize(f"{argname},walked", [
        pytest.param(value, walked, id=f"{value}-filled" if walked
                     else str(value))
        for walked in (False, True) for value in values])


@picked_then_walked("d", [2, 3, 4, 5])
def test_proof_route_matches_per_subset_route(d, walked):
    """Every split at d = 2..4 and a seeded sample of 40 at d = 5: the
    verdicts of expanding every split on its own, with no expansion."""
    splits = all_splits(d)
    if d == 5:
        splits = random.Random(5).sample(splits, 40)
    verdicts, expanded = proof_verdicts(d, splits, walked)
    assert verdicts == per_subset_factorizations(splits)
    assert all(verdicts)
    assert expanded == 0


def mutated_row(hit, change):
    """A vertex_polys replacement that applies change(row, vertex_polys, d)
    to the row of R_hit(d) and leaves every other row alone."""
    def replace(vertex_polys):
        def mutated(d, omit):
            row = vertex_polys(d, omit)
            return change(row, vertex_polys, d) if omit == hit(d) else row
        return mutated
    return replace


# the labels whose rows the mutations change: the first; the first of the
# second group, whose row the walk meets mid-tree; the last, whose row it
# meets at the leaves
def first(d):
    return 1


def mid(d):
    return d + 2


def last(d):
    return 2 * d + 2


def mutated_row_1(change):
    return mutated_row(first, change)


def row_times_own_b(hit):
    """Every entry of R_hit(d) times b_hit(d): the osculation holds, the
    shape fails, so the row enters the proof table as a zero row, and
    the bracket of every split holding the label gains that factor."""
    return mutated_row(hit, lambda row, vertex_polys, d: tuple(
        p * MultiPoly.var_b(2 * d + 2, hit(d)) for p in row))


# the row of R_1 becomes the sum of the rows of R_1 and R_2: the shape
# fact fails, and the bracket of a split changes exactly when the split
# holds 1 but not 2
row_1_gains_row_2 = mutated_row_1(lambda row, vertex_polys, d: tuple(
    p + q for p, q in zip(row, vertex_polys(d, 2))))
# the first entry of R_1 doubled: the shape holds, the osculation fails
row_1_entry_doubled = mutated_row_1(lambda row, vertex_polys, d: (
    row[0] + row[0],) + row[1:])
# every entry of R_1 doubled: both facts hold, so the proof stands and the
# constant is twice the factorization's for every split holding 1
row_1_doubled = mutated_row_1(lambda row, vertex_polys, d: tuple(
    p + p for p in row))
# every entry of R_1 zero: both facts hold vacuously, and c = 0 for every
# split holding 1, whose bracket is then zero and is expanded
row_1_zeroed = mutated_row_1(lambda row, vertex_polys, d: tuple(
    p - p for p in row))
# every entry of R_1 times b_1: the osculation holds, the shape fails, and
# b_1 = 1 at the evaluation point hides the extra factor from the constant
row_1_times_b_1 = mutated_row_1(lambda row, vertex_polys, d: tuple(
    p * MultiPoly.var_b(2 * d + 2, 1) for p in row))


def shift_first_pair(factor_pairs):
    """The first pair (i, j) of a split holding 1 moved one label up (down
    at the last label): the 2x2 bracket changes, its value at Q_i = [i : 1]
    does not, so only the comparison of pairs rejects it."""
    def mutated(split):
        pairs = factor_pairs(split)
        if not affected(split):
            return pairs
        (i, j), n = pairs[0], 2 * split.d + 2
        step = 1 if j < n else -1
        return ((i + step, j + step),) + pairs[1:]
    return mutated


# faults the proof route must answer like the per-subset route:
# name -> (replacement of that name in identities, whether the splits
# holding the faulty label fall back to their own expansion, that label
# as a function of d); a double fault names a tuple of names and their
# replacements
PROOF_MUTATIONS = {
    **{key: (*fault, False, first)
       for key, fault in FACTORIZATION_MUTATIONS.items()},
    "row-1-gains-row-2": ("vertex_polys", row_1_gains_row_2, True, first),
    "row-1-entry-doubled": ("vertex_polys", row_1_entry_doubled, True,
                            first),
    "row-1-doubled": ("vertex_polys", row_1_doubled, False, first),
    "row-1-times-b-1": ("vertex_polys", row_1_times_b_1, True, first),
    "row-1-zeroed": ("vertex_polys", row_1_zeroed, True, first),
    "row-mid-times-b": ("vertex_polys", row_times_own_b(mid), True, mid),
    "row-last-times-b": ("vertex_polys", row_times_own_b(last), True, last),
    "shift-first-pair": ("factor_pairs", shift_first_pair, False, first),
    # one factor turned round and the sign flipped on the same split: the
    # bracket is unchanged, so the pairs must be compared unordered
    "flip-orientation-and-sign": tuple(zip(
        FACTORIZATION_MUTATIONS["flip-orientation"],
        FACTORIZATION_MUTATIONS["flip-sign"])) + (False, first),
    # the pair (1, 2) claimed twice and the sign flipped on the splits
    # holding both: the extra factor is -1 at Q_i = [i : 1] and the set of
    # pairs is unchanged, so only the count of pairs rejects it
    "repeat-pair-1-2-and-flip-sign": (
        ("factor_pairs", "split_sign"),
        (lambda pairs: lambda s: (
            pairs(s) + ((1, 2),) if holds_1_and_2(s) else pairs(s)),
         lambda sign: lambda s: -sign(s) if holds_1_and_2(s) else sign(s)),
        False, first),
}


@picked_then_walked("mutation", sorted(PROOF_MUTATIONS))
def test_proof_route_matches_per_subset_route_under_mutation(
        mutation, walked, monkeypatch):
    """A row that fails a fact sends its splits back to their own
    expansion; where both facts hold, the factor pairs, the sign and the
    constant decide without expanding, never to a verdict that expansion
    would not give.  The whole walk, which meets the zero row of a failing
    row mid-tree or at the leaves, decides as the walks pruned to one
    picked minor each do."""
    names, replaces, falls_back, hit = PROOF_MUTATIONS[mutation]
    if isinstance(names, str):
        names, replaces = (names,), (replaces,)
    for name, replace in zip(names, replaces):
        monkeypatch.setattr(identities, name,
                            replace(getattr(identities, name)))
    for d in (2, 3, 4):
        splits = all_splits(d)
        verdicts, expanded = proof_verdicts(d, splits, walked)
        expected = per_subset_factorizations(splits)
        assert verdicts == expected, (d, mutation)
        holds = [hit(d) in s.members for s in splits]
        if mutation == "row-1-gains-row-2":
            assert expected == [not (1 in s.members and 2 not in s.members)
                                for s in splits]
        elif mutation == "repeat-pair-1-2-and-flip-sign":
            assert expected == [not holds_1_and_2(s) for s in splits]
        elif mutation == "flip-orientation-and-sign":
            assert all(expected)
        elif mutation != "row-1-entry-doubled":
            assert expected == [not h for h in holds]
        assert expanded == (sum(holds) if falls_back else 0)


def test_proof_route_refuses_a_split_of_another_degree():
    """A pick must be a sorted (d+1)-subset of the proof's own degree."""
    proofs = FactorizationProofs(3)
    for pick in ((1, 2, 3), (1, 2, 3, 4, 5), (2, 1, 3, 4)):
        with pytest.raises(ValueError, match=r"need a sorted \(4\)-subset"):
            list(proofs.verdicts([pick]))


def test_integer_evaluation_matches_oracle(rng):
    """The proof route's evaluation at a_i = x_i, b_i = 1, against the
    Fraction oracle, on vertex rows and on factored brackets."""
    for d in (2, 3, 4):
        n = 2 * d + 2
        polys = [p for k in range(1, n + 1) for p in vertex_polys(d, k)]
        polys += [factored_bracket(split) for split in all_splits(d)[:5]]
        polys += [MultiPoly.zero(n), MultiPoly.constant(n, -7)]
        for _ in range(3):
            xs = [rng.randint(-9, 9) for _ in range(n)]
            for p in polys:
                assert _at_point(p, xs) == evaluate(
                    p, [(x, 1) for x in xs]), (d, str(p), xs)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_sym_factorization_expands_nothing_in_each_run(
        d, monkeypatch, capsys):
    """Two full runs in one process call neither poly_det nor
    verify_factorization, and each run checks the facts of every row
    again: no cache outlives a run."""
    expanded = []
    monkeypatch.setattr(identities, "poly_det",
                        lambda *args, **kwargs: expanded.append(args))
    monkeypatch.setattr(identities, "verify_factorization",
                        lambda split: expanded.append(split))
    facts = identities._row_facts
    checked = []
    monkeypatch.setattr(identities, "_row_facts", lambda degree, k, row: (
        checked.append(k) or facts(degree, k, row)))
    for _ in range(2):
        checked.clear()
        assert main(["sym-factorization", "--d", str(d)]) == 0
        assert capsys.readouterr().err == (
            f"subsets={comb(2 * d + 2, d + 1)} failed=0 expanded=0\n")
        assert sorted(checked) == list(range(1, 2 * d + 3))
    assert expanded == []


def test_vertex_bracket_vanishes_on_repeated_parameter(rng):
    # Q_1 = Q_2 collapses two osculating data sets, so the bracket of any
    # split containing vertices from side 1 built on both must vanish
    p = vertex_bracket_poly(SubsetSplit(2, (1, 2, 3)))
    values = rand_values(rng, 6)
    values[1] = values[0]
    assert evaluate(p, values) == 0


def test_vertex_bracket_matches_numeric_bracket(rng):
    for d in (2, 3):
        n = 2 * d + 2
        qs, values = rand_params(rng, n)
        for _ in range(3):
            members = tuple(sorted(rng.sample(range(1, n + 1), d + 1)))
            split = SubsetSplit(d, members)
            sym = evaluate(vertex_bracket_poly(split), values)
            pts = []
            for k in members:
                group = first_group(d) if k <= d + 1 else second_group(d)
                pts.append(simplex_vertex(
                    [qs[i - 1] for i in group if i != k]))
            # the integer bracket over the scales is the bracket of the
            # canonical columns, first nonzero entry 1; rescale to compare
            raw_cols = []
            for k in members:
                group = first_group(d) if k <= d + 1 else second_group(d)
                raw_cols.append(linear_product_coeffs(
                    [values[i - 1] for i in group if i != k], 1))
            scale = Fraction(1)
            for col, p in zip(raw_cols, pts):
                lead = next(c for c in col if c)
                scale *= lead
            canonical = Fraction(bracket(pts), prod(p.scale for p in pts))
            assert sym == canonical * scale


def test_factorization_record_shape():
    s = SubsetSplit(2, (1, 2, 4))
    assert factorization_record(s, True) == {
        "kind": "factorization", "d": 2, "K": [1, 2, 4], "ok": True}


# ---------------------------------------------------------------------------
# parity bookkeeping


def test_parity_sums_vanish_for_the_cubic_example():
    eq = BracketEquation(dim=3, n_points=8, support=(1, 2, 3, 4, 5, 6, 7),
                         sextet=(1, 2, 3, 4, 5, 6))
    analysis = equation_sign_analysis(eq)
    assert analysis.parity_sum_1 == 0
    assert analysis.parity_sum_2 == 0
    assert analysis.ok


def test_binomial_parity_identity():
    for k in range(0, 60):
        assert (comb(k, 2) + comb(k + 2, 2)) % 2 == 1


@pytest.mark.parametrize("d", [3, 4, 5])
def test_sign_analysis_over_fixed_support(d):
    support = tuple(range(1, d + 5))
    for sextet in combinations(support, 6):
        analysis = equation_sign_analysis(
            BracketEquation(dim=d, n_points=2 * d + 2,
                            support=support, sextet=sextet))
        assert analysis.ok
        assert analysis.total_sign_1 == analysis.total_sign_2


def test_sign_analysis_spans_all_overlap_cases():
    # d=5 gives sextets meeting the first group in 0 through 6 labels
    d = 5
    n = 2 * d + 2
    seen = set()
    for sextet in combinations(range(1, n + 1), 6):
        m = sum(1 for i in sextet if i <= d + 1)
        if m in seen:
            continue
        seen.add(m)
        rest = [i for i in range(1, n + 1) if i not in sextet]
        support = tuple(sorted(sextet + tuple(rest[:d - 2])))
        analysis = equation_sign_analysis(
            BracketEquation(dim=d, n_points=n, support=support,
                            sextet=sextet))
        assert analysis.ok
    assert seen == {0, 1, 2, 3, 4, 5, 6}


# ---------------------------------------------------------------------------
# the vanishing identity


def test_identity_for_the_conic_both_ways():
    eq = equation_at(2, 6, 0)
    assert verify_equation_identity(eq, "expand")
    assert verify_equation_identity(eq, "factors")
    assert verify_equation_identity(eq, "auto")


def test_expand_route_is_refused_beyond_d3(monkeypatch):
    def no_expansion(*args):
        raise AssertionError("expansion started")

    monkeypatch.setattr(identities, "vertex_bracket_poly", no_expansion)
    eq = equation_at(4, 10, 0)
    with pytest.raises(ValueError, match="expand route"):
        verify_equation_identity(eq, "expand")
    assert verify_equation_identity(eq, "factors")


@pytest.mark.parametrize("index", [0, 13, 55])
def test_identity_for_cubic_equations(index):
    eq = equation_at(3, 8, index)
    assert verify_equation_identity(eq, "factors")


def test_identity_requires_matching_point_count():
    eq = equation_at(3, 9, 0)
    with pytest.raises(MismatchError):
        verify_equation_identity(eq)


def test_monomial_summaries_agree_for_the_cubic_example():
    eq = BracketEquation(dim=3, n_points=8, support=(1, 2, 3, 4, 5, 6, 7),
                         sextet=(1, 2, 3, 4, 5, 6))
    s1, f1 = monomial_summary(eq, 0)
    s2, f2 = monomial_summary(eq, 1)
    assert (s1, f1) == (s2, f2)
    # the factor multiset is exactly the union over the printed lines
    assert sum(f1.values()) == 24


@pytest.fixture
def fresh_factor_tables():
    """Rebuild the cached factor tables around a test that patches the
    factorization, so no patched table outlives it."""
    identities._factor_table.cache_clear()
    yield
    identities._factor_table.cache_clear()


def test_sampled_sym_psi_fills_only_the_factor_codes_it_reads(
        fresh_factor_tables, capsys):
    equations._template.cache_clear()
    assert main(["sym-psi", "--d", "12", "--sample", "20"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 20
    # 8 vertex brackets per equation, against C(26, 13) subsets in all
    assert len(identities._factor_table(12)) <= 160
    # one sextet per equation, against C(16, 6) in all
    assert len(equations._template(12)) <= 20


def rejected_both_ways(eqs):
    """The equations each factor route rejects: the kernel's prime-encoded
    table and the original sign and Counter bookkeeping."""
    new = [eq for eq in eqs if not verify_equation_identity(eq, "factors")]
    old = [eq for eq in eqs if not factor_route_oracle(eq)]
    return new, old


@pytest.mark.parametrize("d, sample", [(3, None), (4, None), (5, 200)])
def test_factor_route_matches_oracle(d, sample):
    n = 2 * d + 2
    eqs = sample_equations(d, n, sample, seed=d)
    assert rejected_both_ways(eqs) == ([], [])


# a faulty factorization: (name in identities, original -> replacement)
MUTATIONS = {
    "drop-a-factor": ("factor_pairs", lambda pairs: lambda s: pairs(s)[1:]),
    "flip-a-sign": ("split_sign", lambda sign: lambda s: (
        -sign(s) if s.members == (1, 2, 3, 4) else sign(s))),
}


@pytest.mark.parametrize("mutation, rejected", [
    ("drop-a-factor", 56), ("flip-a-sign", 16)])
def test_factor_route_matches_oracle_under_mutation(
        mutation, rejected, monkeypatch, fresh_factor_tables):
    name, replace = MUTATIONS[mutation]
    monkeypatch.setattr(identities, name,
                        replace(getattr(identities, name)))
    new, old = rejected_both_ways(list(enumerate_equations(3, 8)))
    assert new == old
    assert len(new) == rejected


@pytest.mark.parametrize("d, sample", [
    (2, None), (3, None), (4, None), (5, None), (5, 300), (6, 300),
    (7, 300)])
@pytest.mark.parametrize("mutated", [False, True], ids=["honest", "mutated"])
def test_sym_psi_lines_match_identity_record(
        d, sample, mutated, monkeypatch, fresh_factor_tables, capsys):
    """Every streamed sym-psi line is the json.dumps of identity_record
    for its equation and verify_equation_identity's verdict, full and
    sampled, with the factorization honest and with a factor dropped from
    every split holding label 1, so both verdicts are written."""
    if mutated:
        name, replace = FACTORIZATION_MUTATIONS["drop-first-pair"]
        monkeypatch.setattr(identities, name,
                            replace(getattr(identities, name)))
    argv = ["sym-psi", "--d", str(d), "--seed", str(d)]
    code = main(argv + ([] if sample is None else ["--sample", str(sample)]))
    out, err = capsys.readouterr()
    eqs = sample_equations(d, 2 * d + 2, sample, seed=d)
    verdicts = [verify_equation_identity(eq) for eq in eqs]
    assert out == "".join(json.dumps(identity_record(eq, ok)) + "\n"
                          for eq, ok in zip(eqs, verdicts))
    assert err.endswith(f" failed={verdicts.count(False)}\n")
    assert code == (0 if all(verdicts) else 1)
    assert all(verdicts) is (not mutated or d == 2)


@pytest.mark.parametrize("d", [3, 4])
def test_sym_psi_fails_what_each_identity_rejects_under_mutation(
        d, monkeypatch, fresh_factor_tables, capsys):
    """With a factor dropped from every split holding label 1, the streamed
    sym-psi run fails exactly the equations that verify_equation_identity
    rejects one at a time."""
    name, replace = FACTORIZATION_MUTATIONS["drop-first-pair"]
    monkeypatch.setattr(identities, name,
                        replace(getattr(identities, name)))
    assert main(["sym-psi", "--d", str(d)]) == 1
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    eqs = list(enumerate_equations(d, 2 * d + 2))
    assert len(records) == len(eqs)
    failed = {(tuple(r["J"]), tuple(r["I"])) for r in records if not r["ok"]}
    rejected = {(eq.support, eq.sextet) for eq in eqs
                if not verify_equation_identity(eq)}
    assert failed == rejected and rejected


def test_identity_record_shape():
    eq = equation_at(2, 6, 0)
    assert identity_record(eq, True) == {
        "kind": "psi-identity", "d": 2, "J": [1, 2, 3, 4, 5, 6],
        "I": [1, 2, 3, 4, 5, 6], "ok": True}


def test_factor_route_agrees_with_numeric_evaluation(rng):
    """The symbolic verdict and a numeric evaluation at random parameters
    must tell the same story: the equation vanishes on every instance."""
    d = 3
    n = 2 * d + 2
    qs, values = rand_params(rng, n)
    pts = []
    for k in range(1, n + 1):
        group = first_group(d) if k <= d + 1 else second_group(d)
        pts.append(simplex_vertex([qs[i - 1] for i in group if i != k]))
    config = Configuration(field=QQ, dim=d, points=tuple(pts))
    for index in (0, 20, 40):
        eq = equation_at(d, n, index)
        assert verify_equation_identity(eq, "factors")
        assert evaluate_many(config, [eq])[0].value == 0

import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from rncgeom.errors import CharacteristicError
from rncgeom.fields import (
    QQ,
    PRIME_LIMIT,
    PrimeField,
    Rationals,
    Residue,
    field_from_json,
    field_to_json,
    is_prime,
    require_characteristic_over,
)

P = 101
FP = PrimeField(P)

residues = st.integers(0, P - 1)


@given(residues, residues)
def test_residue_ring_ops_match_int_arithmetic(x, y):
    a, b = Residue(x, P), Residue(y, P)
    assert (a + b).value == (x + y) % P
    assert (a - b).value == (x - y) % P
    assert (a * b).value == (x * y) % P
    assert (-a).value == (-x) % P


@given(residues, residues.filter(lambda y: y != 0))
def test_residue_division_inverts_multiplication(x, y):
    a, b = Residue(x, P), Residue(y, P)
    assert (a / b) * b == a


@given(residues.filter(lambda x: x != 0), st.integers(-6, 6))
def test_residue_pow_matches_repeated_multiplication(x, e):
    a = Residue(x, P)
    expected = FP.one
    for _ in range(abs(e)):
        expected = expected * (a if e >= 0 else FP.one / a)
    assert a ** e == expected


@given(residues.filter(lambda x: x != 0), st.integers(1, 6))
def test_residue_negative_power_is_the_inverse_power(x, k):
    a = Residue(x, P)
    assert a ** -k == FP.one / a ** k
    assert a ** -k * a ** k == FP.one


def test_residue_zero_to_a_negative_power_raises():
    for k in (1, 2):
        with pytest.raises(ZeroDivisionError):
            Residue(0, P) ** -k
    assert Residue(0, P) ** 0 == FP.one


def test_residue_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        Residue(1, P) / Residue(0, P)


def test_residue_mixed_moduli_raise():
    with pytest.raises(ValueError):
        Residue(1, 7) + Residue(1, 11)


def test_residue_truthiness():
    assert not Residue(0, P)
    assert Residue(3, P)
    assert Residue(P, P) == Residue(0, P)


def test_rationals_scalar_and_parse():
    assert QQ.scalar(3) == Fraction(3)
    assert QQ.scalar("-3/7") == Fraction(-3, 7)
    assert QQ.scalar(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.parse(" 5/10 ") == Fraction(1, 2)
    assert QQ.format(Fraction(-3, 7)) == "-3/7"
    with pytest.raises(ValueError):
        QQ.scalar(Residue(1, 7))


def test_prime_scalar_reduces_fractions():
    # 1/2 mod 101 is the inverse of 2
    half = FP.scalar(Fraction(1, 2))
    assert half * FP.from_int(2) == FP.one
    assert FP.scalar(Fraction(-3, 7)) == FP.from_int(-3) / FP.from_int(7)
    with pytest.raises(ZeroDivisionError):
        FP.scalar(Fraction(1, P))


def test_prime_parse_accepts_fraction_syntax():
    assert FP.parse("3/4") == FP.from_int(3) / FP.from_int(4)
    assert FP.parse("-1") == FP.from_int(-1)
    assert FP.format(FP.from_int(-1)) == str(P - 1)


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 91):
        with pytest.raises(ValueError):
            PrimeField(bad)
    PrimeField(2)
    PrimeField(7919)


@pytest.mark.parametrize("lo", [0, 2 ** 32])
def test_is_prime_agrees_with_sympy(lo):
    """Small moduli, the witnesses themselves and their squares included,
    and a window past 2^32."""
    assert [n for n in range(lo, lo + 10 ** 4) if is_prime(n)] == \
        list(sympy.primerange(lo, lo + 10 ** 4))


def test_strong_pseudoprimes_are_composite():
    # psi_12 passes the bases 2..37 and falls to 41; the other passes 2..23
    for n in (318665857834031151167461, 3825123056546413051):
        assert not sympy.isprime(n)
        assert not is_prime(n)


@pytest.mark.parametrize("p", [2 ** 61 - 1, 2 ** 64 - 59])
def test_large_prime_modulus_builds_fast(p):
    start = time.perf_counter()
    assert PrimeField(p).p == p
    assert time.perf_counter() - start < 0.1


def test_modulus_beyond_the_exact_bound_is_refused():
    """Above psi_13 the thirteen witnesses no longer decide primality."""
    assert PRIME_LIMIT == 3317044064679887385961981
    for p in (PRIME_LIMIT, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(p)
    assert not is_prime(PRIME_LIMIT - 1)


def test_field_equality_and_hash():
    assert QQ == Rationals()
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert QQ != PrimeField(7)
    assert len({QQ, Rationals(), PrimeField(7), PrimeField(7)}) == 2


def test_characteristic_guard():
    require_characteristic_over(QQ, 1000)
    require_characteristic_over(FP, 100)
    with pytest.raises(CharacteristicError):
        require_characteristic_over(FP, 101)
    with pytest.raises(CharacteristicError):
        require_characteristic_over(PrimeField(3), 5)
    # the degree comes first: a curve needs degree at least 1
    for field in (QQ, FP):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            require_characteristic_over(field, 0)


def test_field_json_round_trip():
    for field in (QQ, FP, PrimeField(7)):
        assert field_from_json(field_to_json(field)) == field
    assert field_to_json(QQ) == {"kind": "rationals"}
    assert field_to_json(FP) == {"kind": "prime", "p": P}
    with pytest.raises(ValueError):
        field_from_json({"kind": "octonions"})

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
    Field,
    PrimeField,
    field_from_json,
    field_to_json,
    is_prime,
    require_characteristic_over,
)

P = 101
FP = PrimeField(P)

residues = st.integers(0, P - 1)


@given(residues, residues.filter(lambda y: y != 0))
def test_residue_division_inverts_multiplication(x, y):
    """Prime-field scalars are ints in [0, p); a fraction reduces to the
    residue that y times gives x back, and a ratio prints it."""
    q = FP.scalar(Fraction(x, y))
    assert 0 <= q < P and q * y % P == x
    assert FP.ratio(x, y) == str(q) == FP.ratio(x + P, y - P)


def test_residue_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        FP.scalar(Fraction(1, P))
    with pytest.raises(ValueError):
        FP.ratio(1, P)


def test_residue_truthiness():
    assert not FP.scalar(0) and not FP.scalar(P)
    assert FP.scalar(3) and FP.scalar(1) == 1
    assert FP.scalar(P) == FP.scalar(0) == FP.scalar("0")


def test_rationals_scalar_and_parse():
    assert QQ.scalar(3) == Fraction(3)
    assert QQ.scalar("-3/7") == Fraction(-3, 7)
    assert QQ.scalar(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.parse("5/10") == Fraction(1, 2)
    assert QQ.ratio(3, -7) == "-3/7" == QQ.ratio(-6, 14)
    assert QQ.ratio(0, -5) == "0" and QQ.ratio(-8, -4) == "2"


def test_prime_scalar_reduces_fractions():
    # 1/2 mod 101 is the inverse of 2
    half = FP.scalar(Fraction(1, 2))
    assert half * 2 % P == FP.scalar(1)
    assert FP.scalar(Fraction(-3, 7)) * 7 % P == FP.scalar(-3)
    assert FP.scalar(-1) == P - 1
    with pytest.raises(ZeroDivisionError):
        FP.scalar(Fraction(1, P))


def test_prime_parse_accepts_fraction_syntax():
    assert FP.parse("3/4") == FP.scalar(Fraction(3, 4))
    assert FP.parse("-1") == FP.scalar(-1)
    assert FP.ratio(-1, 1) == str(P - 1)


def test_rational_parse_refuses_decimals_and_exponents():
    """Over Q text is an integer or a fraction of two, as over Z/p:
    decimals, exponents and digit underscores are refused on every
    Python, and a fraction's denominator carries no sign."""
    for text in ("0.5", "1e2", "1_0", "-3/-7"):
        with pytest.raises(ValueError, match="^not a scalar over Q: "):
            QQ.parse(text)
    assert QQ.parse("-3/7") == Fraction(-3, 7)


def test_prime_parse_reads_integers_and_integer_fractions():
    """Over Z/p text is an int or a fraction of two ints: decimals,
    exponents, a signed denominator and surrounding spaces are refused,
    and a denominator divisible by p has no image."""
    f7 = PrimeField(7)
    for text in ("0.5", "1e2", "-3/-7", " 5/10 "):
        with pytest.raises(ValueError, match="^not a scalar over Z/7: "):
            f7.parse(text)
    with pytest.raises(ZeroDivisionError):
        f7.parse("1/7")
    assert f7.parse("3/2") == 5
    assert f7.parse("5/10") == 4


# text -> (over Q, over Z/7): a value, or None where the grammar refuses it
SCALAR_GRAMMAR = {
    "1.0": (None, None),
    "1e0": (None, None),
    "3/-7": (None, None),
    "-3/-7": (None, None),
    "1_0": (None, None),
    "\u0661\u0662": (None, None),   # Arabic-Indic digits for 12
    "+3": (None, None),
    " 3 ": (None, None),
    "0x10": (None, None),
    "3/0": (None, None),
    "3/": (None, None),
    "": (None, None),
    "12": (Fraction(12), 5),
    "-3/4": (Fraction(-3, 4), 1),
    "007": (Fraction(7), 0),
    "-0/5": (Fraction(0), 0),
}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "F7"])
@pytest.mark.parametrize("text", list(SCALAR_GRAMMAR), ids=ascii)
def test_both_fields_parse_one_grammar(field, text):
    """Both fields read an optional -, ASCII digits and optionally / and
    ASCII digits not all zero, then coerce by scalar; anything else is a
    one-line ValueError naming the field and quoting the text.  The
    answer depends on no Python version."""
    want = SCALAR_GRAMMAR[text][bool(field.characteristic)]
    if want is None:
        name = f"Z/{field.characteristic}" if field.characteristic else "Q"
        with pytest.raises(ValueError) as caught:
            field.parse(text)
        message = str(caught.value)
        assert message.startswith(f"not a scalar over {name}: {text!r} ")
        assert "\n" not in message
    else:
        got = field.parse(text)
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "F7"])
def test_scalar_of_an_int_is_exact(field):
    """An int becomes a Fraction over Q and its least residue over Z/p."""
    for k in range(-8, 16):
        want = (Fraction(k) if not field.characteristic
                else k % field.characteristic)
        got = field.scalar(k)
        assert got == want and type(got) is type(want)


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, -7, 91):
        with pytest.raises(ValueError, match=f"^{bad} is not prime$"):
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
    assert PrimeField(p).characteristic == p
    assert time.perf_counter() - start < 0.1


def test_modulus_beyond_the_exact_bound_is_refused():
    """Above psi_13 the thirteen witnesses no longer decide primality."""
    assert PRIME_LIMIT == 3317044064679887385961981
    for p in (PRIME_LIMIT, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(p)
    assert not is_prime(PRIME_LIMIT - 1)


def test_field_equality_and_hash():
    assert QQ == Field(0)
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert QQ != PrimeField(7)
    assert len({QQ, Field(0), PrimeField(7), PrimeField(7)}) == 2


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

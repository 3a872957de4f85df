"""The two fields of the package: the rationals and the prime fields.

Every computation in this package is exact and runs on integers.  Points
hold integer vectors, and brackets are integer determinants reduced mod p
over Z/p.  A "field" is a small descriptor object (:class:`Rationals` or
:class:`PrimeField`) that coerces and parses scalars and formats a ratio of
two integers; functions throughout the package take one and stay generic
over it.  Rational scalars are ``fractions.Fraction``; prime-field scalars
are plain ints in [0, p).

Serialized scalars are strings: ``"5"``, ``"-3/7"`` for rationals (always in
lowest terms, denominator positive), the least nonnegative representative for
prime fields.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

from .errors import CharacteristicError, json_int


def format_ratio(n: int, scale: int) -> str:
    """str(Fraction(n, scale)) for a positive scale, by one gcd."""
    if not n:
        return "0"
    g = gcd(n, scale)
    if g == scale:
        return str(n // g)
    return f"{n // g}/{scale // g}"


# Miller-Rabin with the first 13 primes as bases is exact below psi_13
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Whether p is prime, by Miller-Rabin with the witnesses as bases once
    p is checked for divisibility by them.  Primality is decided exactly
    only below PRIME_LIMIT; a larger p raises ValueError."""
    if p >= PRIME_LIMIT:
        raise ValueError(f"modulus {p} is too large: primality is decided "
                         f"exactly only below {PRIME_LIMIT}")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _WITNESSES:
        x = pow(a, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers."""

    kind = "rationals"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def scalar(self, x) -> Fraction:
        """Coerce an int, Fraction or string to a rational scalar."""
        if isinstance(x, str):
            return self.parse(x)
        return Fraction(x)

    def parse(self, text: str) -> Fraction:
        return Fraction(text.strip())

    def ratio(self, n: int, m: int) -> str:
        """The string of n/m for integers n and m != 0."""
        return format_ratio(n, m) if m > 0 else format_ratio(-n, -m)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("rationals")

    def __repr__(self) -> str:
        return "Rationals()"


class PrimeField:
    """The finite field Z/p for a prime p, its scalars ints in [0, p)."""

    kind = "prime"
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    def from_int(self, k: int) -> int:
        return k % self.p

    def scalar(self, x) -> int:
        """Coerce an int, Fraction or string to its residue mod p.

        Fractions reduce as numerator times inverse denominator; a
        denominator divisible by p has no image and raises.
        """
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def parse(self, text: str) -> int:
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.scalar(Fraction(int(num), int(den)))
        return int(text) % self.p

    def ratio(self, n: int, m: int) -> str:
        """The residue of n/m, for integers n and m != 0 mod p."""
        return str(n * pow(m, -1, self.p) % self.p)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("prime", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


Field = Union[Rationals, PrimeField]

QQ = Rationals()


def require_characteristic_over(field: Field, d: int) -> None:
    """Raise unless d >= 1 and the characteristic is 0 or exceeds d."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    if field.characteristic != 0 and field.characteristic <= d:
        raise CharacteristicError(
            f"characteristic {field.characteristic} must exceed degree {d}")


def field_to_json(field: Field) -> dict:
    if field.kind == "rationals":
        return {"kind": "rationals"}
    return {"kind": "prime", "p": field.p}


def field_from_json(obj: dict) -> Field:
    kind = obj.get("kind")
    if kind == "rationals":
        return QQ
    if kind == "prime":
        return PrimeField(json_int(obj["p"], "p"))
    raise ValueError(f"unknown field kind {kind!r}")

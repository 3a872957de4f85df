"""The fields of the package: the rationals and the prime fields.

Every computation in this package is exact and runs on integers.  Points
hold integer vectors, and brackets are integer determinants reduced mod p
over Z/p.  A :class:`Field` is one value, its characteristic: 0 for Q
(:data:`QQ`), a prime p for Z/p (:func:`PrimeField`).  It coerces and
parses scalars and formats a ratio of two integers; functions throughout
the package take one and stay generic over it.  Rational scalars are
``fractions.Fraction``; prime-field scalars are plain ints in [0, p).

Serialized scalars are strings: ``"5"``, ``"-3/7"`` for rationals (always in
lowest terms, denominator positive), the least nonnegative representative for
prime fields.  Both fields read one grammar: an optional ``-``, ASCII
digits, and optionally ``/`` and ASCII digits not all zero, nothing else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import CharacteristicError, json_int, json_typed


def format_ratio(n: int, scale: int) -> str:
    """str(Fraction(n, scale)) for a positive scale, by one gcd."""
    if not n:
        return "0"
    g = gcd(n, scale)
    if g == scale:
        return str(n // g)
    return f"{n // g}/{scale // g}"


_SCALAR = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


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


@dataclass(frozen=True)
class Field:
    """Q for characteristic 0, Z/p for a prime characteristic p."""

    characteristic: int

    def __post_init__(self):
        if self.characteristic and not is_prime(self.characteristic):
            raise ValueError(f"{self.characteristic} is not prime")

    def scalar(self, x) -> Fraction | int:
        """Coerce an int, Fraction or string to a scalar of the field.

        Over Z/p a Fraction reduces as numerator times inverse
        denominator; a denominator divisible by p has no image and raises.
        """
        if isinstance(x, str):
            return self.parse(x)
        p = self.characteristic
        if not p:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return int(x) % p

    def parse(self, text: str) -> Fraction | int:
        """The scalar a string names, in the one grammar of both fields
        (module docstring), coerced by scalar; other text raises a
        ValueError that names the field and quotes it, and a value that is
        no string a TypeError."""
        if not _SCALAR.fullmatch(json_typed(text, "scalar", str)):
            p = self.characteristic
            raise ValueError(f"not a scalar over {f'Z/{p}' if p else 'Q'}: "
                             f"{text!r} (expected [-]n or [-]n/m, m > 0)")
        num, _, den = text.partition("/")
        return self.scalar(Fraction(int(num), int(den or 1)))

    def ratio(self, n: int, m: int) -> str:
        """The string of n/m for integers n and m, m nonzero in the field."""
        p = self.characteristic
        if p:
            return str(n * pow(m, -1, p) % p)
        return format_ratio(n, m) if m > 0 else format_ratio(-n, -m)


QQ = Field(0)


def PrimeField(p: int) -> Field:
    """The finite field Z/p; p must be prime and below PRIME_LIMIT."""
    if not p:
        raise ValueError("0 is not prime")
    return Field(p)


def require_characteristic_over(field: Field, d: int) -> None:
    """Raise unless d >= 1 and the characteristic is 0 or exceeds d."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    if field.characteristic != 0 and field.characteristic <= d:
        raise CharacteristicError(
            f"characteristic {field.characteristic} must exceed degree {d}")


def field_to_json(field: Field) -> dict:
    p = field.characteristic
    return {"kind": "prime", "p": p} if p else {"kind": "rationals"}


def field_from_json(obj: dict) -> Field:
    kind = json_typed(obj, "field", dict).get("kind")
    if kind == "rationals":
        return QQ
    if kind == "prime":
        return PrimeField(json_int(obj["p"], "p"))
    raise ValueError(f"unknown field kind {kind!r}")

"""Exact scalar arithmetic over the rationals and over prime fields.

Every computation in this package is exact.  Rational scalars are
``fractions.Fraction``; prime-field scalars are :class:`Residue` values, thin
wrappers around a least nonnegative representative mod p.  A "field" here is a
small descriptor object (:class:`Rationals` or :class:`PrimeField`) that can
construct, parse and format scalars of its kind; functions throughout the
package take one and stay generic over it.

Serialized scalars are strings: ``"5"``, ``"-3/7"`` for rationals (always in
lowest terms, denominator positive), the least nonnegative representative for
prime fields.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import CharacteristicError, json_int


class Residue:
    """An element of Z/p for a prime p, stored as its least nonnegative
    representative.

    Arithmetic only combines residues with matching modulus; mixing moduli
    raises.  Division is multiplication by the modular inverse.  Truthiness
    is "nonzero", so ``if x:`` works the same for residues as for Fractions.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.value = value % modulus
        self.modulus = modulus

    def _check(self, other: "Residue") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"mixed moduli {self.modulus} and {other.modulus}")

    def __add__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value - other.value, self.modulus)

    def __mul__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value * other.value, self.modulus)

    def __truediv__(self, other: "Residue") -> "Residue":
        return self * other ** -1

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def __pow__(self, exponent: int) -> "Residue":
        if exponent < 0 and not self.value:
            raise ZeroDivisionError(f"division by zero mod {self.modulus}")
        return Residue(pow(self.value, exponent, self.modulus), self.modulus)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Residue):
            return NotImplemented
        return self.modulus == other.modulus and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.value, self.modulus))

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"Residue({self.value}, {self.modulus})"

    def __str__(self) -> str:
        return str(self.value)


Scalar = Union[Fraction, Residue]


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

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def scalar(self, x) -> Fraction:
        """Coerce an int, Fraction or string to a rational scalar."""
        if isinstance(x, Residue):
            raise ValueError("cannot coerce a prime-field residue to Q")
        if isinstance(x, str):
            return self.parse(x)
        return Fraction(x)

    def parse(self, text: str) -> Fraction:
        return Fraction(text.strip())

    def format(self, x: Fraction) -> str:
        return str(x)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("rationals")

    def __repr__(self) -> str:
        return "Rationals()"


class PrimeField:
    """The finite field Z/p for a prime p."""

    kind = "prime"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> Residue:
        return Residue(0, self.p)

    @property
    def one(self) -> Residue:
        return Residue(1, self.p)

    def from_int(self, k: int) -> Residue:
        return Residue(k, self.p)

    def scalar(self, x) -> Residue:
        """Coerce an int, Fraction, Residue or string to a residue mod p.

        Fractions reduce as numerator times inverse denominator; a
        denominator divisible by p has no image and raises.
        """
        if isinstance(x, Residue):
            if x.modulus != self.p:
                raise ValueError(f"residue mod {x.modulus} is not mod {self.p}")
            return x
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"denominator of {x} vanishes mod {self.p}")
            return Residue(x.numerator, self.p) / Residue(x.denominator, self.p)
        return Residue(int(x), self.p)

    def parse(self, text: str) -> Residue:
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.scalar(Fraction(int(num), int(den)))
        return Residue(int(text), self.p)

    def format(self, x: Residue) -> str:
        return str(x.value)

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

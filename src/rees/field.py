"""Exact coefficient fields.

Two fields are supported: F_p for a prime p (elements are canonical ints in
0..p-1) and the rationals (elements are `fractions.Fraction`).  Polynomial code
reads `field.modulus`: an int means "reduce mod p", None means "exact rational
arithmetic".  So one loop serves both fields: the package's one
multiply-accumulate kernel, `ring.sub_multiple`, which every `Poly` operation
and the oracle's reduction call, and the one elimination, `linalg.rref`, each
reduce a value only when the modulus is an int.  Scaling goes through `inv`,
`neg` and the field's coercion.  Matrix entries are not coerced again: the
coefficient vectors `gradedlin` writes for `linalg` hold the nonzero
canonical elements of `Poly` terms and ring map memos.
"""
from __future__ import annotations

from fractions import Fraction

DEFAULT_PRIME = 32003

# Moduli must stay below this bound.  Ring maps over F_p run on numpy int64
# arrays and multiply two residues before reducing, so p**2 has to fit in
# int64; p < 2**31 keeps it below 2**62.
PRIME_LIMIT = 1 << 31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3 * 10**24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p with canonical representatives 0..p-1, for primes p < 2**31."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"field modulus must be prime, got {p!r}")
        if p >= PRIME_LIMIT:
            raise ValueError(f"field modulus must be below 2**31 for int64 "
                             f"ring maps, got {p}")
        self.p = p

    @property
    def modulus(self) -> int:
        return self.p

    zero = 0
    one = 1

    def __call__(self, v):
        """Coerce an int, Fraction or string like '3' / '1/2' into F_p."""
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            return v.numerator % self.p * self.inv(v.denominator % self.p) % self.p
        if isinstance(v, str):
            return self(Fraction(v))
        raise TypeError(f"cannot coerce {type(v).__name__} into F_{self.p}")

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return pow(a, -1, self.p)

    def neg(self, a):
        return -a % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """The rational numbers, via fractions.Fraction."""

    __slots__ = ()

    modulus = None
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, v):
        if isinstance(v, (int, Fraction, str)):
            return Fraction(v)
        raise TypeError(f"cannot coerce {type(v).__name__} into Q")

    def inv(self, a):
        return 1 / Fraction(a)

    def neg(self, a):
        return -Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


def field_from_json(obj) -> PrimeField | RationalField:
    """Build a field from the instance-file encoding.

    {"type": "prime", "p": 32003} or {"type": "rational"}.
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("field descriptor must be an object with a 'type' key")
    if obj["type"] == "prime":
        return PrimeField(obj.get("p", DEFAULT_PRIME))
    if obj["type"] == "rational":
        return RationalField()
    raise ValueError(f"unknown field type {obj['type']!r}")


def field_to_json(field) -> dict:
    if isinstance(field, PrimeField):
        return {"type": "prime", "p": field.p}
    return {"type": "rational"}

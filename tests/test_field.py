from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rees.field import (
    DEFAULT_PRIME,
    PrimeField,
    RationalField,
    field_from_json,
    field_to_json,
    is_prime,
)


def test_prime_field_basics():
    F = PrimeField(7)
    assert F.modulus == 7
    assert F(3) == 3
    assert F(10) == 3
    assert F(-1) == 6
    assert F.zero == 0 and F.one == 1
    assert F.neg(3) == 4
    assert F.inv(3) == 5  # 3*5 = 15 = 1 mod 7


def test_prime_field_coercions():
    F = PrimeField(13)
    assert F("11") == 11
    assert F(Fraction(1, 2)) == F.inv(2)
    for zero in (0, 13, -26):
        with pytest.raises(ZeroDivisionError):
            F.inv(zero)


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 100])
def test_composite_modulus_rejected(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


def test_prime_modulus_at_or_above_2_31_rejected():
    # F_p ring maps run on numpy int64, so 2**31 - 1 is the largest
    # usable prime; a larger one must be refused, not computed over Q
    assert PrimeField(2147483647).modulus == 2147483647
    with pytest.raises(ValueError, match="below 2\\*\\*31"):
        PrimeField(2147483659)


def test_is_prime_small():
    primes_below_40 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert [k for k in range(2, 40) if is_prime(k)] == primes_below_40
    assert is_prime(32003)
    assert not is_prime(32001)  # 3 * 10667


def test_rational_field():
    Q = RationalField()
    assert Q.modulus is None
    assert Q(2) == Fraction(2)
    assert Q.inv(Fraction(3, 4)) == Fraction(4, 3)
    assert Q.neg(Fraction(1, 2)) == Fraction(-1, 2)


def test_field_json_round_trip():
    F = PrimeField(101)
    assert field_from_json(field_to_json(F)) == F
    Q = RationalField()
    assert field_from_json(field_to_json(Q)) == Q
    assert field_from_json({"type": "prime", "p": DEFAULT_PRIME}).modulus == 32003
    with pytest.raises(ValueError):
        field_from_json({"type": "galois", "q": 4})


@given(st.integers(min_value=1, max_value=32002))
def test_inverse_is_two_sided_mod_32003(a):
    F = PrimeField(32003)
    assert a * F.inv(a) % 32003 == 1
    assert F.inv(a) == pow(a, 32001, 32003) == F.inv(a - 32003)

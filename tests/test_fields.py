from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfcalc.fields import Field, QQ, is_prime

F5 = Field(5)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
f5_elems = st.integers(min_value=0, max_value=4)


def test_field_parse_and_str():
    assert Field.parse("Q") == QQ
    assert Field.parse("F7") == Field(7)
    for bad in ("F6", "F0", "F", "F 7", "F+7", "F1_1", "QQ", "0", " Q", "R"):
        with pytest.raises(ValueError):
            Field.parse(bad)
    assert str(QQ) == "Q"
    assert str(F5) == "F5"


def test_of_accepts_ratio_strings():
    assert QQ.of("3/4") == Fraction(3, 4)
    assert QQ.of("-2") == Fraction(-2)
    assert F5.of("3/4") == (3 * pow(4, -1, 5)) % 5


def test_bad_field_characteristic():
    with pytest.raises(ValueError):
        Field(4)
    assert is_prime(2) and is_prime(31)
    assert not is_prime(1) and not is_prime(9)


def test_primality_matches_trial_division_on_small_numbers():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(-3, 20000) if is_prime(n)] == [n for n in range(20000) if trial(n)]


def test_large_primes_and_strong_pseudoprimes():
    # 2^61 - 1 hung trial division; Carmichael numbers fool the Fermat test
    # to every base prime to them, and 3825123056546413051 is a strong
    # pseudoprime to the bases 2..23; 318665857834031151167461 is one to the
    # bases 2..37, and base 41 shows it composite
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1) and is_prime(4294967311)
    assert str(Field.parse("F2305843009213693951")) == "F2305843009213693951"
    for composite in (561, 41041, 9746347772161, (2**61 - 1) * 1000003,
                      3825123056546413051, 318665857834031151167461):
        assert not is_prime(composite)
        with pytest.raises(ValueError, match="must be 0 or prime"):
            Field(composite)


def test_fields_past_the_certified_range_are_refused():
    # the thirteen Miller-Rabin bases decide primality below 3.3e24 only
    for p in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ValueError, match="decided only below"):
            Field(p)


@given(rationals, rationals, rationals)
def test_rational_field_laws(a, b, c):
    f = QQ
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero()
    if not f.is_zero(a):
        assert f.mul(a, f.inv(a)) == f.one()


@given(f5_elems, f5_elems, f5_elems)
def test_prime_field_laws(a, b, c):
    f = F5
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero()
    if not f.is_zero(a):
        assert f.mul(a, f.inv(a)) == f.one()


@given(rationals)
def test_to_str_round_trips(a):
    assert QQ.of(QQ.to_str(a)) == a

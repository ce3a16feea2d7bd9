"""Integer/rational/residue arithmetic layer."""

from fractions import Fraction

import pytest

from partible.exact import (
    NonInvertibleDenominator,
    Residue,
    is_prime,
    legendre_symbol,
    primes_in_range,
    rational_to_residue,
)

# a strong pseudoprime to the bases 2..37, below 3.3e24 but above their bound 3.18e23
PSEUDOPRIME = 399165290221 * 798330580441


def test_legendre_small_cases():
    assert legendre_symbol(-1, 5) == 1  # 5 = 1 mod 4
    assert legendre_symbol(7, 3) == 1
    # exhaustive squares mod 3: {0, 1}; 5 = 2 mod 3 is not among them
    assert {(x * x) % 3 for x in range(3)} == {0, 1}
    assert legendre_symbol(5, 3) == -1
    assert legendre_symbol(10, 5) == 0


def test_legendre_rejects_non_odd_primes():
    for bad in (2, 9, 1, 15, PSEUDOPRIME):
        with pytest.raises(ValueError):
            legendre_symbol(3, bad)


def test_legendre_euler_criterion_all_primes_below_100():
    for p in primes_in_range(3, 100):
        for a in range(1, p):
            assert legendre_symbol(a, p) % p == pow(a, (p - 1) // 2, p)


def test_legendre_exhaustive_square_oracle():
    for p in primes_in_range(3, 50):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in squares else -1
            assert legendre_symbol(a, p) == expected


def test_primes_in_range():
    assert primes_in_range(5, 13) == [5, 7, 11, 13]
    assert primes_in_range(24, 28) == []
    assert primes_in_range(2, 20) == [2, 3, 5, 7, 11, 13, 17, 19]
    # trial-division oracle
    def naive(n):
        return n >= 2 and all(n % d for d in range(2, n))
    assert primes_in_range(0, 200) == [n for n in range(201) if naive(n)]


def test_is_prime_against_sieve():
    primes = set(primes_in_range(2, 20000))
    for n in range(20000):
        assert is_prime(n) == (n in primes)
    assert not is_prime(PSEUDOPRIME)


def test_rational_to_residue():
    r = rational_to_residue(Fraction(1, 8), 125)
    assert r == Residue(47, 125)
    assert (8 * 47) % 125 == 1
    assert rational_to_residue(3, 7) == Residue(3, 7)
    with pytest.raises(NonInvertibleDenominator):
        rational_to_residue(Fraction(1, 2), 4)
    with pytest.raises(ValueError):
        Residue(1, 1)


def test_rational_to_residue_is_ring_homomorphism():
    import random

    rng = random.Random(20_26)
    m = 343
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.choice([1, 2, 4, 5, 11]))
        b = Fraction(rng.randint(-50, 50), rng.choice([1, 2, 4, 5, 11]))
        fa, fb = rational_to_residue(a, m), rational_to_residue(b, m)
        assert rational_to_residue(a + b, m).value == (fa.value + fb.value) % m
        assert rational_to_residue(a * b, m).value == fa.value * fb.value % m


def test_fraction_arithmetic_is_exact():
    import random

    rng = random.Random(7)
    for _ in range(300):
        a = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        assert (a + b) - b == a
        if b:
            assert (a / b) * b == a
        assert Fraction(a + b).denominator > 0

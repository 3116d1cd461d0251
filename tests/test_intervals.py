"""Dyadic k-th root enclosures: the contract integrate's endpoints rest on."""

import random
from fractions import Fraction

import pytest

from padicorder import haar
from padicorder.intervals import kth_root_enclosure, p_power_enclosure


def _exact_kth_root(n: int, k: int):
    """The integer u with u^k = n, by bisection, or None."""
    lo, hi = 0, 1
    while hi**k <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**k <= n else (lo, mid)
    return lo if lo**k == n else None


def _root_on_grid(r: Fraction, k: int, bits: int) -> bool:
    """r^(1/k) = u / 2^t with t <= bits, for r = a/b in lowest terms."""
    w = _exact_kth_root(r.denominator, k)
    return (
        _exact_kth_root(r.numerator, k) is not None
        and w is not None
        and w & (w - 1) == 0
        and w.bit_length() - 1 <= bits
    )


def _random_case(rng):
    k, bits = rng.randint(1, 6), rng.randint(0, 48)
    if rng.random() < 0.4:
        # an exact root, on the grid or just off it
        t = rng.randint(0, bits + 2)
        r = Fraction(rng.randint(0, 2**20), 2**t) ** k
    else:
        r = Fraction(rng.randint(0, 10**rng.randint(1, 30)), rng.randint(1, 10**rng.randint(1, 12)))
    return r, k, bits


def test_kth_root_enclosure_contract():
    rng = random.Random("kth-root-contract")
    exact = 0
    for _ in range(1200):
        r, k, bits = _random_case(rng)
        e = kth_root_enclosure(r, k, bits)
        grid = 2**bits
        assert (e.lo * grid).denominator == 1 and (e.hi * grid).denominator == 1
        assert e.lo**k <= r <= e.hi**k
        if _root_on_grid(r, k, bits):
            assert e.width == 0
            exact += 1
        else:
            assert e.width == Fraction(1, grid)
        assert e.contains_interval(kth_root_enclosure(r, k, bits + 1))
    assert 200 < exact < 1000


@pytest.mark.parametrize("r", [Fraction(-1), Fraction(-1, 10**9)])
def test_kth_root_enclosure_refuses_negative(r):
    with pytest.raises(ValueError):
        kth_root_enclosure(r, 2, 8)


def test_p_power_enclosure():
    assert p_power_enclosure(3, Fraction(-2), 8).width == 0
    assert p_power_enclosure(3, Fraction(-2), 8).lo == Fraction(1, 9)
    e = p_power_enclosure(5, Fraction(-3, 2), 40)
    assert e == kth_root_enclosure(Fraction(1, 125), 2, 40)
    assert e.lo**2 < Fraction(1, 125) < e.hi**2


def test_p_power_enclosure_cache_equals_uncached():
    rng = random.Random("p-power-cache")
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7])
        exponent = Fraction(rng.randint(-30, 30), rng.randint(1, 4))
        bits = rng.choice([32, 64, haar._scale_bits(p, rng.randint(1, 12))])
        fresh = p_power_enclosure.__wrapped__(p, exponent, bits)
        # the first call may compute or hit the cache; the second one hits it
        assert p_power_enclosure(p, exponent, bits) == fresh
        hits = p_power_enclosure.cache_info().hits
        assert p_power_enclosure(p, exponent, bits) == fresh
        assert p_power_enclosure.cache_info().hits == hits + 1
    assert 0 < p_power_enclosure.cache_info().maxsize <= 4096


def test_iroot_matches_integer_nthroot():
    from sympy import integer_nthroot

    from padicorder.intervals import _iroot

    rng = random.Random(20261020)
    for _ in range(20_000):
        n, k = rng.getrandbits(rng.randint(0, 400)), rng.randint(1, 12)
        assert _iroot(n, k) == integer_nthroot(n, k)[0], (n, k)

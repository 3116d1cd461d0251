"""p-adic valuations and the exact absolute values certificates carry."""

from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicorder import (
    INF,
    IntPolynomial,
    PPower,
    padic_valuation,
    padic_witness,
    rational_valuation,
)

PRIMES = [2, 3, 5, 7]

nonzero_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
).filter(lambda r: r != 0)
primes = st.sampled_from(PRIMES)


def test_padic_valuation_basic():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(12, 3) == 1
    assert padic_valuation(-50, 5) == 2
    assert padic_valuation(7, 5) == 0
    with pytest.raises(ValueError):
        padic_valuation(0, 5)


@pytest.mark.parametrize("p", [0, 1, -1])
def test_valuation_rejects_p_below_two(p):
    # p = 1 or -1 used to divide forever; SIGALRM turns a hang into a failure
    import signal

    from padicorder import IntPolynomial, newton_polygon

    def hang(signum, frame):
        raise TimeoutError(f"no answer for p = {p}")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError):
            padic_valuation(5, p)
        with pytest.raises(ValueError):
            newton_polygon(IntPolynomial((5, -6, 5)), p)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_rational_valuation():
    assert rational_valuation(Fraction(9, 2), 3) == 2
    assert rational_valuation(Fraction(9, 2), 2) == -1
    assert rational_valuation(Fraction(0), 7) is INF


def test_ppower_normalized_norm():
    # PPower(p, e) is the absolute value p^(-e): |50|_5 = 5^(-2); |1/5|_5 = 5.
    assert PPower(5, Fraction(rational_valuation(Fraction(50), 5))) == PPower(5, Fraction(2))
    assert PPower(5, Fraction(rational_valuation(Fraction(1, 5), 5))) == PPower(5, Fraction(-1))
    # a frozen value: equal exactly when prime and exponent are
    norm = PPower(5, Fraction(-1))
    assert hash(norm) == hash(PPower(5, Fraction(-1)))
    assert norm != PPower(5, Fraction(1)) and norm != PPower(7, Fraction(-1))
    with pytest.raises(FrozenInstanceError):
        norm.exponent = Fraction(0)


@given(r=nonzero_rationals, p=primes)
@settings(max_examples=150, deadline=None)
def test_rational_valuation_splits_off_a_unit(r, p):
    """r = p^v * u with v = v_p(r) and u's numerator and denominator prime to p."""
    v = rational_valuation(r, p)
    unit = r / Fraction(p) ** v
    assert unit.numerator % p != 0 and unit.denominator % p != 0


@given(r=nonzero_rationals)
@settings(max_examples=100, deadline=None)
def test_norm_matches_valuation(r):
    """The witness for the root of b*x - a certifies |a/b|_p = p^(-v_p(a/b))
    at the least prime p of b."""
    if r.denominator == 1:
        return
    f = IntPolynomial((-r.numerator, r.denominator))
    cert = padic_witness(f)
    p = cert.place.prime
    assert r.denominator % p == 0 and all(r.denominator % q for q in range(2, p))
    assert cert.exact_norm == PPower(p, Fraction(rational_valuation(r, p)))


@given(a=nonzero_rationals, b=nonzero_rationals, p=primes)
@settings(max_examples=150, deadline=None)
def test_ultrametric_inequality(a, b, p):
    va, vb = rational_valuation(a, p), rational_valuation(b, p)
    s = rational_valuation(a + b, p)  # INF when a + b = 0
    assert s >= min(va, vb)
    if va != vb:
        assert s == min(va, vb)


@given(a=nonzero_rationals, b=nonzero_rationals, p=primes)
@settings(max_examples=150, deadline=None)
def test_norm_multiplicative(a, b, p):
    assert rational_valuation(a * b, p) == rational_valuation(a, p) + rational_valuation(b, p)

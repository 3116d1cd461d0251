"""p-adic approximations: valuations, norms, ring laws, precision."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicorder import (
    INF,
    DivisionByZero,
    PAdicApprox,
    PPower,
    PrecisionExhausted,
    padic_valuation,
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
    x = PAdicApprox.from_rational(Fraction(50), 5, 6)
    assert x.norm() == PPower(5, Fraction(2))
    assert x.norm().value() == Fraction(1, 25)
    y = PAdicApprox.from_rational(Fraction(1, 5), 5, 6)
    assert y.norm() == PPower(5, Fraction(-1))
    assert y.norm().value() == Fraction(5)


def test_ppower_ordering_cross_prime():
    assert PPower(2, Fraction(3)) < PPower(2, Fraction(1))  # 1/8 < 1/2
    assert PPower(3, Fraction(-1, 2)) < PPower(3, Fraction(-1))  # sqrt(3) < 3
    # 2^2 = 4 < 5 = 5^1, exact cross-prime comparison.
    assert PPower(2, Fraction(-2)) < PPower(5, Fraction(-1))
    assert PPower(2, Fraction(-3)) > PPower(5, Fraction(-1))
    assert PPower.zero(7) < PPower(7, Fraction(100))


def test_digit_expansion_example():
    # -1/2 = 1 + 3 + 9 + ... in Z_3: all digits 1.
    x = PAdicApprox.from_rational(Fraction(-1, 2), 3, 5)
    assert x.digits == (1, 1, 1, 1, 1)
    assert x.valuation == 0


def test_exact_cancellation_is_detected():
    p = 5
    a = PAdicApprox.from_rational(Fraction(1, 3), p, 8)
    b = PAdicApprox.from_rational(Fraction(-1, 3), p, 8)
    with pytest.raises(PrecisionExhausted):
        _ = a + b


def test_division_by_zero():
    z = PAdicApprox.from_rational(Fraction(0), 3, 4)
    with pytest.raises(DivisionByZero):
        z.inv()


@given(r=nonzero_rationals, p=primes)
@settings(max_examples=150, deadline=None)
def test_from_rational_round_trip(r, p):
    """The tracked window agrees with the exact rational to full precision."""
    n = 12
    x = PAdicApprox.from_rational(r, p, n)
    v = rational_valuation(r, p)
    assert x.valuation == v
    # Reconstruct r * p^-v as a unit mod p^n.
    unit = r / Fraction(p) ** v
    num, den = unit.numerator, unit.denominator
    assert (x.unit * den - num) % p**n == 0


@given(r=nonzero_rationals, p=primes)
@settings(max_examples=100, deadline=None)
def test_norm_matches_valuation(r, p):
    x = PAdicApprox.from_rational(r, p, 10)
    assert x.norm() == PPower(p, Fraction(rational_valuation(r, p)))


@given(a=nonzero_rationals, b=nonzero_rationals, p=primes)
@settings(max_examples=150, deadline=None)
def test_ultrametric_inequality(a, b, p):
    x = PAdicApprox.from_rational(a, p, 14)
    y = PAdicApprox.from_rational(b, p, 14)
    if a + b == 0:
        return
    s = x + y
    assert s.norm() <= max(x.norm(), y.norm())
    if x.norm() != y.norm():
        assert s.norm() == max(x.norm(), y.norm())


@given(a=nonzero_rationals, b=nonzero_rationals, p=primes)
@settings(max_examples=150, deadline=None)
def test_norm_multiplicative(a, b, p):
    x = PAdicApprox.from_rational(a, p, 10)
    y = PAdicApprox.from_rational(b, p, 10)
    assert (x * y).norm() == x.norm() * y.norm()


@given(a=nonzero_rationals, b=nonzero_rationals, p=primes)
@settings(max_examples=100, deadline=None)
def test_ring_ops_agree_with_exact_rationals(a, b, p):
    n = 12
    x = PAdicApprox.from_rational(a, p, n)
    y = PAdicApprox.from_rational(b, p, n)
    pairs = [(lambda: x * y, a * b), (lambda: x.inv(), 1 / a)]
    if a != b:
        pairs.append((lambda: x - y, a - b))
    for make, val in pairs:
        try:
            op = make()
        except PrecisionExhausted:
            continue  # value nonzero but cancelled past the tracked window
        exact = PAdicApprox.from_rational(val, p, op.precision)
        assert op.agrees_with(exact)


@given(r=nonzero_rationals, p=primes)
@settings(max_examples=60, deadline=None)
def test_digits_in_range_and_leading_nonzero(r, p):
    x = PAdicApprox.from_rational(r, p, 9)
    ds = x.digits
    assert all(0 <= d < p for d in ds)
    assert ds[0] != 0  # unit part: leading digit nonzero


def test_str_format():
    x = PAdicApprox.from_rational(Fraction(50), 5, 3)
    assert str(x) == "5^2 * (2,0,0) mod 5^(5)"

"""Exact p-adic valuations and absolute values.

padicorder reads p-adic information only through valuations: v_p of
integers and rationals here, and Newton-polygon slopes in ``places``.
A certificate carries |alpha|_p = p^(-v) as an exact ``PPower``, which
the verifier compares for equality only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from sympy import isprime

#: Valuation of zero.
INF = float("inf")


def _check_prime(p):
    if not isinstance(p, int) or p < 2 or not isprime(p):
        raise ValueError(f"{p} is not a prime")


def padic_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n; raises ValueError if |p| < 2."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if abs(p) < 2:
        raise ValueError(f"no valuation at {p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(r: Fraction, p: int):
    """v_p of a rational; INF for zero."""
    if r == 0:
        return INF
    return padic_valuation(r.numerator, p) - padic_valuation(r.denominator, p)


@dataclass(frozen=True)
class PPower:
    """An exact absolute value ``p^(-exponent)``.

    ``exponent`` is a Fraction: rational exponents arise from Newton
    polygon slopes.
    """

    prime: int
    exponent: Fraction

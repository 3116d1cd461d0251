"""Exact p-adic valuations and absolute values.

padicorder reads p-adic information only through valuations: v_p of
integers and rationals here, and Newton-polygon slopes in ``places``.
A certificate carries |alpha|_p = p^(-v) as an exact ``PPower``, which
the verifier compares for equality only.  Primes are tested by
deterministic Miller-Rabin on Python ints, with sympy's isprime only past
the range where the first 13 prime bases are known to suffice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

#: Valuation of zero.
INF = float("inf")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all 13 bases, so Miller-Rabin to them is
# deterministic below it (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Primality of an int: trial division by _MR_BASES, then Miller-Rabin
    to those bases below _MR_BOUND, sympy's isprime from it on."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    if n >= _MR_BOUND:
        from sympy import isprime

        return isprime(n)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:  # a proves n composite unless a^d = 1 or a^(d 2^r) = -1, r < s
        xs = [pow(a, d, n)]
        for _ in range(s - 1):
            xs.append(xs[-1] * xs[-1] % n)
        if xs[0] != 1 and n - 1 not in xs:
            return False
    return True


def _check_prime(p):
    if not isinstance(p, int) or p < 2 or not _is_prime(p):
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


@dataclass(frozen=True, slots=True)
class PPower:
    """An exact absolute value ``p^(-exponent)``.

    ``exponent`` is a Fraction: rational exponents arise from Newton
    polygon slopes.
    """

    prime: int
    exponent: Fraction

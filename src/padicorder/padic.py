"""Exact p-adic numbers to tracked finite precision.

A nonzero value is stored as ``p^v * u`` where ``u`` is a unit known
modulo ``p^N``; the represented number is therefore known modulo
``p^(v+N)``, while its absolute value ``p^(-v)`` is exact.  Zero is a
distinguished element with valuation ``INF``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from sympy import isprime

from .errors import DivisionByZero, PrecisionExhausted

#: Valuation of the zero element.
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

    ``exponent`` is a Fraction (rational exponents arise from Newton
    polygon slopes); ``exponent is None`` encodes the zero norm.
    """

    prime: int
    exponent: Fraction | None

    @classmethod
    def zero(cls, p: int) -> "PPower":
        return cls(p, None)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def value(self) -> Fraction:
        """The exact rational value; raises if the exponent is not an integer."""
        if self.is_zero:
            return Fraction(0)
        if self.exponent.denominator != 1:
            raise ValueError("norm is irrational; compare via the ordering instead")
        e = int(self.exponent)
        return Fraction(1, self.prime**e) if e >= 0 else Fraction(self.prime ** (-e))

    def __mul__(self, other: "PPower") -> "PPower":
        if self.prime != other.prime:
            raise ValueError("cannot multiply norms at different primes")
        if self.is_zero or other.is_zero:
            return PPower.zero(self.prime)
        return PPower(self.prime, self.exponent + other.exponent)

    # p^(-a) < q^(-b)  iff  q^(b') < p^(a') after clearing denominators.
    def _cmp(self, other: "PPower") -> int:
        if self.is_zero and other.is_zero:
            return 0
        if self.is_zero:
            return -1
        if other.is_zero:
            return 1
        a, b = self.exponent, other.exponent
        d = a.denominator * b.denominator
        # compare p^(-a) vs q^(-b): raise both to power d
        lhs = Fraction(self.prime) ** int(-a * d)
        rhs = Fraction(other.prime) ** int(-b * d)
        return (lhs > rhs) - (lhs < rhs)

    def __lt__(self, other):
        return self._cmp(self._coerce(other)) < 0

    def __le__(self, other):
        return self._cmp(self._coerce(other)) <= 0

    def __gt__(self, other):
        return self._cmp(self._coerce(other)) > 0

    def __ge__(self, other):
        return self._cmp(self._coerce(other)) >= 0

    def _coerce(self, other) -> "PPower":
        if isinstance(other, PPower):
            return other
        if other == 0:
            return PPower.zero(self.prime)
        if other == 1:
            return PPower(self.prime, Fraction(0))
        raise TypeError(f"cannot compare PPower with {other!r}")

    def __str__(self):
        if self.is_zero:
            return "0"
        return f"{self.prime}^({-self.exponent})"


@dataclass(frozen=True)
class PAdicApprox:
    """A p-adic number known modulo ``p^(valuation + precision)``."""

    prime: int
    valuation: int | float
    unit: int  # unit part mod p^precision; 0 for the zero element
    precision: int

    def __post_init__(self):
        _check_prime(self.prime)
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if self.is_zero:
            if self.unit != 0:
                raise ValueError("zero element must have unit 0")
        else:
            if not (0 < self.unit < self.prime**self.precision):
                raise ValueError("unit out of range")
            if self.unit % self.prime == 0:
                raise ValueError("unit part must not be divisible by p")

    @property
    def is_zero(self) -> bool:
        return self.valuation == INF

    @classmethod
    def zero(cls, p: int, precision: int = 1) -> "PAdicApprox":
        return cls(p, INF, 0, precision)

    @classmethod
    def from_rational(cls, r, p: int, precision: int) -> "PAdicApprox":
        """Exact image of a rational number, known modulo p^(v+N)."""
        _check_prime(p)
        r = Fraction(r)
        if r == 0:
            return cls.zero(p, precision)
        vn = padic_valuation(r.numerator, p)
        vd = padic_valuation(r.denominator, p)
        v = vn - vd
        num = r.numerator // p**vn
        den = r.denominator // p**vd
        mod = p**precision
        unit = num * pow(den, -1, mod) % mod
        return cls(p, v, unit, precision)

    @property
    def digits(self) -> tuple[int, ...]:
        """Base-p digits d_0..d_{N-1} of the unit part (d_0 != 0)."""
        if self.is_zero:
            return ()
        u, out = self.unit, []
        for _ in range(self.precision):
            out.append(u % self.prime)
            u //= self.prime
        return tuple(out)

    def norm(self) -> PPower:
        """The exact absolute value p^(-v)."""
        if self.is_zero:
            return PPower.zero(self.prime)
        return PPower(self.prime, Fraction(self.valuation))

    def _check_same_prime(self, other: "PAdicApprox"):
        if self.prime != other.prime:
            raise ValueError("mixed primes")

    def __add__(self, other: "PAdicApprox") -> "PAdicApprox":
        self._check_same_prime(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        p = self.prime
        # both values are known modulo p^known
        known = min(self.valuation + self.precision, other.valuation + other.precision)
        vmin = min(self.valuation, other.valuation)
        mod = p ** (known - vmin)
        s = (
            self.unit * p ** (self.valuation - vmin)
            + other.unit * p ** (other.valuation - vmin)
        ) % mod
        if s == 0:
            raise PrecisionExhausted(
                "sum is indistinguishable from 0 modulo "
                f"{p}^{known}; increase the working precision"
            )
        shift = padic_valuation(s, p)
        v = vmin + shift
        n = known - v
        return PAdicApprox(p, v, (s // p**shift) % p**n, n)

    def __neg__(self) -> "PAdicApprox":
        if self.is_zero:
            return self
        mod = self.prime**self.precision
        return PAdicApprox(self.prime, self.valuation, (-self.unit) % mod, self.precision)

    def __sub__(self, other: "PAdicApprox") -> "PAdicApprox":
        return self + (-other)

    def __mul__(self, other: "PAdicApprox") -> "PAdicApprox":
        self._check_same_prime(other)
        if self.is_zero or other.is_zero:
            return PAdicApprox.zero(self.prime, min(self.precision, other.precision))
        n = min(self.precision, other.precision)
        mod = self.prime**n
        return PAdicApprox(
            self.prime, self.valuation + other.valuation, self.unit * other.unit % mod, n
        )

    def inv(self) -> "PAdicApprox":
        if self.is_zero:
            raise DivisionByZero("cannot invert zero")
        mod = self.prime**self.precision
        return PAdicApprox(
            self.prime, -self.valuation, pow(self.unit, -1, mod), self.precision
        )

    def agrees_with(self, other: "PAdicApprox") -> bool:
        """True when the two approximations coincide on their common precision."""
        self._check_same_prime(other)
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if self.valuation != other.valuation:
            return False
        n = min(self.precision, other.precision)
        return self.unit % self.prime**n == other.unit % self.prime**n

    def __str__(self):
        if self.is_zero:
            return f"0 (p={self.prime})"
        p, v, n = self.prime, self.valuation, self.precision
        ds = ",".join(str(d) for d in self.digits)
        return f"{p}^{v} * ({ds}) mod {p}^({v + n})"

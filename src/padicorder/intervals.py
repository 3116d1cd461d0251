"""Certified rational enclosures.

A RationalInterval [lo, hi] promises that the true (possibly irrational)
value lies between its exact rational endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


@dataclass(frozen=True, slots=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "RationalInterval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, c) -> "RationalInterval":
        c = Fraction(c)
        if c >= 0:
            return RationalInterval(self.lo * c, self.hi * c)
        return RationalInterval(self.hi * c, self.lo * c)

    def __mul__(self, other: "RationalInterval") -> "RationalInterval":
        prods = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RationalInterval(min(prods), max(prods))

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def contains_interval(self, other: "RationalInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "RationalInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1, by integer Newton iteration
    from 2^ceil(bits(n)/k) >= n^(1/k), whose iterates fall to the floor."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def kth_root_enclosure(r: Fraction, k: int, scale_bits: int) -> RationalInterval:
    """Dyadic enclosure of r**(1/k) with width <= 2**(-scale_bits).

    Endpoints are floor/ceil of the true value on the 2**(-scale_bits)
    grid, so enclosures at finer grids are nested inside coarser ones.
    """
    r = Fraction(r)
    if r < 0:
        raise ValueError("negative radicand")
    s = 1 << scale_bits
    # floor(r^(1/k) * s) = floor((r.num * s^k / r.den)^(1/k))
    n = r.numerator * s**k
    lo_int = _iroot(n // r.denominator, k)
    lo = Fraction(lo_int, s)
    hi = lo if lo**k == r else Fraction(lo_int + 1, s)
    return RationalInterval(lo, hi)


@lru_cache(maxsize=1024)  # pure, with frozen results: each is computed once per process
def p_power_enclosure(p: int, exponent: Fraction, scale_bits: int) -> RationalInterval:
    """Enclosure of p**exponent for a rational exponent; exact when integral."""
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        return RationalInterval.point(Fraction(p) ** int(exponent))
    base = Fraction(p) ** exponent.numerator
    return kth_root_enclosure(base, exponent.denominator, scale_bits)

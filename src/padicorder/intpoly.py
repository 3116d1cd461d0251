"""Exact integer polynomial algebra and Kronecker root-of-unity detection.

Polynomials are dense tuples of integer coefficients in ascending order,
``c_0 + c_1 x + ... + c_n x^n`` with ``c_n != 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from sympy import nextprime

from .errors import NotSquarefree


@dataclass(frozen=True)
class IntPolynomial:
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial is not representable")
        if self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        if not all(isinstance(c, int) for c in self.coeffs):
            raise ValueError("coefficients must be exact integers")

    @classmethod
    def from_coeffs(cls, coeffs) -> "IntPolynomial":
        coeffs = [int(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0]

    def is_constant(self) -> bool:
        return self.degree == 0

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            raise ValueError("derivative of a constant is the zero polynomial")
        return IntPolynomial.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def content(self) -> int:
        return math.gcd(*self.coeffs)

    def primitive_part(self) -> "IntPolynomial":
        """Content 1, positive leading coefficient, same roots."""
        g = self.content()
        if g == 0:
            raise ValueError("zero polynomial")
        sign = 1 if self.leading > 0 else -1
        return IntPolynomial(tuple(c * sign // g for c in self.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial.from_coeffs(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def scale_arg(self, a: int) -> "IntPolynomial":
        """f(a*x)."""
        return IntPolynomial.from_coeffs(
            [c * a**i for i, c in enumerate(self.coeffs)]
        )

    def reverse(self) -> "IntPolynomial":
        """x^deg * f(1/x); swaps roots with their reciprocals."""
        return IntPolynomial.from_coeffs(tuple(reversed(self.coeffs)))

    def exact_div(self, divisor: "IntPolynomial"):
        """Exact quotient over Z, or None when the division does not come out even."""
        if divisor.degree > self.degree:
            return None
        rem = [Fraction(c) for c in self.coeffs]
        lead = Fraction(divisor.leading)
        quot = [Fraction(0)] * (self.degree - divisor.degree + 1)
        for k in range(len(quot) - 1, -1, -1):
            q = rem[k + divisor.degree] / lead
            quot[k] = q
            if q:
                for j, d in enumerate(divisor.coeffs):
                    rem[k + j] -= q * d
        if any(rem):
            return None
        if any(q.denominator != 1 for q in quot):
            return None
        return IntPolynomial.from_coeffs([int(q) for q in quot])

    def divides(self, other: "IntPolynomial") -> bool:
        return other.exact_div(self) is not None

    def __str__(self):
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            terms.append((sign, body))
        if not terms:
            return "0"
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Z with positive leading coefficient."""
    a = [Fraction(c) for c in f.coeffs]
    b = [Fraction(c) for c in g.coeffs]

    def strip(v):
        while len(v) > 1 and v[-1] == 0:
            v.pop()
        return v

    a, b = strip(a), strip(b)
    while not (len(b) == 1 and b[0] == 0):
        # a mod b over Q
        r = a[:]
        while len(r) >= len(b) and not (len(r) == 1 and r[0] == 0):
            q = r[-1] / b[-1]
            off = len(r) - len(b)
            for j, d in enumerate(b):
                r[off + j] -= q * d
            r.pop()
            r = strip(r) if r else [Fraction(0)]
            if not r:
                r = [Fraction(0)]
        a, b = b, r
    den = math.lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    return IntPolynomial.from_coeffs(ints).primitive_part()


def is_squarefree(f: IntPolynomial) -> bool:
    """True iff gcd(f, f') is constant."""
    if f.is_constant():
        return True
    return poly_gcd(f, f.derivative()).is_constant()


def euler_phi(d: int) -> int:
    if d < 1:
        raise ValueError("d must be positive")
    result, n, p = d, d, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial, by iterated exact division of x^d - 1."""
    if d < 1:
        raise ValueError("d must be positive")
    f = IntPolynomial.from_coeffs([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            f = f.exact_div(cyclotomic(e))
    return f


def factor_out_cyclotomics(f: IntPolynomial):
    """Peel off the cyclotomic factors of f, each at most once.

    Returns (orders, remainder): the orders d of the peeled Phi_d in
    increasing order, and the primitive remainder, the constant 1 exactly
    when the primitive part of f is a squarefree product of cyclotomics.
    """
    g = f.primitive_part()
    matched: list[int] = []
    # coarse but safe over-approximation of {d : phi(d) <= deg f}
    for d in range(1, 2 * f.degree * f.degree + 1):
        if g.degree == 0:
            break
        if euler_phi(d) > g.degree:
            continue
        q = g.exact_div(cyclotomic(d))
        if q is not None:
            matched.append(d)
            g = q
    return matched, g


def root_of_unity_order(f: IntPolynomial):
    """Kronecker-style detection: the common multiplicative order of the
    roots of f, when every irreducible factor of f is cyclotomic; None
    otherwise.
    """
    if f.is_constant():
        raise ValueError("f must be nonconstant")
    if not is_squarefree(f):
        raise NotSquarefree(f"{f} has a repeated factor")
    if f.primitive_part().leading != 1:
        return None  # cyclotomics are monic
    matched, rem = factor_out_cyclotomics(f)
    return math.lcm(*matched) if rem.coeffs == (1,) else None


def is_algebraic_integer(f: IntPolynomial) -> bool:
    """True iff the primitive part of the defining polynomial is monic up to sign."""
    return abs(f.primitive_part().leading) == 1


# --- best-effort irreducibility -------------------------------------------

PROVEN = "Proven"
UNKNOWN = "Unknown"


def _fp_mulmod(a, b, m, p):
    """(a*b) mod m in F_p[x]; dense ascending lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    # reduce mod m (m monic)
    dm = len(m) - 1
    for k in range(len(out) - 1, dm - 1, -1):
        c = out[k]
        if c:
            off = k - dm
            for j in range(dm + 1):
                out[off + j] = (out[off + j] - c * m[j]) % p
    out = out[:dm]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _fp_xpowmod(e, m, p):
    """x^e mod m over F_p."""
    result = [1]
    base = [0, 1] if len(m) > 2 else _fp_mulmod([0, 1], [1], m, p)
    while e:
        if e & 1:
            result = _fp_mulmod(result, base, m, p)
        base = _fp_mulmod(base, base, m, p)
        e >>= 1
    return result


def _fp_gcd(a, b, p):
    a, b = a[:], b[:]

    def strip(v):
        while len(v) > 1 and v[-1] == 0:
            v.pop()
        return v

    a, b = strip(a), strip(b)
    while b != [0]:
        # a mod b
        inv = pow(b[-1], -1, p)
        r = a[:]
        while len(r) >= len(b) and r != [0]:
            q = r[-1] * inv % p
            off = len(r) - len(b)
            for j, d in enumerate(b):
                r[off + j] = (r[off + j] - q * d) % p
            r.pop()
            r = strip(r) if r else [0]
        a, b = b, r
    return a


def _irreducible_mod_p(f: IntPolynomial, p: int) -> bool:
    """Rabin's test for irreducibility of f mod p (degree preserved)."""
    n = f.degree
    if f.leading % p == 0:
        return False
    lc_inv = pow(f.leading % p, -1, p)
    m = [c * lc_inv % p for c in f.coeffs]
    if n == 1:
        return True
    # distinct prime divisors of n
    qs, nn, q = [], n, 2
    while q * q <= nn:
        if nn % q == 0:
            qs.append(q)
            while nn % q == 0:
                nn //= q
        q += 1
    if nn > 1:
        qs.append(nn)
    for q_ in qs:
        h = _fp_xpowmod(p ** (n // q_), m, p)
        # h - x
        h = h + [0] * max(0, 2 - len(h))
        h[1] = (h[1] - 1) % p
        while len(h) > 1 and h[-1] == 0:
            h.pop()
        if len(_fp_gcd(m, h, p)) > 1:
            return False
    top = _fp_xpowmod(p**n, m, p)
    top = top + [0] * max(0, 2 - len(top))
    top[1] = (top[1] - 1) % p
    while len(top) > 1 and top[-1] == 0:
        top.pop()
    return top == [0]


def _eisenstein_prime(f: IntPolynomial, bound: int = 1000):
    if f.degree < 1:
        return None
    lower_gcd = math.gcd(*f.coeffs[:-1]) if len(f.coeffs) > 2 else abs(f.coeffs[0])
    if lower_gcd == 0:
        return None
    p = 2
    while p <= bound:
        if lower_gcd % p == 0 and f.leading % p != 0 and f.constant % (p * p) != 0:
            return p
        p = int(nextprime(p))
    return None


def check_irreducible(f: IntPolynomial, num_primes: int = 12) -> str:
    """Best-effort irreducibility over Q: PROVEN when a sound criterion
    fires (degree 1, irreducible mod p, or Eisenstein), UNKNOWN otherwise.
    Never claims PROVEN incorrectly.
    """
    g = f.primitive_part()
    if g.degree == 1:
        return PROVEN
    if g.degree == 0 or not is_squarefree(g):
        return UNKNOWN
    p, tried = 2, 0
    while tried < num_primes:
        if g.leading % p != 0 and _irreducible_mod_p(g, p):
            return PROVEN
        tried += 1
        p = int(nextprime(p))
    if _eisenstein_prime(g) is not None:
        return PROVEN
    return UNKNOWN

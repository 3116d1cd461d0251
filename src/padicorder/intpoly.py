"""Exact integer polynomial algebra, Kronecker root-of-unity detection and
exact irreducibility over Q.

Polynomials are dense tuples of integer coefficients in ascending order,
``c_0 + c_1 x + ... + c_n x^n`` with ``c_n != 0``. Exact division, and the
squarefree and irreducibility tests mod the primes 2-13, run on Python ints;
those tests settle most input, gcd(f, f') and Zassenhaus over Z the rest.
Gcds and cyclotomic polynomials use sympy's dense routines over ZZ, Euler's
phi sympy's factorint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from sympy import factorint
from sympy.polys.densearith import dup_mul
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_gcd
from sympy.polys.factortools import dup_factor_list, dup_zz_cyclotomic_poly

from .errors import NotSquarefree


def _dense(f: IntPolynomial) -> list:
    """sympy's dense form over ZZ: the coefficients, leading first."""
    return list(reversed(f.coeffs))


@dataclass(frozen=True, slots=True)
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
        v = [int(c) for c in coeffs]
        while len(v) > 1 and v[-1] == 0:  # drop trailing zeros, keep one
            v.pop()
        return cls(tuple(v))

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
        if g == 1 and self.leading > 0:
            return self  # frozen, so callers may share it
        sign = 1 if self.leading > 0 else -1
        return IntPolynomial(tuple(c * sign // g for c in self.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial.from_coeffs(reversed(dup_mul(_dense(self), _dense(other), ZZ)))

    def exact_div(self, divisor: "IntPolynomial"):
        """Exact quotient over Z, or None when the division does not come out even."""
        a, b, quot = list(self.coeffs), divisor.coeffs, []
        for i in range(len(a) - len(b), -1, -1):  # schoolbook, top term first
            q, r = divmod(a[i + len(b) - 1], b[-1])
            if r:
                return None
            quot.append(q)
            for j, c in enumerate(b):
                a[i + j] -= q * c
        return None if any(a) else IntPolynomial(tuple(reversed(quot)))

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
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Z with positive leading coefficient."""
    gcd = dup_gcd(_dense(f), _dense(g), ZZ)
    return IntPolynomial.from_coeffs(reversed(gcd)).primitive_part()


def is_squarefree(f: IntPolynomial) -> bool:
    """True iff gcd(f, f') is constant. True at once when f is squarefree
    mod a sieve prime p not dividing lc(f): then p does not divide
    Res(f, f'), so Res(f, f') != 0. poly_gcd decides otherwise."""
    if any(f.leading % p and _monic_sqf_p(f.coeffs, p) for p in _SIEVE_PRIMES):
        return True
    return f.is_constant() or poly_gcd(f, f.derivative()).is_constant()


@lru_cache(maxsize=None)
def euler_phi(d: int) -> int:
    if d < 1:
        raise ValueError("d must be positive")
    return math.prod(p ** (k - 1) * (p - 1) for p, k in factorint(d).items())


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial Phi_d."""
    if d < 1:
        raise ValueError("d must be positive")
    return IntPolynomial.from_coeffs(reversed(dup_zz_cyclotomic_poly(d, ZZ)))


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
    matched, rem = factor_out_cyclotomics(f)
    return math.lcm(*matched) if rem.coeffs == (1,) else None


def is_algebraic_integer(f: IntPolynomial) -> bool:
    """True iff the primitive part of the defining polynomial is monic up to sign."""
    return abs(f.primitive_part().leading) == 1


# --- irreducibility --------------------------------------------------------

PROVEN = "Proven"
UNKNOWN = "Unknown"

# tried in order, skipped ones included, so the sieve's cost is bounded
_SIEVE_PRIMES = (2, 3, 5, 7, 11, 13)


def _rem_p(a: list, b: list, p: int) -> list:
    """a mod b over F_p, b monic; coefficients ascending, result trimmed."""
    a, m = list(a), len(b) - 1
    for i in range(len(a) - 1, m - 1, -1):
        q = a[i] % p
        if q:
            for j in range(m):
                a[i - m + j] -= q * b[j]
    a = [c % p for c in a[:m]]
    while a and not a[-1]:
        a.pop()
    return a


def _gcd_p(a: list, b: list, p: int) -> list:
    """The monic gcd over F_p of a (monic) and b."""
    while b:
        inv = pow(b[-1], -1, p)
        a, b = [c * inv % p for c in b], a
        b = _rem_p(b, a, p)
    return a


def _monic_sqf_p(c: tuple, p: int):
    """f = c made monic mod p (p not dividing c[-1]), or None when f is not
    squarefree mod p, that is when gcd(f, f') mod p is not constant."""
    inv = pow(c[-1], -1, p)
    f = [a * inv % p for a in c]
    df = _rem_p([i * a for i, a in enumerate(c)][1:], f, p)
    return f if len(_gcd_p(f, df, p)) == 1 else None


def _degree_set(c: tuple, p: int) -> int:
    """Bit mask of the degrees of products of f's irreducible factors mod p
    (f = c, p not dividing c[-1]); every degree when f is not squarefree mod
    p. gcd(f, x^(p^d) - x) holds the factors of degree dividing d, and the
    rows x^(ip) mod f map x^(p^(d-1)) to x^(p^d) (Frobenius)."""
    n, f = len(c) - 1, _monic_sqf_p(c, p)
    if f is None:
        return (1 << n + 1) - 1
    rows = [[1]]
    for _ in range(n - 1):
        rows.append(_rem_p([0] * p + rows[-1], f, p))
    mask, rest, d, h, found = 1, n, 0, [0, 1], [0] * (n + 1)
    while 2 * (d + 1) <= rest:  # else the rest is one irreducible factor
        d += 1
        img = [0] * n
        for hi, row in zip(h, rows):
            for j, r in enumerate(row):
                img[j] += hi * r
        h = _rem_p(img, f, p)
        img[1] -= 1  # x^(p^d) - x
        k = len(_gcd_p(f, _rem_p(img, f, p), p)) - 1
        found[d] = (k - sum(e * found[e] for e in range(1, d) if d % e == 0)) // d
        rest -= d * found[d]
        for _ in range(found[d]):
            mask |= mask << d
    return mask | mask << rest


def check_irreducible(f: IntPolynomial) -> str:
    """Irreducibility over Q: PROVEN when the primitive part g of f is one
    irreducible factor of multiplicity 1, UNKNOWN for constant, reducible
    or non-squarefree f. If g = u*v over Z, deg u lies in _degree_set(g, p)
    for each prime p not dividing lc(g) (Gauss's lemma), so g is PROVEN once
    those sets meet only in {0, deg g} (Musser, J. ACM 25, 1978); otherwise
    sympy's Zassenhaus factors g over Z and gives the answer.
    """
    g = f.primitive_part()
    n = g.degree
    allowed, proof = (1 << n + 1) - 1, 1 | 1 << n  # bit k: deg u = k is possible
    for p in _SIEVE_PRIMES:
        if allowed == proof:
            break
        if g.leading % p:
            allowed &= _degree_set(g.coeffs, p)
    if n >= 1 and allowed == proof:
        return PROVEN
    _, factors = dup_factor_list(_dense(g), ZZ)
    return PROVEN if [m for _, m in factors] == [1] else UNKNOWN

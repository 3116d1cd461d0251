"""Exact integer polynomial algebra, Kronecker root-of-unity detection and
exact irreducibility over Q.

Polynomials are dense tuples of integer coefficients in ascending order,
``c_0 + c_1 x + ... + c_n x^n`` with ``c_n != 0``. Gcds, exact division,
the squarefree test, cyclotomic polynomials and irreducibility use sympy's
dense routines over ZZ; irreducibility is decided by factoring over Z
(Zassenhaus), so it is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from sympy.polys.densearith import dup_mul, dup_rr_div
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_gcd
from sympy.polys.factortools import dup_factor_list, dup_zz_cyclotomic_poly
from sympy.polys.sqfreetools import dup_sqf_p

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

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def exact_div(self, divisor: "IntPolynomial"):
        """Exact quotient over Z, or None when the division does not come out even."""
        quot, rem = dup_rr_div(_dense(self), _dense(divisor), ZZ)
        return None if rem else IntPolynomial.from_coeffs(reversed(quot))

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
    gcd = dup_gcd(_dense(f), _dense(g), ZZ)
    return IntPolynomial.from_coeffs(reversed(gcd)).primitive_part()


def is_squarefree(f: IntPolynomial) -> bool:
    """True iff gcd(f, f') is constant."""
    return dup_sqf_p(_dense(f), ZZ)


@lru_cache(maxsize=None)
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


def check_irreducible(f: IntPolynomial) -> str:
    """Irreducibility over Q by exact factorization over Z (Zassenhaus):
    PROVEN when the primitive part of f is one irreducible factor of
    multiplicity 1, UNKNOWN for constant, reducible or non-squarefree f.
    """
    _, factors = dup_factor_list(_dense(f.primitive_part()), ZZ)
    return PROVEN if [m for _, m in factors] == [1] else UNKNOWN

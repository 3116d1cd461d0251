"""Exact integer polynomial algebra, Kronecker root-of-unity detection and
exact irreducibility over Q.

Polynomials are dense tuples of integer coefficients in ascending order,
``c_0 + c_1 x + ... + c_n x^n`` with ``c_n != 0``. Products, exact
division, cyclotomic polynomials, Euler's phi, and the squarefree and
irreducibility tests mod the primes 2-13 run on Python ints; those tests
settle most input, gcd(f, f') and Zassenhaus over Z the rest. Gcds are
primitive remainder sequences, and Zassenhaus is Berlekamp's factorization
mod the sieve prime with the fewest factors (past 13 only when no sieve
prime is usable), quadratic Hensel lifting and a search over factor
subsets, all on Python ints too, so this module never imports sympy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import NotSquarefree
from .padic import _is_prime


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
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

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


def _prem(a: list, b: list) -> list:
    """a mod b over Q (deg a >= deg b >= 1) times a nonzero rational, by
    fraction-free elimination of a's top terms; trimmed, content 1."""
    a, n, lb = list(a), len(b) - 1, b[-1]
    for i in range(len(a) - 1, n - 1, -1):
        if a[i]:
            d = math.gcd(lb, a[i])
            ua, ub = lb // d, a[i] // d
            a = [ua * c for c in a]
            for j, c in enumerate(b):
                a[i - n + j] -= ub * c
    a = a[:n]
    while a and not a[-1]:
        a.pop()
    g = math.gcd(*a)
    return [c // g for c in a]


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Z with positive leading coefficient, by the
    primitive remainder sequence of f and g."""
    a, b = list(f.primitive_part().coeffs), list(g.primitive_part().coeffs)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _prem(a, b)
    return IntPolynomial(tuple(a)).primitive_part() if not b else IntPolynomial((1,))


def is_squarefree(f: IntPolynomial) -> bool:
    """True iff gcd(f, f') is constant. True at once when f is squarefree
    mod a sieve prime p not dividing lc(f): then p does not divide
    Res(f, f'), so Res(f, f') != 0. poly_gcd decides otherwise."""
    if any(f.leading % p and _monic_sqf_p(f.coeffs, p) for p in _SIEVE_PRIMES):
        return True
    return f.is_constant() or poly_gcd(f, f.derivative()).is_constant()


def _prime_divisors(d: int) -> list[int]:
    """The distinct primes of d >= 1 in increasing order, by trial division."""
    primes, p = [], 2
    while p * p <= d:
        if d % p == 0:
            primes.append(p)
            while d % p == 0:
                d //= p
        p += 1
    return primes + [d] if d > 1 else primes


def _inflate(h: IntPolynomial, k: int) -> IntPolynomial:
    """h(x^k)."""
    coeffs = [0] * (h.degree * k + 1)
    coeffs[::k] = h.coeffs
    return IntPolynomial(tuple(coeffs))


@lru_cache(maxsize=None)
def euler_phi(d: int) -> int:
    if d < 1:
        raise ValueError("d must be positive")
    primes = _prime_divisors(d)
    return d // math.prod(primes) * math.prod(p - 1 for p in primes)


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial: h <- h(x^p) / h from h = x - 1 over
    the distinct primes p of d gives Phi_rad(d), and Phi_d = h(x^(d/rad d))."""
    if d < 1:
        raise ValueError("d must be positive")
    primes = _prime_divisors(d)
    h = IntPolynomial((-1, 1))
    for p in primes:
        h = _inflate(h, p).exact_div(h)
    return _inflate(h, d // math.prod(primes))


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

# Polynomials mod m are ascending lists of residues, trimmed; monic ones
# end in 1.


def _trim_mod(v: list, m: int) -> list:
    """v reduced mod m, trailing zeros dropped."""
    v = [c % m for c in v]
    while v and not v[-1]:
        v.pop()
    return v


def _rem_p(a: list, b: list, p: int) -> list:
    """a mod b over F_p, b monic."""
    a, m = list(a), len(b) - 1
    for i in range(len(a) - 1, m - 1, -1):
        q = a[i] % p
        if q:
            for j in range(m):
                a[i - m + j] -= q * b[j]
    return _trim_mod(a[:m], p)


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


def _frobenius(f: list, p: int) -> list:
    """The rows x^(ip) mod f over F_p, i < deg f, f monic: the matrix of
    v -> v^p on F_p[x]/(f)."""
    rows = [[1]]
    for _ in range(len(f) - 2):
        rows.append(_rem_p([0] * p + rows[-1], f, p))
    return rows


def _degree_set(c: tuple, p: int):
    """(mask, r, f, rows), p not dividing c[-1]: the degrees of products of
    the r irreducible factors mod p of f = c made monic mod p, as a bit
    mask, and f's _frobenius rows, which map x^(p^(d-1)) to x^(p^d); every
    degree and 0, None, None when f is not squarefree mod p.
    gcd(f, x^(p^d) - x) holds the factors of degree dividing d."""
    n, f = len(c) - 1, _monic_sqf_p(c, p)
    if f is None:
        return (1 << n + 1) - 1, 0, None, None
    rows = _frobenius(f, p)
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
    return mask | mask << rest, sum(found) + (rest > 0), f, rows


def check_irreducible(f: IntPolynomial) -> str:
    """Irreducibility over Q: PROVEN when the primitive part g of f is one
    irreducible factor of multiplicity 1, UNKNOWN for constant, reducible
    or non-squarefree f. If g = u*v over Z, deg u lies in _degree_set(g, p)
    for each prime p not dividing lc(g) (Gauss's lemma), so g is PROVEN once
    those sets meet only in {0, deg g} (Musser, J. ACM 25, 1978); otherwise
    Zassenhaus factors g over Z and gives the answer, mod the sieve prime
    with the fewest factors that keeps g squarefree.
    """
    g = f.primitive_part()
    n = g.degree
    allowed, proof = (1 << n + 1) - 1, 1 | 1 << n  # bit k: deg u = k is possible
    fewest, prime = n + 1, None
    for p in _SIEVE_PRIMES:
        if allowed == proof:
            break
        if g.leading % p:
            mask, r, fp, rows = _degree_set(g.coeffs, p)
            allowed &= mask
            if fp is not None and r < fewest:
                fewest, prime = r, (p, fp, rows)
    if n >= 1 and allowed == proof:
        return PROVEN
    return PROVEN if _irreducible_over_z(g, allowed, prime) else UNKNOWN


# --- Zassenhaus over Z ---------------------------------------------------------


def _mul_mod(a: list, b: list, m: int) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim_mod(out, m)


def _add_mod(a: list, b: list, m: int, sign: int = 1) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += sign * y
    return _trim_mod(out, m)


def _divmod_mod(a: list, b: list, m: int):
    """(q, r) with a = q*b + r mod m, b monic, deg r < deg b."""
    a, n = list(a), len(b) - 1
    q = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] % m
        if c:
            q[i - n] = c
            for j, y in enumerate(b):
                a[i - n + j] -= c * y
    return _trim_mod(q, m), _trim_mod(a[:n], m)


def _xgcd_p(a: list, b: list, p: int):
    """(s, t) with s*a + t*b = 1 mod p, for a and b coprime mod p."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        r1, s1, t1 = ([c * inv % p for c in v] for v in (r1, s1, t1))
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _add_mod(s0, _mul_mod(q, s1, p), p, -1)
        t0, t1 = t1, _add_mod(t0, _mul_mod(q, t1, p), p, -1)
    inv = pow(r0[0], -1, p)  # r0 is the constant gcd
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _berlekamp_basis(rows: list, p: int) -> list:
    """A basis of {v : v^p = v mod f} over F_p, from the _frobenius rows of
    f monic and squarefree mod p, the constant 1 first; its size is the
    number of f's irreducible factors mod p (Berlekamp, Bell Syst. Tech. J.
    46, 1967)."""
    n = len(rows)
    # (Q - I)^T, whose null space is the basis: column i holds x^(ip) - x^i
    a = [[(rows[i][j] if j < len(rows[i]) else 0) - (i == j) for i in range(n)] for j in range(n)]
    pivots, r = [], 0
    for c in range(n):
        k = next((k for k in range(r, n) if a[k][c] % p), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for k in range(n):
            if k != r and a[k][c] % p:
                e = a[k][c]
                a[k] = [(x - e * y) % p for x, y in zip(a[k], a[r])]
        pivots.append(c)
        r += 1
    basis = []
    for c in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[c] = 1
        for row, pc in zip(a, pivots):
            v[pc] = -row[c] % p
        basis.append(_trim_mod(v, p))
    return basis


def _berlekamp_split(f: list, basis: list, p: int) -> list:
    """The monic irreducible factors of f mod p: every basis vector v
    splits each factor h as the product of gcd(h, v - s), s in F_p."""
    factors = [f]
    for v in basis[1:]:
        if len(factors) == len(basis):
            break
        split = []
        for h in factors:
            if len(h) == 2:
                split.append(h)
                continue
            w = _rem_p(v, h, p) or [0]
            for s in range(p):
                d = _gcd_p(h, _add_mod(w, [s], p, -1), p)
                if len(d) > 1:
                    split.append(d)
        factors = split
    return factors


def _hensel_step(f, g, h, s, t, m):
    """f = g*h, s*g + t*h = 1 mod m (h monic, deg s < deg h, deg t < deg g)
    lifted to mod m^2 (von zur Gathen & Gerhard, Algorithm 15.10)."""
    mm = m * m
    e = _add_mod(f, _mul_mod(g, h, mm), mm, -1)
    q, r = _divmod_mod(_mul_mod(s, e, mm), h, mm)
    g = _add_mod(g, _add_mod(_mul_mod(t, e, mm), _mul_mod(q, g, mm), mm), mm)
    h = _add_mod(h, r, mm)
    b = _add_mod(_add_mod(_mul_mod(s, g, mm), _mul_mod(t, h, mm), mm), [1], mm, -1)
    c, d = _divmod_mod(_mul_mod(s, b, mm), h, mm)
    s = _add_mod(s, d, mm, -1)
    t = _add_mod(t, _add_mod(_mul_mod(t, b, mm), _mul_mod(c, g, mm), mm), mm, -1)
    return g, h, s, t


def _hensel_lift(f: list, factors: list, p: int, bound: int):
    """(lifts, m): monic u_i with f = lc(f) * prod u_i mod m, m = p^(2^k) >
    bound, from f's monic irreducible factors mod p, each split off in
    turn from the cofactor lifted before it."""
    lifts, rest = [], f
    for u in factors[:-1]:
        g, h, m = _divmod_mod(rest, u, p)[0], u, p
        s, t = _xgcd_p(g, h, p)
        while m <= bound:
            g, h, s, t = _hensel_step(rest, g, h, s, t, m)
            m *= m
        lifts.append(h)
        rest = g
    m = p
    while m <= bound:
        m *= m
    inv = pow(rest[-1], -1, m)
    lifts.append([c * inv % m for c in rest])
    return lifts, m


def _irreducible_over_z(g: IntPolynomial, allowed: int, prime) -> bool:
    """Zassenhaus's test for g primitive: irreducible unless some product of
    the Hensel-lifted factors mod p, of a degree in the bit mask allowed,
    gives a factor of g over Z. prime is (p, g monic mod p, its _frobenius
    rows); a sieve prime keeps g squarefree, so g is squarefree over Z. If
    None, gcd(g, g') decides that, and p is the first prime past 13 not
    dividing lc(g) that keeps g squarefree. Lifts go past twice lc(g) times
    the Landau-Mignotte bound 2^n sqrt(n + 1) max|g_i| on the coefficients
    of g's factors."""
    n, lc = g.degree, g.leading
    if prime is None:
        if n < 1 or not poly_gcd(g, g.derivative()).is_constant():
            return False
        p, f = _SIEVE_PRIMES[-1], None
        while f is None:
            p += 2
            f = _monic_sqf_p(g.coeffs, p) if _is_prime(p) and lc % p else None
        prime = p, f, _frobenius(f, p)
    p, f, rows = prime
    basis = _berlekamp_basis(rows, p)
    bound = 2 * lc * 2**n * (math.isqrt(n + 1) + 1) * max(abs(c) for c in g.coeffs)
    lifts, m = _hensel_lift(list(g.coeffs), _berlekamp_split(f, basis, p), p, bound)
    for size in range(1, len(lifts) // 2 + 1):
        for subset in combinations(lifts, size):
            if not allowed >> sum(len(u) - 1 for u in subset) & 1:
                continue
            prod = [lc % m]
            for u in subset:
                prod = _mul_mod(prod, u, m)
            u = IntPolynomial.from_coeffs(c - m if 2 * c > m else c for c in prod).primitive_part()
            if (g.constant % u.constant if u.constant else g.constant) == 0 and g.exact_div(u) is not None:
                return False
    return True

"""Independent oracles for the benchmark.

Nothing here imports padicorder: every check is computed from plain
integers, Fractions and complex floats, so a bug in the library cannot
hide itself by agreeing with its own oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

P61 = (1 << 61) - 1  # a Mersenne prime, for cheap modular disproofs


# --- integer polynomials (ascending coefficient tuples) ---------------------


def trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def primitive(coeffs) -> tuple[int, ...]:
    """Content 1 and positive leading coefficient."""
    c = trim(int(x) for x in coeffs)
    g = math.gcd(*c)
    sign = 1 if c[-1] > 0 else -1
    return tuple(sign * x // g for x in c)


def _rem_q(a, b):
    """Remainder of a by b over Q (lists of Fractions, nonzero b)."""
    r = list(a)
    while len(r) >= len(b) and any(r):
        q = r[-1] / b[-1]
        off = len(r) - len(b)
        for j, d in enumerate(b):
            r[off + j] -= q * d
        r.pop()
        r = trim(r) if r else [Fraction(0)]
    return r


def is_squarefree(coeffs) -> bool:
    """gcd(f, f') over Q is a constant."""
    a = [Fraction(x) for x in coeffs]
    if len(a) <= 2:
        return True
    b = [Fraction(i * x) for i, x in enumerate(coeffs)][1:]
    while any(b):
        a, b = b, _rem_q(a, b)
    return len(trim(a)) == 1


def _mulmod(a, b, f, m):
    """a*b mod the monic f, coefficients mod m (None: exact integers)."""
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            for j in range(n):
                prod[k - n + j] -= c * f[j]
        prod[k] = 0
    out = prod[:n] + [0] * (n - len(prod[:n]))
    return [x % m for x in out] if m else out


def _x_pow_is_one(k: int, f, m) -> bool:
    """x^k == 1 modulo the monic f (and modulo m unless m is None)."""
    n = len(f) - 1
    one = [1] + [0] * (n - 1)
    result, base = one, ([0, 1] + [0] * (n - 2) if n > 1 else [-f[0]])
    base = [x % m for x in base] if m else base
    while k:
        if k & 1:
            result = _mulmod(result, base, f, m)
        k >>= 1
        if k:
            base = _mulmod(base, base, f, m)
    return result == one


def euler_phi(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def max_root_of_unity_order(n: int) -> int:
    """lcm of every d with phi(d) <= n; any product of roots of unity of
    degree <= n has an order dividing it (phi(d) >= sqrt(d/2))."""
    return math.lcm(*(d for d in range(1, 2 * n * n + 3) if euler_phi(d) <= n))


def root_of_unity_order(coeffs):
    """Order of a squarefree polynomial's roots if all are roots of unity,
    else None; by the scalar-power test x^k == 1 mod f."""
    f = primitive(coeffs)
    if f[-1] != 1 or len(f) < 2:
        return None
    n_max = max_root_of_unity_order(len(f) - 1)
    if not _x_pow_is_one(n_max, f, P61):  # a modular disproof is a disproof
        return None
    if not _x_pow_is_one(n_max, f, None):
        return None
    k = n_max
    for q in _prime_factors(n_max):
        while k % q == 0 and _x_pow_is_one(k // q, f, None):
            k //= q
    return k


def cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d by exact division of x^d - 1 by Phi_e for proper divisors e."""
    f = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
    for e in range(1, d):
        if d % e == 0:
            g = [Fraction(x) for x in cyclotomic(e)]
            quot = [Fraction(0)] * (len(f) - len(g) + 1)
            for k in range(len(quot) - 1, -1, -1):
                quot[k] = f[k + len(g) - 1]
                for j, x in enumerate(g):
                    f[k + j] -= quot[k] * x
            f = quot
    return tuple(int(x) for x in f)


def newton_slopes(coeffs, p: int) -> list[Fraction]:
    """Slopes of the lower convex hull of (i, v_p(c_i))."""

    def v(c):
        k = 0
        while c % p == 0:
            c //= p
            k += 1
        return k

    pts = [(i, v(c)) for i, c in enumerate(coeffs) if c]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return [Fraction(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]


def complex_roots(coeffs, iters: int = 400) -> list[complex]:
    """All roots of an integer polynomial by Aberth iteration in floats."""
    c = [complex(x) for x in coeffs]
    n = len(c) - 1
    lead = c[-1]
    monic = [x / lead for x in c]
    radius = 1 + max(abs(x) for x in monic[:-1])

    def ev(z):
        val, der = 0j, 0j
        for a in reversed(monic):
            der = der * z + val
            val = val * z + a
        return val, der

    zs = [radius * complex(math.cos(2.4 * k + 0.3), math.sin(2.4 * k + 0.3)) for k in range(n)]
    for _ in range(iters):
        moved = 0.0
        for i, z in enumerate(zs):
            val, der = ev(z)
            if val == 0:
                continue
            ratio = val / der if der else val
            s = sum(1 / (z - w) for j, w in enumerate(zs) if j != i and z != w)
            step = ratio / (1 - ratio * s)
            zs[i] = z - step
            moved = max(moved, abs(step))
        if moved < 1e-15:
            break
    return zs


def box_min_mod_squared(re_lo, re_hi, im_lo, im_hi) -> Fraction:
    def nearest(lo, hi):
        return Fraction(0) if lo <= 0 <= hi else min(abs(lo), abs(hi))

    return nearest(re_lo, re_hi) ** 2 + nearest(im_lo, im_hi) ** 2


def box_holds_root(coeffs, box, tol: float = 1e-9) -> bool:
    re_lo, re_hi, im_lo, im_hi = (float(x) for x in box)
    for z in complex_roots(coeffs):
        slack = tol * max(1.0, abs(z))
        if re_lo - slack <= z.real <= re_hi + slack and im_lo - slack <= z.imag <= im_hi + slack:
            return True
    return False


# --- exact matrices ---------------------------------------------------------


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def mat_pow(a, e: int):
    n = len(a)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    while e:
        if e & 1:
            out = mat_mul(out, a)
        a = mat_mul(a, a)
        e >>= 1
    return out


def is_scalar(a) -> bool:
    d = a[0][0]
    return all(a[i][j] == (d if i == j else 0) for i in range(len(a)) for j in range(len(a)))


def is_least_scalar_power(m, k: int) -> bool:
    """M^k is scalar and no M^(k/q) is, for q prime: k is the least such."""
    if k < 1 or not is_scalar(mat_pow(m, k)):
        return False
    return not any(is_scalar(mat_pow(m, k // q)) for q in _prime_factors(k))


# --- Haar integrals ---------------------------------------------------------


def closed_form(density: str, p: int):
    """Known values of the integral of |f| over Z_p^n, or None."""
    unit = Fraction(p, p + 1)  # integral of |x| over Z_p
    return {"x": unit, "x1*x2": unit * unit, "x1*x2-x3": unit}.get(density)


def enumerate_integral(fn, p: int, n: int, depth: int):
    """Exhaustive residue enumeration mod p^depth of the integral of |f|
    over Z_p^n (criterion 2 of the acceptance gate, with m = 1).

    fn maps an integer point to an integer; classes where v_p(f) >= depth
    are left open and contribute [0, p^-depth] times their measure.
    """
    q = p**depth
    exact = Fraction(0)
    open_classes = 0
    counts = [0] * depth
    for idx in range(q**n):
        pt, r = [], idx
        for _ in range(n):
            r, a = divmod(r, q)
            pt.append(a)
        val = fn(pt) % q
        if val == 0:
            open_classes += 1
            continue
        v = 0
        while val % p == 0:
            val //= p
            v += 1
        counts[v] += 1
    for v, c in enumerate(counts):
        exact += Fraction(c, p**v)
    meas = Fraction(1, q**n)
    return exact * meas, (exact + Fraction(open_classes, q)) * meas

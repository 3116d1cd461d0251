"""Haar-measure computation and certified integration on p-adic polydiscs.

Regions are cylinders ``center + p^depth * Zp^n`` with the normalization
mu(Zp^n) = 1, so a depth-m cylinder has measure exactly p^(-m*n).
Densities are |f|^(1/m) for a rational-coefficient polynomial f; their
integrals are computed by residue-class subdivision on integers mod
p^depth and returned as certified rational enclosures.  Subtrees on which
v_p(f) is constant, or where grad f is a p-adic unit (Hensel's lemma), are
counted in closed form from Taylor's formula instead of being visited; see
integrate, which pushforward_cylinder_measure sums over residue classes.
The right side of the substitution identity, f(phi(x)) * det J(x)^m, and
the Jacobian determinant are built in sympy's sparse ring QQ[x1..xn],
imported only when change_of_variables_check needs it.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import DepthZero, MaxPrecisionExceeded, NonIntegralDensity, NonUnitJacobian
from .intervals import RationalInterval, p_power_enclosure
from .padic import rational_valuation, INF, _check_prime


# --- multivariate polynomials over Q ---------------------------------------


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial in n variables with exact rational coefficients."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @classmethod
    def from_dict(cls, nvars: int, d: dict) -> "MultiPoly":
        terms = tuple(
            sorted(
                ((tuple(e), Fraction(c)) for e, c in d.items() if c != 0),
                key=lambda t: t[0],
            )
        )
        for e, _ in terms:
            if len(e) != nvars or any(k < 0 for k in e):
                raise ValueError(f"bad exponent vector {e}")
        return cls(nvars, terms)

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls.from_dict(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return cls.from_dict(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def univariate(cls, coeffs) -> "MultiPoly":
        return cls.from_dict(1, {(i,): Fraction(c) for i, c in enumerate(coeffs)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __call__(self, point) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms:
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= Fraction(x) ** k
            total += v
        return total

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly.from_dict(self.nvars, {e: k * c for e, k in self.terms})

    def min_p_valuation(self, p: int):
        """min over coefficients of v_p; INF for the zero polynomial."""
        if self.is_zero:
            return INF
        return min(rational_valuation(c, p) for _, c in self.terms)


def _into_ring(r, f: MultiPoly):
    return r.from_dict({e: r.domain(c.numerator, c.denominator) for e, c in f.terms})


def _out_of_ring(nvars: int, g) -> MultiPoly:
    return MultiPoly.from_dict(
        nvars, {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in g.items()}
    )


def _ring_jacobian(phi: "PolyMap"):
    """phi's components and det J in sympy's sparse ring QQ[x1..xn]."""
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.rings import ring

    if phi.target_dim != phi.source_dim:
        raise ValueError("Jacobian determinant needs a square map")
    n = phi.source_dim
    r, *xs = ring([f"x{i + 1}" for i in range(n)], QQ)
    comps = [_into_ring(r, c) for c in phi.components]
    jac = [[c.diff(x) for x in xs] for c in comps]
    return comps, DomainMatrix(jac, (n, n), r.to_domain()).det()


# --- domain types -----------------------------------------------------------


@dataclass(frozen=True)
class Cylinder:
    """center + p^depth * Zp^dimension."""

    prime: int
    dimension: int
    center: tuple[Fraction, ...]
    depth: int

    def __post_init__(self):
        _check_prime(self.prime)
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        center = tuple(Fraction(c) for c in self.center)
        if len(center) != self.dimension:
            raise ValueError("center has wrong dimension")
        if any(c.denominator % self.prime == 0 for c in center):
            raise ValueError("center must be p-integral")
        object.__setattr__(self, "center", center)

    @classmethod
    def unit_polydisc(cls, p: int, n: int = 1) -> "Cylinder":
        return cls(p, n, (Fraction(0),) * n, 0)

    def measure(self) -> Fraction:
        if (bits := self.depth * self.dimension * self.prime.bit_length()) > _MAX_BITS:
            raise MaxPrecisionExceeded(f"measure needs numbers of {bits} bits, above {_MAX_BITS}")
        return Fraction(1, self.prime ** (self.depth * self.dimension))

    def children(self):
        """The p^n depth+1 sub-cylinders partitioning this one."""
        step = self.prime**self.depth
        for residues in itertools.product(range(self.prime), repeat=self.dimension):
            center = tuple(c + step * r for c, r in zip(self.center, residues))
            yield Cylinder(self.prime, self.dimension, center, self.depth + 1)


def cylinder_measure(c: Cylinder) -> Fraction:
    return c.measure()


@dataclass(frozen=True)
class PolyDensity:
    """The density |f|^(1/root_index); root_index 1 is the plain |f| case."""

    f: MultiPoly
    root_index: int = 1

    def __post_init__(self):
        if self.f.is_zero:
            raise ValueError("density polynomial must be nonzero")
        if self.root_index < 1:
            raise ValueError("root_index must be >= 1")


@dataclass(frozen=True)
class PolyMap:
    """A polynomial map Q^n -> Q^m given by its component polynomials."""

    components: tuple[MultiPoly, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty map")
        nv = self.components[0].nvars
        if any(c.nvars != nv for c in self.components):
            raise ValueError("components disagree on variable count")

    @property
    def source_dim(self) -> int:
        return self.components[0].nvars

    @property
    def target_dim(self) -> int:
        return len(self.components)

    @classmethod
    def identity(cls, n: int) -> "PolyMap":
        return cls(tuple(MultiPoly.variable(n, i) for i in range(n)))

    def __call__(self, point) -> tuple[Fraction, ...]:
        return tuple(c(point) for c in self.components)


# --- integration ------------------------------------------------------------


# integrate raises MaxPrecisionExceeded when a cylinder has more than _MAX_CHILDREN
# children (it lists them up front), when exact numbers would exceed _MAX_BITS
# bits (Cylinder.measure too), and when the walk would pass _MAX_CYLINDERS cylinders
_MAX_CHILDREN = 2**16
_MAX_BITS = 2**13
_MAX_CYLINDERS = 2**20


def _scale_bits(p: int, max_depth: int) -> int:
    # dyadic grid fine enough that kth-root enclosures err below p^-(D+2)
    return (max_depth + 2) * max(p.bit_length(), 1)


def integrate(
    d: PolyDensity, region: Cylinder, max_depth: int
) -> RationalInterval:
    """Certified enclosure of the integral of |f|^(1/m) over the region.

    f is scaled by p^t, t = max(0, -min v_p(coefficient)), and the integral
    by the enclosure of p^(t/m); then by the p-unit lcm of its denominators,
    which changes no valuation.  The walk runs on ints mod q = p^D, with the
    coefficients and the center (num * den^-1) reduced mod q; f(a') = f(a)
    mod q for a' = a mod q, so V = v_p(f(a)) is read exactly from the residue
    where it is below D, and residue 0 is read as V = D, meaning v_p >= D.

    The walk tallies, per valuation v < D, the exact measure of {v_p(f) = v}
    and, under key D, that of {v_p(f) >= D}; then each tally is weighted by
    the cached enclosure of p^(-v/m), the key-D one by [0, p^(-D/m)], and
    the weighted tallies are summed as ints over one denominator (the lcm
    of the enclosure denominators times p^(nD)): the same exact endpoints
    as a sum of one interval per tally.  A depth-k
    cylinder C = a + p^k Zp^n with V < k has v_p(f) = V on C.  For k >= 1,
    Taylor's formula for integer f gives f(a + p^k y) = f(a) + p^k grad f(a).y
    + p^(2k) * (integer polynomial); with w = min_i v_p(d_i f(a)), capped at
    D, and V >= k, C's subtree is counted in closed form in two cases:
    - constant: V < min(k + w, 2k), so v_p(f) = V on all of C;
    - smooth: w = 0, so f = p^k h with h of unit gradient, and by Hensel's
      lemma {v_p(h) >= i} has measure p^-i in C, for every i >= 0.
    Every other cylinder is split into its p^n children.  Each tally is an
    exact measure, so the endpoints equal those of a walk that visits every
    cylinder.  The _MAX_CYLINDERS cap is charged with the children that
    walk would create: sum_{j=k}^{min(V, D-1)} p^(n(j-k+1)) for a constant
    C, and sum_{j=k}^{D-1} p^(n(j-k+1)-(j-k)) for a smooth one.
    """
    p, m, n = region.prime, d.root_index, region.dimension
    if max_depth <= region.depth:
        raise DepthZero("max_depth must exceed the region depth")
    if d.f.nvars != n:
        raise NonIntegralDensity(f"density has {d.f.nvars} variables, region has {n}")
    if p**n > _MAX_CHILDREN:
        raise MaxPrecisionExceeded(f"{p}^{n} children per cylinder exceed {_MAX_CHILDREN}")
    bits = _scale_bits(p, max_depth)
    # the tallies are over p^(nD), and each m-th root enclosure takes bits * m
    need = n * max_depth * p.bit_length() + bits * m
    if need > _MAX_BITS:
        raise MaxPrecisionExceeded(f"integral needs numbers of {need} bits, above {_MAX_BITS}")
    t = max(0, -d.f.min_p_valuation(p))
    f = d.f.scale(Fraction(p) ** t)
    D, q = max_depth, p**max_depth
    lcm = math.lcm(*(c.denominator for _, c in f.terms))
    terms = [(e, c.numerator * (lcm // c.denominator) % q) for e, c in f.terms]
    polys = [terms] + [
        [(e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i] % q) for e, c in terms if e[i]]
        for i in range(n)
    ]
    # f and its partials as (coefficient, (index, power) pairs of the powers > 0)
    terms, *grads = [[(c, tuple((i, j) for i, j in enumerate(e) if j)) for e, c in g] for g in polys]

    def val(poly, a):  # v_p(poly(a)), capped at D
        value = 0
        for c, powers in poly:
            for i, j in powers:
                c *= pow(a[i], j, q)
            value += c
        value %= q
        if not value:
            return D
        v = 0
        while not value % p:
            value //= p
            v += 1
        return v

    center = tuple(c.numerator * pow(c.denominator, -1, q) % q for c in region.center)
    residues = list(itertools.product(range(p), repeat=n))
    offsets: dict = {}  # depth k -> the child offsets p^k * r
    tally: dict = defaultdict(int)  # valuation -> measure * p^(n*D)
    stack = [(center, region.depth)]
    cylinders = 0
    while stack:
        a, k = stack.pop()
        v = val(terms, a)
        if v < k or k == D:
            tally[v] += p ** (n * (D - k))
            continue
        w = min(val(g, a) for g in grads) if k else None  # depth 0 always splits
        if w is not None and v < min(k + w, 2 * k):  # constant
            tally[v] += p ** (n * (D - k))
            charge = sum(p ** (n * (j + 1)) for j in range(min(v, D - 1) - k + 1))
        elif w == 0:  # smooth
            for i in range(D - k):
                tally[k + i] += (p - 1) * p ** (n * (D - k) - i - 1)
            tally[D] += p ** ((n - 1) * (D - k))
            charge = sum(p ** (n * (j + 1) - j) for j in range(D - k))
        else:
            charge = len(residues)
            if k not in offsets:
                offsets[k] = [tuple(p**k * r for r in rs) for rs in residues]
            stack.extend((tuple(map(add, a, off)), k + 1) for off in offsets[k])
        cylinders += charge
        if cylinders > _MAX_CYLINDERS:
            raise MaxPrecisionExceeded(f"integral subdivides past {_MAX_CYLINDERS} cylinders")
    encs = [(count, p_power_enclosure(p, Fraction(-v, m), bits), v) for v, count in tally.items()]
    den = math.lcm(*(x.denominator for _, e, _ in encs for x in (e.lo, e.hi)))
    lo = sum(count * e.lo.numerator * (den // e.lo.denominator) for count, e, v in encs if v < D)
    hi = sum(count * e.hi.numerator * (den // e.hi.denominator) for count, e, _ in encs)
    den *= p ** (n * D)  # the tallies are measures times p^(nD)
    s = p_power_enclosure(p, Fraction(t, m), bits)
    return RationalInterval(Fraction(lo, den) * s.lo, Fraction(hi, den) * s.hi)


def pushforward_cylinder_measure(
    pi: PolyMap, base_cyl: Cylinder, d: PolyDensity, max_depth: int
) -> RationalInterval:
    """Enclosure of the integral of the density over pi^(-1)(base) inter Zp^n.

    For p-integral components, pi(x) = pi(a) mod p^b on a source cylinder
    a + p^b Zp^n, b the base depth, so each of its p^(n*b) residue classes
    lies wholly inside or outside the preimage: one pass sums integrate
    over those inside, and more than _MAX_CYLINDERS classes raise
    MaxPrecisionExceeded.
    """
    p, n, b = base_cyl.prime, pi.source_dim, base_cyl.depth
    if pi.target_dim != base_cyl.dimension:
        raise ValueError("map target dimension does not match base cylinder")
    if any(c.min_p_valuation(p) < 0 for c in pi.components):
        raise NonIntegralDensity("map components must be p-integral")
    if n * b > 20 or p ** (n * b) > _MAX_CYLINDERS:  # n*b > 20 gives 2^(n*b) > 2^20
        raise MaxPrecisionExceeded(f"{p}^{n * b} source cylinders exceed {_MAX_CYLINDERS}")
    total = RationalInterval.point(0)
    for a in itertools.product(range(p**b), repeat=n):
        if all(rational_valuation(y - c, p) >= b for y, c in zip(pi(a), base_cyl.center)):
            total = total + integrate(d, Cylinder(p, n, a, b), max_depth)
    return total


def _measure_preserving(phi: PolyMap, det, p: int) -> bool:
    """Sufficient condition for phi, with det J the ring element det, to be
    a measure-preserving bijection of Zp^n: p-integral coefficients, every
    coefficient of total degree >= 2 in pZp, and det J(0), the determinant
    of the linear part, a p-adic unit.  Then every non-constant coefficient
    of det J lies in pZp, so |det J| = 1 on Zp^n.  Rejects some valid maps,
    accepts no invalid one.
    """
    det0 = det.coeff(1)  # the constant term, det J(0)
    for comp in phi.components:
        for e, c in comp.terms:
            v = rational_valuation(c, p)
            if v < 0 or (v < 1 and sum(e) >= 2):
                return False
    return rational_valuation(Fraction(int(det0.numerator), int(det0.denominator)), p) == 0


def change_of_variables_check(
    phi: PolyMap, d: PolyDensity, p: int, max_depth: int
):
    """Compare both sides of the substitution identity on the unit polydisc.

    Left side integrates the density over phi(Zp^n) = Zp^n; the right
    side integrates |f(phi(x))|^(1/m) * |det J(x)| over Zp^n, realized as
    the single density |f(phi(x)) * det J(x)^m|^(1/m).  Returns
    (overlap, left interval, right interval).
    """
    n = phi.source_dim
    comps, det = _ring_jacobian(phi)
    if not _measure_preserving(phi, det, p):
        raise NonUnitJacobian(
            "map does not satisfy the unit-Jacobian sufficient condition"
        )
    region = Cylinder.unit_polydisc(p, n)
    lhs = integrate(d, region, max_depth)
    m = d.root_index
    composed = _into_ring(det.ring, d.f).compose(list(zip(det.ring.gens, comps)))
    rhs_poly = _out_of_ring(n, composed * det**m)
    rhs = integrate(PolyDensity(rhs_poly, m), region, max_depth)
    return lhs.intersects(rhs), lhs, rhs


def scaling_law_check(
    c, d: PolyDensity, region: Cylinder, max_depth: int
):
    """Check integrate(|c*f|^(1/m)) against |c|_p^(1/m) * integrate(|f|^(1/m)).

    Returns (overlap, scaled-direct interval, scaled-reference interval).
    """
    c = Fraction(c)
    if c == 0:
        raise ValueError("scalar must be nonzero")
    p, m = region.prime, d.root_index
    lhs = integrate(PolyDensity(d.f.scale(c), m), region, max_depth)
    base = integrate(d, region, max_depth)
    factor = p_power_enclosure(
        p, Fraction(-rational_valuation(c, p), m), _scale_bits(p, max_depth)
    )
    rhs = base * factor
    return lhs.intersects(rhs), lhs, rhs

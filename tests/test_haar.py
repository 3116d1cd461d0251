"""Haar integration: cylinder law, residue-enumeration oracle, closed
forms, pushforward, change of variables, scaling."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from padicorder import (
    Cylinder,
    DepthZero,
    MaxPrecisionExceeded,
    MultiPoly,
    NonUnitJacobian,
    PolyDensity,
    PolyMap,
    RationalInterval,
    change_of_variables_check,
    cylinder_measure,
    integrate,
    pushforward_cylinder_measure,
    rational_valuation,
    scaling_law_check,
)
from padicorder import haar

X = MultiPoly.univariate([Fraction(0), Fraction(1)])


def brute_force_interval(f, p, depth, m=1):
    """Independent oracle: enumerate all residues mod p^depth.

    For v_p(f(a)) < depth the cell value p^(-v/m) is enclosed with an
    integer-sqrt enclosure written here from scratch; unresolved cells
    contribute [0, p^(-depth/m)] times their measure.
    """

    def enclose(v):
        # enclosure of p^(-v/m) for integer v (m in {1, 2})
        if m == 1:
            x = Fraction(p) ** (-v)
            return x, x
        q, r = divmod(-v, 2)
        if r == 0:
            x = Fraction(p) ** q
            return x, x
        # p^q * sqrt(p) via isqrt on a 2^80 grid
        scale = 1 << 80
        lo = math.isqrt(p * scale * scale)
        return (
            Fraction(p) ** q * Fraction(lo, scale),
            Fraction(p) ** q * Fraction(lo + 1, scale),
        )

    meas = Fraction(1, p**depth)
    lo = hi = Fraction(0)
    for a in range(p**depth):
        v = rational_valuation(f(Fraction(a)), p)
        if v != float("inf") and v < depth:
            vlo, vhi = enclose(v)
            lo += vlo * meas
            hi += vhi * meas
        else:
            hi += enclose(depth)[1] * meas
    return lo, hi


def test_cylinder_measure_law():
    for p in (2, 3, 5, 7):
        for m in range(9):
            c = Cylinder(p, 1, (Fraction(0),), m)
            assert cylinder_measure(c) == Fraction(1, p**m)
        for n in (1, 2, 3):
            c = Cylinder(p, n, (Fraction(0),) * n, 2)
            assert cylinder_measure(c) == Fraction(1, p ** (2 * n))


def test_children_partition_measure():
    c = Cylinder.unit_polydisc(3, 2)
    kids = list(c.children())
    assert len(kids) == 9
    assert sum(cylinder_measure(k) for k in kids) == cylinder_measure(c)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "coeffs,m",
    [
        ([0, 1], 1),  # |x|
        ([-1, 1], 1),  # |x - 1|
        ([-1, 0, 1], 1),  # |x^2 - 1|
        ([0, 1], 2),  # |x|^(1/2)
    ],
)
def test_integrate_vs_residue_enumeration(p, coeffs, m):
    depth = 6
    f = MultiPoly.univariate([Fraction(c) for c in coeffs])
    lib = integrate(PolyDensity(f, m), Cylinder.unit_polydisc(p), depth)
    lo, hi = brute_force_interval(lambda x: f((x,)), p, depth, m)
    assert lib.intersects(RationalInterval(lo, hi))
    assert lib.width <= Fraction(1, p**depth) + Fraction(1, 2**60)
    if m == 1:
        assert lib.lo == lo and lib.hi == hi  # identical resolution rule


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closed_form_abs_x(p):
    lib = integrate(PolyDensity(X, 1), Cylinder.unit_polydisc(p), 12)
    assert lib.contains(Fraction(p, p + 1))
    assert lib.width <= Fraction(1, p**12)


def test_closed_form_sqrt_abs_x():
    # int |x|^(1/2) dx = (1 - 1/p) / (1 - p^(-3/2)); check at p=3 numerically.
    lib = integrate(PolyDensity(X, 2), Cylinder.unit_polydisc(3), 14)
    target = (1 - 1 / 3) / (1 - 3 ** (-1.5))
    assert float(lib.lo) <= target <= float(lib.hi)
    assert lib.width < Fraction(1, 3**6)


def test_monotone_refinement_in_depth():
    d = PolyDensity(X, 1)
    region = Cylinder.unit_polydisc(3)
    prev = integrate(d, region, 2)
    for depth in (4, 6, 8):
        cur = integrate(d, region, depth)
        assert prev.contains_interval(cur)
        prev = cur


def test_countable_additivity_over_children():
    d = PolyDensity(X, 1)
    total = integrate(d, Cylinder.unit_polydisc(5), 6)
    parts = RationalInterval.point(0)
    for child in Cylinder.unit_polydisc(5).children():
        parts = parts + integrate(d, child, 6)
    assert parts.lo == total.lo and parts.hi == total.hi


def test_non_integral_density_scaling():
    # |x/9| = |x| / 9 at p=3: denominators cleared and rescaled exactly.
    d = PolyDensity(MultiPoly.univariate([Fraction(0), Fraction(1, 9)]), 1)
    lib = integrate(d, Cylinder.unit_polydisc(3), 10)
    ref = integrate(PolyDensity(X, 1), Cylinder.unit_polydisc(3), 10)
    assert lib.intersects(ref.scale(Fraction(9)))


def test_depth_zero_rejected():
    with pytest.raises(DepthZero):
        integrate(PolyDensity(X, 1), Cylinder.unit_polydisc(3), 0)


def test_pushforward_square_map():
    """mu(x^2 in 1 + 3Z_3) = 2/3: the squares hitting 1 mod 3 are the
    units with residue 1 or 2."""
    pi = PolyMap((MultiPoly.univariate([Fraction(0), Fraction(0), Fraction(1)]),))
    base = Cylinder(3, 1, (Fraction(1),), 1)
    one = PolyDensity(MultiPoly.constant(1, Fraction(1)), 1)
    out = pushforward_cylinder_measure(pi, base, one, 6)
    assert out.contains(Fraction(2, 3))
    assert out.width == 0


def test_pushforward_identity_consistency():
    pi = PolyMap.identity(1)
    base = Cylinder(5, 1, (Fraction(2),), 1)
    d = PolyDensity(X, 1)
    via_push = pushforward_cylinder_measure(pi, base, d, 8)
    direct = integrate(d, base, 8)
    assert via_push.intersects(direct)


@pytest.mark.parametrize("p", [2, 3])
def test_change_of_variables_translation_and_unit(p):
    # phi(x) = u*x + c with u a unit: exact measure preservation.
    phi = PolyMap((MultiPoly.univariate([Fraction(1), Fraction(p + 1)]),))
    d = PolyDensity(X, 1)
    overlap, lhs, rhs = change_of_variables_check(phi, d, p, 8)
    assert overlap


def test_change_of_variables_nonlinear():
    # phi(x) = x + 3x^2 at p=3 satisfies the unit-Jacobian condition.
    phi = PolyMap(
        (MultiPoly.univariate([Fraction(0), Fraction(1), Fraction(3)]),)
    )
    overlap, lhs, rhs = change_of_variables_check(phi, PolyDensity(X, 1), 3, 8)
    assert overlap


def test_change_of_variables_identity_exact():
    phi = PolyMap.identity(1)
    overlap, lhs, rhs = change_of_variables_check(phi, PolyDensity(X, 1), 3, 8)
    assert overlap and lhs.lo == rhs.lo and lhs.hi == rhs.hi


def test_change_of_variables_rejects_non_unit_jacobian():
    phi = PolyMap((MultiPoly.univariate([Fraction(0), Fraction(3)]),))  # x -> 3x
    with pytest.raises(NonUnitJacobian):
        change_of_variables_check(phi, PolyDensity(X, 1), 3, 6)


def test_scaling_law():
    region = Cylinder.unit_polydisc(3)
    for c in (Fraction(3), Fraction(1, 3), Fraction(2), Fraction(9, 2)):
        overlap, lhs, rhs = scaling_law_check(c, PolyDensity(X, 1), region, 8)
        assert overlap
    overlap, _, _ = scaling_law_check(
        Fraction(5), PolyDensity(X, 2), Cylinder.unit_polydisc(5), 8
    )
    assert overlap


# Endpoints written by the recursive per-cylinder interval sum that the
# per-valuation tally replaced; the tally must reproduce them exactly.
GOLDEN = [
    ("x", 1, 3, 12, 1, "70607384120/94143178827", "211822152361/282429536481"),
    ("x1*x2", 2, 2, 8, 1, "7281/16384", "29129/65536"),
    ("x1^2-x2^3", 2, 3, 6, 1, "388732/531441", "1166207/1594323"),
    ("x1*x2-x3", 3, 5, 2, 1, "104/125", "521/625"),
    ("x", 1, 3, 8, 2, "25557651121/30958682112", "230019450797/278628139008"),
    ("x/9 + 1/3", 1, 3, 6, 1, "132860/19683", "398581/59049"),
    ("x1*x2/4 - x1/2", 2, 2, 6, 2, "2485267/2097152", "1259031/1048576"),
]


@pytest.mark.parametrize("text,n,p,depth,m,lo,hi", GOLDEN)
def test_integrate_golden_endpoints(text, n, p, depth, m, lo, hi):
    from padicorder.parsing import parse_multipoly

    f = parse_multipoly(text, n)
    lib = integrate(PolyDensity(f, m), Cylinder.unit_polydisc(p, n), depth)
    assert (lib.lo, lib.hi) == (Fraction(lo), Fraction(hi))


def test_integrate_deep_subdivision():
    # the walk keeps its own stack, so depth is not bounded by recursion
    lib = integrate(PolyDensity(X, 1), Cylinder.unit_polydisc(3), 1100)
    assert lib.contains(Fraction(3, 4))
    assert 0 < lib.width <= Fraction(1, 3**1100)


def _poly2(d):
    return MultiPoly.from_dict(2, {e: Fraction(c) for e, c in d.items()})


def test_change_of_variables_2d_unit_linear_part():
    # linear part [[1, 2], [1, 1]] has det -1; quadratic terms lie in 3Z_3
    phi = PolyMap(
        (
            _poly2({(1, 0): 1, (0, 1): 2, (2, 0): 3}),
            _poly2({(1, 0): 1, (0, 1): 1, (1, 1): -6, (0, 0): 1}),
        )
    )
    d = PolyDensity(_poly2({(1, 1): 1}), 1)
    overlap, lhs, rhs = change_of_variables_check(phi, d, 3, 4)
    assert overlap


@pytest.mark.parametrize(
    "phi",
    [
        # x + x^2 at p=3: the quadratic coefficient is a unit
        PolyMap((MultiPoly.univariate([Fraction(0), Fraction(1), Fraction(1)]),)),
        # linear part [[1, 1], [1, 4]], det 3 = 0 mod 3
        PolyMap((_poly2({(1, 0): 1, (0, 1): 1}), _poly2({(1, 0): 1, (0, 1): 4}))),
    ],
)
def test_change_of_variables_rejects(phi):
    d = PolyDensity(MultiPoly.variable(phi.source_dim, 0), 1)
    with pytest.raises(NonUnitJacobian):
        change_of_variables_check(phi, d, 3, 4)


def test_change_of_variables_builds_jacobian_once(monkeypatch):
    from padicorder import haar

    calls = []
    real = haar._ring_jacobian
    monkeypatch.setattr(haar, "_ring_jacobian", lambda phi: calls.append(phi) or real(phi))
    # x -> (x1 + 3 x2^2, x2 + 3 x1 x3, x3 - x1): unit linear part at p = 3
    phi = PolyMap(
        tuple(
            MultiPoly.from_dict(3, {e: Fraction(c) for e, c in d.items()})
            for d in (
                {(1, 0, 0): 1, (0, 2, 0): 3},
                {(0, 1, 0): 1, (1, 0, 1): 3},
                {(0, 0, 1): 1, (1, 0, 0): -1},
            )
        )
    )
    overlap, _, _ = change_of_variables_check(phi, PolyDensity(MultiPoly.variable(3, 0), 1), 3, 2)
    assert overlap and len(calls) == 1


def test_change_of_variables_non_square_map_raises_value_error():
    phi = PolyMap((_poly2({(1, 0): 1}), _poly2({(0, 1): 1}), _poly2({(1, 1): 3})))
    with pytest.raises(ValueError):
        change_of_variables_check(phi, PolyDensity(_poly2({(1, 0): 1}), 1), 3, 4)


# Endpoints written by the walk on rational cylinder centers that the walk
# on integer residues mod p^D replaced: rational centers with p-unit
# denominators, regions of depth >= 1, m = 3, p in a denominator.
GOLDEN_REGIONS = [
    ("x1*x2 - 1", 2, 5, ("1/2", "2/3"), 0, 4, 1, "338541/390625", "1692709/1953125"),
    ("x^2 - 1/4", 1, 3, ("1/2",), 1, 8, 1, "1195742/14348907", "3587227/43046721"),
    ("x1*x2 - 6/35", 2, 3, ("2/7", "3/5"), 2, 6, 2, "136759/40310784", "9863167/2902376448"),
    ("x1^2-x2^3", 2, 2, ("0", "0"), 0, 6, 3, "1646821/2097152", "6669251/8388608"),
    ("x^3 - 2", 1, 3, ("5/4",), 1, 9, 3, "969389/4194304", "363521/1572864"),
    ("x1^2/27 - x2/3", 2, 3, ("3/2", "1/4"), 1, 5, 1, "121/729", "365/2187"),
    (
        "x^2/5 - 4/5", 1, 5, ("2/11",), 1, 6, 2,
        "193201298087306439/1099511627776000000",
        "754697603335650037/4294967296000000000",
    ),
    ("x1*x2-x3", 3, 5, ("0", "0", "0"), 0, 3, 1, "2604/3125", "13021/15625"),
]


@pytest.mark.parametrize("text,n,p,center,rdepth,depth,m,lo,hi", GOLDEN_REGIONS)
def test_integrate_golden_endpoints_on_regions(text, n, p, center, rdepth, depth, m, lo, hi):
    from padicorder.parsing import parse_multipoly

    region = Cylinder(p, n, tuple(Fraction(c) for c in center), rdepth)
    lib = integrate(PolyDensity(parse_multipoly(text, n), m), region, depth)
    assert (lib.lo, lib.hi) == (Fraction(lo), Fraction(hi))


def test_integrate_input_checks():
    from padicorder import NonIntegralDensity

    region = Cylinder(3, 1, (Fraction(1, 2),), 2)
    with pytest.raises(DepthZero):
        integrate(PolyDensity(X, 1), region, 2)
    with pytest.raises(NonIntegralDensity):
        integrate(PolyDensity(MultiPoly.variable(2, 0), 1), region, 4)
    with pytest.raises(ValueError, match="p-integral"):
        Cylinder(3, 1, (Fraction(1, 3),), 1)


def test_integrate_refuses_too_many_children_per_cylinder(deadline):
    # listing the 2^17 children of one cylinder would take seconds and
    # tens of MB; they are refused before any of them is built
    with deadline(1), pytest.raises(MaxPrecisionExceeded, match="children"):
        integrate(PolyDensity(MultiPoly.variable(17, 0), 1), Cylinder.unit_polydisc(2, 17), 2)


def test_integrate_caps_raise_max_precision_exceeded(monkeypatch):
    with pytest.raises(MaxPrecisionExceeded, match="bits"):
        integrate(PolyDensity(X, 1), Cylinder.unit_polydisc(2, 1), 8000)
    monkeypatch.setattr(haar, "_MAX_CYLINDERS", 64)
    with pytest.raises(MaxPrecisionExceeded, match="cylinders"):
        integrate(PolyDensity(X, 1), Cylinder.unit_polydisc(2, 1), 100)


# --- the substitution identity's right side, checked pointwise ---------------


def _random_poly(rng, n, degree, coeff):
    d = {}
    for _ in range(rng.randint(1, 4)):
        e = [0] * n
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(n)] += 1
        d[tuple(e)] = d.get(tuple(e), 0) + coeff(sum(e))
    return MultiPoly.from_dict(n, d)


def _measure_preserving_map(rng, n, p):
    """Unit linear part mod p, degree-2 terms in pZ, integer constants."""
    while True:
        lin = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if _det_by_hand(lin) % p:
            break
    comps = []
    for row in lin:
        d = {(0,) * n: rng.randint(-2, 2)}
        d.update({tuple(int(i == j) for i in range(n)): c for j, c in enumerate(row)})
        extra = _random_poly(rng, n, 2, lambda deg: p * rng.randint(-2, 2) if deg >= 2 else 0)
        for e, c in extra.terms:
            d[e] = d.get(e, 0) + c
        comps.append(MultiPoly.from_dict(n, d))
    return PolyMap(tuple(comps))


def _jacobian_by_hand(phi, a):
    """d phi_i / d x_j at the point a, each monomial differentiated by hand."""
    rows = []
    for comp in phi.components:
        row = []
        for j in range(len(a)):
            total = Fraction(0)
            for e, c in comp.terms:
                if e[j]:
                    term = c * e[j]
                    for i, (x, k) in enumerate(zip(a, e)):
                        term *= x ** (k - (i == j))
                    total += term
            row.append(total)
        rows.append(row)
    return rows


def _det_by_hand(m):
    """Exact determinant of a 1x1, 2x2 or 3x3 matrix."""
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _random_point(rng, n):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))


def test_change_of_variables_right_side_pointwise(monkeypatch):
    import padicorder.haar as haar

    densities = []

    def record(d, region, max_depth):
        densities.append(d)
        return RationalInterval.point(0)

    monkeypatch.setattr(haar, "integrate", record)
    rng = random.Random("cov-pointwise")
    for _ in range(60):
        n, p, m = rng.randint(1, 3), rng.choice([2, 3, 5]), rng.randint(1, 2)
        phi = _measure_preserving_map(rng, n, p)
        f = _random_poly(rng, n, 2, lambda deg: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) or 1)
        densities.clear()
        change_of_variables_check(phi, PolyDensity(f, m), p, 2)
        lhs, rhs = densities
        assert lhs == PolyDensity(f, m) and rhs.root_index == m
        for _ in range(3):
            a = _random_point(rng, n)
            det = _det_by_hand(_jacobian_by_hand(phi, a))
            assert rhs.f(a) == f(phi(a)) * det**m


def test_jacobian_det_pointwise():
    rng = random.Random("jacobian-pointwise")
    for _ in range(100):
        n = rng.randint(1, 3)
        phi = PolyMap(
            tuple(
                _random_poly(rng, n, 3, lambda deg: Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                for _ in range(n)
            )
        )
        jac = haar._out_of_ring(n, haar._ring_jacobian(phi)[1])
        assert isinstance(jac, MultiPoly) and jac.nvars == n
        for _ in range(3):
            a = _random_point(rng, n)
            assert jac(a) == _det_by_hand(_jacobian_by_hand(phi, a))


# --- closed-form subtrees against the walk that visits every cylinder --------


def plain_walk(d, region, max_depth):
    """integrate's walk before it counted constant and smooth subtrees in
    closed form: every cylinder with v_p(f(center)) >= depth is split, up to
    max_depth.  Returns (endpoints, number of children it created)."""
    p, m, n = region.prime, d.root_index, region.dimension
    bits = haar._scale_bits(p, max_depth)
    t = max(0, -d.f.min_p_valuation(p))
    f = d.f.scale(Fraction(p) ** t)
    q = p**max_depth
    lcm = math.lcm(*(c.denominator for _, c in f.terms))
    terms = [(e, c.numerator * (lcm // c.denominator) % q) for e, c in f.terms]
    center = tuple(c.numerator * pow(c.denominator, -1, q) % q for c in region.center)
    residues = list(itertools.product(range(p), repeat=n))
    tally, cylinders = {}, 0
    stack = [(center, region.depth)]
    while stack:
        a, k = stack.pop()
        value = sum(c * math.prod(pow(x, j, q) for x, j in zip(a, e)) for e, c in terms) % q
        v = haar.padic_valuation(value, p) if value else None
        if v is None or v >= k:
            if k < max_depth:
                cylinders += len(residues)
                stack.extend((tuple(x + p**k * r for x, r in zip(a, rs)), k + 1) for rs in residues)
                continue
            v = None
        tally[v] = tally.get(v, 0) + p ** (n * (max_depth - k))
    total = RationalInterval.point(0)
    for v, count in tally.items():
        mu = Fraction(count, p ** (n * max_depth))
        e = haar.p_power_enclosure(p, Fraction(-(max_depth if v is None else v), m), bits)
        total = total + RationalInterval(0 if v is None else e.lo * mu, e.hi * mu)
    total = total * haar.p_power_enclosure(p, Fraction(t, m), bits)
    return (total.lo, total.hi), cylinders


def _oracle_cases():
    """1,200 seeded draws, 1,197 of them nonzero densities: n <= 3, p in
    {2, 3, 5}, m in {1, 2, 3}, region depth 0-2, rational centers, p in
    coefficient denominators; the depth keeps the full tree below the
    region within 2^13 cylinders."""
    rng = random.Random("haar-closed-form")
    for _ in range(1200):
        n, p, m = rng.randint(1, 3), rng.choice([2, 3, 5]), rng.randint(1, 3)
        rdepth = rng.randint(0, 2)
        depth = rdepth + rng.randint(1, min(12, max(1, int(13 / (n * math.log2(p))))))
        dens = [1, 2, 3, p, p * p]
        f = _random_poly(rng, n, 3, lambda deg: Fraction(rng.randint(-6, 6), rng.choice(dens)) or 1)
        units = [u for u in (1, 2, 3, 7) if u % p]
        center = tuple(Fraction(rng.randint(-20, 20), rng.choice(units)) for _ in range(n))
        if not f.is_zero:
            yield PolyDensity(f, m), Cylinder(p, n, center, rdepth), depth


def _assert_matches_plain_walk(monkeypatch, d, region, depth, ends, count):
    """The plain walk's endpoints, and the cylinder cap charged with exactly
    the plain walk's count: its count passes, one fewer is refused."""
    monkeypatch.setattr(haar, "_MAX_CYLINDERS", count)
    iv = integrate(d, region, depth)
    assert (iv.lo, iv.hi) == ends
    if count:
        monkeypatch.setattr(haar, "_MAX_CYLINDERS", count - 1)
        with pytest.raises(MaxPrecisionExceeded, match=f"past {count - 1} cylinders"):
            integrate(d, region, depth)


def test_integrate_equals_plain_walk_on_random_cases(monkeypatch):
    cases = list(_oracle_cases())
    assert len(cases) >= 1000
    for d, region, depth in cases:
        _assert_matches_plain_walk(monkeypatch, d, region, depth, *plain_walk(d, region, depth))


# the benchmark's densities at its primes and depths, on seeded centers
BENCH_DENSITIES = [
    ({(1,): 1}, 3, 12),
    ({(1, 1): 1}, 2, 8),
    ({(2, 0): 1, (0, 3): -1}, 3, 6),
    ({(1, 1, 0): 1, (0, 0, 1): -1}, 5, 2),
]


@pytest.mark.parametrize("terms, p, depth", BENCH_DENSITIES)
def test_integrate_equals_plain_walk_on_bench_densities(monkeypatch, terms, p, depth):
    n = len(next(iter(terms)))
    rng = random.Random(f"haar-bench-{p}-{depth}")
    f = MultiPoly.from_dict(n, terms)
    for _ in range(3):
        center = tuple(rng.randrange(1, p**depth) for _ in range(n))
        d, region = PolyDensity(f, 1), Cylinder(p, n, center, 0)
        _assert_matches_plain_walk(monkeypatch, d, region, depth, *plain_walk(d, region, depth))


def test_cylinder_cap_boundary_on_smooth_subtrees(monkeypatch):
    """Both densities reach the smooth rule below the root: x has a unit
    derivative, and x1*x2 - x3 a unit x3-derivative everywhere."""
    d, region = PolyDensity(X, 1), Cylinder.unit_polydisc(2)
    _assert_matches_plain_walk(monkeypatch, d, region, 100, *plain_walk(d, region, 100))
    # x1*x2 - x3 at p = 5, depth 4: the plain walk splits, at each depth j,
    # the 5^(2j) cylinders where f = 0 mod 5^j, into 5^3 children each, so it
    # creates 5^3 + 5^5 + 5^7 + 5^9 of them; plain_walk counts them in 10 s.
    # f is a submersion, so it pushes Haar measure forward to Haar measure:
    # the same tallies, hence endpoints, as |x| on Z_5
    ends, _ = plain_walk(PolyDensity(X, 1), Cylinder.unit_polydisc(5), 4)
    d = PolyDensity(MultiPoly.from_dict(3, {(1, 1, 0): 1, (0, 0, 1): -1}), 1)
    _assert_matches_plain_walk(monkeypatch, d, Cylinder.unit_polydisc(5, 3), 4, ends, 2_034_500)

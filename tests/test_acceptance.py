"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
printed ledger lines).  Every oracle here is computed independently of
the code under test: closed forms, exhaustive residue enumeration,
rational bisection, and exact scalar-power checks.
"""

import math
import random
import time
from fractions import Fraction

from padicorder import (
    AlgebraicNumberSpec,
    Cylinder,
    IntPolynomial,
    MultiPoly,
    PPower,
    PolyDensity,
    PolyMap,
    RationalInterval,
    RootOfUnity,
    Witness,
    change_of_variables_check,
    certify_diagonal,
    cyclotomic,
    cylinder_measure,
    euler_phi,
    find_witness,
    integrate,
    is_algebraic_integer,
    product_formula_check,
    projective_order,
    rational_valuation,
    root_of_unity_order,
    sphere_measure,
    verify_shell_tiling,
    verify_witness_certificate,
)
from padicorder.cli import main as cli_main
from padicorder.projaut import identity_matrix, is_scalar_matrix, mat_pow

LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


def report(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_criterion_01_haar_normalization():
    """cylinder_measure = p^(-m) and p^(-mn) exactly; runtime < 1 s."""
    t0 = time.time()
    for p in (2, 3, 5, 7):
        for m in range(9):
            c = Cylinder(p, 1, (Fraction(0),), m)
            assert cylinder_measure(c) == Fraction(1, p**m)
        for n in (1, 2, 3):
            for m in range(5):
                c = Cylinder(p, n, (Fraction(0),) * n, m)
                assert cylinder_measure(c) == Fraction(1, p ** (m * n))
    assert time.time() - t0 < 1.0
    report(1, "cylinder measure p^(-mn) exact for p in {2,3,5,7}, n <= 3")


def _brute(fcall, p, depth, m):
    """Exhaustive residue enumeration oracle with inline sqrt enclosure."""

    def enclose(v):
        if m == 1:
            x = Fraction(p) ** (-v)
            return x, x
        q, r = divmod(-v, 2)
        if r == 0:
            return Fraction(p) ** q, Fraction(p) ** q
        scale = 1 << 80
        s = math.isqrt(p * scale * scale)
        return Fraction(p) ** q * Fraction(s, scale), Fraction(p) ** q * Fraction(
            s + 1, scale
        )

    meas = Fraction(1, p**depth)
    lo = hi = Fraction(0)
    for a in range(p**depth):
        v = rational_valuation(fcall(Fraction(a)), p)
        if v != float("inf") and v < depth:
            vlo, vhi = enclose(v)
            lo += vlo * meas
            hi += vhi * meas
        else:
            hi += enclose(depth)[1] * meas
    return RationalInterval(lo, hi)


def test_criterion_02_integration_oracle_equivalence():
    """integrate at D=6 vs exhaustive enumeration mod p^6; runtime < 10 s."""
    t0 = time.time()
    cases = [([0, 1], 1), ([-1, 1], 1), ([-1, 0, 1], 1), ([0, 1], 2)]
    for p in (2, 3):
        for coeffs, m in cases:
            f = MultiPoly.univariate([Fraction(c) for c in coeffs])
            lib = integrate(PolyDensity(f, m), Cylinder.unit_polydisc(p), 6)
            oracle = _brute(lambda x: f((x,)), p, 6, m)
            assert lib.intersects(oracle)
            # Containment both ways: the library's coarser dyadic grid must
            # enclose the oracle's finer one exactly, and match it back up
            # to the library's own grid slack.
            assert lib.contains_interval(oracle)
            slack = Fraction(1, 2**10)
            assert oracle.lo - slack <= lib.lo and lib.hi <= oracle.hi + slack
            assert lib.width <= Fraction(1, p**6) + slack
    assert time.time() - t0 < 10.0
    report(2, "depth-6 integrals match exhaustive residue enumeration, p in {2,3}")


def test_criterion_03_closed_form_geometric_series():
    """integrate(|x|, Z_p, 12) encloses p/(p+1), width <= p^(-12)."""
    x = MultiPoly.univariate([Fraction(0), Fraction(1)])
    for p in (2, 3, 5):
        lib = integrate(PolyDensity(x, 1), Cylinder.unit_polydisc(p), 12)
        assert lib.contains(Fraction(p, p + 1))
        assert lib.width <= Fraction(1, p**12)
    report(3, "integral of |x| encloses p/(p+1) at width <= p^(-12)")


def test_criterion_04_key_example_3_plus_4i_over_5():
    """alpha with minimal polynomial 5x^2-6x+5: p=5 witness, |alpha|_5 = 5."""
    t0 = time.time()
    f = IntPolynomial((5, -6, 5))
    assert root_of_unity_order(f) is None
    assert not is_algebraic_integer(f)
    res = find_witness(AlgebraicNumberSpec.from_poly(f, prove=True))
    assert isinstance(res, Witness)
    cert = res.certificate
    assert cert.place.kind == "non_archimedean" and cert.place.prime == 5
    assert cert.norm_bound == Fraction(5)
    assert cert.exact_norm == PPower(5, Fraction(-1))
    assert verify_witness_certificate(cert)
    assert cli_main(["witness", "[5,-6,5]"]) == 2
    assert time.time() - t0 < 0.1
    report(4, "5x^2-6x+5 yields the exact p=5 witness with |alpha| = 5")


def test_criterion_05_kronecker_suite():
    for d in range(1, 106):
        if euler_phi(d) <= 48:
            assert root_of_unity_order(cyclotomic(d)) == d
    for f in (
        IntPolynomial((-1, -1, 1)),
        IntPolynomial((-2, 1)),
        IntPolynomial((5, -6, 5)),
        LEHMER,
    ):
        assert root_of_unity_order(f) is None
    report(5, "root_of_unity_order(Phi_d) = d for d <= 105; None on non-examples")


def test_criterion_06_archimedean_witnesses():
    gold = find_witness(AlgebraicNumberSpec.from_poly(IntPolynomial((-1, -1, 1))))
    mi = gold.certificate.modulus_interval()
    assert mi.lo < Fraction(1619, 1000) and mi.hi > Fraction(1618, 1000)
    lehmer = find_witness(AlgebraicNumberSpec.from_poly(LEHMER))
    li = lehmer.certificate.modulus_interval()
    assert li.intersects(
        RationalInterval(Fraction(117627, 100000), Fraction(117629, 100000))
    )
    report(6, "golden-ratio and Lehmer witness intervals hit the known values")


def criterion_7_draws():
    """Criterion 7's 500 seeded inputs: squarefree primitive polynomials
    of degree 1-6, every third one forced monic, salted with cyclotomics."""
    from padicorder import is_squarefree

    rng = random.Random(20260823)
    produced = 0
    while produced < 500:
        if produced % 25 == 0:
            # Salt in root-of-unity inputs so all three branches occur.
            d = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
            f = cyclotomic(d)
        else:
            deg = rng.randint(1, 6)
            coeffs = [rng.randint(-20, 20) for _ in range(deg + 1)]
            if produced % 3 == 0:
                coeffs[-1] = rng.choice([1, -1])  # force the monic branch
            if coeffs[-1] == 0 or coeffs[0] == 0:
                continue
            f = IntPolynomial.from_coeffs(coeffs).primitive_part()
            if not is_squarefree(f):
                continue
        yield f
        produced += 1


def test_criterion_07_witness_trichotomy_500_random():
    seen = {"root_of_unity": 0, "non_archimedean": 0, "archimedean": 0}
    for f in criterion_7_draws():
        res = find_witness(AlgebraicNumberSpec.from_poly(f, prove=True))
        if isinstance(res, RootOfUnity):
            assert res.order >= 1
            assert root_of_unity_order(f) == res.order
            seen["root_of_unity"] += 1
        else:
            assert isinstance(res, Witness)
            assert verify_witness_certificate(res.certificate)
            seen[res.certificate.place.kind] += 1
    assert all(v > 0 for v in seen.values())
    report(7, f"500-polynomial trichotomy, all certificates re-verify ({seen})")


def test_criterion_08_change_of_variables():
    rng = random.Random(99)
    for p in (2, 3):
        for _ in range(10):
            u = rng.choice([k for k in range(1, 2 * p) if k % p != 0])
            qdeg = rng.randint(0, 3)
            q = [Fraction(rng.randint(-4, 4)) for _ in range(qdeg + 1)]
            coeffs = [Fraction(p) * c for c in q]
            while len(coeffs) < 2:
                coeffs.append(Fraction(0))
            coeffs[1] += u  # phi(x) = u*x + p*q(x)
            phi = PolyMap((MultiPoly.univariate(coeffs),))
            d = PolyDensity(MultiPoly.univariate([Fraction(0), Fraction(1)]), 1)
            overlap, lhs, rhs = change_of_variables_check(phi, d, p, 8)
            assert overlap
    phi_id = PolyMap.identity(1)
    d = PolyDensity(MultiPoly.univariate([Fraction(0), Fraction(1)]), 1)
    overlap, lhs, rhs = change_of_variables_check(phi_id, d, 3, 8)
    assert overlap and lhs.lo == rhs.lo and lhs.hi == rhs.hi
    report(8, "20 unit-Jacobian substitutions overlap; identity map exactly equal")


def test_criterion_09_product_formula():
    rng = random.Random(424242)
    for _ in range(100):
        num = rng.randint(1, 10**6) * rng.choice([1, -1])
        den = rng.randint(1, 10**6)
        assert product_formula_check(Fraction(num, den))
    report(9, "product formula exact on 100 random rationals up to 10^6")


def _companion(f):
    n = f.degree
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        m[i + 1][i] = Fraction(1)
    for i in range(n):
        m[i][n - 1] = Fraction(-f.coeffs[i], f.leading)
    return tuple(tuple(row) for row in m)


def test_criterion_10_projective_order():
    jordan = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    v = projective_order(jordan)
    assert not v.is_finite and v.reason == "NotSemisimple"
    for d in (3, 4, 5, 6, 8, 12):
        m = _companion(cyclotomic(d))
        v = projective_order(m)
        assert v.is_finite
        # Independent confirmation by exact scalar-ness of powers: the
        # projective order is the least k with M^k scalar (d odd: k = d;
        # d even: k = d/2 because M^(d/2) = -I).
        expected = d if d % 2 else d // 2
        assert v.order == expected
        assert is_scalar_matrix(mat_pow(m, v.order))
        for k in range(1, v.order):
            assert not is_scalar_matrix(mat_pow(m, k))
    # Scalar- and conjugation-invariance on 50 randomized instances.
    from padicorder.projaut import mat_det, mat_inv, mat_mul

    rng = random.Random(31337)
    bases = [
        jordan,
        _companion(cyclotomic(5)),
        _companion(cyclotomic(12)),
        _companion(IntPolynomial((-1, -1, 1))),
        identity_matrix(2),
    ]
    checked = 0
    while checked < 50:
        m = bases[checked % len(bases)]
        n = len(m)
        pm = tuple(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n)
        )
        if mat_det(pm) == 0:
            continue
        lam = Fraction(rng.choice([2, 3, -1, 5]), rng.choice([1, 7]))
        base = projective_order(m)
        scaled = projective_order(tuple(tuple(lam * x for x in r) for r in m))
        conj = projective_order(mat_mul(mat_mul(pm, m), mat_inv(pm)))
        assert scaled.is_finite == conj.is_finite == base.is_finite
        assert scaled.order == conj.order == base.order
        checked += 1
    report(10, "PGL orders confirmed by exact scalar powers; invariance x50")


def test_criterion_11_shell_tiling():
    for p in (2, 3, 5):
        for s in (1, 2, 3):
            for m_range in range(0, 7):
                balanced, ledger = verify_shell_tiling(p, s, m_range)
                assert balanced
                # Independent annulus measure from sphere measures p^j(1-1/p).
                annulus = sum(
                    (
                        sphere_measure(p, j)
                        for j in range(-m_range * s, (m_range + 1) * s)
                    ),
                    Fraction(0),
                )
                assert ledger["total"] == annulus
    report(11, "shell tiling balances for p in {2,3,5}, s in {1,2,3}, M <= 6")


def test_criterion_12_dichotomy_shadow():
    """Computational shadow of the headline theorem (joint with 4, 10, 11):
    root-of-unity eigenvalue data certifies finite order; anything else
    yields a re-checkable local-field witness."""
    finite_inputs = [
        [cyclotomic(4), cyclotomic(2)],
        [cyclotomic(6)],
        [cyclotomic(8), cyclotomic(3)],
    ]
    for polys in finite_inputs:
        specs = [AlgebraicNumberSpec.from_poly(f, prove=True) for f in polys]
        v = certify_diagonal(specs)
        assert v.is_finite and v.order >= 1
    infinite_inputs = [
        IntPolynomial((5, -6, 5)),
        IntPolynomial((-1, -1, 1)),
        LEHMER,
    ]
    for f in infinite_inputs:
        v = certify_diagonal([AlgebraicNumberSpec.from_poly(f, prove=True)])
        assert not v.is_finite
        assert v.certificate is not None
        assert verify_witness_certificate(v.certificate)
    report(12, "finite/infinite dichotomy: every infinite case carries a witness")

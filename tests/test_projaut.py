"""Projective order certification, conjugation operator, shell tiling."""

import random
from fractions import Fraction

import pytest

from padicorder import (
    AlgebraicNumberSpec,
    IntPolynomial,
    ProjAutSpec,
    ShellSet,
    ball_measure,
    certify_diagonal,
    conjugation_operator,
    cyclotomic,
    factor_out_cyclotomics,
    is_semisimple,
    linear_order,
    minimal_polynomial,
    projective_order,
    ratio_polynomial,
    sphere_measure,
    verify_shell_tiling,
    verify_witness_certificate,
)
from padicorder.projaut import (
    identity_matrix,
    is_scalar_matrix,
    mat_det,
    mat_inv,
    mat_mul,
    mat_pow,
)


def F(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def companion(f: IntPolynomial):
    n = f.degree
    assert abs(f.leading) == 1
    sign = f.leading
    cols = []
    for i in range(n):
        col = [Fraction(0)] * n
        if i < n - 1:
            col[i + 1] = Fraction(1)
        cols.append(col)
    m = [[cols[j][i] for j in range(n)] for i in range(n)]
    for i in range(n):
        m[i][n - 1] = Fraction(-f.coeffs[i], sign)
    return F(m)


def test_minimal_polynomial_examples():
    assert minimal_polynomial(identity_matrix(3)).coeffs == (-1, 1)
    jordan = F([[1, 1], [0, 1]])
    assert minimal_polynomial(jordan).coeffs == (1, -2, 1)
    assert minimal_polynomial(companion(cyclotomic(5))).coeffs == cyclotomic(5).coeffs


def test_semisimplicity():
    assert is_semisimple(identity_matrix(2))
    assert is_semisimple(F([[0, -1], [1, 0]]))
    assert not is_semisimple(F([[1, 1], [0, 1]]))


def test_factor_out_cyclotomics():
    f = cyclotomic(4) * IntPolynomial((-1, -1, 1))
    orders, remainder = factor_out_cyclotomics(f)
    assert list(orders) == [4]
    assert remainder is not None and remainder.coeffs == (-1, -1, 1)


def test_linear_order():
    assert linear_order(identity_matrix(2)) == 1
    assert linear_order(F([[0, -1], [1, 0]])) == 4
    assert linear_order(F([[1, 1], [0, 1]])) is None
    assert linear_order(F([[2, 0], [0, 2]])) is None  # scalar but not root of unity


def test_conjugation_operator_kills_scalars():
    r = conjugation_operator(F([[7, 0], [0, 7]]))
    assert is_scalar_matrix(r) and r[0][0] == 1


def test_projective_order_jordan_infinite():
    v = projective_order(F([[1, 1], [0, 1]]))
    assert not v.is_finite
    assert v.reason == "NotSemisimple"
    assert v.jordan_evidence is not None and v.jordan_evidence.degree >= 1


def test_projective_order_rotation():
    v = projective_order(F([[0, -1], [1, 0]]))
    assert v.is_finite and v.order == 2  # M^2 = -I is scalar


def test_projective_order_eigenvalue_witness():
    v = projective_order(companion(IntPolynomial((-1, -1, 1))))
    assert not v.is_finite
    assert v.reason == "EigenvalueWitness"
    assert v.certificate is not None
    assert verify_witness_certificate(v.certificate)


def min_scalar_power(m, bound):
    for k in range(1, bound + 1):
        if is_scalar_matrix(mat_pow(m, k)):
            return k
    return None


@pytest.mark.parametrize("d", [3, 4, 5, 6, 8, 12])
def test_projective_order_companion_cyclotomic(d):
    m = companion(cyclotomic(d))
    v = projective_order(m)
    assert v.is_finite
    # Independent oracle: smallest k with M^k scalar.
    assert v.order == min_scalar_power(m, 2 * d)
    assert v.order == (d if d % 2 else d // 2)


def test_projective_order_phi15_companion():
    # n = 8: the conjugation operator would be 64 x 64.
    m = companion(cyclotomic(15))
    v = projective_order(m)
    assert v.is_finite
    assert v.order == min_scalar_power(m, 30) == 15


def disguise(m, seed):
    """lam * P * M * P^-1 for a seeded scalar lam and invertible integer P."""
    rng = random.Random(seed)
    n = len(m)
    while True:
        pm = F([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if mat_det(pm) != 0:
            break
    lam = Fraction(rng.choice([1, -1, 2, 3, -5]), rng.choice([1, 2, 7]))
    conj = mat_mul(mat_mul(pm, m), mat_inv(pm))
    return tuple(tuple(lam * x for x in row) for row in conj)


ORACLE_CASES = [(f"phi{d}", companion(cyclotomic(d))) for d in (3, 4, 5, 6, 8, 10, 12)] + [
    ("x2-x-1", companion(IntPolynomial((-1, -1, 1)))),
    ("x3-x-1", companion(IntPolynomial((-1, -1, 0, 1)))),
    ("5x2-6x+5", F([[0, -1], [1, Fraction(6, 5)]])),  # its rational companion
    ("diag(2,-2)", F([[2, 0], [0, -2]])),
    ("diag(1,2)", F([[1, 0], [0, 2]])),
]


@pytest.mark.parametrize(
    "name,m", ORACLE_CASES, ids=[name for name, _ in ORACLE_CASES]
)
def test_projective_order_matches_conjugation_operator(name, m):
    for seed in range(2):
        md = disguise(m, seed)
        v = projective_order(md)
        # The n^2 x n^2 operator X -> M X M^-1 has finite linear order
        # exactly when [M] has finite order in PGL, and the orders agree.
        assert v.order == linear_order(conjugation_operator(md))
        assert v.is_finite == (v.order is not None)
        if not v.is_finite:
            assert v.reason == "EigenvalueWitness"
            assert verify_witness_certificate(v.certificate)
    if name == "diag(2,-2)":
        assert v.order == 2
    if name == "diag(1,2)":
        # N = diag(1/2, 2) has the non-monic minimal polynomial 2x^2 - 5x + 2
        assert v.certificate.place.kind == "non_archimedean"
        assert v.certificate.place.prime == 2


def test_scalar_and_conjugation_invariance_randomized():
    rng = random.Random(1123)
    mats = [
        F([[1, 1], [0, 1]]),
        F([[0, -1], [1, 0]]),
        companion(cyclotomic(5)),
        companion(cyclotomic(12)),
        companion(IntPolynomial((-1, -1, 1))),
        identity_matrix(3),
    ]
    checked = 0
    while checked < 50:
        m = mats[checked % len(mats)]
        n = len(m)
        lam = Fraction(rng.choice([1, -1, 2, 3, 5]), rng.choice([1, 2, 7]))
        p_rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)
        ]
        from padicorder.projaut import mat_det

        pm = F(p_rows)
        if mat_det(pm) == 0:
            continue
        base = projective_order(m)
        scaled = projective_order(tuple(tuple(lam * x for x in row) for row in m))
        conj = projective_order(mat_mul(mat_mul(pm, m), mat_inv(pm)))
        for other in (scaled, conj):
            assert other.is_finite == base.is_finite
            assert other.order == base.order
        checked += 1


def test_certify_diagonal_roots_of_unity():
    specs = [
        AlgebraicNumberSpec.from_poly(cyclotomic(4), prove=True),
        AlgebraicNumberSpec.from_poly(cyclotomic(2), prove=True),
    ]
    v = certify_diagonal(specs)
    assert v.is_finite and v.order == 4


def test_certify_diagonal_witness():
    specs = [AlgebraicNumberSpec.from_poly(IntPolynomial((5, -6, 5)), prove=True)]
    v = certify_diagonal(specs)
    assert not v.is_finite
    assert v.certificate is not None
    assert v.certificate.place.prime == 5
    assert verify_witness_certificate(v.certificate)


def test_ratio_polynomial_has_ratio_roots():
    # ratios of roots of x^2 - 5x + 6 (2 and 3): 1, 2/3, 3/2.
    f = IntPolynomial((6, -5, 1))
    r = ratio_polynomial(f, f)
    for val in (Fraction(1), Fraction(2, 3), Fraction(3, 2)):
        assert r(val) == 0


def test_sphere_and_ball_measures():
    assert ball_measure(3, 0) == 1
    assert ball_measure(3, 2) == 9
    assert sphere_measure(3, 0) == Fraction(2, 3)
    assert sphere_measure(3, -1) == Fraction(2, 9)
    # Spheres tile the ball: sum over j <= t of sphere measures = ball.
    total = sum(sphere_measure(3, j) for j in range(-20, 3))
    assert ball_measure(3, 2) - total == Fraction(1, 3**21)  # tail to 0


def test_shell_set_measure():
    shell = ShellSet(3, 1)
    assert shell.measure() == Fraction(2, 3)
    assert ShellSet(3, 2).measure() == Fraction(8, 3)  # (p^s - 1)/p


def test_verify_shell_tiling_exact_ledger():
    balanced, ledger = verify_shell_tiling(3, 1, 2)
    assert balanced
    assert ledger["total"] == Fraction(242, 27)
    assert ledger["annulus"] == Fraction(242, 27)
    # Spec narrative: the truncated sum is 9 - 1/27 here, diverging with M.
    assert ledger["total"] == 9 - Fraction(1, 27)
    for entry in ledger["per_N"]:
        assert entry["scaling_ok"]
        assert entry["measure"] == Fraction(3) ** entry["n"] * ledger["mu_A"]


def test_shell_tiling_divergence():
    prev = Fraction(0)
    for m_range in (1, 2, 3, 4):
        balanced, ledger = verify_shell_tiling(2, 1, m_range)
        assert balanced
        assert ledger["total"] > prev
        prev = ledger["total"]

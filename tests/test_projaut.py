"""Projective order certification, conjugation operator, shell tiling."""

import collections
import functools
import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from padicorder import (
    AlgebraicNumberSpec,
    IntPolynomial,
    ShellSet,
    ball_measure,
    certify_diagonal,
    conjugation_operator,
    cyclotomic,
    factor_out_cyclotomics,
    is_squarefree,
    linear_order,
    minimal_polynomial,
    poly_gcd,
    projective_order,
    sphere_measure,
    verify_shell_tiling,
    verify_witness_certificate,
)
from padicorder import algnum, projaut
from padicorder.projaut import (
    OrderVerdict,
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
    # semisimple exactly when the minimal polynomial is squarefree
    assert is_squarefree(minimal_polynomial(identity_matrix(2)))
    assert is_squarefree(minimal_polynomial(F([[0, -1], [1, 0]])))
    assert not is_squarefree(minimal_polynomial(F([[1, 1], [0, 1]])))


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


def test_disguised_companion_certificate_alpha_is_proven():
    """P C P^-1, C the companion of x^3 - x - 1: the certificate is
    Unconditional, and its alpha carries the Proven status behind that."""
    p = F([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    v = projective_order(mat_mul(mat_mul(p, companion(IntPolynomial((-1, -1, 0, 1)))), mat_inv(p)))
    assert v.conditionality == v.certificate.conditionality == "Unconditional"
    assert v.certificate.alpha.irreducibility_status == "Proven"


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


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[offset + i][offset : offset + len(b)] = row
        offset += len(b)
    return F(rows)


ORACLE_CASES = [(f"phi{d}", companion(cyclotomic(d))) for d in (3, 4, 5, 6, 8, 10, 12)] + [
    ("x2-x-1", companion(IntPolynomial((-1, -1, 1)))),
    ("x3-x-1", companion(IntPolynomial((-1, -1, 0, 1)))),
    ("5x2-6x+5", F([[0, -1], [1, Fraction(6, 5)]])),  # its rational companion
    ("diag(2,-2)", F([[2, 0], [0, -2]])),
    ("diag(1,2)", F([[1, 0], [0, 2]])),
    # derogatory: the minimal polynomial is an lcm over several unit vectors
    ("phi3+phi3", block_diag(companion(cyclotomic(3)), companion(cyclotomic(3)))),
    ("phi4+[1]", block_diag(companion(cyclotomic(4)), F([[1]]))),
    ("x2-x-1 twice", block_diag(*[companion(IntPolynomial((-1, -1, 1)))] * 2)),
    ("J2(1)+[1]", block_diag(F([[1, 1], [0, 1]]), F([[1]]))),
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
        if name == "J2(1)+[1]":
            assert v.reason == "NotSemisimple"
            continue
        if not v.is_finite:
            assert v.reason == "EigenvalueWitness"
            assert verify_witness_certificate(v.certificate)
    if name == "diag(2,-2)":
        assert v.order == 2
    if name == "diag(1,2)":
        # N = diag(1/2, 2) has the non-monic minimal polynomial 2x^2 - 5x + 2
        assert v.certificate.place.kind == "non_archimedean"
        assert v.certificate.place.prime == 2


def _evaluate(coeffs, m):
    """sum c_i M^i by Horner's rule with the Fraction mat_mul."""
    n = len(m)
    acc = F([[0] * n] * n)
    for c in reversed(coeffs):
        acc = tuple(
            tuple(x + (c if i == j else 0) for j, x in enumerate(row))
            for i, row in enumerate(mat_mul(acc, m))
        )
    return acc


def test_minimal_polynomial_oracle_on_disguised_blocks():
    from sympy import Poly, factor_list, symbols

    x = symbols("x")
    pool = [companion(cyclotomic(d)) for d in (1, 2, 3, 4, 5, 6)] + [
        companion(IntPolynomial((-1, -1, 1))),
        F([[1, 1], [0, 1]]),
        F([[2]]),
        F([[Fraction(-1, 2)]]),
    ]
    rng = random.Random(20261018)
    for seed in range(16):
        blocks = [rng.choice(pool)]
        while rng.random() < 0.8:
            b = rng.choice(blocks + pool)  # repeats make M derogatory
            if sum(map(len, blocks)) + len(b) <= 5:
                blocks.append(b)
        m = disguise(block_diag(*blocks), seed)
        zero = F([[0] * len(m)] * len(m))
        mp = minimal_polynomial(m)
        assert _evaluate(mp.coeffs, m) == zero
        poly = Poly(list(reversed(mp.coeffs)), x)
        for q, _ in factor_list(poly)[1]:
            proper = [Fraction(int(c)) for c in reversed(poly.exquo(q).all_coeffs())]
            assert _evaluate(proper, m) != zero


def test_projective_order_oracle_on_repeated_blocks():
    # Sums of repeated companion blocks are semisimple, and repeats make
    # N = M^n / det M derogatory, where its minimal polynomial is an lcm
    # over several vectors; the decision in Q[x]/(mp) must match the
    # Fraction references on each disguise lam * P * M * P^-1.
    pool = [companion(cyclotomic(d)) for d in (1, 2, 3, 4, 5, 6, 8, 10, 12)] + [
        companion(IntPolynomial((-1, -1, 1))),
        companion(IntPolynomial((1, -3, 1))),
        companion(IntPolynomial((-1, -1, 0, 1))),
        F([[0, -1], [1, Fraction(6, 5)]]),  # 5x^2 - 6x + 5's rational companion
        F([[2]]),
        F([[Fraction(-1, 2)]]),
    ]
    rng = random.Random(20261019)
    derogatory = finite = 0
    for seed in range(200):
        blocks = [rng.choice(pool)]
        while rng.random() < 0.85:
            b = rng.choice(blocks + blocks + pool)
            if sum(map(len, blocks)) + len(b) <= 5:
                blocks.append(b)
        m = disguise(block_diag(*blocks), seed)
        n = len(m)
        v = projective_order(m)
        big_n = tuple(tuple(x / mat_det(m) for x in row) for row in mat_pow(m, n))
        mp_n = minimal_polynomial(big_n)
        derogatory += mp_n.degree < n
        if v.is_finite:
            finite += 1
            assert min_scalar_power(m, v.order) == v.order
        else:
            assert v.reason == "EigenvalueWitness"
            assert v.certificate.alpha.defining_poly == factor_out_cyclotomics(mp_n)[1]
    assert derogatory >= 50 and 50 <= finite <= 150


def _annihilator(m, v):
    """Minimal polynomial of m on the Krylov space of the column v."""
    krylov = [v]
    for _ in range(m.shape[0]):
        krylov.append(m * krylov[-1])
    rref, pivots = v.hstack(*krylov[1:]).rref()
    k = len(pivots)
    coeffs = [-row[k] for row in rref.to_list()[:k]] + [QQ(1)]
    den = math.lcm(*(c.denominator for c in coeffs))
    return IntPolynomial.from_coeffs([int(c * den) for c in coeffs]).primitive_part()


def companion_projective_order(m):
    """projective_order as it was decided on the d x d companion matrix C
    of mp: N's minimal polynomial is the annihilator of e0 under C^n / det,
    and the order is the least k <= n lcm(matched) with C^k e0 a constant."""
    det = projaut._qq_matrix(m).det()
    mp = projaut.minimal_polynomial(m)
    if not is_squarefree(mp):
        evidence = poly_gcd(mp, mp.derivative())
        return OrderVerdict(kind="infinite", reason="NotSemisimple", jordan_evidence=evidence)
    n, d = len(m), mp.degree
    c = DomainMatrix(
        [
            [QQ(1 if i == j + 1 else 0) for j in range(d - 1)] + [QQ(-a, mp.leading)]
            for i, a in enumerate(mp.coeffs[:-1])
        ],
        (d, d),
        QQ,
    )
    e0 = DomainMatrix.eye(d, QQ)[:, 0]
    matched, rem = factor_out_cyclotomics(_annihilator(c**n * (1 / det), e0))
    if rem.coeffs == (1,):
        v = e0
        for order in range(1, n * math.lcm(*matched) + 1):
            v = c * v
            if v[1:, :].is_zero_matrix:
                return OrderVerdict(kind="finite", order=order)
        raise AssertionError("no scalar power below the bound")
    cert = projaut.find_witness(AlgebraicNumberSpec.from_poly(rem, prove=True)).certificate
    return OrderVerdict(
        kind="infinite",
        reason="EigenvalueWitness",
        certificate=cert,
        conditionality=cert.conditionality,
    )


def jordan_block(lam, size):
    return F([[lam if i == j else int(j == i + 1) for j in range(size)] for i in range(size)])


PARITY_POOL = [companion(cyclotomic(d)) for d in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)] + [
    companion(IntPolynomial(f))
    for f in ((-1, -1, 1), (1, -3, 1), (-1, -1, 0, 1), (-2, 0, 1), (-2, 0, 0, 1), (1, 0, 0, 1, 1))
] + [
    F([[0, -1], [1, Fraction(6, 5)]]),  # 5x^2 - 6x + 5's rational companion
    F([[2]]),
    F([[Fraction(-1, 2)]]),
    jordan_block(1, 2),
    jordan_block(Fraction(-3, 2), 3),
]


def parity_matrices(count, seed=20261019):
    """Disguised companions, block sums with repeated blocks, rational
    scalings, 1 x 1 and scalar matrices and Jordan blocks."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 4
        if kind == 0:  # 1 x 1 or scalar, possibly scaled
            lam = Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 7]))
            yield tuple(tuple(lam * x for x in row) for row in identity_matrix(rng.randint(1, 4)))
            continue
        blocks = [rng.choice(PARITY_POOL)]
        while kind != 1 and rng.random() < 0.8:
            b = rng.choice(blocks + blocks + PARITY_POOL)  # repeats make mp derogatory
            if sum(map(len, blocks)) + len(b) <= 4:
                blocks.append(b)
        yield shear_disguise(block_diag(*blocks), rng)


def shear_conjugate(m, rng):
    """P * M * P^-1 for a product P of n integer shears I + c E_ij, each
    applied as a row and a column step: O(n^2) where disguise's Fraction
    products and inverse are O(n^3), which keeps 1,000 disguises cheap."""
    rows, n = [list(row) for row in m], len(m)
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        for row in rows:
            row[j] -= c * row[i]
    return rows


def shear_disguise(m, rng):
    """lam * P * M * P^-1 for a seeded scalar lam and shear_conjugate's P."""
    rows = shear_conjugate(m, rng)
    lam = Fraction(rng.choice([1, -1, 2, 3, -5]), rng.choice([1, 2, 7]))
    return tuple(tuple(lam * x for x in row) for row in rows)


def test_projective_order_matches_companion_matrix_algorithm(monkeypatch):
    # mp, the irreducibility proof and the witness search come before and
    # after the step under test, shared and deterministic: memoized, each
    # runs once per distinct input
    shared = [(projaut, "minimal_polynomial"), (projaut, "find_witness"), (algnum, "check_irreducible")]
    for module, name in shared:
        monkeypatch.setattr(module, name, functools.cache(getattr(module, name)))
    seen = collections.Counter()
    for m in parity_matrices(1000):
        v = projective_order(m)
        assert v == companion_projective_order(m)
        mp = projaut.minimal_polynomial(m)
        seen[v.reason or "finite"] += 1
        seen["derogatory"] += mp.degree < len(m)
        seen["non-monic"] += abs(mp.leading) != 1
    assert min(seen.values()) >= 75 and len(seen) == 5, seen


SCALED_POOL = [companion(cyclotomic(d)) for d in (1, 2, 3, 4, 5, 6, 8)] + [
    companion(IntPolynomial(f)) for f in ((-1, -1, 1), (-2, 0, 1), (-1, -1, 0, 1))
] + [jordan_block(1, 2), jordan_block(-2, 2), jordan_block(3, 3), F([[2]]), F([[-1]])]
SCALED_DENOMINATORS = (1, 7, 2**20, 10**12 + 39)


def scaled_matrices(count, seed=20261020):
    """a/q * P * B * P^-1 for q in SCALED_DENOMINATORS, B a block sum of
    integer companions, Jordan blocks and 1 x 1 blocks (repeats make B
    derogatory) or a scalar matrix, P a product of integer shears."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 5 == 0:
            blocks = [identity_matrix(rng.randint(1, 4))]
        else:
            blocks = [rng.choice(SCALED_POOL)]
            while rng.random() < 0.7:
                b = rng.choice(blocks + SCALED_POOL)
                if sum(map(len, blocks)) + len(b) <= 4:
                    blocks.append(b)
        rows = shear_conjugate(block_diag(*blocks), rng)
        den = rng.choice(SCALED_DENOMINATORS)
        lam = Fraction(rng.choice([1, -1, 3, -5, 2**20 + 1]), den)
        yield den, tuple(tuple(lam * x for x in row) for row in rows)


def test_minimal_polynomial_of_scaled_matrices():
    # M = A / D is decided on the integer matrix A: mp(M) must vanish at M
    # and no proper divisor mp / g, g an irreducible factor, may
    from sympy import Poly, symbols

    x = symbols("x")
    seen = collections.Counter()
    for den, m in scaled_matrices(500):
        n = len(m)
        zero = F([[0] * n] * n)
        mp = minimal_polynomial(m)
        assert _evaluate(mp.coeffs, m) == zero
        poly = Poly(list(reversed(mp.coeffs)), x)
        for g, _ in poly.factor_list()[1]:
            proper = [Fraction(int(c)) for c in reversed(poly.exquo(g).all_coeffs())]
            assert _evaluate(proper, m) != zero
        seen[den] += 1
        seen["derogatory"] += mp.degree < n
        seen["scalar"] += is_scalar_matrix(m)
        seen["1x1"] += n == 1
        seen["non-semisimple"] += not is_squarefree(mp)
    assert min(seen.values()) >= 40 and len(seen) == 8, seen


def test_scaled_jordan_block_evidence():
    # the evidence is gcd(mp_M, mp_M'), for M = 5/7 [[1, 1], [0, 1]] the
    # factor 7x - 5; read off A = [[5, 5], [0, 5]] it would be x - 5
    v = projective_order(F([[Fraction(5, 7), Fraction(5, 7)], [0, Fraction(5, 7)]]))
    assert v.reason == "NotSemisimple"
    assert v.jordan_evidence.coeffs == (-5, 7)


def test_projective_order_runs_without_rational_echelon_forms(monkeypatch):
    # the decision is fraction-free: no echelon form over QQ, no matrix
    # converted to a field
    cases = [
        (disguise(companion(cyclotomic(12)), 0), 6),
        (disguise(block_diag(companion(cyclotomic(3)), companion(cyclotomic(3))), 1), 3),
        (disguise(companion(IntPolynomial((-1, -1, 0, 1))), 2), None),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("rational arithmetic in projective_order")

    monkeypatch.setattr(DomainMatrix, "rref", refuse)
    monkeypatch.setattr(DomainMatrix, "to_field", refuse)
    for m, order in cases:
        assert projective_order(m).order == order


# --- the Python-int kernels against DomainMatrix references -------------------


def test_det_matches_domain_matrix_det():
    """Bareiss against DomainMatrix.det on seeded integer matrices of size
    1-8: dense ones, singular ones, and ones with a zero leading pivot."""
    rng = random.Random(20261021)
    counts = collections.Counter()
    for i in range(1200):
        n, kind = rng.randint(1, 8), i % 3
        bound = 2 if kind else 99
        a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if kind == 1:  # a row made a combination of the others: singular
            c = [rng.randint(-2, 2) for _ in range(n)]
            r = rng.randrange(n)
            a[r] = [sum(c[i] * a[i][j] for i in range(n) if i != r) for j in range(n)]
        elif kind == 2:  # the first pivot is zero, a later row must be swapped in
            a[0][0] = 0
        det = projaut._det(a)
        assert det == DomainMatrix(a, (n, n), ZZ).det(), a
        counts["singular" if det == 0 else "regular"] += 1
        counts["zero pivot"] += a[0][0] == 0 and det != 0
    assert min(counts.values()) >= 150, counts


def _relation_by_rref_den(vectors):
    """The first relation among the columns v_0..v_m, read off the
    fraction-free echelon form: when v_0..v_(k-1) are independent and v_k
    depends on them, the pivots are 0..k-1 and column k holds den v_k."""
    cols = DomainMatrix([list(v) for v in vectors], (len(vectors), len(vectors[0])), ZZ).transpose()
    rref, den, pivots = cols.rref_den(method="FF")
    k = len(pivots)
    coeffs = [-row[k] for row in rref.to_list()[:k]] + [den]
    return IntPolynomial.from_coeffs(coeffs).primitive_part()


def test_first_relation_matches_rref_den_on_krylov_sequences():
    """Krylov sequences of the parity matrices' integer forms, derogatory
    ones and eigenvectors (dependent at k = 1) among them, and of seeded
    sparse integer matrices; each relation is found from the fewest vectors."""
    rng = random.Random(20261022)
    mats = [projaut._integer_matrix(m)[0] for m in parity_matrices(300)]
    for n in [*range(1, 9)] * 40:
        mats.append([[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)])
    counts = collections.Counter()
    for a in mats:
        n = len(a)
        for i in range(n):
            e = [int(i == j) for j in range(n)]
            drawn = []
            relation = projaut._first_relation(drawn.append(v) or v for v in projaut._krylov(a, e))
            assert len(drawn) == relation.degree + 1
            expect = _relation_by_rref_den(list(islice(projaut._krylov(a, e), n + 1)))
            assert relation == expect, (a, i)
            k = relation.degree
            counts["k = 1" if k == 1 else "rank-deficient" if k < n else "full"] += 1
    assert min(counts.values()) >= 300, counts


def test_first_relation_of_a_long_krylov_sequence_is_fast(deadline):
    """Dividing out the content keeps the reduced vectors at the size of
    their primitive forms; without it the entries double in length with
    each vector."""
    rng = random.Random(20261023)
    n = 24
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    e = [1] + [0] * (n - 1)
    with deadline(2):
        relation = projaut._first_relation(projaut._krylov(a, e))
    assert relation == _relation_by_rref_den(list(islice(projaut._krylov(a, e), n + 1)))


def test_singular_matrix_raises():
    m = F([[1, 2], [2, 4]])
    for fn in (mat_inv, projective_order):
        with pytest.raises(ValueError, match="^matrix is singular$"):
            fn(m)


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


def test_shell_tiling_ledger_bound():
    # (M+1) * s * p.bit_length() may reach 4096 and no further
    assert verify_shell_tiling(2, 2048, 0)[0]
    for p, s, m_range in [(2, 2049, 0), (3, 1, 2048), (5, 1, 40000)]:
        with pytest.raises(ValueError, match="bits"):
            verify_shell_tiling(p, s, m_range)


def test_shell_tiling_divergence():
    prev = Fraction(0)
    for m_range in (1, 2, 3, 4):
        balanced, ledger = verify_shell_tiling(2, 1, m_range)
        assert balanced
        assert ledger["total"] > prev
        prev = ledger["total"]

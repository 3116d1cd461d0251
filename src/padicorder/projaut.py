"""Finite-order certification of projective automorphisms.

A class [M] in PGL_n has finite order iff M is semisimple and
N = M^n / det M has finite order in GL_n.  The eigenvalues of N are
mu_i = prod_j lambda_i / lambda_j, products of the eigenvalue ratios of
M.  Everything is exact rational linear algebra on small matrices: the
minimal polynomial mp of M must be squarefree, and then the decision
runs in Q[M], which is Q[x]/(mp).  There M acts as the d x d companion
matrix C of mp (d = deg mp) with the cyclic vector 1, so the minimal
polynomial of N is the annihilator of 1 under C^n / det M, and M^k is
scalar iff C^k 1 is a constant; no n x n power of M is formed.
Infinite order comes with a re-checkable reason: a repeated factor of
mp (non-semisimplicity), or a local-field witness that some eigenvalue
of N lies off the unit circle at a place.

Determinants, inverses, powers and Krylov annihilators run on sympy's
DomainMatrix over QQ.  No decision calls the Fraction helpers
identity_matrix, mat_mul, mat_pow, mat_inv, mat_det, is_scalar_matrix,
kron and transpose, nor conjugation_operator or linear_order: the tests
use them as independent references.  conjugation_operator and
linear_order also stay because bench/bench_trace.py wraps them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from .algnum import AlgebraicNumberSpec
from .intpoly import (
    IntPolynomial,
    factor_out_cyclotomics,
    is_squarefree,
    poly_gcd,
    root_of_unity_order,
)
from .padic import _check_prime
from .places import (
    CONDITIONAL,
    UNCONDITIONAL,
    RootOfUnity,
    Witness,
    WitnessCertificate,
    find_witness,
)

Matrix = tuple[tuple[Fraction, ...], ...]


# --- exact rational matrices ------------------------------------------------


def as_matrix(rows) -> Matrix:
    m = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if not m or any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square" if m else "matrix is empty")
    return m


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_pow(a: Matrix, e: int) -> Matrix:
    out = identity_matrix(len(a))
    base = a
    while e:
        if e & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        e >>= 1
    return out


def _qq_matrix(rows) -> DomainMatrix:
    m = as_matrix(rows)
    entries = [[QQ(x.numerator, x.denominator) for x in row] for row in m]
    return DomainMatrix(entries, (len(m), len(m)), QQ)


def _fraction(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


def mat_inv(a: Matrix) -> Matrix:
    try:
        inv = _qq_matrix(a).inv()
    except DMNonInvertibleMatrixError:
        raise ValueError("matrix is singular") from None
    return tuple(tuple(_fraction(x) for x in row) for row in inv.to_list())


def mat_det(a: Matrix) -> Fraction:
    return _fraction(_qq_matrix(a).det())


def kron(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    return tuple(
        tuple(a[i // nb][j // nb] * b[i % nb][j % nb] for j in range(na * nb))
        for i in range(na * nb)
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def is_scalar_matrix(a: Matrix) -> bool:
    n = len(a)
    d = a[0][0]
    return all(a[i][j] == (d if i == j else 0) for i in range(n) for j in range(n))


def conjugation_operator(m: Matrix) -> Matrix:
    """The operator X -> M X M^(-1) on vec'd matrix space, as M kron M^(-T).

    Its eigenvalues are the ratios lambda_i / lambda_j, so the linear
    order of this n^2 x n^2 operator is the projective order of M; tests
    use it as an independent reference for projective_order.
    """
    return kron(m, transpose(mat_inv(m)))


# --- minimal polynomials ----------------------------------------------------


def _annihilator(m: DomainMatrix, v: DomainMatrix) -> IntPolynomial:
    """Minimal polynomial of m on the Krylov space of the column v, as a
    primitive integer polynomial: in the reduced echelon form of
    [v, mv, ..., m^n v] the pivots are 0..k-1, and column k holds the
    coefficients of m^k v in terms of v, ..., m^(k-1) v."""
    krylov = [v]
    for _ in range(m.shape[0]):
        krylov.append(m * krylov[-1])
    rref, pivots = v.hstack(*krylov[1:]).rref()
    k = len(pivots)
    coeffs = [-row[k] for row in rref.to_list()[:k]] + [QQ(1)]
    den = math.lcm(*(c.denominator for c in coeffs))
    return IntPolynomial.from_coeffs([int(c * den) for c in coeffs]).primitive_part()


def minimal_polynomial(m) -> IntPolynomial:
    """Exact minimal polynomial of a rational matrix, cleared to a
    primitive integer polynomial."""
    m = _qq_matrix(m)
    n = m.shape[0]
    eye = DomainMatrix.eye(n, QQ)
    result = IntPolynomial.from_coeffs([1])
    for i in range(n):
        ann = _annihilator(m, eye[:, i])
        result = (result * ann).exact_div(poly_gcd(result, ann)).primitive_part()
        if result.degree == n:
            break
    return result


def linear_order(m):
    """Smallest n with M^n = 1 in GL, or None for infinite order."""
    mp = minimal_polynomial(m)
    return root_of_unity_order(mp) if is_squarefree(mp) else None


# --- verdicts ---------------------------------------------------------------

NOT_SEMISIMPLE = "NotSemisimple"
EIGENVALUE_WITNESS = "EigenvalueWitness"


@dataclass(frozen=True)
class OrderVerdict:
    kind: str  # "finite" | "infinite"
    order: int | None = None
    reason: str | None = None
    jordan_evidence: IntPolynomial | None = None
    certificate: WitnessCertificate | None = None
    eigenvalue_index: int | None = None
    conditionality: str = UNCONDITIONAL

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


def projective_order(m) -> OrderVerdict:
    """Finite/infinite order of the class of M in PGL, with certificate."""
    qm = _qq_matrix(m)
    det = qm.det()
    if det == 0:
        raise ValueError("matrix is singular")
    mp = minimal_polynomial(m)
    if not is_squarefree(mp):
        evidence = poly_gcd(mp, mp.derivative())
        return OrderVerdict(
            kind="infinite", reason=NOT_SEMISIMPLE, jordan_evidence=evidence
        )
    # Q[M] is Q[x]/(mp): M acts as the companion matrix c of mp, and 1 = e0
    # is a cyclic vector, so N's minimal polynomial is e0's annihilator
    n, d = qm.shape[0], mp.degree
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
        # N^k = 1 makes M^(n k) = (det M)^k scalar, so the order divides n k;
        # M^k is scalar iff x^k mod mp, the vector c^k e0, is a constant
        v = e0
        for order in range(1, n * math.lcm(*matched) + 1):
            v = c * v
            if v[1:, :].is_zero_matrix:
                break
        return OrderVerdict(kind="finite", order=order)
    result = find_witness(AlgebraicNumberSpec.from_poly(rem, prove=True))
    assert isinstance(result, Witness)
    return OrderVerdict(
        kind="infinite",
        reason=EIGENVALUE_WITNESS,
        certificate=result.certificate,
        conditionality=result.certificate.conditionality,
    )


def certify_diagonal(eigenvalues) -> OrderVerdict:
    """Order of [Y0 : a1 Y1 : ... : aN YN] from the eigenvalue specs.

    With the leading eigenvalue normalized to 1 every listed eigenvalue
    is itself a ratio, so testing the eigenvalues is complete: all roots
    of unity -> finite with the lcm of the orders, otherwise the first
    witness proves infinite order.
    """
    eigenvalues = tuple(eigenvalues)
    orders = [1]
    cond = UNCONDITIONAL
    for idx, spec in enumerate(eigenvalues):
        result = find_witness(spec)
        if isinstance(result, Witness):
            return OrderVerdict(
                kind="infinite",
                reason=EIGENVALUE_WITNESS,
                certificate=result.certificate,
                eigenvalue_index=idx,
                conditionality=result.certificate.conditionality,
            )
        assert isinstance(result, RootOfUnity)
        orders.append(result.order)
        if result.conditionality == CONDITIONAL:
            cond = CONDITIONAL
    return OrderVerdict(
        kind="finite", order=math.lcm(*orders), conditionality=cond
    )


# --- the shell tiling argument ---------------------------------------------


@dataclass(frozen=True)
class ShellSet:
    """A = {y in Qp : 1 <= |y| < p^s}, a disjoint union of s spheres."""

    prime: int
    scale: int

    def __post_init__(self):
        _check_prime(self.prime)
        if self.scale < 1:
            raise ValueError("scale must be >= 1")

    def sphere_indices(self, shift: int = 0) -> range:
        """Sphere radii exponents of alpha^N * A for |alpha| = p^s."""
        return range(shift * self.scale, (shift + 1) * self.scale)

    def measure(self) -> Fraction:
        return sum(
            (sphere_measure(self.prime, j) for j in self.sphere_indices()),
            Fraction(0),
        )


def sphere_measure(p: int, j: int) -> Fraction:
    """mu({|y| = p^j}) = p^j * (1 - 1/p)."""
    return Fraction(p) ** j * (1 - Fraction(1, p))


def ball_measure(p: int, t: int) -> Fraction:
    """mu({|y| <= p^t}) = p^t."""
    return Fraction(p) ** t


# bound on (M+1)*s*p.bit_length(), which bounds the bits of the ledger's
# largest power p^((M+1)s); its Fraction arithmetic grows with that power
_MAX_LEDGER_BITS = 2**12


def verify_shell_tiling(p: int, s: int, m_range: int):
    """Exact ledger for the multiplicative tiling by alpha^N * A.

    Checks sphere-set disjointness and union over N in [-M, M], the
    scaling law mu(alpha^N A) = p^(Ns) mu(A), and that the truncated sum
    equals the annulus measure computed independently from ball
    measures — the finite shadow of the 0-or-infinity divergence.
    Returns (balanced, ledger dict with exact rationals).  Refuses a
    ledger whose largest power p^((M+1)s) may need more than 2^12 bits.
    """
    shell = ShellSet(p, s)
    if m_range < 0:
        raise ValueError("m_range must be >= 0")
    if (m_range + 1) * s * p.bit_length() > _MAX_LEDGER_BITS:
        raise ValueError(f"p^((M+1)s) may need more than {_MAX_LEDGER_BITS} bits")
    mu_a = shell.measure()
    seen: set[int] = set()
    disjoint = True
    per_n = []
    total = Fraction(0)
    for n in range(-m_range, m_range + 1):
        idx = set(shell.sphere_indices(n))
        if seen & idx:
            disjoint = False
        seen |= idx
        mu_n = sum((sphere_measure(p, j) for j in idx), Fraction(0))
        scaling_ok = mu_n == Fraction(p) ** (n * s) * mu_a
        per_n.append({"n": n, "measure": mu_n, "scaling_ok": scaling_ok})
        total += mu_n
    union_ok = seen == set(range(-m_range * s, (m_range + 1) * s))
    annulus = ball_measure(p, (m_range + 1) * s - 1) - ball_measure(
        p, -m_range * s - 1
    )
    balanced = (
        disjoint
        and union_ok
        and total == annulus
        and all(e["scaling_ok"] for e in per_n)
    )
    ledger = {
        "prime": p,
        "scale": s,
        "m_range": m_range,
        "mu_A": mu_a,
        "per_N": per_n,
        "total": total,
        "annulus": annulus,
        "disjoint": disjoint,
        "union_ok": union_ok,
        "balanced": balanced,
    }
    return balanced, ledger

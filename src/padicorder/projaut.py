"""Finite-order certification of projective automorphisms.

A class [M] in PGL_n has finite order iff M is semisimple and
N = M^n / det M has finite order in GL_n.  The eigenvalues of N are
mu_i = prod_j lambda_i / lambda_j, products of the eigenvalue ratios of
M.  The decision runs on Python integers: M = A / D, with D the lcm of
M's denominators and A an integer matrix, so N = A^n / det A and M^k is
scalar iff A^k is.  mp = prim(mp_A(D x)) must be squarefree (prim
clears content and sign), and then the decision runs in Q[x]/(mp_A) on
x^k mod mp_A, d = deg mp integers (mp_A is monic), each from the last by
a shift and a subtraction.  N's minimal polynomial is prim(R(det A x))
for R the first linear relation among the x^(n j), and M^k is scalar iff
x^k mod mp_A is a constant.  Infinite order comes with a re-checkable
reason: a repeated factor of mp (non-semisimplicity), or a local-field
witness that some eigenvalue of N lies off the unit circle.

A's determinant (Bareiss' fraction-free elimination), its Krylov vectors
and the fraction-free reduction that finds their first linear relation
run on lists of Python ints.  No decision calls the Fraction helpers
identity_matrix, mat_mul, mat_pow, mat_inv, mat_det, is_scalar_matrix,
kron and transpose, nor conjugation_operator or linear_order: the tests
use them as independent references, and bench/bench_trace.py wraps the
last two by name.  mat_inv and mat_det import sympy's DomainMatrix on use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, zip_longest

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


def _qq_matrix(rows):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    m = as_matrix(rows)
    entries = [[QQ(x.numerator, x.denominator) for x in row] for row in m]
    return DomainMatrix(entries, (len(m), len(m)), QQ)


def _fraction(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


def mat_inv(a: Matrix) -> Matrix:
    from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

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


def _integer_matrix(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """M = A / D: A's rows as Python ints, D the lcm of M's denominators."""
    m = as_matrix(rows)
    den = math.lcm(*(x.denominator for row in m for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in m), den


def _det(a) -> int:
    """det A by Bareiss' fraction-free elimination: after step k every entry
    of the trailing block is a (k+1)-minor of A, so each division is exact."""
    a = [list(row) for row in a]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv], sign = a[piv], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _substitute(f: IntPolynomial, c: Fraction | int) -> IntPolynomial:
    """prim(f(c x)) for a nonzero rational c."""
    a, b, d = c.numerator, c.denominator, f.degree
    coeffs = tuple(f_i * a**i * b ** (d - i) for i, f_i in enumerate(f.coeffs))
    return IntPolynomial(coeffs).primitive_part()


def _first_relation(vectors) -> IntPolynomial:
    """The first relation sum a_i v_i = 0 among integer vectors v_0, v_1, ...
    as a primitive integer polynomial sum a_i x^i.  Each v and its combination
    c of the v_i are reduced against the earlier ones, v <- b_piv v - v_piv b
    (c alike), and divided by their content; the first v reaching 0 ends it."""
    basis = []  # (pivot index, reduced vector, its combination)
    for k, v in enumerate(vectors):
        c = [0] * k + [1]
        for piv, b, cb in basis:
            if v[piv]:
                s, t = b[piv], v[piv]
                v = [s * x - t * y for x, y in zip(v, b)]
                c = [s * x - t * y for x, y in zip_longest(c, cb, fillvalue=0)]
        g = math.gcd(*v, *c)
        v, c = [x // g for x in v], [x // g for x in c]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return IntPolynomial(tuple(c)).primitive_part()
        basis.append((piv, v, c))
    raise ValueError("the vectors are independent")


def _krylov(a, v: list[int]):
    """v, A v, A^2 v, ... by integer matrix-vector products, made on demand."""
    while True:
        yield v
        v = [sum(x * y for x, y in zip(row, v)) for row in a]


def minimal_polynomial(m, den: int | None = None) -> IntPolynomial:
    """Exact minimal polynomial of a rational matrix M = A / D as the
    primitive integer polynomial prim(mp_A(D x)), mp_A from A's Krylov
    relations.  With den given, m is already A as integer rows and D = den."""
    a, den = _integer_matrix(m) if den is None else (m, den)
    n = len(a)
    for i in range(n):
        ann = _first_relation(_krylov(a, [int(i == j) for j in range(n)]))
        result = ann if i == 0 else (result * ann).exact_div(poly_gcd(result, ann)).primitive_part()
        if result.degree == n:
            break
    return _substitute(result, den)


def _powers_of_x(mp: IntPolynomial):
    """x^k mod a monic mp for k = 0, 1, ..., as deg mp integers, lowest first."""
    low = mp.coeffs[:-1]
    v = [1] + [0] * (len(low) - 1)
    while True:
        yield v
        v = [c - v[-1] * a for c, a in zip([0] + v[:-1], low)]


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
    a, den = _integer_matrix(m)
    det = _det(a)
    if det == 0:
        raise ValueError("matrix is singular")
    mp = minimal_polynomial(a, den)
    if not is_squarefree(mp):
        evidence = poly_gcd(mp, mp.derivative())
        return OrderVerdict(
            kind="infinite", reason=NOT_SEMISIMPLE, jordan_evidence=evidence
        )
    # in Q[A] = Q[x]/(mp_A), N = A^n / det A is x^n / det A: its minimal
    # polynomial is prim(R(det A x)), R the first relation among the x^(n j)
    n, d = len(a), mp.degree
    powers = _powers_of_x(_substitute(mp, Fraction(1, den)))
    seq = list(islice(powers, n * d + 1))
    matched, rem = factor_out_cyclotomics(_substitute(_first_relation(seq[::n]), det))
    if rem.coeffs == (1,):
        # N^k = 1 makes M^(n k) = (det M)^k scalar, so the order divides n k;
        # M^k is scalar iff A^k is, iff x^k mod mp_A is a constant
        checked = islice(enumerate(chain(seq, powers)), 1, n * math.lcm(*matched) + 1)
        return OrderVerdict(kind="finite", order=next(k for k, v in checked if not any(v[1:])))
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

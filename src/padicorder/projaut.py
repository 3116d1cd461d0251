"""Finite-order certification of projective automorphisms.

A class [M] in PGL_n has finite order iff M is semisimple and
N = M^n / det M has finite order in GL_n.  The eigenvalues of N are
mu_i = prod_j lambda_i / lambda_j, products of the eigenvalue ratios of
M, so everything reduces to exact rational linear algebra on n x n
matrices: a squarefree minimal polynomial of M, and a minimal
polynomial of N whose factors are all cyclotomic.  Infinite order comes
with a re-checkable reason: a repeated factor of the minimal polynomial
of M (non-semisimplicity), or a local-field witness that some
eigenvalue of N lies off the unit circle at a place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square")
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


def mat_inv(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + list(identity_matrix(n)[i]) for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_det(a: Matrix) -> Fraction:
    n = len(a)
    rows = [list(r) for r in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


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


def _apply(m: Matrix, v: list[Fraction]) -> list[Fraction]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


def _annihilator(m: Matrix, v: list[Fraction]) -> list[Fraction]:
    """Monic coefficients (ascending) of the minimal polynomial of m on
    the Krylov space of v, by exact elimination."""
    n = len(v)
    basis: list[list[Fraction]] = []  # reduced echelon rows
    pivots: list[int] = []
    coords: list[list[Fraction]] = []  # expression of krylov vecs in echelon rows
    krylov = [v[:]]
    while True:
        w = krylov[-1][:]
        expr = [Fraction(0)] * len(basis)
        for idx, (row, pc) in enumerate(zip(basis, pivots)):
            if w[pc] != 0:
                coeff = w[pc] / row[pc]
                expr[idx] = coeff
                w = [x - coeff * y for x, y in zip(w, row)]
        if all(x == 0 for x in w):
            # krylov[-1] = sum expr_idx * basis rows; rewrite in krylov terms
            # basis row idx corresponds to krylov vector idx (triangularly)
            coeffs = [Fraction(0)] * (len(krylov) - 1)
            # solve: each basis row i = krylov[i] - (combination of earlier rows)
            # track via coords
            for idx, c in enumerate(expr):
                if c:
                    for j, cj in enumerate(coords[idx]):
                        coeffs[j] += c * cj
            # minimal polynomial on this vector: x^k - sum coeffs_j x^j
            return [-c for c in coeffs] + [Fraction(1)]
        pc = next(i for i, x in enumerate(w) if x != 0)
        basis.append(w)
        pivots.append(pc)
        # w = krylov[-1] - sum expr * earlier basis rows; in krylov coords:
        coord = [Fraction(0)] * len(krylov)
        coord[-1] = Fraction(1)
        for idx, c in enumerate(expr):
            if c:
                for j, cj in enumerate(coords[idx]):
                    coord[j] -= c * cj
        coords.append(coord)
        krylov.append(_apply(m, krylov[-1]))


def _clear_to_int(coeffs: list[Fraction]) -> IntPolynomial:
    den = math.lcm(*(c.denominator for c in coeffs))
    return IntPolynomial.from_coeffs([int(c * den) for c in coeffs]).primitive_part()


def _poly_lcm(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    gcd = poly_gcd(f, g)
    return (f * g).exact_div(gcd).primitive_part()


def minimal_polynomial(m) -> IntPolynomial:
    """Exact minimal polynomial of a rational matrix, cleared to a
    primitive integer polynomial."""
    m = as_matrix(m)
    n = len(m)
    result: IntPolynomial | None = None
    for i in range(n):
        e = [Fraction(1) if j == i else Fraction(0) for j in range(n)]
        ann = _clear_to_int(_annihilator(m, e))
        result = ann if result is None else _poly_lcm(result, ann)
        if result.degree == n:
            break
    return result


def is_semisimple(m) -> bool:
    """Squarefree minimal polynomial, the exact semisimplicity criterion."""
    return is_squarefree(minimal_polynomial(m))


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


@dataclass(frozen=True)
class ProjAutSpec:
    """A projective automorphism: rational matrix or eigenvalue list
    (the leading eigenvalue is the implicit normalized 1)."""

    matrix: Matrix | None = None
    eigenvalues: tuple[AlgebraicNumberSpec, ...] | None = None

    @classmethod
    def from_matrix(cls, rows) -> "ProjAutSpec":
        m = as_matrix(rows)
        if mat_det(m) == 0:
            raise ValueError("matrix is singular")
        return cls(matrix=m)

    @classmethod
    def from_eigenvalues(cls, specs) -> "ProjAutSpec":
        return cls(eigenvalues=tuple(specs))

    def certify(self) -> OrderVerdict:
        if self.matrix is not None:
            return projective_order(self.matrix)
        return certify_diagonal(self.eigenvalues)


def projective_order(m) -> OrderVerdict:
    """Finite/infinite order of the class of M in PGL, with certificate."""
    m = as_matrix(m)
    det = mat_det(m)
    if det == 0:
        raise ValueError("matrix is singular")
    mp = minimal_polynomial(m)
    if not is_squarefree(mp):
        evidence = poly_gcd(mp, mp.derivative())
        return OrderVerdict(
            kind="infinite", reason=NOT_SEMISIMPLE, jordan_evidence=evidence
        )
    n = len(m)
    big_n = tuple(tuple(x / det for x in row) for row in mat_pow(m, n))
    matched, rem = factor_out_cyclotomics(minimal_polynomial(big_n))
    if rem.coeffs == (1,):
        # N^k = 1 makes M^(n k) = (det M)^k scalar, so the order divides n k
        bound = n * math.lcm(*matched)
        order = next(
            k
            for k in range(1, bound + 1)
            if bound % k == 0 and is_scalar_matrix(mat_pow(m, k))
        )
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


def ratio_polynomial(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """A polynomial vanishing on every ratio alpha/beta with f(alpha) = 0,
    g(beta) = 0, via the resultant Res_y(g(y), f(x*y))."""
    from sympy import Poly, resultant, symbols

    x, y = symbols("x y")
    fxy = sum(c * (x * y) ** i for i, c in enumerate(f.coeffs))
    gy = sum(c * y**i for i, c in enumerate(g.coeffs))
    res = Poly(resultant(gy, fxy, y), x)
    coeffs = [int(c) for c in reversed(res.all_coeffs())]
    return IntPolynomial.from_coeffs(coeffs).primitive_part()


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


def verify_shell_tiling(p: int, s: int, m_range: int):
    """Exact ledger for the multiplicative tiling by alpha^N * A.

    Checks sphere-set disjointness and union over N in [-M, M], the
    scaling law mu(alpha^N A) = p^(Ns) mu(A), and that the truncated sum
    equals the annulus measure computed independently from ball
    measures — the finite shadow of the 0-or-infinity divergence.
    Returns (balanced, ledger dict with exact rationals).
    """
    shell = ShellSet(p, s)
    if m_range < 0:
        raise ValueError("m_range must be >= 0")
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

"""Algebraic numbers given by an exact defining polynomial."""

from __future__ import annotations

from dataclasses import dataclass

from .intpoly import IntPolynomial, UNKNOWN, check_irreducible
from .isolation import ComplexBox


@dataclass(frozen=True, slots=True)
class AlgebraicNumberSpec:
    """An algebraic number: defining polynomial plus optional root selector.

    The defining polynomial is intended irreducible; unless its status is
    PROVEN, downstream certificates are flagged as conditional on
    irreducibility rather than rejected.
    """

    defining_poly: IntPolynomial
    root_selector: ComplexBox | None = None
    irreducibility_status: str = UNKNOWN

    @classmethod
    def from_poly(cls, f: IntPolynomial, prove: bool = False) -> "AlgebraicNumberSpec":
        status = check_irreducible(f) if prove else UNKNOWN
        return cls(f.primitive_part(), None, status)

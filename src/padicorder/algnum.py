"""Algebraic numbers given by an exact defining polynomial."""

from __future__ import annotations

from dataclasses import dataclass

from .intpoly import IntPolynomial, PROVEN, check_irreducible
from .isolation import ComplexBox

UNCHECKED = "Unchecked"


@dataclass(frozen=True, slots=True)
class AlgebraicNumberSpec:
    """An algebraic number: defining polynomial plus optional root selector.

    The defining polynomial is intended irreducible; when its status is
    UNCHECKED, downstream certificates are flagged as conditional on
    irreducibility rather than rejected.
    """

    defining_poly: IntPolynomial
    root_selector: ComplexBox | None = None
    irreducibility_status: str = UNCHECKED

    @classmethod
    def from_poly(cls, f: IntPolynomial, prove: bool = False) -> "AlgebraicNumberSpec":
        status = UNCHECKED
        if prove and check_irreducible(f) == PROVEN:
            status = PROVEN
        return cls(f.primitive_part(), None, status)

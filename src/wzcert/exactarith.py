"""The coordinate check of a cached eigenvalue.

Eigenvalues are elements of `ffpoly.canonical_field(p, d)` from the
decomposition to the certificates: ints for d = 1, coordinate tuples for
d > 1.  The one place they come from outside the program is an `eigsys`
entry of the disk cache, whose decoder checks each value's coordinates by
building this type before any field is built.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ExtFieldElem:
    """The coordinates of an element of the canonical field GF(p^d), d >= 1.

    `coeffs` are the d coordinates, each in [0, p), in the power basis of the
    generator of `ffpoly.canonical_field(p, d)` (for d = 1, the residue).
    """

    p: int
    d: int
    coeffs: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("degree must be >= 1")
        if len(self.coeffs) != self.d:
            raise ValueError("coefficient vector has wrong length")
        if not all(0 <= c < self.p for c in self.coeffs):
            raise ValueError("coordinates must lie in [0, p)")

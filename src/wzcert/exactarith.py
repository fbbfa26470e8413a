"""The eigenvalue type: an element of the canonical field GF(p^d), stored as
its coordinates.

Arithmetic on these values is done in `ffpoly.canonical_field(p, d)` on raw
field elements; this type only carries validated coordinates between the
eigen system computation, the disk cache and the certificates.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ExtFieldElem:
    """An element of the canonical field GF(p^d), d >= 1.

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

    def is_zero(self):
        return not any(self.coeffs)

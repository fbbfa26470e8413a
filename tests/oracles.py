"""Test-side oracles: slow, direct computations that the tests compare the
program against.  None of them is on a certification path.

- `series_mul`: the schoolbook product of two truncated q-series.
- `hecke_coeff`, `hecke_matrix`: T_m on the Miller basis by the classical
  coefficient formula, over the integers or GF(p).
- `mat_det`, `tp_det_modp`: det(T_p mod p) by Gaussian elimination; it is
  zero exactly when some eigen system has a_p = 0.
- `rho_pm_independent`: whether the crystalline reduction with parameter m
  has the tame type of the m = 1 one.
"""

from dataclasses import dataclass
from math import gcd

from wzcert import ffpoly, tame
from wzcert.qseries import PowerSeries, PrecisionError, dim_cusp, miller_basis


def series_mul(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Truncated product; weights add, precision is the minimum of the two."""
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    n = min(f.prec, g.prec)
    coeffs = [sum(f.coeffs[i] * g.coeffs[j - i] for i in range(j + 1)) for j in range(n)]
    return PowerSeries(f.ring, f.weight + g.weight, tuple(coeffs))


@dataclass(frozen=True)
class HeckeMatrix:
    """Matrix of T_m on the Miller basis of S_k; entries[i][j] = a_{i+1}(T_m B_{j+1})."""

    k: int
    m: int
    ring: int | None
    entries: tuple


def hecke_coeff(f, m: int, n: int):
    """a_n(T_m f) = sum_{r | gcd(m,n)} r^(k-1) a_{mn/r^2}(f) for a
    weight-tagged series f covering index m*n."""
    if f.prec <= m * n:
        raise PrecisionError(f"need coefficient {m * n}, have precision {f.prec}")
    k = f.weight
    g = gcd(m, n)
    total = sum(r**(k - 1) * f.coeffs[m * n // (r * r)]
                for r in range(1, g + 1) if g % r == 0)
    return total if f.ring is None else total % f.ring


def hecke_matrix(k: int, m: int, ring: int | None = None) -> HeckeMatrix:
    """Matrix of T_m on S_k in the Miller basis (0x0 when the space is trivial)."""
    d = dim_cusp(k)
    if d == 0:
        return HeckeMatrix(k, m, ring, ())
    basis = miller_basis(k, m * d + 2, ring)
    entries = tuple(
        tuple(hecke_coeff(basis.forms[j], m, i) for j in range(d))
        for i in range(1, d + 1))
    return HeckeMatrix(k, m, ring, entries)


def mat_det(F, M):
    """det(M) over the field F by Gaussian elimination."""
    n = len(M)
    A = [list(r) for r in M]
    det = F.one
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c] != F.zero), None)
        if piv is None:
            return F.zero
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = F.neg(det)
        det = F.mul(det, A[c][c])
        inv = F.inv(A[c][c])
        for r in range(c + 1, n):
            f = F.mul(A[r][c], inv)
            if f != F.zero:
                A[r] = [F.sub(u, F.mul(f, v)) for u, v in zip(A[r], A[c])]
    return det


def tp_det_modp(p: int, k: int) -> int:
    """det(T_p mod p) on S_k (1 on the trivial space): zero exactly when some
    eigen system has a_p = 0.  Needs basis precision p*dim + 2."""
    return mat_det(ffpoly.canonical_field(p, 1), hecke_matrix(k, p, p).entries)


def rho_pm_independent(p: int, m: int) -> bool:
    """Whether the reduction with parameter m agrees with the m = 1 reduction;
    true whenever gcd(m, p+1) = 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return tame.type_equal(tame.rho_nm_inertial(p, p, m), tame.rho_nm_inertial(p, p, 1))

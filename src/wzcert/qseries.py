"""Truncated q-expansions of level-one modular forms.

Provides the normalized Eisenstein series E4 and E6, the discriminant form,
exact truncated series arithmetic over the integers or a prime field, the
classical cusp-space dimension formula, and the echelonized Victor Miller
basis built from monomials in Delta, E4, E6.

Precision is explicit and caller-managed; no operation silently extends it.
"""

from dataclasses import dataclass, field

import numpy as np

from .cache import memo
from .ffpoly import check_int64


class PrecisionError(ValueError):
    """Requested operation needs more known coefficients than available."""


@dataclass(frozen=True)
class PowerSeries:
    """Truncated q-expansion: coeffs[n] is the q^n coefficient.

    ring is None for exact integers, or an odd prime p for GF(p) coefficients.
    """

    ring: int | None
    weight: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("precision must be >= 1")
        if self.weight < 0 or self.weight % 2:
            raise ValueError("weight must be even and >= 0")
        if self.ring is not None:
            object.__setattr__(self, "coeffs", tuple(c % self.ring for c in self.coeffs))

    @property
    def prec(self):
        return len(self.coeffs)

    def coeff(self, n):
        if n >= self.prec:
            raise PrecisionError(f"coefficient {n} beyond precision {self.prec}")
        return self.coeffs[n]


def _conv(a, b, n, p):
    """The first n coefficients of the product of a and b: exact over the
    integers when p is None, else residues mod p."""
    if p is None:
        out = [0] * n
        for i, ai in enumerate(a[:n]):
            if ai:
                for j in range(min(len(b), n - i)):
                    out[i + j] += ai * b[j]
        return out
    check_int64(p, min(len(a), len(b)), "q-series product")   # products a term
    c = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    return [int(x) for x in c[:n] % p]


def _reduced(X, p):
    return X if p is None else X % p


def _sigma_list(power, n):
    """[sigma_power(m) for m < n] by sieve; sigma(0) slot is 0."""
    s = [0] * n
    for d in range(1, n):
        dk = d**power
        for m in range(d, n, d):
            s[m] += dk
    return s


def eisenstein(k: int, prec: int, p: int | None = None) -> PowerSeries:
    """Normalized E4 or E6: constant term 1, then 240*sigma_3 resp. -504*sigma_5."""
    if k not in (4, 6):
        raise ValueError("only E4 and E6 are provided")
    if prec < 1:
        raise ValueError("precision must be >= 1")
    c = 240 if k == 4 else -504
    s = _sigma_list(k - 1, prec)
    coeffs = [1] + [c * s[n] for n in range(1, prec)]
    return PowerSeries(p, k, tuple(coeffs))


def delta(prec: int, p: int | None = None) -> PowerSeries:
    """The discriminant form q prod (1-q^n)^24, weight 12."""
    if prec < 1:
        raise ValueError("precision must be >= 1")
    # Euler product via the pentagonal number theorem, then a 24th power
    eta = [0] * prec
    eta[0] = 1
    m = 1
    while True:
        p1 = m * (3 * m - 1) // 2
        p2 = m * (3 * m + 1) // 2
        if p1 >= prec and p2 >= prec:
            break
        s = -1 if m % 2 else 1
        if p1 < prec:
            eta[p1] += s
        if p2 < prec:
            eta[p2] += s
        m += 1
    # eta's coefficients are 0 and +-1, within _conv's int64 bound unreduced
    sq = lambda a: _conv(a, a, prec, p)
    e8 = sq(sq(sq(eta)))
    e24 = _conv(sq(e8), e8, prec, p)
    coeffs = [0] + e24[:prec - 1]
    return PowerSeries(p, 12, tuple(coeffs))


def dim_cusp(k: int) -> int:
    """dim S_k(SL2(Z)) by the classical formula."""
    if k % 2:
        raise ValueError("weight must be even")
    if k < 12:
        return 0
    return k // 12 - 1 if k % 12 == 2 else k // 12


@dataclass(frozen=True)
class MillerBasis:
    """Echelonized integral basis of S_k to a given precision.

    Form j (1-indexed) has q^i coefficient delta_{ij} for 1 <= i <= dim.
    """

    k: int
    p: int | None
    prec: int
    forms: tuple = field(default=())

    @property
    def dim(self):
        return len(self.forms)


@memo()
def _tables(p, prec):
    """Power tables for (p-or-None, prec); _power grows them lazily in place."""
    one = [1] + [0] * (prec - 1)
    return {
        "E4": list(eisenstein(4, prec, p).coeffs),
        "E6": list(eisenstein(6, prec, p).coeffs),
        "D": list(delta(prec, p).coeffs),
        "E4pow": {0: one},
        "Dpow": {0: one},
    }


def _power(p, prec, name, n):
    tab = _tables(p, prec)
    pows = tab[name + "pow"]
    base = tab[name]
    top = max(pows)
    while top < n:
        pows[top + 1] = _conv(pows[top], base, prec, p)
        top += 1
    return pows[n]


def _monomial_exponents(k, j):
    """(a, b) with 4a + 6b = k - 12j and b in {0, 1}."""
    w = k - 12 * j
    b = 0 if w % 4 == 0 else 1
    return (w - 6 * b) // 4, b


def miller_basis(k: int, prec: int, p: int | None = None) -> MillerBasis:
    """The Victor Miller basis of S_k to the given precision.

    Monomials Delta^j E4^a E6^b (descending j, b forced by weight parity) are
    exactly row-reduced; the leading minor is unitriangular, so the echelon
    basis is integral and its mod-p reduction equals the mod-p construction.
    """
    d = dim_cusp(k)
    if prec <= d:
        raise PrecisionError("prec too small to echelonize the basis")
    if d == 0:
        return MillerBasis(k, p, prec, ())
    rows = []
    for j in range(1, d + 1):
        a, b = _monomial_exponents(k, j)
        row = _conv(_power(p, prec, "D", j), _power(p, prec, "E4", a), prec, p)
        if b:
            row = _conv(row, _tables(p, prec)["E6"], prec, p)
        rows.append(row)
    # Gauss-Jordan upward: row t has leading 1 at q^(t+1); clear entries above.
    # Mod p an entry is one residue product and a residue: within _conv's bound
    R = np.array(rows, dtype=object if p is None else np.int64)
    for t in range(d - 1, 0, -1):
        R[:t] = _reduced(R[:t] - np.outer(R[:t, t + 1], R[t]), p)
    forms = tuple(PowerSeries(p, k, tuple(r)) for r in R.tolist())
    basis = MillerBasis(k, p, prec, forms)
    for j, f in enumerate(basis.forms, start=1):
        for i in range(1, d + 1):
            if f.coeffs[i] != (1 if i == j else 0):
                raise ArithmeticError("echelon invariant violated")
    return basis

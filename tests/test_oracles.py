"""Independent oracles for number-theoretic claims the certifier relies on.

The companion-pair test shares only the exact Miller basis with the
program: the integer Hecke matrices come from the coefficient formula in
`oracles.py`, and everything downstream (characteristic polynomials, gcds
over GF(p)) is computed by sympy.  The kernel tests compare the GF(p)
characteristic polynomial and factorization against sympy on seeded random
inputs, and the factorization also on the T_2 charpolys at p = 251 and 293.
sympy is not a dependency of wzcert, so the tests skip where it is
not installed.
"""

import random
from math import gcd

import pytest

from wzcert import ffpoly, fflinalg, hecke, qseries

from oracles import hecke_matrix

P151 = 151
ELLS = (2, 3, 5, 7)


def _companion_gcd(sympy, p, k, ell):
    """gcd over GF(p) of charpoly(T_ell | S_k) and charpoly(ell^(k-1) T_ell | S_(p+1-k)).

    A nontrivial gcd means some eigenvalue of T_ell on S_k equals ell^(k-1)
    times an eigenvalue of T_ell on S_(p+1-k), up to Frobenius: the
    companion congruence a_ell(f) = ell^(k-1) a_ell(g) at this one ell.
    """
    x = sympy.Symbol("x")
    scale = pow(ell, k - 1, p)

    def charpoly(weight, c):
        rows = hecke_matrix(weight, ell).entries
        M = sympy.Matrix([[c * a % p for a in row] for row in rows])
        return sympy.Poly(M.charpoly(x).as_expr(), x, modulus=p)

    return sympy.gcd(charpoly(k, 1), charpoly(p + 1 - k, scale))


def test_p151_companion_pairs_oracle():
    """At p = 151 no gcd-eligible weight has a companion, while (52, 100) does.

    The congruence is symmetric in (k, p+1-k), and gcd(k-1, p-1) equals
    gcd(p-k, p-1), so weights k <= (p+1)/2 cover every pair.  An eligible
    weight is ruled out as soon as one ell gives gcd 1.  The pair (52, 100),
    with gcd(51, 150) = 3, is the positive control: its gcd is nontrivial at
    every ell, so the oracle can tell a companion pair when it sees one.
    """
    sympy = pytest.importorskip("sympy")
    p = P151
    for k in range(12, (p + 1) // 2 + 1, 2):
        if qseries.dim_cusp(k) == 0 or qseries.dim_cusp(p + 1 - k) == 0:
            continue
        if gcd(k - 1, p - 1) != 1:
            continue
        assert any(_companion_gcd(sympy, p, k, ell).degree() == 0
                   for ell in ELLS), k
    assert gcd(52 - 1, p - 1) == 3
    for ell in ELLS:
        assert _companion_gcd(sympy, p, 52, ell).degree() >= 1, ell


def _random_matrix(rng, p, n):
    density = rng.choice((0.3, 1.0))
    return [[rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)]


def test_mat_charpoly_oracle():
    """Hessenberg charpolys equal sympy's, reduced mod p, including n >= p."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    for p in (7, 11, 107):
        F = ffpoly.canonical_field(p, 1)
        for n in range(16):
            M = _random_matrix(rng, p, n)
            got = fflinalg.mat_charpoly(F, M)
            want = sympy.Poly(sympy.Matrix(n, n, sum(M, [])).charpoly(x).as_expr(),
                              x, modulus=p)
            assert got == tuple(c % p for c in reversed(want.all_coeffs())), (p, M)


def test_factor_monic_oracle():
    """factor_monic's factors and multiplicities equal sympy's factor_list."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(12)
    for p in (7, 41, 107):
        F = ffpoly.canonical_field(p, 1)
        for deg in range(1, 16):
            for _ in range(2):
                f = tuple(rng.randrange(p) for _ in range(deg)) + (1,)
                if rng.random() < 0.5:   # force repeated factors
                    f = ffpoly.pmul(F, f, f[:deg // 2 + 1] + (1,))
                want = sympy.Poly(list(reversed(f)), x, modulus=p).factor_list()[1]
                want = sorted((tuple(c % p for c in reversed(g.all_coeffs())), m)
                              for g, m in want)
                assert sorted(ffpoly.factor_monic(F, f)) == want, (p, f)
    # T_2 charpolys, whose irreducible factors reach degree 23 at p = 293
    degrees = set()
    for p in (251, 293):
        F = ffpoly.canonical_field(p, 1)
        for k in range(12, p + 2, 2):
            d = qseries.dim_cusp(k)
            if d == 0:
                continue
            M2 = hecke._op_matrix(hecke._basis_rows(p, k, 2 * d + 2), k, 2, p)
            f = fflinalg.mat_charpoly(F, M2)
            want = sympy.Poly(list(reversed(f)), x, modulus=p).factor_list()[1]
            want = sorted((tuple(c % p for c in reversed(g.all_coeffs())), m)
                          for g, m in want)
            got = ffpoly.factor_monic(F, f)
            assert sorted(got) == want, (p, k)
            degrees.update(ffpoly.pdeg(g) for g, _m in got)
    assert max(degrees) == 23


def test_canonical_modulus_oracle():
    """The modulus is irreducible by sympy, and sympy finds every monic
    candidate before it in the lex order (c_{d-1}, ..., c_0) reducible."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p, d in ((2, 2), (2, 7), (3, 4), (5, 6), (7, 2), (7, 3), (7, 12),
                 (13, 5), (23, 12), (89, 4), (89, 12), (179, 8)):
        mod = ffpoly.canonical_modulus(p, d)
        order = sum(c * p**j for j, c in enumerate(mod[:-1]))
        for t in range(order + 1):
            coeffs = [t // p**j % p for j in range(d)] + [1]
            poly = sympy.Poly(list(reversed(coeffs)), x, modulus=p)
            assert poly.is_irreducible == (t == order), (p, d, coeffs)

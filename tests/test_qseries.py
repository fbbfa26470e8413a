import random

import pytest

from wzcert.qseries import (PowerSeries, PrecisionError, delta, dim_cusp,
                            eisenstein, miller_basis)

from oracles import series_mul


def test_eisenstein_examples():
    assert eisenstein(4, 3).coeffs == (1, 240, 2160)
    assert eisenstein(6, 3).coeffs == (1, -504, -16632)
    assert eisenstein(4, 1).coeffs == (1,)
    with pytest.raises(ValueError):
        eisenstein(8, 5)


def test_delta_examples():
    d = delta(4)
    assert d.coeffs == (0, 1, -24, 252)
    assert d.weight == 12


def test_series_mul_examples():
    one_plus = PowerSeries(None, 0, (1, 1, 0))
    one_minus = PowerSeries(None, 0, (1, -1, 0))
    assert series_mul(one_plus, one_minus).coeffs == (1, 0, -1)
    e4 = eisenstein(4, 4)
    assert series_mul(e4, e4).coeffs[1] == 480
    d = delta(6)
    one = PowerSeries(None, 0, (1,) + (0,) * 5)
    assert series_mul(d, one).coeffs == d.coeffs
    with pytest.raises(ValueError):
        series_mul(d, delta(6, 7))


def test_series_mul_weight_and_prec():
    prod = series_mul(eisenstein(4, 10), eisenstein(6, 7))
    assert prod.weight == 10 and prod.prec == 7


def test_series_mul_commutative_associative():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(2, 30)
        mk = lambda: PowerSeries(None, 2 * rng.randrange(4),
                                 tuple(rng.randrange(-9, 10) for _ in range(n)))
        f, g, h = mk(), mk(), mk()
        assert series_mul(f, g).coeffs == series_mul(g, f).coeffs
        assert (series_mul(series_mul(f, g), h).coeffs
                == series_mul(f, series_mul(g, h)).coeffs)


def test_dim_cusp():
    assert dim_cusp(26) == 1
    assert dim_cusp(82) == 6
    assert len(miller_basis(82, 8).forms) == 6
    assert dim_cusp(10) == 0
    assert dim_cusp(12) == 1 and dim_cusp(14) == 0 and dim_cusp(24) == 2
    with pytest.raises(ValueError):
        dim_cusp(13)


def test_miller_basis_weight_26():
    mb = miller_basis(26, 5)
    assert mb.forms[0].coeffs == (0, 1, -48, -195804, -33552128)
    # independent check of the q^4 coefficient by Hecke multiplicativity:
    # a_4 = a_2^2 - 2^(k-1) a_1 for a normalized eigenform
    assert mb.forms[0].coeffs[4] == (-48) ** 2 - 2**25


def test_miller_basis_weight_12_and_24():
    assert miller_basis(12, 4).forms[0].coeffs == (0, 1, -24, 252)
    mb = miller_basis(24, 4)
    assert [f.coeffs[:3] for f in mb.forms] == [(0, 1, 0), (0, 0, 1)]


def test_miller_basis_echelon_shape():
    mb = miller_basis(48, 12)
    d = mb.dim
    assert d == 4
    for j, f in enumerate(mb.forms, start=1):
        for i in range(1, d + 1):
            assert f.coeffs[i] == (1 if i == j else 0)


def test_miller_basis_empty_and_errors():
    assert miller_basis(10, 3).forms == ()
    assert miller_basis(14, 3).forms == ()
    with pytest.raises(PrecisionError):
        miller_basis(24, 2)


def test_discriminant_identity():
    # 1728 Delta = E4^3 - E6^2, so Delta*(E4^3 - E6^2) = 1728 Delta^2
    n = 50
    e4, e6, d = eisenstein(4, n), eisenstein(6, n), delta(n)
    e4cubed = series_mul(series_mul(e4, e4), e4)
    e6sq = series_mul(e6, e6)
    for a, b, c in zip(e4cubed.coeffs, e6sq.coeffs, d.coeffs):
        assert a - b == 1728 * c
    lhs = [x - y for x, y in
           zip(series_mul(d, e4cubed).coeffs, series_mul(d, e6sq).coeffs)]
    assert all(v % 1728 == 0 for v in lhs)


def test_modp_backend_matches_exact():
    grid = [(k, p, max(dim_cusp(k) + 2, 40)) for p in (7, 53, 107, 199)
            for k in (12, 24, 48, 86, 120)]
    grid += [(36, 101, 300), (120, 199, 150)]    # long-precision spot checks
    for k, p, prec in grid:
        exact = miller_basis(k, prec)
        modp = miller_basis(k, prec, p)
        assert modp.p == p
        for fe, fp in zip(exact.forms, modp.forms):
            assert tuple(c % p for c in fe.coeffs) == fp.coeffs


def test_modp_product_beyond_int64_raises():
    # (p-1)^2 >= 2^63: one product of residues no longer fits an int64
    p = 4294967311
    with pytest.raises(ValueError, match="int64"):
        delta(5, p)
    with pytest.raises(ValueError, match="int64"):
        miller_basis(12, 5, p)


def test_power_series_validation():
    with pytest.raises(ValueError):
        PowerSeries(None, 3, (1, 2))
    with pytest.raises(ValueError):
        PowerSeries(None, 4, ())
    s = PowerSeries(107, 4, (-1, 108))
    assert s.coeffs == (106, 1)
    with pytest.raises(PrecisionError):
        s.coeff(5)

"""The coordinate check of cached eigenvalues, and the canonical fields and
factorization that eigenvalues live in."""

import random

import pytest

from wzcert import ffpoly
from wzcert.cache import clear_memos
from wzcert.exactarith import ExtFieldElem
from wzcert.primes import primes_up_to


def test_ext_field_canonical_moduli():
    assert ffpoly.canonical_field(3, 2).modulus == (1, 0, 1)     # x^2 + 1
    assert ffpoly.canonical_field(5, 2).modulus == (2, 0, 1)     # x^2 + 2
    K = ffpoly.canonical_field(7, 1)
    assert K.degree == 1 and K.order == 7


def test_ext_field_determinism():
    m1 = ffpoly.canonical_field(11, 3).modulus
    clear_memos()
    m2 = ffpoly.canonical_field(11, 3).modulus
    assert m1 == m2


def test_ext_field_moduli_are_irreducible():
    # no roots, and in degree 2 that settles it; cross-check a few degrees
    for p, d in ((3, 2), (5, 2), (7, 3), (11, 4)):
        mod = ffpoly.canonical_modulus(p, d)
        F = ffpoly.canonical_field(p, 1)
        f = ffpoly.pfrom_ints(F, mod)
        assert ffpoly.factor_monic(F, f) == [(f, 1)]


def test_field_axioms_random():
    rng = random.Random(20240811)
    for p, d in ((7, 1), (7, 2), (11, 2), (5, 3), (3, 4)):
        K = ffpoly.canonical_field(p, d)
        for _ in range(300):
            a = K.from_counter(rng.randrange(K.order))
            b = K.from_counter(rng.randrange(K.order))
            c = K.from_counter(rng.randrange(K.order))
            assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
            assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
            assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
            if a != K.zero:
                assert K.mul(a, K.inv(a)) == K.one


def factor(p, coeffs):
    return ffpoly.factor_monic(ffpoly.canonical_field(p, 1), tuple(coeffs))


def test_factor_examples():
    assert factor(5, (4, 0, 1)) == [((1, 1), 1), ((4, 1), 1)]
    assert factor(3, (1, 0, 1)) == [((1, 0, 1), 1)]
    # no caller factors over a field of even order
    with pytest.raises(ValueError):
        factor(2, (0, 1, 0, 1))


def test_factor_validation():
    for constant in ((1,), ()):
        with pytest.raises(ValueError):
            factor(5, constant)


def test_factor_product_reconstruction():
    rng = random.Random(1)
    primes = [p for p in primes_up_to(100) if p > 2]
    for _ in range(150):
        p = rng.choice(primes)
        deg = rng.randrange(1, 13)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        F = ffpoly.canonical_field(p, 1)
        f = tuple(coeffs)
        prod = (1,)
        for g, mult in factor(p, f):
            for _ in range(mult):
                prod = ffpoly.pmul(F, prod, g)
        assert prod == ffpoly.ptrim(F, f)
        for g, _ in factor(p, f):
            assert g[-1] == 1


def test_factor_sorted_canonically():
    out = factor(7, (6, 0, 0, 0, 0, 0, 1))   # x^6 - 1 splits
    degs = [len(g) - 1 for g, _ in out]
    assert degs == sorted(degs)
    keys = [g for g, _ in out]
    assert keys == sorted(keys, key=lambda g: (len(g), g))


def test_prime_field_elem():
    a = ExtFieldElem(107, 1, (59,))
    b = ExtFieldElem(107, 1, (50,))
    F = ffpoly.canonical_field(a.p, a.d)
    x, y = F.from_coords(a.coeffs), F.from_coords(b.coeffs)
    assert F.add(x, y) == 2 and F.mul(x, y) == 59 * 50 % 107
    assert F.mul(F.inv(x), x) == 1
    assert any(a.coeffs) and not any(ExtFieldElem(107, 1, (0,)).coeffs)
    assert a == ExtFieldElem(107, 1, (59,)) and a != b
    for bad in ((-48,), (107,), (1, 0)):
        with pytest.raises(ValueError):
            ExtFieldElem(107, 1, bad)


def test_ext_field_elem_requires_canonical_modulus():
    x = ExtFieldElem(5, 2, (0, 1))
    K = ffpoly.canonical_field(x.p, x.d)
    assert K.modulus == (2, 0, 1)      # the canonical x^2 + 2
    g = K.from_coords(x.coeffs)
    assert K.coords(K.mul(g, g)) == (3, 0)    # x^2 = -2 = 3
    assert K.coords(K.mul(g, K.inv(g))) == (1, 0)
    with pytest.raises(ValueError):
        ExtFieldElem(5, 2, (1,))
    with pytest.raises(ValueError):
        ExtFieldElem(5, 0, ())

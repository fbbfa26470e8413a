import random

import pytest

from wzcert import ffpoly
from wzcert.cache import clear_memos
from wzcert.hecke import _embedding


def test_embed_root_battery():
    rng = random.Random(5)
    for p in (41, 107, 151):
        Fp = ffpoly.canonical_field(p, 1)
        for dp in (2, 3, 4, 6):
            while True:
                g = tuple(rng.randrange(p) for _ in range(dp)) + (1,)
                if ffpoly.factor_monic(Fp, g) == [(g, 1)]:
                    break
            for mult in (1, 2):
                K = ffpoly.canonical_field(p, dp * mult)
                r = ffpoly.embed_root(g, K)
                assert ffpoly.peval(K, ffpoly._lift_poly(K, g), r) == K.zero


def test_embed_root_deterministic():
    g = ffpoly.canonical_modulus(41, 2)
    K = ffpoly.canonical_field(41, 4)
    a = ffpoly.embed_root(g, K)
    clear_memos()
    K = ffpoly.canonical_field(41, 4)
    b = ffpoly.embed_root(g, K)
    assert a == b


def test_split_roots_separates_subfield_conjugates():
    # roots conjugate over the degree-2 subfield; the quadratic character is
    # Galois-stable, so prime-field shifts alone could never split these
    K = ffpoly.canonical_field(7, 4)
    r = K.from_counter(7)
    r2 = K.pow_(r, 7**2)
    h = ffpoly.pmul(K, (K.neg(r), K.one), (K.neg(r2), K.one))
    roots = ffpoly.split_roots(K, h)
    assert roots == sorted([r, r2], key=K.coords)


def test_embedding_into_canonical_field():
    # GF(5)[x]/(x^2 + x + 2) into GF(5^4): a ring homomorphism sending 1 to 1
    Fp = ffpoly.canonical_field(5, 1)
    K = ffpoly.ExtField(Fp, (2, 1, 1))
    assert ffpoly.factor_monic(Fp, K.modulus) == [(K.modulus, 1)]
    K_can = ffpoly.canonical_field(5, 4)
    ev = _embedding(K, K_can)
    rng = random.Random(2)
    for _ in range(50):
        a = K.from_counter(rng.randrange(K.order))
        b = K.from_counter(rng.randrange(K.order))
        assert ev(K.mul(a, b)) == K_can.mul(ev(a), ev(b))
        assert ev(K.add(a, b)) == K_can.add(ev(a), ev(b))
    assert ev(K.one) == K_can.one


def test_ext_field_needs_prime_base():
    Fp = ffpoly.canonical_field(5, 1)
    K = ffpoly.canonical_field(5, 2)
    with pytest.raises(TypeError):
        ffpoly.ExtField(K, (K.gen, K.zero, K.one))
    assert ffpoly.ExtField(Fp, (2, 1, 1)).degree == 2

import random

from wzcert import ffpoly
from wzcert.cache import clear_memos
from wzcert.hecke import _embedding_to_canonical


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


def test_depth2_tower_canonicalization():
    Fp = ffpoly.canonical_field(5, 1)
    K1 = ffpoly.ExtField(Fp, ffpoly.pfrom_ints(Fp, ffpoly.canonical_modulus(5, 2)))
    for t in range(2, 30):
        cand = K1.from_counter(t)
        h = (K1.neg(cand), K1.zero, K1.one)
        if ffpoly.factor_monic(K1, h) == [(h, 1)]:
            break
    K2 = ffpoly.ExtField(K1, h)
    assert K2.degree == 4
    ev, K_can = _embedding_to_canonical(K2)
    rng = random.Random(2)
    for _ in range(50):
        a = K2.from_counter(rng.randrange(K2.order))
        b = K2.from_counter(rng.randrange(K2.order))
        assert ev(K2.mul(a, b)) == K_can.mul(ev(a), ev(b))
        assert ev(K2.add(a, b)) == K_can.add(ev(a), ev(b))
    assert ev(K2.one) == K_can.one

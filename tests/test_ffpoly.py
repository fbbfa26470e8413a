import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import wzcert
from wzcert import ffpoly
from wzcert.cache import clear_memos
from wzcert.hecke import _apply, _embedding
from wzcert.primes import primes_up_to

# sha256 of the moduli of every prime 5 < p <= 180 and 2 <= d <= 14, as
# recorded from the per-candidate root scan and Rabin test the batched
# search replaced
MODULI_SHA256 = "d8245f745502d0d5967e6b74e0bfe7f9319ad54777b6c9f144e4d919b3932a57"


def peval(K, f, x):
    acc = K.zero
    for c in reversed(f):
        acc = K.add(K.mul(acc, x), c)
    return acc


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
                assert peval(K, ffpoly.pfrom_ints(K, g), r) == K.zero
                # oracle: Cantor-Zassenhaus over K, sorted by coordinates
                assert r == ffpoly.split_roots(K, ffpoly.pfrom_ints(K, g))[0]


def _irreducible(F, d, c0):
    """The first monic x^d + x + c irreducible over F with c >= c0."""
    for c in range(c0, c0 + 1000):
        f = (c, 1) + (0,) * (d - 2) + (1,)
        if ffpoly.factor_monic(F, f) == [(f, 1)]:
            return f
    raise AssertionError("no irreducible found")


def test_embed_root_is_exact_for_large_primes():
    # at p = 100000007 a residue product exceeds 2^53, so a float convolution
    # would round it; the int64 bound dp*D*(p-1)^2 < 2^63 still holds
    for p in (999983, 100000007):
        Fp = ffpoly.canonical_field(p, 1)
        for d in (2, 3, 4):
            K = ffpoly.ExtField(Fp, _irreducible(Fp, d, 1))
            g = _irreducible(Fp, d, K.modulus[0] + 1)
            r = ffpoly.embed_root(g, K)
            assert peval(K, ffpoly.pfrom_ints(K, g), r) == K.zero
    assert (100000007 - 1) ** 2 > 2**53


def test_embed_root_int64_bound():
    # 2^31 - 1 is prime and 3 mod 4, so x^2 + 1 is irreducible; dp*D = 4
    # products of residues exceed 2^63
    Fp = ffpoly.canonical_field(2**31 - 1, 1)
    K = ffpoly.ExtField(Fp, (1, 0, 1))
    with pytest.raises(ValueError, match=r"embed_root: int64 arithmetic needs 4\*\(p-1\)\^2"):
        ffpoly.embed_root((1, 0, 1), K)


def test_embed_root_needs_degree_below_p():
    # Newton's identities divide by 1..deg g
    g = ffpoly.canonical_modulus(7, 7)
    with pytest.raises(ValueError, match=r"deg g < p, and deg g = 7 >= p = 7"):
        ffpoly.embed_root(g, ffpoly.canonical_field(7, 7))


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
    M = _embedding(K, K_can)
    ev = lambda x: _apply(M, K_can, [x])[0]
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


def test_canonical_moduli_pinned():
    clear_memos()
    rows = [[p, d, list(ffpoly.canonical_modulus(p, d))]
            for p in primes_up_to(180) if p > 5 for d in range(2, 15)]
    assert len(rows) == 494
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == MODULI_SHA256


def test_canonical_modulus_int64_bound():
    # 2^31 - 1 is prime, and 3*(p-1)^2 exceeds 2^63
    with pytest.raises(ValueError, match=r"3\*\(p-1\)\^2 < 2\^63"):
        ffpoly.canonical_modulus(2**31 - 1, 2)
    with pytest.raises(ValueError, match="not prime"):
        ffpoly.canonical_modulus(2**31, 2)


def test_frob_is_pth_power():
    rng = random.Random(11)
    Fp = ffpoly.canonical_field(7, 1)
    fields = [ffpoly.canonical_field(p, d)
              for p, d in ((2, 5), (3, 4), (7, 2), (41, 3), (107, 6), (179, 14))]
    # non-canonical moduli: GF(5)[x]/(x^2 + x + 2) and a cubic over GF(7)
    fields.append(ffpoly.ExtField(ffpoly.canonical_field(5, 1), (2, 1, 1)))
    cubic = (1, 1, 0, 1)
    assert ffpoly.factor_monic(Fp, cubic) == [(cubic, 1)]
    fields.append(ffpoly.ExtField(Fp, cubic))
    for K in fields:
        assert K.frob(K.one) == K.one
        for _ in range(40):
            a = K.from_counter(rng.randrange(K.order))
            assert K.frob(a) == K.pow_(a, K.p)


def test_cli_import_needs_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wzcert.__file__)))
    code = "import sys, wzcert.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"

import pytest

from wzcert import galoischecks as gc
from wzcert import hecke
from wzcert.hecke import EigenSystem, eigensystems
from wzcert.primes import primes_up_to


def f26():
    return eigensystems(107, 26, 13)[0]


def synthetic(p, k, values, ap, B=13):
    vals = {ell: v % p for ell, v in values.items()}
    return EigenSystem(p, k, 1, vals, ap % p, 1, True, B)


def test_companion_match_107():
    got = gc.companion_match(107, 26, f26(), 13)
    assert got is not None
    gsys, e, j = got
    assert gsys.k == 82 and e == 25 and j == 0
    assert gsys.field.coords(gsys.values[2]) == (87,)
    # the relation holds at every stored prime, and fails for the other sign
    f = f26()
    a = {ell: f.field.coords(v)[0] for ell, v in f.values.items()}
    b = {ell: gsys.field.coords(v)[0] for ell, v in gsys.values.items()}
    for ell in f.values:
        assert a[ell] == pow(ell, 25, 107) * b[ell] % 107
    assert any(a[ell] != pow(ell, 81, 107) * b[ell] % 107 for ell in f.values)


def test_companion_exponent_convention():
    assert gc.companion_exponent(107, 26) == 25
    assert gc.companion_exponent(107, 82) == 81  # == -25 mod 106


def test_companion_symmetry():
    got = gc.companion_match(107, 26, f26(), 13)
    gsys = got[0]
    back = gc.companion_match(107, 82, gsys, 13)
    assert back is not None
    fback, e_back, _ = back
    assert e_back == (-25) % 106
    assert fback.as_doc() == f26().as_doc()


def test_companion_empty_target():
    sys17 = [s for s in eigensystems(17, 12, 13) if s.ordinary]
    assert sys17 and gc.companion_match(17, 12, sys17[0], 13) is None


def test_companion_regression_nonsplit_pair():
    # first ordinary pair in the scan grid with a nonempty companion space
    # and no match: p = 29, k = 12 (companion weight 18)
    s = [x for x in eigensystems(29, 12, 13) if x.ordinary][0]
    assert gc.companion_match(29, 12, s, 13) is None
    v = gc.split_verdict(29, 12, s, 13, None)
    assert v.verdict == gc.FAIL and v.witness["searched_systems"] >= 1


def test_split_verdict():
    v = gc.split_verdict(107, 26, f26(), 13, gc.companion_match(107, 26, f26(), 13))
    assert v.verdict == gc.PASS
    assert v.witness["companion_weight"] == 82
    assert v.witness["exponent"] == 25
    nonord = next(s for s in eigensystems(79, 38, 13) if not s.ordinary)
    with pytest.raises(ValueError):
        gc.split_verdict(79, 38, nonord, 13, None)
    # empty cuspidal target space
    f = [x for x in eigensystems(107, 98, 13) if x.ordinary][0]
    assert gc.companion_match(107, 98, f, 13) is None
    v = gc.split_verdict(107, 98, f, 13, None)     # companion weight 10 < 12
    assert v.verdict == gc.FAIL and v.witness["searched_systems"] == 0


def test_ord_irreducible():
    assert gc.ord_irreducible(107, 26, f26(), 50).verdict == gc.PASS
    # synthetic reducible-looking system: a_ell = 1 + ell^(k-1)
    p, k = 107, 26
    vals = {ell: (1 + pow(ell, k - 1, p)) % p for ell in primes_up_to(13)}
    s = synthetic(p, k, vals, 1)
    v = gc.ord_irreducible(p, k, s, 13)
    assert v.verdict == gc.FAIL
    assert 0 in v.witness["eisenstein_exponents"]
    v2 = gc.ord_irreducible(p, k, s, 2)
    assert v2.verdict == gc.INCONCLUSIVE


def test_not_dihedral():
    v = gc.not_dihedral_ordinary(107, f26(), 13)
    assert v.verdict == gc.PASS
    assert v.witness["witness_ell"] == 2 and v.witness["p_star"] == -107
    # all nonresidues zero -> inconclusive
    p = 107
    vals = {ell: 0 if pow(ell, 53, p) == p - 1 else 1 for ell in primes_up_to(13)}
    s = synthetic(p, 26, vals, 1)
    v = gc.not_dihedral_ordinary(p, s, 13)
    assert v.verdict == gc.INCONCLUSIVE
    # p = 1 mod 4 records +p
    s17 = [x for x in eigensystems(17, 12, 13)][0]
    v = gc.not_dihedral_ordinary(17, s17, 13)
    assert v.witness["p_star"] == 17


def test_not_exceptional():
    v = gc.not_exceptional_trace(107, 26, f26(), 13)
    assert v.verdict == gc.PASS and v.witness["witness_ell"] <= 13
    # u = 4 everywhere (projective order <= 2): inconclusive; the synthetic
    # weight label is odd so that (k-1)/2 is integral
    p, k = 107, 13
    vals = {ell: 2 * pow(ell, (k - 1) // 2, p) % p for ell in primes_up_to(13)}
    s = synthetic(p, k, vals, 1)
    assert gc.not_exceptional_trace(p, k, s, 13).verdict == gc.INCONCLUSIVE
    # u = 1 everywhere (order 3): inconclusive
    vals = {ell: pow(ell, (k - 1) // 2, p) % p for ell in primes_up_to(13)}
    s = synthetic(p, k, vals, 1)
    assert gc.not_exceptional_trace(p, k, s, 13).verdict == gc.INCONCLUSIVE


def test_nonord_image_chain():
    chain = gc.nonord_image_chain(79, 38)
    assert [c.verdict for c in chain] == [gc.PASS] * 3
    assert chain[1].witness["cyclic_subgroup_order"] == 80
    with pytest.raises(ValueError):
        gc.nonord_image_chain(59, 16)
    chain = gc.nonord_image_chain(79, 42)
    assert chain[2].witness["k_mod_p_plus_1"] == 42
    assert chain[2].witness["forbidden_residue"] == 41


def test_nonord_chain_never_fails_on_eligible_sample():
    from math import gcd

    from wzcert.ordscan import nonordinary_weights
    for p in (79, 151):
        eligible = [k for k in nonordinary_weights(p) if gcd(k - 1, p + 1) == 1]
        assert eligible
        for k in eligible:
            assert all(c.verdict == gc.PASS for c in gc.nonord_image_chain(p, k))


def test_large_image_verdict():
    assert gc.large_image_verdict(107, 26, f26(), "ordinary", 13).verdict == gc.PASS
    nonord = next(s for s in eigensystems(79, 38, 13) if not s.ordinary)
    assert gc.large_image_verdict(79, 38, nonord, "nonordinary").verdict == gc.PASS
    # INCONCLUSIVE propagation
    p = 107
    vals = {ell: 0 if pow(ell, 53, p) == p - 1 else 1 for ell in primes_up_to(13)}
    s = synthetic(p, 26, vals, 1)
    assert gc.large_image_verdict(p, 26, s, "ordinary", 13).verdict == gc.INCONCLUSIVE
    # FAIL propagation via the synthetic reducible system
    vals = {ell: (1 + pow(ell, 25, p)) % p for ell in primes_up_to(13)}
    s = synthetic(p, 26, vals, 1)
    assert gc.large_image_verdict(p, 26, s, "ordinary", 13).verdict == gc.FAIL
    with pytest.raises(ValueError):
        gc.large_image_verdict(107, 26, f26(), "other")
    # the ordinary checks search to the bound they are given; none is assumed
    with pytest.raises(ValueError):
        gc.large_image_verdict(107, 26, f26(), "ordinary")


def test_verdict_monotone_and_deterministic():
    f = f26()
    small = gc.ord_irreducible(107, 26, f, 2)
    big = gc.ord_irreducible(107, 26, f, 50)
    assert (small.verdict, big.verdict) != (gc.PASS, gc.INCONCLUSIVE)
    assert gc.not_dihedral_ordinary(107, f, 3).verdict == gc.PASS
    assert gc.not_dihedral_ordinary(107, f, 13).verdict == gc.PASS
    a = gc.large_image_verdict(107, 26, f, "ordinary", 13).as_doc()
    b = gc.large_image_verdict(107, 26, f, "ordinary", 13).as_doc()
    assert a == b

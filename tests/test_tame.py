import random
from collections import Counter
from math import gcd

import pytest

from wzcert.tame import (_from_omega2_multiset, lift_check_nonordinary,
                         lift_check_ordinary, rho_nm_inertial, sym_level2,
                         sym_ordinary, type_equal)

from oracles import rho_pm_independent


def oracle_pairing(p, exps):
    """Independent test oracle: pair a multiset of omega_2 exponents into
    level-1 singles and conjugate pairs, as (level, exponent) data."""
    M = p * p - 1
    count = Counter(e % M for e in exps)
    out = []
    for e in sorted(count):
        while count[e]:
            if e % (p + 1) == 0:
                count[e] -= 1
                out.append((1, (e // (p + 1)) % (p - 1)))
            else:
                pe = e * p % M
                count[e] -= 1
                count[pe] -= 1
                out.append((2, min(e, pe)))
    return sorted(out)


def as_data(T):
    return sorted([(1, e) for e in T.level1_exponents()] +
                  [(2, pair[0]) for pair in T.level2_pairs()])


def test_omega2_grouping_is_canonical():
    M = 79 * 79 - 1
    pe = 100 * 79 % M
    # a conjugate pair {e, pe} is recorded by its smaller member
    T = _from_omega2_multiset(79, [pe, 100])
    assert T.level2 == (min(100, pe),) and T.level1 == ()
    assert T.level2_pairs() == ((100, pe),)
    assert sym_level2(79, pe, 2).level2 == sym_level2(79, 100, 2).level2 == (100,)
    # exponents divisible by p+1 are level-1 characters, recorded mod p-1
    T = _from_omega2_multiset(79, [-80, 5 * 80, pe, 100])
    assert T.level1 == (5, 77) and T.level2 == (100,) and T.dim == 4
    # a multiset not closed under multiplication by p has no grouping
    for exps in ([100], [100, 100, pe]):
        with pytest.raises(ValueError):
            _from_omega2_multiset(79, exps)


def test_sym_ordinary_examples():
    T = sym_ordinary(107, 26, 106)
    assert sorted(T.level1_exponents()) == list(range(106))
    T2 = sym_ordinary(107, 26, 105)
    missing = set(range(106)) - set(T2.level1_exponents())
    assert missing == {1}
    assert sym_ordinary(107, 26, 1).level1_exponents() == (0,)
    with pytest.raises(ValueError):
        sym_ordinary(107, 25, 10)


def test_sym_ordinary_matches_generic_pair_oracle():
    # sym of the pair (a, b) = {a(n-1-i) + b i}; the library's centered case
    # is a = (k-2)/2, b = -k/2
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice([7, 11, 23, 47])
        k = 2 * rng.randrange(2, 40)
        n = rng.randrange(1, 25)
        a, b = (k - 2) // 2, -(k // 2)
        expected = sorted(((a * (n - 1 - i) + b * i) % (p - 1)) for i in range(n))
        got = sorted(sym_ordinary(p, k, n).level1_exponents())
        assert got == expected


def test_twist_equivariance_of_pair_sym():
    # shifting both exponents by e shifts the whole multiset by (n-1)e
    rng = random.Random(13)
    for _ in range(200):
        p = rng.choice([7, 11, 23, 47])
        a, b, e = (rng.randrange(p - 1) for _ in range(3))
        n = rng.randrange(1, 20)
        base = sorted(((a * (n - 1 - i) + b * i) % (p - 1)) for i in range(n))
        shifted = sorted(((a + e) * (n - 1 - i) + (b + e) * i) % (p - 1)
                         for i in range(n))
        assert shifted == sorted((x + (n - 1) * e) % (p - 1) for x in base)


def test_sym_level2_structure():
    T = sym_level2(79, 37, 79)
    assert T.level1_exponents() == (39,)
    assert len(T.level2_pairs()) == 39
    assert T.dim == 79
    assert sym_level2(79, 37, 1).level1_exponents() == (0,)
    pair = sym_level2(79, 37, 2)
    assert pair.level2_pairs() == ((37, 37 * 79 % 6240),)
    with pytest.raises(ValueError):
        sym_level2(79, 80, 5)


def test_sym_level2_against_oracle():
    rng = random.Random(17)
    for _ in range(150):
        p = rng.choice([7, 11, 23, 43])
        M = p * p - 1
        a = rng.randrange(1, M)
        if a % (p + 1) == 0:
            continue
        n = rng.randrange(1, 30)
        exps = [(a * (n - 1 - i) + p * a * i) % M for i in range(n)]
        assert as_data(sym_level2(p, a, n)) == oracle_pairing(p, exps)
        assert sym_level2(p, a, n).dim == n


def test_rho_nm_examples():
    T = rho_nm_inertial(79, 79, 1)
    assert T.level1_exponents() == (39,)
    expected_pairs = {tuple(sorted(((-78 * i) % 6240, (-78 * 79 * i) % 6240)))
                      for i in range(1, 40)}
    assert set(T.level2_pairs()) == expected_pairs
    assert rho_nm_inertial(79, 1, 5).level1_exponents() == (0,)
    assert type_equal(rho_nm_inertial(79, 79, 3), rho_nm_inertial(79, 79, 1))
    assert not type_equal(rho_nm_inertial(79, 79, 2), rho_nm_inertial(79, 79, 1))


def test_type_equal():
    T = sym_level2(79, 37, 79)
    assert type_equal(T, T)
    assert type_equal(T, rho_nm_inertial(79, 79, 1))
    with pytest.raises(ValueError):
        type_equal(T, rho_nm_inertial(83, 83, 1))


def test_rho_pm_independent():
    assert rho_pm_independent(79, 3) is True
    assert rho_pm_independent(79, 1) is True
    # frozen by enumeration: gcd(2, 80) != 1 changes the reduction
    assert rho_pm_independent(79, 2) is False
    for p in (23, 59, 101):
        for m in range(1, 12):
            if gcd(m, p + 1) == 1:
                assert rho_pm_independent(p, m) is True, (p, m)


def test_lift_check_ordinary():
    assert lift_check_ordinary(107, 26, 106).passed
    assert lift_check_ordinary(107, 26, 105).passed
    res = lift_check_ordinary(107, 54, 106)
    assert not res.passed
    assert res.mismatch == (0, 1, 0)
    ok = lift_check_ordinary(107, 26, 106)
    assert ok.lift["hodge_tate_weights"] == list(range(106))
    assert ok.lift["unit_duality"] == "psi[n-1-i] = psi[i]^-1"
    with pytest.raises(ValueError):
        lift_check_ordinary(107, 26, 104)


def test_lift_check_nonordinary():
    assert lift_check_nonordinary(79, 38).passed
    res = lift_check_nonordinary(59, 16)
    assert not res.passed
    assert res.mismatch is not None
    assert lift_check_nonordinary(79, 4).passed
    with pytest.raises(ValueError):
        lift_check_nonordinary(79, 80)


def omega2_exponent_sum(T):
    """Sum of T's omega_2 exponents mod p^2-1: (p+1)e for a level-1 character
    eps^e, e + pe for a level-2 pair."""
    p = T.p
    total = sum((p + 1) * e for e in T.level1_exponents())
    total += sum(e + pe for e, pe in T.level2_pairs())
    return total % (p * p - 1)


def test_determinant_sum_invariant():
    rng = random.Random(23)
    for _ in range(200):
        p = rng.choice([7, 11, 23, 43, 79])
        M = p * p - 1
        a = rng.randrange(1, M)
        if a % (p + 1) == 0:
            continue
        n = rng.randrange(1, 25)
        T = sym_level2(p, a, n)
        assert omega2_exponent_sum(T) == (1 + p) * a * n * (n - 1) // 2 % M


def test_conjugation_closure():
    T = sym_level2(79, 37, 79)
    M = 79 * 79 - 1
    for e, pe in T.level2_pairs():
        assert pe == e * 79 % M
        assert e * 79 % M == pe and pe * 79 % M == e


def test_negation_symmetry_sample():
    for p in (23, 79, 101):
        for a in (3, 7, 9):
            if gcd(a, p + 1) != 1:
                continue
            assert type_equal(sym_level2(p, a, p), sym_level2(p, -a % (p*p-1), p))


def test_complete_residue_sample():
    for p in (23, 107, 199):
        for k in range(12, 12 + 2 * (p - 1), 2):
            if gcd(k - 1, p - 1) != 1:
                continue
            T = sym_ordinary(p, k, p - 1)
            assert sorted(T.level1_exponents()) == list(range(p - 1))

from math import gcd

import pytest

from wzcert import hecke
from wzcert.ordscan import nonordinary_weights
from wzcert.primes import primes_up_to


def gcds(p):
    """{k: gcd(k-1, p+1)} over the non-ordinary weights of p."""
    return {k: gcd(k - 1, p + 1) for k in nonordinary_weights(p)}


def test_nonordinary_weights_anchors():
    ws59 = nonordinary_weights(59)
    assert 16 in ws59 and min(ws59) == 16
    assert 38 in nonordinary_weights(79)
    assert 26 not in nonordinary_weights(107)


def test_nonordinary_weights_sorted_even():
    ws = nonordinary_weights(79)
    assert ws == sorted(ws)
    assert all(k % 2 == 0 and 12 <= k < 79 for k in ws)


def test_eligibility_rows():
    assert gcds(79)[38] == 1
    assert 1 not in gcds(59).values()
    assert gcds(59)[16] == 15
    assert 1 in gcds(151).values()


def test_scan_prefix_and_anchors():
    # 79 is the only prime <= 110 with a gcd-eligible non-ordinary weight
    with_eligible = [p for p in primes_up_to(110)
                     if p > 5 and 1 in gcds(p).values()]
    assert with_eligible == [79]


def test_recomputation_confirms_nonordinary():
    for k in nonordinary_weights(59):
        systems = hecke.eigensystems(59, k, 13)
        assert any(not any(s.field.coords(s.ap)) for s in systems)


def test_preconditions():
    for bad in (5, 12, 15):
        with pytest.raises(ValueError):
            nonordinary_weights(bad)
    # tau(13) = -577738 = 8 mod 13: the only weight below 13 is ordinary
    assert nonordinary_weights(13) == []

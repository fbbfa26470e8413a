"""Non-ordinary weights of a prime.

Finds the even weights 12 <= k < p carrying a mod-p eigen system with
a_p = 0 and splits them by the gcd(k-1, p+1) eligibility filter; the
non-ordinary certificate is built from that split.
"""

from dataclasses import dataclass
from math import gcd

from .hecke import ap_profile
from .primes import is_prime
from .qseries import dim_cusp


def nonordinary_weights(p: int) -> list:
    """Even weights 12 <= k < p with some mod-p eigen system having a_p = 0."""
    if not is_prime(p) or p <= 5:
        raise ValueError("p must be a prime > 5")
    out = []
    for k in range(12, p, 2):
        if dim_cusp(k) == 0:
            continue
        if any(zero for _d, zero, _m in ap_profile(p, k)):
            out.append(k)
    return out


@dataclass(frozen=True)
class EligibilityRow:
    """Non-ordinary weights of p split by the gcd(k-1, p+1) = 1 filter."""

    p: int
    eligible: tuple     # (k, 1) pairs
    ineligible: tuple   # (k, gcd) pairs with gcd > 1


def eligible_nonordinary(p: int) -> EligibilityRow:
    """Filter nonordinary_weights(p) by gcd(k-1, p+1) = 1, recording each gcd."""
    eligible = []
    ineligible = []
    for k in nonordinary_weights(p):
        g = gcd(k - 1, p + 1)
        if g == 1:
            eligible.append((k, g))
        else:
            ineligible.append((k, g))
    return EligibilityRow(p, tuple(eligible), tuple(ineligible))

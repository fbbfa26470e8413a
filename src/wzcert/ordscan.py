"""Non-ordinary weights of a prime.

Finds the even weights 12 <= k < p carrying a mod-p eigen system with
a_p = 0; the non-ordinary certificate is built on them.
"""

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

"""Primality testing and prime enumeration (deterministic for word-sized inputs)."""

from .cache import memo

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@memo()
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the fixed base set is exact below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            start = p * p
            sieve[start:n + 1:p] = bytearray(len(range(start, n + 1, p)))
    return [i for i in range(n + 1) if sieve[i]]

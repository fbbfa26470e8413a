"""Exact calculus of tame inertial characters.

Level-1 characters are powers of the mod-p cyclotomic character (exponents
mod p-1); level-2 characters are conjugate pairs of powers of the fundamental
character of level 2 (exponents mod p^2-1, pair {e, pe}), which restricts to
level 1 exactly when p+1 divides the exponent.  Inertial types are canonical
multisets of such characters; symmetric powers of two-dimensional restrictions
and the crystalline-family reductions are computed by exact exponent
enumeration.
"""

from collections import Counter
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class InertialType:
    """Canonical multiset of tame characters: the semisimplified restriction
    to tame inertia of a mod-p local representation.

    `level1` holds the level-1 exponents mod p-1, sorted; `level2` holds, for
    each level-2 character, the smaller member e of its conjugate exponent
    pair {e, p e mod p^2-1}, sorted.
    """

    p: int
    level1: tuple
    level2: tuple

    @property
    def dim(self):
        return len(self.level1) + 2 * len(self.level2)

    def level1_exponents(self):
        return self.level1

    def level2_pairs(self):
        """The conjugate exponent pairs (e, p e mod p^2-1), smaller first."""
        M = self.p * self.p - 1
        return tuple((e, e * self.p % M) for e in self.level2)

    def as_doc(self):
        return {
            "p": self.p,
            "dim": self.dim,
            "level1": list(self.level1),
            "level2": [list(pair) for pair in self.level2_pairs()],
        }


def _from_omega2_multiset(p, exps):
    """Group a multiset of one-dimensional omega_2 exponents (closed under
    multiplication by p) into level-1 singles and level-2 conjugate pairs."""
    M = p * p - 1
    count = Counter(e % M for e in exps)
    level1, level2 = [], []
    for e in sorted(count):
        while count[e] > 0:
            if e % (p + 1) == 0:
                count[e] -= 1
                level1.append(e // (p + 1))
            else:
                pe = e * p % M
                if count[pe] <= (1 if pe == e else 0):
                    raise ValueError("exponent multiset is not stable under "
                                     "conjugation")
                count[e] -= 1
                count[pe] -= 1
                level2.append(min(e, pe))
    return InertialType(p, tuple(sorted(level1)), tuple(sorted(level2)))


def _level1_type(p, exps):
    return InertialType(p, tuple(sorted(e % (p - 1) for e in exps)), ())


def sym_ordinary(p: int, k: int, n: int) -> InertialType:
    """Inertial type of the (n-1)-st symmetric power of a split ordinary
    two-dimensional restriction, centered by the half-determinant twist:
    level-1 exponents (n-1)(k-2)/2 - (k-1)i for i = 0..n-1."""
    if k % 2:
        raise ValueError("weight must be even")
    if n < 1:
        raise ValueError("n must be >= 1")
    c = (n - 1) * (k - 2) // 2
    return _level1_type(p, [c - (k - 1) * i for i in range(n)])


def _sym2_exponents(p, a, n):
    M = p * p - 1
    return [(a * (n - 1 - i) + p * a * i) % M for i in range(n)]


def sym_level2(p: int, a: int, n: int) -> InertialType:
    """Inertial type of the (n-1)-st symmetric power of the irreducible
    two-dimensional type with fundamental-character exponents {a, pa}."""
    if a % (p + 1) == 0:
        raise ValueError("exponent a must not be divisible by p+1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _from_omega2_multiset(p, _sym2_exponents(p, a, n))


def rho_nm_inertial(p: int, n: int, m: int) -> InertialType:
    """Inertial type of the mod-p reduction of the crystalline family member
    with Hodge-Tate weights 0, m, ..., (n-1)m (symmetric power of the induced
    character with exponent -m)."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    return _from_omega2_multiset(p, _sym2_exponents(p, (-m) % (p * p - 1), n))


def type_equal(T1: InertialType, T2: InertialType) -> bool:
    """Multiset equality of canonical forms."""
    if T1.p != T2.p:
        raise ValueError("mixed primes")
    return T1.level1 == T2.level1 and T1.level2 == T2.level2


@dataclass(frozen=True)
class LiftCheckResult:
    """Outcome of a weight-zero tame-shape comparison.

    On PASS, `lift` describes the crystalline lift symbolically: unramified
    characters lift to their Teichmueller representatives, cyclotomic powers
    lift exactly.  On FAIL, `mismatch` is the first residue whose multiset
    multiplicity differs (residue, expected_count, got_count).
    """

    passed: bool
    p: int
    k: int
    n: int
    got: InertialType
    expected: InertialType
    lift: dict | None = None
    mismatch: tuple | None = None

    def as_doc(self):
        doc = {
            "passed": self.passed,
            "p": self.p,
            "k": self.k,
            "n": self.n,
            "computed_type": self.got.as_doc(),
            "expected_type": self.expected.as_doc(),
        }
        if self.lift is not None:
            doc["lift"] = self.lift
        if self.mismatch is not None:
            doc["first_mismatch"] = {
                "residue": self.mismatch[0],
                "expected_count": self.mismatch[1],
                "got_count": self.mismatch[2],
            }
        return doc


def _first_mismatch(got, expected):
    """(item, expected_count, got_count) for the least item whose
    multiplicities in the two multisets differ; None when they are equal."""
    cg, ce = Counter(got), Counter(expected)
    return next(((x, ce[x], cg[x]) for x in sorted(set(cg) | set(ce))
                 if cg[x] != ce[x]), None)


def lift_check_ordinary(p: int, k: int, n: int) -> LiftCheckResult:
    """PASS when the ordinary symmetric-power type is the weight-zero target
    {cyclotomic^-i : i = 0..n-1}; n must be p-1 or p-2."""
    if n not in (p - 1, p - 2):
        raise ValueError("n must be p-1 or p-2")
    got = sym_ordinary(p, k, n)
    expected = _level1_type(p, [-i for i in range(n)])
    if type_equal(got, expected):
        lift = {
            "characters": n,
            "shape": "unramified_teichmuller_unit * cyclotomic^-i for i = 0..n-1",
            "hodge_tate_weights": list(range(n)),
            "unit_duality": "psi[n-1-i] = psi[i]^-1",
        }
        return LiftCheckResult(True, p, k, n, got, expected, lift=lift)
    return LiftCheckResult(False, p, k, n, got, expected,
                           mismatch=_first_mismatch(got.level1, expected.level1))


def lift_check_nonordinary(p: int, k: int) -> LiftCheckResult:
    """PASS when gcd(k-1, p+1) = 1 and the symmetric-power type of the
    irreducible local input matches the weight-zero crystalline reduction.

    Defined for any 2 <= k < p; cuspidal callers only reach 12 <= k.
    """
    if not 2 <= k < p:
        raise ValueError("need 2 <= k < p")
    got = sym_level2(p, k - 1, p)
    expected = rho_nm_inertial(p, p, 1)
    g = gcd(k - 1, p + 1)
    if g == 1 and type_equal(got, expected):
        lift = {
            "characters": "weight-zero crystalline family member, m = 1",
            "hodge_tate_weights": list(range(p)),
        }
        return LiftCheckResult(True, p, k, p, got, expected, lift=lift)
    # characters tagged by level; None when only the gcd condition fails
    chars = lambda T: [(1, e) for e in T.level1] + [(2, e) for e in T.level2]
    return LiftCheckResult(False, p, k, p, got, expected,
                           mismatch=_first_mismatch(chars(got), chars(expected)))

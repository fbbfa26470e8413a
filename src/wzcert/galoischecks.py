"""Mod-p Galois-side verdicts computed from eigen systems.

Companion-form detection decides semisimplicity of the ordinary local
restriction; witness-based exclusions (reducible, dihedral, exceptional)
certify that the global image contains SL2 via Dickson's classification.
In the non-ordinary regime all three image verdicts are forced by exact
arithmetic from the gcd hypothesis.

The companion twist convention is calibrated and frozen: a_l(f) equals
l^(k-1) a_l(g) for the weight-(p+1-k) companion g, the choice of sign in
+-(k-1) mod (p-1) that reproduces the known weight-26/weight-82 match at
p = 107.
"""

from dataclasses import dataclass
from math import gcd

import numpy as np

from .cache import memo
from .hecke import default_bound, eigensystems, witness_primes
from .qseries import dim_cusp

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class CheckVerdict:
    id: str
    verdict: str
    witness: dict

    def as_doc(self):
        return {"id": self.id, "verdict": self.verdict, "witness": self.witness}


def companion_exponent(p: int, k: int) -> int:
    """The frozen twist exponent relating a system to its companion."""
    return (k - 1) % (p - 1)


def companion_match(p: int, k: int, fsys, B: int):
    """Search weight p+1-k, to the bound B, for a companion of fsys.

    Returns (companion EigenSystem, exponent, frobenius_power) or None; the
    weight-(p+1-k) space may be empty (no cuspidal companion exists), in which
    case None is returned as well.
    """
    if not fsys.ordinary:
        raise ValueError("companion search requires an ordinary system")
    if k < 12:
        raise ValueError("k must be at least 12")
    kk = p + 1 - k
    if kk < 12 or dim_cusp(kk) == 0:
        return None
    e = companion_exponent(p, k)
    ells = witness_primes(p, min(B, fsys.B))
    for gsys in eigensystems(p, kk, B):
        j = _twisted_equal(p, e, fsys, gsys, ells)
        if j is not None:
            return gsys, e, j
    return None


def _twisted_equal(p, e, fsys, gsys, ells):
    """Least Frobenius power j with a_l(f) = l^e Frob^j(a_l(g)) for all l, or None.

    Systems related by a prime-field-valued twist generate the same value
    field (the twist fixes each a_l's field and the unit roots at p invert
    each other), so classes of different degree can never match.
    """
    if fsys.d != gsys.d:
        return None
    K = fsys.field
    gvals = {ell: gsys.values[ell] for ell in ells}
    for j in range(fsys.d):
        if all(fsys.values[ell] == K.mul(K.from_int(pow(ell, e, p)), gvals[ell])
               for ell in ells):
            return j
        gvals = {ell: K.frob(v) for ell, v in gvals.items()}
    return None


def split_verdict(p: int, k: int, fsys, B: int, found) -> CheckVerdict:
    """PASS iff a companion system exists in weight p+1-k; `found` is
    companion_match(p, k, fsys, B).

    A PASS is rigorous modulo the companion-form criterion for local
    semisimplicity and the stated congruence bound; a FAIL records an
    exhaustive search of the cuspidal target space.
    """
    if not fsys.ordinary:
        raise ValueError("split verdict requires an ordinary system")
    kk = p + 1 - k
    if kk < 12 or dim_cusp(kk) == 0:
        return CheckVerdict("companion_split", FAIL, {
            "companion_weight": kk,
            "searched_systems": 0,
            "reason": "no cusp forms in the companion weight; unramified-twist "
                      "companions outside the cuspidal range are not searched",
        })
    if found is None:
        return CheckVerdict("companion_split", FAIL, {
            "companion_weight": kk,
            "searched_systems": len(eigensystems(p, kk, B)),
            "bound": B,
        })
    gsys, e, j = found
    return CheckVerdict("companion_split", PASS, {
        "companion_weight": kk,
        "exponent": e,
        "frobenius_power": j,
        "companion": gsys.as_doc(),
        "bound": B,
        "evidence": "eigenvalue congruence checked for all primes l <= bound, "
                    "l != p; semisimplicity follows from the companion-form "
                    "criterion",
    })


@memo(64)
def _powers(p, bound):
    """(ells, P): ells = witness_primes(p, bound), and the read-only int64
    array P[i, a] = l_i^a mod p for 0 <= a < p-1."""
    ells = witness_primes(p, bound)
    P = np.array([[pow(ell, a, p) for a in range(p - 1)] for ell in ells],
                 dtype=np.int64).reshape(len(ells), p - 1)
    P.flags.writeable = False
    return ells, P


def ord_irreducible(p: int, k: int, fsys, B_img: int) -> CheckVerdict:
    """Excludes reducible semisimplifications: level one forces both characters
    to be cyclotomic powers, so each candidate exponent split a needs a witness
    prime with a_l != l^a + l^(k-1-a); the witness is the least such l."""
    bound = min(B_img, fsys.B)
    ells, P = _powers(p, bound)
    expected = (P + P[:, (k - 1 - np.arange(p - 1)) % (p - 1)]) % p     # ell x split a
    # a value outside GF(p), written -1 here, equals no residue
    coords = [fsys.field.coords(fsys.values[ell]) for ell in ells]
    residues = np.array([c[0] if not any(c[1:]) else -1 for c in coords], dtype=np.int64)
    differs = expected != residues[:, None]
    hit = differs.any(axis=0)
    uncovered = np.flatnonzero(~hit).tolist()
    if not uncovered:
        counts = np.bincount(differs.argmax(axis=0), minlength=len(ells)).tolist()
        return CheckVerdict("image_irreducible", PASS, {
            "exponent_splits_tested": p - 1,
            "witness_ell_histogram": {str(l): c for l, c in zip(ells, counts) if c},
            "bound": bound,
        })
    verdict = FAIL if bound >= default_bound(p) else INCONCLUSIVE
    return CheckVerdict("image_irreducible", verdict, {
        "eisenstein_exponents": uncovered,
        "bound": bound,
        "certification_bound": default_bound(p),
    })


def not_dihedral_ordinary(p: int, fsys, B_img: int) -> CheckVerdict:
    """A nonzero a_l at a prime l inert in the only possible quadratic field
    (the one ramified exactly at p) rules out dihedral image."""
    if p <= 5:
        raise ValueError("p must exceed 5")
    p_star = p if p % 4 == 1 else -p
    K = fsys.field
    tested = []
    for ell in witness_primes(p, min(B_img, fsys.B)):
        if pow(ell, (p - 1) // 2, p) != p - 1:
            continue
        tested.append(ell)
        if fsys.values[ell] != K.zero:
            return CheckVerdict("image_not_dihedral", PASS, {
                "witness_ell": ell,
                "legendre": -1,
                "a_ell": [str(c) for c in K.coords(fsys.values[ell])],
                "p_star": p_star,
            })
    return CheckVerdict("image_not_dihedral", INCONCLUSIVE, {
        "nonresidues_tested": tested,
        "bound": min(B_img, fsys.B),
        "p_star": p_star,
    })


def not_exceptional_trace(p: int, k: int, fsys, B_img: int) -> CheckVerdict:
    """A projective trace invariant u = a_l^2 l^(1-k) outside the order-<=5
    locus {0, 1, 2, 4, roots of u^2-3u+1} witnesses non-exceptional image."""
    K = fsys.field
    small = [K.from_int(c) for c in (0, 1, 2, 4)]
    for ell in witness_primes(p, min(B_img, fsys.B)):
        a = fsys.values[ell]
        u = K.mul(K.mul(a, a), K.from_int(pow(ell, -(k - 1), p)))
        if u in small:
            continue
        if K.add(K.sub(K.mul(u, u), K.mul(K.from_int(3), u)), K.one) == K.zero:
            continue
        return CheckVerdict("image_not_exceptional", PASS, {
            "witness_ell": ell,
            "u": [str(c) for c in K.coords(u)],
        })
    return CheckVerdict("image_not_exceptional", INCONCLUSIVE, {
        "bound": min(B_img, fsys.B),
        "reason": "all tested projective traces lie in the order-<=5 locus",
    })


def nonord_image_chain(p: int, k: int) -> list:
    """The three image verdicts of the non-ordinary regime, all PASS by exact
    arithmetic given gcd(k-1, p+1) = 1 and a non-ordinary system at (p, k)."""
    if p <= 5:
        raise ValueError("p must exceed 5")
    g = gcd(k - 1, p + 1)
    if g != 1:
        raise ValueError(f"gcd(k-1, p+1) = {g} != 1")
    M = p * p - 1
    pair = sorted(((k - 1) % M, (k - 1) * p % M))
    irr = CheckVerdict("image_irreducible", PASS, {
        "reason": "a_p = 0 makes the local restriction irreducible of "
                  "fundamental-character type; global irreducibility follows",
        "fundamental_exponent_pair": pair,
    })
    order = p + 1
    exc = CheckVerdict("image_not_exceptional", PASS, {
        "cyclic_subgroup_order": order,
        "exceeds": 5,
        "reason": "projective inertia image contains a cycle longer than any "
                  "element order in the exceptional groups",
    })
    forbidden = (p + 3) // 2 % (p + 1)
    if k % (p + 1) == forbidden:
        raise ArithmeticError("dihedral congruence cannot occur under the gcd "
                              "hypothesis")
    dih = CheckVerdict("image_not_dihedral", PASS, {
        "k_mod_p_plus_1": k % (p + 1),
        "forbidden_residue": forbidden,
        "reason": "the forbidden residue would force (p+1)/2 to divide "
                  "gcd(k-1, p+1) = 1",
    })
    return [irr, exc, dih]


def large_image_verdict(p: int, k: int, fsys, mode: str,
                        B_img: int | None = None) -> CheckVerdict:
    """Aggregate image verdict: PASS means the image contains SL2(F_p), by
    Dickson's classification once reducible, dihedral, and exceptional images
    are excluded.  The ordinary checks search to `B_img`; the non-ordinary
    ones follow from exact arithmetic and take no bound."""
    if mode not in ("ordinary", "nonordinary"):
        raise ValueError("mode must be ordinary or nonordinary")
    if mode == "ordinary":
        if B_img is None:
            raise ValueError("the ordinary image checks need B_img")
        parts = [
            ord_irreducible(p, k, fsys, B_img),
            not_dihedral_ordinary(p, fsys, B_img),
            not_exceptional_trace(p, k, fsys, B_img),
        ]
    else:
        parts = nonord_image_chain(p, k)
    if any(c.verdict == FAIL for c in parts):
        verdict = FAIL
    elif any(c.verdict == INCONCLUSIVE for c in parts):
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return CheckVerdict("image_large", verdict, {
        "meaning": "image contains SL2(F_p) via Dickson's classification",
        "constituents": [c.as_doc() for c in parts],
    })

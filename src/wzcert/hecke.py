"""Hecke operators on level-one cusp spaces and mod-p eigen systems.

T_m acts on the Miller basis through the classical coefficient formula
a_n(T_m f) = sum_{r | gcd(m,n)} r^(k-1) a_{mn/r^2}(f).  Mod-p eigen systems
come from the irreducible factors g of the T_2 charpoly over GF(p).  The
T_2 eigenspace of the root x of g in K = GF(p)[x]/(g) is built from
ker g(T_2) over GF(p) with int64 arithmetic over GF(p), one vector for each
kernel vector outside the K-span of those before it (Stein, Modular Forms:
A Computational Approach, 2007).  An eigenspace of more than one vector is
refined by T_3, T_5, ... where eigenvalues coincide; when a later a_ell
needs a larger field, the refinement continues in the canonical GF(p^D).
a_ell and a_p are read off the normalized eigenform expansion at precision
p+1.  A class is recorded in the canonical field through the matrix of the
field map, whose rows are the powers of the lex-least root of g there
(`ffpoly.embed_root`, found with GF(p) arithmetic only): all of its values
and a_p are one int64 product with that matrix, and stay elements of that
field through the checks.  The full T_p matrix, which needs dim-times-larger
precision, is never built.
"""

import dataclasses
from dataclasses import dataclass
from math import gcd as _gcd

import numpy as np

from . import cache as diskcache
from . import ffpoly
from .cache import memo
from .exactarith import ExtFieldElem
from .fflinalg import (mat_charpoly, mat_lift, mat_nullspace, poly_kernel_modp, rref,
                       solve_in_span)
from .primes import is_prime, primes_up_to
from .qseries import dim_cusp, miller_basis


def default_bound(p: int) -> int:
    """Eigenvalue bound B = max(13, (p+1)//12 + 2), about the Sturm bound of
    weight p+1.  The congruences checked to B, such as a companion match, are
    congruences of forms of larger weight: B bounds their search and does not
    prove them."""
    return max(13, (p + 1) // 12 + 2)


@memo()
def witness_primes(p: int, B: int) -> tuple:
    """The primes ell <= B, ell != p: the keys of an eigen system's values."""
    return tuple(filter(p.__ne__, primes_up_to(B)))


def exact_ap_dim1(k: int, p: int) -> int:
    """The exact integer a_p of the unique normalized eigenform in a 1-dim S_k."""
    if dim_cusp(k) != 1:
        raise ValueError(f"dim S_{k} = {dim_cusp(k)}, not 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # the least power of two above p + 1
    return _dim1_form(k, 1 << (p + 1).bit_length()).coeff(p)


@memo()
def _dim1_form(k, prec):
    """The exact normalized form of a 1-dim S_k to precision prec: one form,
    whatever p, whose truncations are its prefixes."""
    return miller_basis(k, prec).forms[0]


# ---------------------------------------------------------------------------
# basis rows and operator matrices


@memo(64)
def _basis_rows(p, k, prec):
    """Mod-p Miller basis coefficient rows at the given precision."""
    return [list(f.coeffs) for f in miller_basis(k, prec, p).forms]


def _op_matrix(rows, k, m, p):
    """Matrix of T_m over GF(p) from basis coefficient rows."""
    d = len(rows)
    out = []
    for i in range(1, d + 1):
        g = _gcd(m, i)
        terms = [(pow(r, k - 1, p), m * i // (r * r)) for r in range(1, g + 1) if g % r == 0]
        out.append([sum(c * rows[j][idx] for c, idx in terms) % p for j in range(d)])
    return out


# ---------------------------------------------------------------------------
# eigen systems


@dataclass
class EigenSystem:
    """A Galois-conjugacy class of mod-p Hecke eigen systems on S_k.

    values maps the primes `witness_primes(p, B)` to elements of the
    canonical value field `field` = GF(p^d) (ints for d = 1, coordinate
    tuples for d > 1); ap, in that field too, is the q^p coefficient of the
    normalized eigenform.

    Conjugate rule: of the d Frobenius conjugates of the class, the one
    recorded has the packet (a_2, a_3, a_5, ...) that is lex-least, comparing
    the values in turn by their coordinates.  Class order: classes are sorted
    by the minimal polynomial of a_2 over GF(p) (degree first, then the
    coefficients from the constant term up), then, where a_2 ties, by the
    factor of the next a_ell's characteristic polynomial that tells them apart.
    """

    p: int
    k: int
    d: int
    values: dict
    ap: object
    mult: int
    semisimple_action: bool
    B: int
    field: object = dataclasses.field(init=False, repr=False, compare=False)
    # every class is computed in full, so nothing overflows; certificate
    # format v1 still records "overflow": false in each system
    overflow = False

    def __post_init__(self):
        self.field = ffpoly.canonical_field(self.p, self.d)

    @property
    def ordinary(self):
        return self.ap != self.field.zero

    def as_doc(self):
        coords = lambda e: [str(c) for c in self.field.coords(e)]
        return {
            "d": self.d,
            "mult": self.mult,
            "ss": self.semisimple_action,
            "overflow": self.overflow,
            "ap": coords(self.ap),
            "values": {str(ell): coords(v) for ell, v in self.values.items()},
        }


class _RawClass:
    __slots__ = ("field", "values", "ap", "mult", "path", "vec")

    def __init__(self, field, values, ap, mult, path, vec):
        self.field = field
        self.values = values
        self.ap = ap
        self.mult = mult
        self.path = path
        self.vec = vec


def _factor_key(F, h):
    return (ffpoly.pdeg(h), tuple(F.coords(c) for c in h))


@memo(256)
def _raw_classes(p, k, B):
    """All mod-p eigen system classes on S_k with a_ell (ell <= B) and a_p.

    Returns (classes, semisimple, dim).  Each irreducible factor g of the T_2
    charpoly gives the eigenvalue x of T_2 in K = GF(p)[x]/(g) (GF(p) when
    deg g = 1), and its K-eigenspace is built from ker g(T_2) over GF(p)
    without K-arithmetic (`_t2_eigenspace`).  An eigenspace of more than one
    vector is refined by T_3, T_5, ...; a class whose later a_ell needs a
    larger field continues in the canonical GF(p^D).  Mapping K into the
    canonical field happens separately.
    """
    d = dim_cusp(k)
    if d == 0:
        return [], True, 0
    Fp = ffpoly.canonical_field(p, 1)
    prec0 = max(p + 2, 2 * d + 2, B + 2)
    rows0 = _basis_rows(p, k, prec0)
    ells = witness_primes(p, B)
    M2 = _op_matrix(rows0, k, 2, p)
    leaves = []
    for g, _mult in ffpoly.factor_monic(Fp, mat_charpoly(Fp, M2)):
        path = ((2, _factor_key(Fp, g)),)
        K = Fp if ffpoly.pdeg(g) == 1 else ffpoly.ExtField(Fp, g)
        space = _t2_eigenspace(p, K, M2, g)
        leaves.extend(_refine(p, k, d, K, space, path, ells, 1, B, prec0))
    classes = [_leaf_class(p, k, K, space, path, B, prec0)
               for K, space, path in leaves]
    classes.sort(key=lambda c: c.path)
    semisimple = sum(c.field.degree * c.mult for c in classes) == d
    return classes, semisimple, d


def _t2_eigenspace(p, K, M2, g):
    """A K-basis of the eigenspace of T_2 (the matrix M2) for the root x of g
    in K.

    W = ker g(T_2) over GF(p) is a K-vector space, x acting as T_2.  For w in
    W and u_i = T_2^i w, the vector v = sum_i c_i(x) u_i, with
    g(X)/(X - x) = sum_i c_i(x) X^i, satisfies (T_2 - x) v = g(T_2) w = 0.
    The map w -> v is K-linear and onto the eigenspace, and injective because
    v's x^(D-1) coordinate is w.  Its x^t coordinates are
    V[:, t] = sum_{i <= D-1-t} g_{i+t+1} u_i (Stein, Modular Forms: A
    Computational Approach, 2007).  A row of W is mapped unless it lies in the
    GF(p)-span of the u_i of the rows mapped before it, which is their K-span;
    so the images are a K-basis.  When dim W = deg g, as for all but a few
    factors, the first row spans W and no span test runs.
    """
    W = poly_kernel_modp(p, M2, g)
    D = len(g) - 1
    # these sums have at most d products of residues: within the kernel's bound
    T = np.array(M2, dtype=np.int64)
    idx = np.add.outer(np.arange(D), np.arange(D)) + 1
    G = np.where(idx <= D, np.array(g, dtype=np.int64)[np.minimum(idx, D)], 0)
    Fp = ffpoly.canonical_field(p, 1)
    span, space = [], []
    for w in W.tolist():
        if len(span) == len(W):
            break
        if span and len(rref(Fp, span + [w])[1]) == len(span):
            continue
        U = np.empty((len(M2), D), dtype=np.int64)
        U[:, 0] = w
        for i in range(1, D):
            U[:, i] = T @ U[:, i - 1] % p
        span.extend(U.T.tolist())
        space.append([K.from_coords(tuple(row)) for row in (U @ G % p).tolist()])
    return space


def _refine(p, k, d, K, space, path, ells, idx, B, prec0):
    """Split a joint eigenspace by the next Hecke operator; leaves are dim-1
    spaces or spaces on which every T_ell (ell <= B) acts by a scalar."""
    if not space:
        raise ArithmeticError("empty eigenspace during refinement")
    if len(space) == 1 or idx >= len(ells):
        return [(K, space, path)]
    ell = ells[idx]
    prec = prec0 if ell * d + 2 <= prec0 else ell * d + 2
    Ml = _op_matrix(_basis_rows(p, k, prec), k, ell, p)
    MlK = Ml if K.degree == 1 else mat_lift(K, Ml)
    m = len(space)
    cols = []
    for v in space:
        coords = solve_in_span(K, space, [_dot(K, row, v) for row in MlK])
        if coords is None:
            raise ArithmeticError("Hecke operator does not preserve eigenspace")
        cols.append(coords)
    A = [[cols[j][i] for j in range(m)] for i in range(m)]
    out = []
    for h, _mult in ffpoly.factor_monic(K, mat_charpoly(K, A)):
        K2, A2, space2 = K, A, space
        if ffpoly.pdeg(h) == 1:
            mu = K.neg(h[0])
        else:
            # a_ell needs a larger field: continue in the canonical one
            K2 = ffpoly.canonical_field(p, K.degree * ffpoly.pdeg(h))
            M = _embedding(K, K2)
            A2 = [_apply(M, K2, row) for row in A]
            space2 = [_apply(M, K2, v) for v in space]
            mu = ffpoly.split_roots(K2, tuple(_apply(M, K2, h)))[0]
        E = mat_nullspace(K2, [[K2.sub(A2[i][j], mu if i == j else K2.zero)
                                for j in range(m)] for i in range(m)])
        newspace = [[_dot(K2, e, col) for col in zip(*space2)] for e in E]
        out.extend(_refine(p, k, d, K2, newspace,
                           path + ((ell, _factor_key(K, h)),), ells, idx + 1, B, prec0))
    return out


def _dot(K, a, b):
    acc = K.zero
    for x, y in zip(a, b):
        if x != K.zero and y != K.zero:
            acc = K.add(acc, K.mul(x, y))
    return acc


def _leaf_class(p, k, K, space, path, B, prec0):
    rows = _basis_rows(p, k, prec0)
    if len(space) > 1:
        # the echelon basis makes the a_1-normalized vector picked canonical
        space = [tuple(r) for r in rref(K, space)[0] if any(x != K.zero for x in r)]
    pick = next((v for v in space if v[0] != K.zero), None)
    if pick is None:
        # the space is T_n-stable for every n, so it holds an eigenform f, and
        # a_1(f) = 0 would force a_n(f) = a_1(T_n f) = lambda_n a_1(f) = 0
        raise ArithmeticError("eigenspace has no a_1-normalizable vector, "
                              "which no Hecke-stable space can have")
    inv0 = K.inv(pick[0])
    v = [K.mul(inv0, x) for x in pick]
    ells = witness_primes(p, B)
    *coeffs, ap = _coefficients(p, rows, K, v, ells + (p,))
    values = dict(zip(ells, coeffs))
    return _RawClass(K, values, ap, len(space), path, v)


def _coefficients(p, rows, K, vec, idx):
    """The coefficients a_n, n in idx, of sum_j vec[j] * (basis form j), as
    elements of K: one product of the basis rows with vec's coordinates."""
    V = np.array([K.coords(x) for x in vec], dtype=np.int64)               # d x D
    R = np.array(rows, dtype=np.int64)[:, np.asarray(idx, dtype=np.intp)]  # d x len(idx)
    ffpoly.check_int64(p, len(vec), "eigenform expansion")                 # d products a term
    return [K.from_coords(tuple(c)) for c in ((R.T @ V) % p).tolist()]


# ---------------------------------------------------------------------------
# canonicalization into the (p, d)-canonical field


def _embedding(K, K2):
    """The matrix of the field map K -> K2 sending x to the lex-least root r
    of K's modulus in K2 (K.degree divides K2.degree): row i holds the
    coordinates of r^i, so an element's image is its coordinate row times this
    matrix (`_apply`).  On GF(p) it is the row of K2's one."""
    rows = [K2.one]
    if K.degree > 1:
        root = ffpoly.embed_root(K.modulus, K2)
        for _ in range(K.degree - 1):
            rows.append(K2.mul(rows[-1], root))
    return np.array([K2.coords(x) for x in rows], dtype=np.int64)


def _apply(M, K2, xs):
    """The images in K2 of the elements xs under the field map with matrix M:
    one product of their coordinate rows with M."""
    p = K2.p
    ffpoly.check_int64(p, len(M), "field map")       # one product a coordinate
    X = np.array(xs, dtype=np.int64).reshape(len(xs), len(M))
    return [K2.from_coords(row) for row in (X @ M % p).tolist()]


def _canonical_map(p, raw):
    """(M, K_can): the matrix of the field map raw.field -> the canonical
    GF(p^D), D = raw.field.degree, onto the conjugate whose packet
    (a_2, a_3, a_5, ...) is lex-least by coords.

    In GF(p)[x]/(g), a_2 = x generates the field, so mapping x to the lex-least
    root of g is that conjugate.  A class whose field grew during refinement
    already lives in K_can; the least Frobenius power j < D is applied, whose
    matrix is F^j for K_can's Frobenius matrix F.
    """
    K = raw.field
    D = K.degree
    K_can = ffpoly.canonical_field(p, D)
    if D == raw.path[0][1][0]:      # the degree of a_2's minimal polynomial
        return _embedding(K, K_can), K_can
    packet = list(raw.values.values())
    orbit = [packet]
    for _ in range(D - 1):
        orbit.append([K_can.frob(v) for v in orbit[-1]])
    j = min(range(D), key=lambda i: [K_can.coords(v) for v in orbit[i]])
    return K_can.tables()[0][j], K_can


def _canonical_system(p, k, raw, B, semisimple):
    M, K_can = _canonical_map(p, raw)
    ells = sorted(raw.values)
    *images, ap = _apply(M, K_can, [raw.values[ell] for ell in ells] + [raw.ap])
    return EigenSystem(p, k, K_can.degree, dict(zip(ells, images)), ap, raw.mult,
                       semisimple, B)


def _system_from_doc(p, B, doc):
    """(d, mult, ss, value coordinates, a_p coordinates) of one cached eigen
    system, each coordinate tuple checked to lie in GF(p^d); raises
    ValueError, KeyError or TypeError when the entry does not have the shape
    `as_doc` writes for (p, B).  No field is built here: a corrupt d never
    reaches `ffpoly.canonical_field`."""
    d = doc["d"]
    ells = witness_primes(p, B)
    if set(doc["values"]) != {str(ell) for ell in ells}:
        raise ValueError("cached eigen values are not keyed by the primes <= B")

    def coords(raw):
        c = tuple(int(x) for x in raw)
        ExtFieldElem(p, d, c)       # raises unless d >= 1 and c has d residues
        return c

    values = [coords(doc["values"][str(ell)]) for ell in ells]
    return d, doc["mult"], doc["ss"], values, coords(doc["ap"])


def _fits(k, classes, semisimple):
    """Whether cached classes [(d, mult)] can be all the classes of S_k: some
    class when dim S_k > 0, int d and mult >= 1, and sum d*mult <= dim S_k,
    with equality when the Hecke action is semisimple."""
    dim = dim_cusp(k)
    if dim and not classes:
        return False
    if not all(type(d) is int and type(m) is int and d >= 1 and m >= 1
               for d, m in classes):
        return False
    covered = sum(d * m for d, m in classes)
    return covered == dim if semisimple else covered <= dim


def _checked_bound(p, k, B):
    """B (default_bound(p) when None) once p is a prime > 5, k an even
    weight >= 0 and B >= 2; raises ValueError otherwise."""
    if not is_prime(p) or p <= 5:
        raise ValueError("p must be a prime > 5")
    if k % 2 or k < 0:
        raise ValueError("weight must be even and >= 0")
    if B is None:
        B = default_bound(p)
    if B < 2:
        raise ValueError("bound B must be >= 2")
    return B


def eigensystems(p: int, k: int, B: int | None = None) -> list:
    """One EigenSystem per Galois-conjugacy class of mod-p eigen systems on S_k."""
    return _systems(p, k, _checked_bound(p, k, B))


@memo(256)
def _systems(p, k, B):
    key = (p, k, B)
    dc = diskcache.get_cache()
    doc = dc.get("eigsys", key)
    if doc is not None:
        try:
            items = [_system_from_doc(p, B, item) for item in doc]
            if _fits(k, [(d, mult) for d, mult, *_ in items],
                     any(ss for _d, _m, ss, *_ in items)):
                return [_decoded_system(p, k, B, *item) for item in items]
        except (KeyError, TypeError, ValueError):
            pass
        # malformed entry, or one that drops classes: recompute and overwrite it
    raw, semisimple, _d = _raw_classes(p, k, B)
    systems = [_canonical_system(p, k, r, B, semisimple) for r in raw]
    dc.put("eigsys", key, [s.as_doc() for s in systems])
    return systems


def _decoded_system(p, k, B, d, mult, ss, values, ap):
    """The EigenSystem of checked coordinates from `_system_from_doc`."""
    K = ffpoly.canonical_field(p, d)
    return EigenSystem(p, k, d, {ell: K.from_coords(c) for ell, c in
                                 zip(witness_primes(p, B), values)},
                       K.from_coords(ap), mult, ss, B)


def _profile_from_doc(k, doc):
    """Decode a cached profile entry {"classes": [[d, a_p == 0, mult], ...],
    "ss": semisimple}; None when it does not have that shape or cannot be all
    the classes of S_k."""
    if not (isinstance(doc, dict) and set(doc) == {"classes", "ss"}
            and type(doc["ss"]) is bool and isinstance(doc["classes"], list)):
        return None
    items = doc["classes"]
    if not all(isinstance(item, list) and len(item) == 3 and type(item[1]) is bool
               for item in items):
        return None
    if not _fits(k, [(d, mult) for d, _zero, mult in items], doc["ss"]):
        return None
    return [tuple(item) for item in items]


def ap_profile(p: int, k: int, B: int | None = None) -> list:
    """Light-weight per-class data [(value field degree, a_p == 0, mult)].

    Zero-ness of a_p does not depend on the field representation, so this
    skips canonicalization entirely; scans use it to locate non-ordinary
    weights at basis precision ~p.
    """
    key = (p, k, _checked_bound(p, k, B))
    dc = diskcache.get_cache()
    out = _profile_from_doc(k, dc.get("profile", key))
    if out is not None:
        return out
    raw, ss, _d = _raw_classes(*key)
    out = [(r.field.degree, r.ap == r.field.zero, r.mult) for r in raw]
    dc.put("profile", key, {"classes": [list(item) for item in out], "ss": ss})
    return out


def expansions(p: int, k: int, prec: int, B: int | None = None) -> list:
    """Normalized eigenform q-expansions per eigen system class, as coordinate
    rows in the canonical value field: one dict per class with keys d, mult,
    ss (the weight's flag: the Hecke action on S_k is semisimple, so the
    classes cover the space) and coeffs (list of coords tuples, index = power
    of q)."""
    B = _checked_bound(p, k, B)
    if prec < 1:
        raise ValueError("precision must be >= 1")
    raw, ss, d = _raw_classes(p, k, B)
    out = []
    for r in raw:
        K = r.field
        rows = _basis_rows(p, k, max(prec, p + 2, 2 * d + 2, B + 2))
        M, K_can = _canonical_map(p, r)
        coeffs = [K_can.coords(c) for c in
                  _apply(M, K_can, _coefficients(p, rows, K, r.vec, range(prec)))]
        out.append({"d": K.degree, "mult": r.mult, "ss": ss, "coeffs": coeffs})
    return out

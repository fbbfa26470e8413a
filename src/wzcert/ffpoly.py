"""Finite fields and dense univariate polynomial arithmetic over them.

The fields are GF(p) and its simple extensions GF(p)[x]/(f).  Prime-field
elements are plain ints in [0, p); extension-field elements are tuples of d
such ints (ascending powers of x).  There are no towers: a field of degree
d > 1 is always one quotient of GF(p)[x].  Polynomials over a field are
trimmed tuples of elements, ascending degree, with () as the zero polynomial.

Everything here is deterministic: factor output is canonically sorted, and
splitting elements are enumerated systematically rather than sampled.
"""

import numpy as np

from .cache import get_cache, memo
from .primes import is_prime


class PrimeField:
    """GF(p) with int elements."""

    __slots__ = ("p", "degree", "order", "zero", "one")

    def __init__(self, p):
        self.p = p
        self.degree = 1
        self.order = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def pow_(self, a, n):
        return pow(a, n, self.p)

    def frob(self, a):
        return a

    def coords(self, a):
        return (a,)

    def from_coords(self, c):
        return c[0] % self.p

    def from_int(self, n):
        return n % self.p

    def from_counter(self, t):
        return t % self.p

    def __repr__(self):
        return f"GF({self.p})"


class ExtField:
    """GF(p)[x]/(modulus) for a monic irreducible modulus over a PrimeField.

    Everything but `inv` also holds in the ring of any monic modulus."""

    __slots__ = ("base", "modulus", "d", "p", "degree", "order", "zero", "one", "gen",
                 "_redrow", "_frob", "_tables")

    def __init__(self, base, modulus):
        if type(base) is not PrimeField:
            raise TypeError("ExtField is built over a PrimeField only")
        self.base = base
        self.modulus = tuple(modulus)
        self.d = len(modulus) - 1
        if self.d < 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        p = self.p = base.p
        self.degree = self.d
        self.order = p ** self.d
        self.zero = (0,) * self.d
        self.one = (1,) + (0,) * (self.d - 1)
        self.gen = (0, 1) + (0,) * (self.d - 2) if self.d > 1 else (-modulus[0] % p,)
        # reduction row: x^d = -(m_0 + ... + m_{d-1} x^{d-1})
        self._redrow = tuple(-c % p for c in self.modulus[:-1])
        self._frob = None
        self._tables = None

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        # int coefficients: accumulate without intermediate reduction
        p = self.p
        d = self.d
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        red = self._redrow
        for t in range(2 * d - 2, d - 1, -1):
            c = prod[t] % p
            if c:
                base_t = t - d
                for i, ri in enumerate(red):
                    if ri:
                        prod[base_t + i] += c * ri
        return tuple(x % p for x in prod[:d])

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        g, u = _half_ext_gcd(self.base, ptrim(self.base, a), self.modulus)
        if pdeg(g) != 0:
            raise ArithmeticError("modulus not irreducible over base")
        c = pow(g[0], -1, self.p)
        out = [c * x % self.p for x in u]
        out += [0] * (self.d - len(out))
        return tuple(out[:self.d])

    def pow_(self, a, n):
        out = self.one
        b = a
        while n:
            if n & 1:
                out = self.mul(out, b)
            b = self.mul(b, b)
            n >>= 1
        return out

    def frob(self, a):
        """a^p, as one vector-matrix product: Frobenius is GF(p)-linear, and
        row i of its matrix is x^(ip) mod the modulus (built once per field)."""
        return tuple((np.array(a, dtype=np.int64) @ self._frob_matrix() % self.p).tolist())

    def _frob_matrix(self):
        if self._frob is None:
            C = np.array([self.modulus[:-1]], dtype=np.int64)
            self._frob = _frobenius(C, self.p, 0)[0][0]
        return self._frob

    def tables(self):
        """(P, M), built once per field.  P[i] = F^i for i < d, F the Frobenius
        matrix, so (v @ P[i]) % p is v^(p^i).  M[i, j] = x^(i+j) mod the
        modulus, so sum_j b_j M[:, j] is the matrix of multiplication by b:
        (a @ that) % p is a b."""
        if self._tables is None:
            p, d = self.p, self.d
            F = self._frob_matrix()     # checks the bound 2d-1 >= d
            P = np.empty((d, d, d), dtype=np.int64)
            P[0] = np.eye(d, dtype=np.int64)
            for i in range(1, d):
                P[i] = P[i - 1] @ F % p
            R = _power_rows(np.array([self.modulus[:-1]], dtype=np.int64), p, 2 * d - 1)[0]
            self._tables = (P, R[np.add.outer(np.arange(d), np.arange(d))])
        return self._tables

    def coords(self, a):
        return tuple(a)

    def from_coords(self, c):
        return tuple(x % self.p for x in c)

    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.d - 1)

    def from_counter(self, t):
        digits = []
        for _ in range(self.d):
            digits.append(t % self.p)
            t //= self.p
        return tuple(digits)

    def __repr__(self):
        return f"GF({self.p}^{self.degree})"


# ---------------------------------------------------------------------------
# dense polynomials over a field F: trimmed tuples, ascending degree


def ptrim(F, c):
    c = list(c)
    while c and c[-1] == F.zero:
        c.pop()
    return tuple(c)


def pdeg(f):
    return len(f) - 1


def psub(F, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else F.zero
        b = g[i] if i < len(g) else F.zero
        out.append(F.sub(a, b))
    return ptrim(F, out)


def pscale(F, f, c):
    if c == F.zero:
        return ()
    return ptrim(F, [F.mul(a, c) for a in f])


def pmul(F, f, g):
    if not f or not g:
        return ()
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == F.zero:
            continue
        for j, b in enumerate(g):
            if b != F.zero:
                out[i + j] = F.add(out[i + j], F.mul(a, b))
    return ptrim(F, out)


def pdivmod(F, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = pdeg(g)
    inv_lead = F.inv(g[-1])
    q = [F.zero] * max(0, len(f) - dg)
    for t in range(len(f) - 1, dg - 1, -1):
        c = f[t]
        if c == F.zero:
            continue
        c = F.mul(c, inv_lead)
        q[t - dg] = c
        for i in range(dg + 1):
            f[t - dg + i] = F.sub(f[t - dg + i], F.mul(c, g[i]))
    return ptrim(F, q), ptrim(F, f)


def pmod(F, f, g):
    return pdivmod(F, f, g)[1]


def pmonic(F, f):
    if not f:
        return f
    if f[-1] == F.one:
        return f
    return pscale(F, f, F.inv(f[-1]))


def pgcd(F, f, g):
    while g:
        f, g = g, pmod(F, f, g)
    return pmonic(F, f)


def _half_ext_gcd(F, f, g):
    """(gcd, u) with u*f = gcd mod g; used for inverses mod g."""
    r0, r1 = f, g
    u0, u1 = (F.one,), ()
    while r1:
        q, r = pdivmod(F, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, psub(F, u0, pmul(F, q, u1))
    return r0, u0


def ppowmod(F, f, e, m):
    b = pmod(F, f, m)
    if F.degree == 1 and pdeg(m) > 0:
        # GF(p)[x]/(m) multiplies on plain ints, as an ExtField does
        R = ExtField(F, pmonic(F, m))
        return ptrim(F, R.pow_(b + (0,) * (R.d - len(b)), e))
    out = (F.one,)
    while e:
        if e & 1:
            out = pmod(F, pmul(F, out, b), m)
        b = pmod(F, pmul(F, b, b), m)
        e >>= 1
    return out


def pderiv(F, f):
    return ptrim(F, [F.mul(F.from_int(i), c) for i, c in enumerate(f)][1:])


def pfrom_ints(F, ints):
    return ptrim(F, [F.from_int(n) for n in ints])


# ---------------------------------------------------------------------------
# factorization over F of odd order


def _pth_root_poly(F, f):
    # f is a polynomial in x^p; take p-th roots of coefficients
    q = F.order
    p = F.p
    e = q // p
    return ptrim(F, [F.pow_(f[i], e) for i in range(0, len(f), p)])


def squarefree_decomposition(F, f):
    """[(g, m)] with f = prod g^m (up to the leading unit), g squarefree, m ascending."""
    f = pmonic(F, f)
    out = []
    df = pderiv(F, f)
    if not df:
        for g, m in squarefree_decomposition(F, _pth_root_poly(F, f)):
            out.append((g, m * F.p))
        return out
    c = pgcd(F, f, df)
    if c == (F.one,):
        return [(f, 1)]
    w = pdivmod(F, f, c)[0]
    i = 1
    while pdeg(w) > 0:
        y = pgcd(F, w, c)
        z = pdivmod(F, w, y)[0]
        if pdeg(z) > 0:
            out.append((z, i))
        i += 1
        w = y
        c = pdivmod(F, c, y)[0]
    if pdeg(c) > 0:
        # leftover is a p-th power; the recursion's zero-derivative branch
        # supplies the factor of p in the multiplicities
        out.extend(squarefree_decomposition(F, c))
    return sorted(out, key=lambda gm: gm[1])


def _distinct_degree(F, f):
    """[(product of irreducible factors of degree t, t)] for squarefree monic f.

    h = x^(q^t) mod f.  Over GF(p) the step h -> h^p is one product with the
    Frobenius matrix of the f given (Berlekamp's Q), built once: h^p mod that
    f is also h^p modulo the remaining f, which divides it.
    """
    out = []
    x = (F.zero, F.one)
    h = x
    t = 0
    if F.degree == 1 and pdeg(f) > 1:
        p = F.p
        Q = _frobenius(np.array([f[:-1]], dtype=np.int64), p, 0)[0][0]
        n = len(Q)

        def power(h, _f):
            v = np.array(h + (0,) * (n - len(h)), dtype=np.int64)
            return ptrim(F, (v @ Q % p).tolist())
    else:
        def power(h, f):
            return ppowmod(F, h, F.order, f)
    while pdeg(f) > 0:
        t += 1
        if 2 * t > pdeg(f):
            out.append((f, pdeg(f)))
            break
        h = power(h, f)
        g = pgcd(F, psub(F, h, x), f)
        if pdeg(g) > 0:
            out.append((g, t))
            f = pdivmod(F, f, g)[0]
            h = pmod(F, h, f)
    return out


def _equal_degree(F, f, t):
    """Split squarefree monic f (all irreducible factors of degree t) completely.

    Over GF(p) the trials are x, x+1, ...; over an extension field they start
    at x + from_counter(p), the generator's shift: shifts from a subfield never
    split roots that are conjugate over that subfield, because the quadratic
    character is Galois-stable.
    """
    work = [f]
    done = []
    counter = F.order if F.degree == 1 else F.order + F.p   # see _split_once
    while work:
        g = work.pop()
        if pdeg(g) == t:
            done.append(g)
            continue
        c, counter = _split_once(F, g, t, counter)
        work.append(c)
        work.append(pdivmod(F, g, c)[0])
    return done


def _split_once(F, g, t, counter):
    """(c, next): a proper monic factor c of the squarefree monic g, whose
    irreducible factors all have degree t < deg g, and the number of the
    trial after the one that split g.

    Trial number n is the polynomial `_poly_from_counter(F, n, deg g)`: from
    n = q that is x, x+1, ... over GF(p); over an extension field the first is
    x + from_counter(p), the generator's shift.
    """
    e = (F.order**t - 1) // 2
    for n in range(counter, counter + 10000):
        b = _poly_from_counter(F, n, pdeg(g))
        c = pgcd(F, b, g)
        if 0 < pdeg(c) < pdeg(g):
            return c, n + 1
        c = pgcd(F, psub(F, ppowmod(F, b, e, g), (F.one,)), g)
        if 0 < pdeg(c) < pdeg(g):
            return c, n + 1
    raise RuntimeError("root splitting failed to converge")


def _poly_from_counter(F, t, maxdeg):
    """Canonical enumeration of polynomials of degree < maxdeg over F."""
    q = F.order
    coeffs = []
    while t:
        coeffs.append(F.from_counter(t % q))
        t //= q
    coeffs = coeffs[:maxdeg]
    return ptrim(F, coeffs)


def factor_monic(F, f):
    """[(g, mult)] with g monic irreducible, canonically sorted, prod g^mult = f.

    F must have odd order."""
    if pdeg(f) < 1:
        raise ValueError("factor input must have degree >= 1")
    if F.order % 2 == 0:
        raise ValueError("factorization needs a field of odd order")
    f = pmonic(F, f)
    out = []
    for sqf, m in squarefree_decomposition(F, f):
        for prod, t in _distinct_degree(F, sqf):
            for g in _equal_degree(F, prod, t):
                out.append((g, m))
    out.sort(key=lambda gm: (pdeg(gm[0]), tuple(F.coords(c) for c in gm[0])))
    return out


# ---------------------------------------------------------------------------
# canonical extension fields and embeddings


def check_int64(p, terms, where):
    """Raise ValueError unless a sum of `terms` products of residues mod p
    stays below 2^63, i.e. unless terms*(p-1)^2 < 2^63 holds, so that an int64
    kernel computing such sums is exact."""
    if terms * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"{where}: int64 arithmetic needs {terms}*(p-1)^2 < 2^63, "
                         f"and p = {p} exceeds that bound")


def _frobenius(C, p, tmax):
    """Frobenius data of the monic f_n = x^d + sum_j C[n, j] x^j over GF(p),
    one per row of the (N, d) int64 array C of residues.

    Returns (Q, H): Q[n] is the d x d Frobenius matrix of f_n, whose row i is
    x^(ip) mod f_n, so (v @ Q[n]) % p is v(x)^p mod f_n (Berlekamp's Q-matrix);
    H[n, t] = x^(p^t) mod f_n for 0 <= t <= tmax.  Every sum below has at most
    2d-1 products of residues: the bound checked first.
    """
    N, d = C.shape
    check_int64(p, 2 * d - 1, "Frobenius matrix")
    C = C % p
    neg = -C % p                         # x^d mod f_n
    # hi[n, s] = x^(d+s) mod f_n reduces the top half of a product
    hi = _power_rows(C, p, 2 * d - 1)[:, d:]

    def mulmod(a, b):
        # the outer products laid in rows 2d apart and read 2d-1 apart: row i
        # shifts by i, and the column sums (d products a term) are the product
        rows = np.zeros((N, d, 2 * d), dtype=np.int64)
        rows[:, :, :d] = a[:, :, None] * b[:, None, :]
        prod = rows.reshape(N, -1)[:, :d * (2 * d - 1)].reshape(N, d, 2 * d - 1).sum(axis=1)
        # d + (d-1) products a term
        return (prod[:, :d] + (prod[:, None, d:] % p @ hi)[:, 0]) % p

    one = np.zeros((N, d), dtype=np.int64)
    one[:, 0] = 1
    xp = one
    for bit in bin(p)[2:]:
        xp = mulmod(xp, xp)
        if bit == "1":
            xp = _times_x(xp, neg, p)
    Q = np.empty((N, d, d), dtype=np.int64)
    Q[:, 0] = one
    for i in range(1, d):
        Q[:, i] = mulmod(Q[:, i - 1], xp)
    H = np.empty((N, tmax + 1, d), dtype=np.int64)
    H[:, 0] = _times_x(one, neg, p)
    for t in range(tmax):
        H[:, t + 1] = (H[:, t, None] @ Q)[:, 0] % p         # d products a term
    return Q, H


def _times_x(v, neg, p):
    """x v(x) mod each f_n, for (N, d) rows v of residues and neg = x^d mod f_n."""
    out = v[:, -1:] * neg
    out[:, 1:] += v[:, :-1]
    return out % p


def _power_rows(C, p, n):
    """R[n, t] = x^t mod f_n for t < n, f_n = x^d + sum_j C[n, j] x^j, from
    the (N, d) int64 array C of residues: an (N, n, d) array."""
    N, d = C.shape
    neg = -C % p
    R = np.zeros((N, n, d), dtype=np.int64)
    R[:, :d, :] = np.eye(d, dtype=np.int64)[:n]
    for t in range(d, n):
        R[:, t] = _times_x(R[:, t - 1], neg, p)
    return R


_SEARCH_BLOCK = 64      # candidates per block of the modulus search
_POINT_BLOCK = 512      # points per block of the root evaluation


def _rootless(C, p):
    """Mask of the monic x^d + sum_j C[n, j] x^j with no root in GF(p)^*.

    Horner's rule keeps each value at most (p-1)^2 + (p-1), within two residue
    products; the points go in blocks, so memory stays bounded for any p.
    """
    check_int64(p, 2, "root evaluation")
    keep = np.ones(len(C), dtype=bool)
    for lo in range(1, p, _POINT_BLOCK):
        idx = np.flatnonzero(keep)
        if not idx.size:
            break
        pts = np.arange(lo, min(p, lo + _POINT_BLOCK), dtype=np.int64)
        acc = np.ones((idx.size, pts.size), dtype=np.int64)
        for j in range(C.shape[1] - 1, -1, -1):
            acc = (acc * pts + C[idx, j:j + 1]) % p
        keep[idx[(acc == 0).any(axis=1)]] = False
    return keep


def _first_irreducible(C, p, d):
    """The first monic f = x^d + sum_j C[n, j] x^j, in row order, that is
    irreducible over GF(p), as int coefficients; None if there is none.

    x^(p^s) mod f comes from the Frobenius matrices of the whole block.  f is
    irreducible exactly when x^(p^d) = x and gcd(x^(p^(d/r)) - x, f) = 1 for
    every prime r | d (Rabin, "Probabilistic algorithms in finite fields",
    1980); the gcds are exact.
    """
    F = PrimeField(p)
    x = (0, 1)
    tops = [d // r for r in range(2, d + 1) if d % r == 0 and is_prime(r)]
    _Q, H = _frobenius(C, p, d)
    for n in np.flatnonzero((H[:, d] == H[:, 0]).all(axis=1)):
        f = tuple(C[n].tolist()) + (1,)
        if all(pgcd(F, psub(F, ptrim(F, H[n, s].tolist()), x), f) == (1,)
               for s in tops):
            return f
    return None


def _stored_modulus(value, p, d):
    """`value`, read from the disk cache, as a modulus: a list of d+1 ints in
    [0, p), monic, with c_0 != 0 and irreducible by `_first_irreducible`;
    else None."""
    if (not isinstance(value, list) or len(value) != d + 1
            or any(type(c) is not int or not 0 <= c < p for c in value)
            or value[d] != 1 or value[0] == 0):
        return None
    return _first_irreducible(np.array([value[:d]], dtype=np.int64), p, d)


@memo()
def canonical_modulus(p, d):
    """Lex-least monic irreducible of degree d over GF(p), as int coefficients.

    Coefficient tuples (c_{d-1}, ..., c_0) are compared most-significant first,
    which is the ascending order of the integer t = sum(c_j p^j).  Candidates
    are searched in blocks of consecutive t.  Those with c_0 = 0 or a root in
    GF(p) are dropped; the first of the rest that `_first_irreducible` accepts
    is the modulus.

    The result is kept in the disk cache's `modulus` namespace.  A stored entry
    is served only if it passes the same irreducibility test, so it always
    defines the field GF(p^d); that it is the lex-least one is trusted to the
    cache.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d == 1:
        return (0, 1)
    check_int64(p, 2 * d - 1, "canonical_modulus")
    disk = get_cache()
    found = _stored_modulus(disk.get("modulus", (p, d)), p, d)
    if found is not None:
        return found
    start = 0
    while found is None:
        t = np.arange(start, start + _SEARCH_BLOCK, dtype=np.int64)
        start += _SEARCH_BLOCK
        C = np.zeros((t.size, d), dtype=np.int64)
        for j in range(d):
            if p**j >= start:
                break       # this digit and every higher one are 0
            C[:, j] = t // p**j % p
        C = C[C[:, 0] != 0]
        C = C[_rootless(C, p)]
        if C.size:
            found = _first_irreducible(C, p, d)
    disk.put("modulus", (p, d), list(found))
    return found


@memo()
def canonical_field(p, d):
    """The canonical field GF(p^d): PrimeField for d=1, else the canonical quotient."""
    if d == 1:
        return PrimeField(p)
    base = canonical_field(p, 1)
    return ExtField(base, pfrom_ints(base, canonical_modulus(p, d)))


@memo()
def embed_root(g_ints, K):
    """Lex-least root in K of a monic irreducible g over GF(p), deg(g) | K.degree.

    One root comes from Berlekamp's trace algorithm (`_find_root_vectorized`),
    run entirely over GF(p); the least of its Frobenius conjugates by
    coordinates is returned.
    """
    dp = len(g_ints) - 1
    if K.degree % dp:
        raise ValueError("target field does not contain the splitting field")
    if dp == 1:
        return K.from_int(-g_ints[0])
    r = _find_root_vectorized(g_ints, K)
    orbit = [r]
    for _ in range(dp - 1):
        orbit.append(K.frob(orbit[-1]))
    return min(orbit, key=K.coords)


def _find_root_vectorized(g_ints, K):
    """A root of g in K = GF(p)[y]/(m) by Berlekamp's trace algorithm
    (Berlekamp, "Factoring polynomials over large finite fields", 1970;
    von zur Gathen and Gerhard, Modern Computer Algebra, section 14.3).

    A (x) K, with A = GF(p)[x]/(g), is K[x]/(g) = K^dp, one factor per root
    r_j of g.  Its elements are dp x D int64 arrays (rows = x-degree,
    columns = y-coordinates).  T_m = sum_{i<D} (x^(p^i) mod g) (x) (y^m)^(p^i)
    takes the value Tr_{K/GF(p)}(y^m r_j), in GF(p), at r_j; all T_m come from
    the rows x^(p^i) mod g and K's Frobenius powers.  Starting from the
    idempotent e = 1, step m reads the multiset of T_m's values on e's support
    from the power sums Tr(e T_m^i) (Newton's identities, which need
    deg g < p).  It picks one value of least multiplicity, splitting that
    part of the multiset over GF(p) into smaller factors (Cantor-Zassenhaus,
    `_split_once`) down to a quadratic, solved by a square root mod p, or a
    linear factor, and replaces e by the value's
    Lagrange idempotent: a GF(p) combination of the Krylov vectors e T_m^i,
    each one product with the matrix of multiplication by T_m.  Tr(r_j) is
    the same on the conjugate orbit, so m = 0 is skipped; the values for
    1 <= m < D determine r_j, since the trace form is nondegenerate, so the
    loop ends with e primitive.  Then x e = r e and Tr(e) = 1 give the root
    r = Tr(x e), with no division in K.
    """
    p = K.p
    D = K.degree
    dp = len(g_ints) - 1
    if dp >= p:
        raise ValueError(f"embed_root: Newton's identities need deg g < p, "
                         f"and deg g = {dp} >= p = {p}")
    # the sums of residue products below have at most D terms (T_m, products
    # in K, K's tables), dp (x^(p^i), the matrix of multiplication by T_m,
    # the traces, the Lagrange combination) or dp*D (one product with that
    # matrix), and dp*D >= 2D-1 covers K's Frobenius matrix too
    check_int64(p, dp * D, "embed_root")
    Fp = PrimeField(p)
    P, Ym = K.tables()
    # A = GF(p)[x]/(g); its rows x^t, t < 2dp, give the products' reduction
    # Xm[t, u] = x^(t+u) mod g and the traces tr[t] = Tr(x^t), t <= dp, as
    # sums of diagonal coordinates
    A = ExtField(Fp, g_ints)

    def times_x(a):
        return tuple((b + a[-1] * c) % p for b, c in zip((0,) + a[:-1], A._redrow))

    powers = [A.one]
    for _ in range(2 * dp - 1):
        powers.append(times_x(powers[-1]))
    Xm = np.array(powers, dtype=np.int64)[np.add.outer(np.arange(dp), np.arange(dp))]
    tr = [sum(powers[t + i][i] for i in range(dp)) % p for t in range(dp + 1)]
    # x^(p^i) mod g for i < D (period dp), from x^p and the rows x^(jp) of
    # A's Frobenius matrix; dp products a term
    xp = A.one
    for bit in bin(p)[2:]:
        xp = A.mul(xp, xp)
        if bit == "1":
            xp = times_x(xp)
    rows = [A.one, xp]
    while len(rows) < dp:
        rows.append(A.mul(rows[-1], xp))
    Q = np.array(rows, dtype=np.int64)
    hp = np.empty((dp, dp), dtype=np.int64)
    hp[0] = A.gen
    for i in range(1, dp):
        hp[i] = hp[i - 1] @ Q % p
    hp = hp[np.arange(D) % dp].T

    e = np.zeros((dp, D), dtype=np.int64)
    e[0, 0] = 1
    n = dp          # the size of e's support
    for m in range(1, D):
        T = hp @ P[:, m] % p
        # Z T = sum_{t,u,i} Z[t, i] (y^i T[u]) x^(t+u) mod g, so on flattened
        # elements, multiplication by T is the matrix L[(t, i), (s, d)] =
        # sum_u Xm[t, u, s] (y^i T[u])_d
        TK = np.einsum("uc,icd->uid", T, Ym) % p
        L = Xm.transpose(0, 2, 1).reshape(dp * dp, dp) @ TK.reshape(dp, D * D)
        L = L.reshape(dp, dp, D, D).transpose(0, 2, 1, 3).reshape(dp * D, dp * D) % p
        krylov = [e.ravel()]
        for _ in range(n):
            krylov.append(krylov[-1] @ L % p)
        krylov = np.array(krylov).reshape(n + 1, dp, D)
        sums = (krylov[1:, :, 0] @ np.array(tr[:dp]) % p).tolist()
        parts = squarefree_decomposition(Fp, _from_power_sums(sums, p))
        if len(parts) == 1 and pdeg(parts[0][0]) == 1:
            continue        # T_m is constant on the support
        least, n = parts[0]
        # one root of the least-frequent values: split, keep the smaller factor
        counter = p
        while pdeg(least) > 2:
            c, counter = _split_once(Fp, least, 1, counter)
            rest = pdivmod(Fp, least, c)[0]
            least = c if pdeg(c) <= pdeg(rest) else rest
        if pdeg(least) == 2:
            # (-b + sqrt(b^2 - 4c)) / 2; the discriminant is a nonzero square
            c0, b = least[0], least[1]
            v = (_sqrt_modp((b * b - 4 * c0) % p, p) - b) * ((p + 1) // 2) % p
        else:
            v = -least[0] % p
        # Lagrange polynomial of v: (prod of (X - u), u a value) / (X - v),
        # scaled to 1 at v
        rad = (1,)
        for h, _mult in parts:
            rad = pmul(Fp, rad, h)
        q = pdivmod(Fp, rad, (-v % p, 1))[0]
        scale = pow(sum(c * pow(v, i, p) for i, c in enumerate(q)), -1, p)
        coef = np.array([c * scale % p for c in q], dtype=np.int64)
        e = (coef @ krylov[:len(q)].reshape(len(q), -1) % p).reshape(dp, D)
        if n == 1:
            # r = Tr(x e) = sum_t Tr(x^(t+1)) e_t
            return tuple((np.array(tr[1:]) @ e % p).tolist())
    raise ArithmeticError("g has no simple root in K")


def _sqrt_modp(a, p):
    """A square root of the nonzero square a modulo the odd prime p
    (Tonelli-Shanks, with the least quadratic non-residue)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _from_power_sums(sums, p):
    """The monic polynomial over GF(p) whose roots, with multiplicity, have the
    power sums sums[i-1] = sum r^i, 1 <= i <= n, for n < p (Newton's
    identities): its coefficients, constant term first."""
    n = len(sums)
    elem = [1]
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * elem[k - i] * sums[i - 1] for i in range(1, k + 1))
        elem.append(acc * pow(k, -1, p) % p)
    return tuple((-1) ** k * elem[k] % p for k in range(n, -1, -1))


def split_roots(K, f):
    """All roots in K of monic squarefree f over K that splits completely in K,
    sorted by coordinates."""
    roots = [K.neg(g[0]) for g in _equal_degree(K, pmonic(K, f), 1)]
    roots.sort(key=K.coords)
    return roots

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

from .cache import memo
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
    """GF(p)[x]/(modulus) for a monic irreducible modulus over a PrimeField."""

    __slots__ = ("base", "modulus", "d", "p", "degree", "order", "zero", "one", "gen",
                 "_redrow", "_frob")

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
        if self._frob is None:
            C = np.array([self.modulus[:-1]], dtype=np.int64)
            self._frob = _frobenius(C, self.p, 0)[0][0]
        return tuple((np.array(a, dtype=np.int64) @ self._frob % self.p).tolist())

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
    out = (F.one,)
    b = pmod(F, f, m)
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
    q = F.order
    e = (q**t - 1) // 2
    work = [f]
    done = []
    counter = q if F.degree == 1 else q + F.p   # x + from_counter(counter - q)
    guard = 0
    while work:
        g = work.pop()
        if pdeg(g) == t:
            done.append(g)
            continue
        while True:
            guard += 1
            if guard > 10000:
                raise RuntimeError("root splitting failed to converge")
            b = _poly_from_counter(F, counter, pdeg(g))
            counter += 1
            c = pgcd(F, b, g)
            if 0 < pdeg(c) < pdeg(g):
                break
            c = pgcd(F, psub(F, ppowmod(F, b, e, g), (F.one,)), g)
            if 0 < pdeg(c) < pdeg(g):
                break
        work.append(c)
        work.append(pdivmod(F, g, c)[0])
    return done


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

    def times_x(v):
        out = np.zeros_like(v)
        out[:, 1:] = v[:, :-1]
        return (out + v[:, -1:] * neg) % p

    # hi[n, s] = x^(d+s) mod f_n reduces the top half of a product
    hi = np.empty((N, d - 1, d), dtype=np.int64)
    row = neg
    for s in range(d - 1):
        hi[:, s] = row
        row = times_x(row)

    def mulmod(a, b):
        prod = np.zeros((N, 2 * d - 1), dtype=np.int64)   # d products a term
        for i in range(d):
            prod[:, i:i + d] += a[:, i:i + 1] * b
        # d + (d-1) products a term
        return (prod[:, :d] + (prod[:, None, d:] % p @ hi)[:, 0]) % p

    one = np.zeros((N, d), dtype=np.int64)
    one[:, 0] = 1
    xp = one
    for bit in bin(p)[2:]:
        xp = mulmod(xp, xp)
        if bit == "1":
            xp = times_x(xp)
    Q = np.empty((N, d, d), dtype=np.int64)
    Q[:, 0] = one
    for i in range(1, d):
        Q[:, i] = mulmod(Q[:, i - 1], xp)
    H = np.empty((N, tmax + 1, d), dtype=np.int64)
    H[:, 0] = times_x(one)
    for t in range(tmax):
        H[:, t + 1] = (H[:, t, None] @ Q)[:, 0] % p         # d products a term
    return Q, H


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


@memo()
def canonical_modulus(p, d):
    """Lex-least monic irreducible of degree d over GF(p), as int coefficients.

    Coefficient tuples (c_{d-1}, ..., c_0) are compared most-significant first,
    which is the ascending order of the integer t = sum(c_j p^j).  Candidates
    are searched in blocks of consecutive t.  Those with c_0 = 0 or a root in
    GF(p) are dropped; for the rest, x^(p^s) mod f comes from their Frobenius
    matrices.  The first candidate in order with x^(p^d) = x and
    gcd(x^(p^(d/r)) - x, f) = 1 for every prime r | d is irreducible (Rabin,
    "Probabilistic algorithms in finite fields", 1980); the gcds are exact.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d == 1:
        return (0, 1)
    check_int64(p, 2 * d - 1, "canonical_modulus")
    F = PrimeField(p)
    x = (0, 1)
    tops = [d // r for r in range(2, d + 1) if d % r == 0 and is_prime(r)]
    start = 0
    while True:
        t = np.arange(start, start + _SEARCH_BLOCK, dtype=np.int64)
        start += _SEARCH_BLOCK
        C = np.zeros((t.size, d), dtype=np.int64)
        for j in range(d):
            if p**j >= start:
                break       # this digit and every higher one are 0
            C[:, j] = t // p**j % p
        C = C[C[:, 0] != 0]
        C = C[_rootless(C, p)]
        if not C.size:
            continue
        _Q, H = _frobenius(C, p, d)
        for n in np.flatnonzero((H[:, d] == H[:, 0]).all(axis=1)):
            f = tuple(C[n].tolist()) + (1,)
            if all(pgcd(F, psub(F, ptrim(F, H[n, s].tolist()), x), f) == (1,)
                   for s in tops):
                return f


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

    Splitting resolvents are norms built from Frobenius powers of x mod g, so
    they evaluate to prime-field scalars at every root and only need exponent
    (p-1)/2.  Because g keeps prime-field coefficients, all heavy arithmetic
    vectorizes: polynomials over K are integer matrices (rows = x-degree,
    columns = generator coordinates), multiplied by one exact int64
    convolution of their flattened rows and reduced by precomputed matrices
    on either axis.
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
    p = K.p
    D = K.degree
    dp = len(g_ints) - 1
    Fp = canonical_field(p, 1)
    g = pfrom_ints(Fp, g_ints)
    # column reduction: y^j mod K's modulus m for j < 2D-1, a (2D-1) x D matrix
    m = K.modulus
    redm = np.zeros((2 * D - 1, D), dtype=np.int64)
    for j in range(2 * D - 1):
        row = pmod(Fp, (0,) * j + (1,), m)
        redm[j, :len(row)] = row
    # row reduction: x^t mod g for t < 2*dp-1, as a (2*dp-1) x dp matrix
    redg = np.zeros((2 * dp - 1, dp), dtype=np.int64)
    for t in range(2 * dp - 1):
        row = pmod(Fp, (0,) * t + (1,), g)
        redg[t, :len(row)] = row

    # polynomials over K have at most dp rows and D columns, so a product has
    # at most dp*D residue products a term; the reductions take 2D-1 and 2dp-1
    check_int64(p, dp * D, "embed_root")

    def reduce_gamma(raw):
        cols = raw % p @ redm[:raw.shape[1]] % p
        if cols.shape[0] > dp:
            cols = redg[:cols.shape[0]].T @ cols % p
        return cols

    W = 2 * D - 1

    def flat(A):
        # rows W apart, trailing zeros dropped
        out = np.zeros((A.shape[0], W), dtype=np.int64)
        out[:, :D] = A
        return out.ravel()[:out.size - D + 1]

    def mulmod(A, B):
        # a column index of the product is at most 2D-2 < W, so the row blocks
        # of the one flat convolution never overlap
        return reduce_gamma(np.convolve(flat(A), flat(B)).reshape(-1, W))

    # x^(p^i) mod g stay prime-field polynomials
    hp = _frobenius(np.array([g_ints[:-1]], dtype=np.int64), p, dp - 1)[1][0]
    hmat = []
    for h in hp:
        A = np.zeros((dp, D), dtype=np.int64)
        A[:, 0] = h
        hmat.append(A)

    def norm_resolvent(a):
        # product over i of (x^(p^i) + sigma^i(a)) mod g, then ^((p-1)/2)
        gamma = np.zeros((1, D), dtype=np.int64)
        gamma[0, 0] = 1
        sa = a
        for i in range(D):
            fac = hmat[i % dp].copy()
            fac[0] += np.asarray(K.coords(sa), dtype=np.int64)
            fac[0] %= p
            gamma = mulmod(gamma, fac)
            sa = K.frob(sa)
        out = np.zeros((1, D), dtype=np.int64)
        out[0, 0] = 1
        e = (p - 1) // 2
        while e:
            if e & 1:
                out = mulmod(out, gamma)
            gamma = mulmod(gamma, gamma)
            e >>= 1
        return out

    def rows_to_poly(A):
        return ptrim(K, [K.from_coords(tuple(int(v) for v in row)) for row in A])

    current = pfrom_ints(K, g_ints)
    one_poly = (K.one,)
    # prime-field shifts make the norm resolvent constant on the conjugate
    # orbit, so enumeration starts at the first element outside GF(p)
    trial = p - 1
    guard = 0
    while pdeg(current) > 1:
        guard += 1
        if guard > 10000:
            raise RuntimeError("root splitting failed to converge")
        trial += 1
        a = K.from_counter(trial)
        s = rows_to_poly(norm_resolvent(a))
        s = pmod(K, s, current)
        for cand in (psub(K, s, one_poly), s):
            c = pgcd(K, cand, current)
            if 0 < pdeg(c) < pdeg(current):
                current = c if pdeg(c) <= pdeg(current) - pdeg(c) \
                    else pdivmod(K, current, c)[0]
                break
    return K.neg(current[0])


def split_roots(K, f):
    """All roots in K of monic squarefree f over K that splits completely in K,
    sorted by coordinates."""
    roots = [K.neg(g[0]) for g in _equal_degree(K, pmonic(K, f), 1)]
    roots.sort(key=K.coords)
    return roots

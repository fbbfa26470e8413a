"""Small exact linear algebra over finite fields: characteristic polynomials,
echelon forms, nullspaces, and coordinate solving.  Matrices are lists of
rows of field elements; all pivot choices are deterministic so outputs are
canonical.  Kernels of polynomials in a GF(p) matrix run on int64 arrays.
"""

import numpy as np

from .ffpoly import check_int64, pmul, pscale, psub


def mat_charpoly(F, M):
    """det(xI - M) by Hessenberg reduction (Cohen, GTM 138, Alg. 2.2.9).

    Similarity transforms bring M to upper Hessenberg form H; the charpolys
    p_m of the leading m x m blocks of H then satisfy
    p_m = (x - h_mm) p_(m-1) - sum_(i<m) h_im (h_(i+1,i) ... h_(m,m-1)) p_(i-1).
    """
    n = len(M)
    H = [list(r) for r in M]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1] != F.zero), None)
        if piv is None:
            continue
        if piv != m:
            H[m], H[piv] = H[piv], H[m]
            for row in H:
                row[m], row[piv] = row[piv], row[m]
        inv = F.inv(H[m][m - 1])
        for i in range(m + 1, n):
            u = F.mul(H[i][m - 1], inv)
            if u == F.zero:
                continue
            # row_i -= u row_m, then col_m += u col_i: a similarity transform
            H[i] = [F.sub(a, F.mul(u, b)) for a, b in zip(H[i], H[m])]
            for row in H:
                row[m] = F.add(row[m], F.mul(u, row[i]))
    polys = [(F.one,)]
    for m in range(n):
        pm = pmul(F, (F.neg(H[m][m]), F.one), polys[m])
        t = F.one
        for i in range(m - 1, -1, -1):
            t = F.mul(t, H[i + 1][i])
            pm = psub(F, pm, pscale(F, polys[i], F.mul(t, H[i][m])))
        polys.append(pm)
    return polys[n]


def rref(F, M):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    A = [list(r) for r in M]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if A[i][c] != F.zero), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = F.inv(A[r][c])
        A[r] = [F.mul(inv, v) for v in A[r]]
        for i in range(nrows):
            if i != r and A[i][c] != F.zero:
                f = A[i][c]
                A[i] = [F.sub(u, F.mul(f, v)) for u, v in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A, pivots


def mat_nullspace(F, M):
    """Canonical basis of the right nullspace (free columns ascending, unit there)."""
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    if ncols == 0:
        return []
    A, pivots = rref(F, M)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero] * ncols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(A[r][fc])
        basis.append(v)
    return basis


def poly_kernel_modp(p, M, g):
    """Canonical basis of ker g(M) over GF(p), as the rows of an int64 array
    (free columns ascending, unit there, as in mat_nullspace).

    M is an n x n matrix of residues mod p and g a polynomial with residue
    coefficients, ascending.  g(M) comes from Horner's rule and its kernel
    from one elimination.  A Horner step sums n residue products and a
    residue, an elimination step one product and a residue: the bound is
    checked first.
    """
    n = len(M)
    check_int64(p, n + 1, "GF(p) kernel")
    A = np.array(M, dtype=np.int64).reshape(n, n)
    diag = np.arange(n)
    G = np.zeros((n, n), dtype=np.int64)
    for c in reversed(g):
        G = G @ A
        G[diag, diag] += c
        G %= p
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == n:
            break
        nz = np.flatnonzero(G[r:, c])
        if not nz.size:
            continue
        piv = r + int(nz[0])
        G[[r, piv]] = G[[piv, r]]
        G[r] = G[r] * pow(int(G[r, c]), -1, p) % p
        col = G[:, c].copy()
        col[r] = 0
        G = (G - np.outer(col, G[r])) % p
        pivots.append(c)
    free = [c for c in range(n) if c not in pivots]
    N = np.zeros((len(free), n), dtype=np.int64)
    for i, fc in enumerate(free):
        N[i, fc] = 1
        N[i, pivots] = -G[:len(pivots), fc] % p
    return N


def solve_in_span(F, vecs, target):
    """Coordinates of target in the span of vecs, or None if outside."""
    n = len(target)
    m = len(vecs)
    A = [[vecs[j][i] for j in range(m)] + [target[i]] for i in range(n)]
    R, pivots = rref(F, A)
    coords = [F.zero] * m
    for r, pc in enumerate(pivots):
        if pc == m:
            return None
        coords[pc] = R[r][m]
    return coords


def mat_lift(K, M_ints_mod_p):
    """Embed a prime-field integer matrix into the field K."""
    return [[K.from_int(c) for c in row] for row in M_ints_mod_p]

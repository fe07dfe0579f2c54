"""Dense Gaussian elimination over F_p on numpy int64 matrices.

p < 2^31 keeps every intermediate product below 2^62, so int64 arithmetic
is exact.  All routines are deterministic: pivots are chosen as the first
nonzero entry in row-major scan order, which makes reduced echelon forms
and nullspace bases canonical.
"""

from __future__ import annotations

import numpy as np


def _inv(a, p):
    return pow(int(a), p - 2, p)


def rref_mod(A, p):
    """Reduced row echelon form over F_p.

    Returns (R, pivot_columns).  A is not modified.
    """
    R = np.array(A, dtype=np.int64) % p
    nrows, ncols = R.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        col = R[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        inv = _inv(R[r, c], p)
        R[r] = (R[r] * inv) % p
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if others.size:
            R[others] = (R[others] - R[others, c][:, None] * R[r][None, :]) % p
        pivots.append(c)
        r += 1
    return R, pivots


def rank_mod(A, p):
    """Rank over F_p; forward elimination only."""
    M = np.array(A, dtype=np.int64) % p
    nrows, ncols = M.shape
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        col = M[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        inv = _inv(M[r, c], p)
        below = M[r + 1 :, c]
        bnz = np.nonzero(below)[0]
        if bnz.size:
            factors = (below[bnz] * inv) % p
            M[r + 1 + bnz] = (M[r + 1 + bnz] - factors[:, None] * M[r][None, :]) % p
        r += 1
    return r


def nullspace_mod(A, p):
    """Canonical F_p kernel basis of A (as rows of the returned matrix).

    Basis vectors come from the free columns of the RREF, in column order,
    each with a 1 in its free position.
    """
    A = np.asarray(A, dtype=np.int64)
    nrows, ncols = A.shape
    if nrows == 0:
        return np.eye(ncols, dtype=np.int64) % p
    R, pivots = rref_mod(A, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-R[r, fc]) % p
    return basis


class RowSpace:
    """Incrementally maintained row space over F_p (echelon rows).

    Used to pick out minimal generators: a vector is added only when it is
    independent of the rows already present.
    """

    def __init__(self, ncols, p):
        self.p = p
        self.ncols = ncols
        self.rows = []  # echelon rows, each with recorded pivot column
        self.pivots = []

    @classmethod
    def from_matrix(cls, A, p):
        """Seed from the RREF of A in one vectorized pass."""
        A = np.asarray(A, dtype=np.int64)
        space = cls(A.shape[1], p)
        if A.shape[0]:
            R, pivots = rref_mod(A, p)
            space.rows = [R[i] for i in range(len(pivots))]
            space.pivots = list(pivots)
        return space

    def reduce(self, vec):
        v = np.array(vec, dtype=np.int64) % self.p
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                v = (v - v[c] * row) % self.p
        return v

    def contains(self, vec):
        return not self.reduce(vec).any()

    def add(self, vec):
        """Insert vec's reduction; returns True when the rank grew."""
        v = self.reduce(vec)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        v = (v * _inv(v[c], self.p)) % self.p
        self.rows.append(v)
        self.pivots.append(c)
        return True

    @property
    def rank(self):
        return len(self.rows)

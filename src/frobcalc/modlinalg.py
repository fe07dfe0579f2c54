"""Gaussian elimination over F_p.

Two eliminators live here:

* `rank_mod` works on dense numpy int64 matrices (p < 2^31 keeps every
  intermediate product below 2^62, so int64 arithmetic is exact); the
  strand check uses it.
* `Span` and `kernel` work on sparse vectors, dicts from comparable keys to
  coefficients.  The Koszul and Betti blocks of a monomial ideal have at
  most a few dozen columns, where a dict per row beats array set-up; the
  complete-intersection generator check uses `Span` too.

All routines are deterministic: pivots are chosen by a fixed order, so
echelon forms and kernel bases depend only on the input order.
"""

from __future__ import annotations

import numpy as np


def _inv(a, p):
    return pow(int(a), p - 2, p)


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


class Span:
    """Incrementally maintained span of sparse vectors over F_p.

    Rows are kept in echelon form by their least key: the row stored under
    pivot k has coefficient 1 at k and no key below k.  Reducing a vector
    by its least key therefore only ever introduces larger keys.
    """

    def __init__(self, p):
        self.p = p
        self.rows = {}  # pivot key -> row dict

    def reduce(self, vec):
        """vec minus a combination of the rows, with a least key that is
        not a pivot (empty exactly when vec lies in the span)."""
        p = self.p
        v = {k: c % p for k, c in vec.items() if c % p}
        while v:
            k = min(v)
            row = self.rows.get(k)
            if row is None:
                break
            c = v[k]
            for key, value in row.items():
                new = (v.get(key, 0) - c * value) % p
                if new:
                    v[key] = new
                else:
                    del v[key]
        return v

    def add(self, vec):
        """Insert vec; returns True when the span grew."""
        v = self.reduce(vec)
        if not v:
            return False
        k = min(v)
        inv = _inv(v[k], self.p)
        self.rows[k] = {key: (c * inv) % self.p for key, c in v.items()}
        return True

    @property
    def rank(self):
        return len(self.rows)


def kernel(columns, p):
    """F_p basis of the kernel of the linear map sending basis vector g to
    the sparse vector columns[g], as dicts g -> coefficient.

    Row-reduces the columns, each tagged with the basis vector it came
    from: a column whose image part cancels leaves a tag combination that
    the map sends to zero.  Image keys sort before tags, so those rows are
    the ones whose pivot is a tag.
    """
    space = Span(p)
    for g, col in columns.items():
        space.add({(0, h): c for h, c in col.items()} | {(1, g): 1})
    return [
        {g: c for (_, g), c in row.items()}
        for (part, _), row in space.rows.items()
        if part == 1
    ]

"""Gaussian elimination over F_p on sparse vectors.

Vectors are dicts from comparable keys to coefficients.  `Span` keeps an
incrementally reduced row space and `rank` counts its dimension.  Every
matrix frobcalc eliminates is sparse -- a Koszul block of at most a few
dozen columns, a strand map with at most two nonzeros per column, the
degree pieces of a two-generator ideal -- so a dict per row beats dense
arrays, and the arithmetic is Python's exact integers.

All routines are deterministic: pivots are chosen by a fixed order, so
echelon forms depend only on the input order.
"""

from __future__ import annotations


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
        inv = pow(v[k], self.p - 2, self.p)
        self.rows[k] = {key: (c * inv) % self.p for key, c in v.items()}
        return True

    @property
    def rank(self):
        return len(self.rows)


def rank(vectors, p):
    """Dimension over F_p of the span of the sparse vectors."""
    span = Span(p)
    for vec in vectors:
        span.add(vec)
    return span.rank

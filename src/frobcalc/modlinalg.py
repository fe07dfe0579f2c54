"""Exact rank and pivots over F_p of sparse vectors.

Vectors are dicts from comparable keys to coefficients.  `rank` reads the
rank off the matrix itself when it can and eliminates only when it must:
it ranks the shorter side (the transpose when the vectors have fewer keys
than there are vectors, since rank M = rank M^T) and counts its `pivots`.
Those are the least keys at once when the vectors are already in echelon
form (pairwise distinct least keys, each with a coefficient nonzero mod
p); otherwise the vectors go to `Span`, an incrementally reduced row
space.  Every matrix frobcalc reduces is sparse -- a Koszul block of at
most a few dozen columns, or one degree of the products u*f_i that decide
whether `ci` generators are a regular sequence -- so a dict per row beats
dense arrays, and the arithmetic is Python's exact integers.  The strand
maps of `koszul.strand_check` never come here: the Hilbert-Burch
resolution they belong to fixes their ranks.

All routines are deterministic: pivots are chosen by a fixed order, so
echelon forms depend only on the input order.
"""

from __future__ import annotations

from collections import defaultdict


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


def pivots(vectors, p):
    """The pivot keys of the nonempty sparse vectors: the least keys of an
    echelon basis of their span.  Vectors whose least keys are pairwise
    distinct, each with a coefficient nonzero mod p, are already in
    echelon form; otherwise they are reduced in a `Span`."""
    leads = {min(vec): vec for vec in vectors}
    if len(leads) == len(vectors) and all(vec[key] % p for key, vec in leads.items()):
        return leads.keys()
    span = Span(p)
    for vec in vectors:
        span.add(vec)
    return span.rows.keys()


def rank(vectors, p):
    """Dimension over F_p of the span of the sparse vectors.

    Empty vectors are dropped.  When the rest have fewer keys than there
    are vectors, their transpose is ranked instead; either way the rank is
    the number of `pivots`."""
    vectors = [vec for vec in vectors if vec]
    keys = set().union(*vectors)
    if len(keys) < len(vectors):
        columns = defaultdict(dict)
        for i, vec in enumerate(vectors):
            for key, c in vec.items():
                columns[key][i] = c
        vectors = list(columns.values())
    return len(pivots(vectors, p))

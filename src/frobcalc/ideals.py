"""Ideal-level operations for the two supported ideal classes.

MonomialIdeal carries a canonical minimal generator list (no generator
divides another), so ideal equality is generator-list equality.  CIIdeal
carries homogeneous polynomial generators asserted to form a regular
sequence.  The assertion is checked for monomial generators (pairwise
disjoint supports are necessary and sufficient), for one polynomial
generator (a nonzero form is regular on the domain S) and for two (they
must be coprime); otherwise linearly dependent generators are rejected
and the rest is recorded as a caller assertion.

The splitting tests read only the live part of the colon (I^[q] : I),
the terms with every exponent below q, and both classes give it in closed
form (`splitting.colon_generators`): x_S^(q-1) for a squarefree monomial
ideal with S the union of the supports, nothing for any other monomial
ideal, and f^(q-1) mod m^[q] with f = f_1...f_t for a complete
intersection.

The staircase of a monomial ideal (its standard monomials, a k-basis of
S/I) comes from one degree-by-degree walk that tests membership only on
the frontier of the previous degree.  It is the only enumeration of
monomials: the Loewy length, the regular-sequence check (the walk of the
zero ideal lists every monomial of a degree) and every caller that needs
the basis read from it.
"""

from __future__ import annotations

from itertools import count, islice, takewhile

from .errors import (
    NonArtinianError,
    ParseError,
    ResourceGuardError,
    RingMismatchError,
    UnsupportedIdealClassError,
)
from .modlinalg import rank
from .polyring import (
    DEFAULT_MAX_MONOMIALS,
    Polynomial,
    bounded_count,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_sorted,
    mono_str,
)


def pairwise_disjoint_supports(monos):
    """True when no variable occurs in two of the monomials: for monomials,
    the regular-sequence condition."""
    seen = set()
    for m in monos:
        support = {i for i, e in enumerate(m) if e}
        if support & seen:
            return False
        seen |= support
    return True


def _minimalize(monos):
    """Drop every monomial divisible by another; canonical descending order."""
    uniq = set(monos)
    kept = []
    for m in sorted(uniq, key=mono_degree):
        if not any(mono_divides(g, m) for g in kept):
            kept.append(m)
    return tuple(mono_sorted(kept))


class MonomialIdeal:
    """Monomial ideal with its unique minimal generator list."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring, gens):
        self.ring = ring
        n = ring.nvars
        for g in gens:
            if len(g) != n or any(e < 0 for e in g):
                raise ParseError(f"bad monomial {g} for {ring!r}")
        self.gens = _minimalize(tuple(tuple(g) for g in gens))

    @classmethod
    def zero(cls, ring):
        return cls(ring, ())

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return len(self.gens) == 1 and not any(self.gens[0])

    def contains_monomial(self, m):
        return any(mono_divides(g, m) for g in self.gens)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        inside = ", ".join(mono_str(self.ring, g) for g in self.gens) or "0"
        return f"MonomialIdeal({inside})"

    # -- staircase ----------------------------------------------------------

    def _walk(self, max_monomials):
        """Yield the standard monomials of degree 0, 1, 2, ..., one list per
        degree, largest first in degrevlex; degree d is guarded (the
        candidates it is formed from counted) just before it is formed.

        Degree d comes from degree d - 1: each standard s is extended by x_v
        for every v at or before the first variable of supp s (every v when
        s = 1).  That forms each monomial m once, from m / x_(first of m),
        largest first when degree d - 1 is.  Only that frontier is tested,
        and s * x_v lies in I exactly when a generator whose v-exponent is
        s_v + 1 divides it, since no generator divides s.  The first
        variable of a kept s * x_v is v, so the candidates of the next
        degree are counted as the frontier grows."""
        n = self.ring.nvars
        cuts = {}
        for g in self.gens:
            for v, e in enumerate(g):
                cuts.setdefault((v, e), []).append(g)
        level = [] if self.is_unit() else [self.ring.unit_monomial()]
        candidates = len(level)
        for d in count():
            if candidates > max_monomials:
                raise ResourceGuardError(
                    f"enumeration of {candidates} monomials exceeds guard {max_monomials}"
                )
            if d:
                frontier, candidates = [], 0
                for s in level:
                    for v in range(n):
                        m = s[:v] + (s[v] + 1,) + s[v + 1 :]
                        if not any(mono_divides(g, m) for g in cuts.get((v, m[v]), ())):
                            frontier.append(m)
                            candidates += v + 1
                        if s[v]:
                            break
                level = frontier
            else:
                candidates = n * len(level)
            yield level

    def staircase(self, bound=None, max_monomials=DEFAULT_MAX_MONOMIALS):
        """Standard monomials for every degree through `bound`: a complete
        k-basis of S/I in degrees 0..bound, as per-degree lists, largest
        first.  With no bound the walk stops at the first empty degree, the
        Loewy length, so for artinian I the lists hold the whole basis."""
        walk = self._walk(max_monomials)
        if bound is not None:
            return list(islice(walk, max(bound + 1, 0)))
        if not self.is_artinian():
            raise NonArtinianError(f"{self!r} is not artinian")
        return list(takewhile(bool, walk))

    def lcm(self):
        """lcm of the generators; the unit monomial for the zero ideal."""
        acc = self.ring.unit_monomial()
        for g in self.gens:
            acc = mono_lcm(acc, g)
        return acc

    def is_artinian(self):
        """S/I is artinian iff every variable has a pure-power generator."""
        covered = [False] * self.ring.nvars
        for g in self.gens:
            support = [i for i, e in enumerate(g) if e]
            if len(support) == 1:
                covered[support[0]] = True
        return all(covered)

    def loewy_length(self, max_monomials=DEFAULT_MAX_MONOMIALS):
        """Least n with every degree-n monomial in the ideal (m^n subset I)."""
        return len(self.staircase(max_monomials=max_monomials))


def _coprime(f, g, max_monomials=DEFAULT_MAX_MONOMIALS):
    """True when the homogeneous f, g (degrees d1, d2) have no common factor
    of positive degree.

    Coprime f, g have only the Koszul syzygy (g, -f), of degree d1 + d2, so
    in degree d1 + d2 - 1 the products u*f (deg u = d2 - 1) and v*g
    (deg v = d1 - 1) are linearly independent.  A common factor h of
    degree k >= 1 gives the syzygy (g/h, -f/h) in degree d1 + d2 - k, and
    its multiples by monomials reach degree d1 + d2 - 1.  So one rank
    decides.
    """
    ring = f.ring
    factors = [(f, g.degree() - 1), (g, f.degree() - 1)]
    count = sum(bounded_count(ring.nvars, d) for _, d in factors)
    if count > max_monomials:
        raise ResourceGuardError(
            f"regular-sequence check over {count} products exceeds guard {max_monomials}"
        )
    zero = MonomialIdeal.zero(ring)
    products = [
        a.mul_monomial(u).terms
        for a, d in factors
        for u in zero.staircase(d, max_monomials=max_monomials)[d]
    ]
    return rank(products, ring.p) == count


class CIIdeal:
    """Homogeneous ideal generated by an (asserted) regular sequence."""

    __slots__ = ("ring", "gens", "regular_sequence_verified")

    def __init__(self, ring, gens, max_monomials=DEFAULT_MAX_MONOMIALS):
        gens = tuple(gens)
        if not gens:
            raise UnsupportedIdealClassError("a complete intersection needs generators")
        if len(gens) > ring.nvars:
            raise UnsupportedIdealClassError(
                f"{len(gens)} generators exceed the {ring.nvars} variables"
            )
        for f in gens:
            if not isinstance(f, Polynomial) or f.ring != ring:
                raise RingMismatchError("generators must be polynomials over the ring")
            if f.homogeneous_degree() is None or f.degree() < 1:
                raise UnsupportedIdealClassError(
                    f"generator {f} must be homogeneous of degree >= 1"
                )
        self.ring = ring
        self.gens = gens
        if all(f.is_monomial() for f in gens):
            if not pairwise_disjoint_supports(f.single_monomial() for f in gens):
                raise UnsupportedIdealClassError(
                    "monomial generators with overlapping supports are "
                    "not a regular sequence"
                )
            self.regular_sequence_verified = True
        else:
            # a regular sequence is linearly independent over F_p; one
            # nonzero form is regular on the domain S, and two form a
            # regular sequence exactly when they are coprime; for three or
            # more the hypothesis is recorded, not verified
            if rank([f.terms for f in gens], ring.p) < len(gens):
                raise UnsupportedIdealClassError(
                    "generators linearly dependent over F_p are not a regular sequence"
                )
            if len(gens) == 2 and not _coprime(*gens, max_monomials=max_monomials):
                raise UnsupportedIdealClassError(
                    "generators with a common factor are not a regular sequence"
                )
            self.regular_sequence_verified = len(gens) <= 2

    def product(self, max_monomials=DEFAULT_MAX_MONOMIALS):
        """f_1 * ... * f_t; `max_monomials` bounds the term pairs multiplied,
        summed over the products, checked before each product is formed."""
        out = Polynomial.one(self.ring)
        pairs = 0
        for f in self.gens:
            pairs += len(out.terms) * len(f.terms)
            if pairs > max_monomials:
                raise ResourceGuardError(
                    f"the product of the generators takes {pairs} term products, over the guard {max_monomials}"
                )
            out = out * f
        return out

    def hilbert_function(self, d):
        """dim_k (S/I)_d via inclusion-exclusion over the regular sequence."""
        n = self.ring.nvars - 1
        degs = [f.degree() for f in self.gens]
        total = 0
        for mask in range(1 << len(degs)):
            shift = sum(degs[i] for i in range(len(degs)) if mask >> i & 1)
            sign = -1 if bin(mask).count("1") % 2 else 1
            total += sign * bounded_count(n + 1, d - shift)
        return total

    def __repr__(self):
        return f"CIIdeal({', '.join(str(f) for f in self.gens)})"


# ---------------------------------------------------------------------------
# operations

def in_bracket_max(f, q):
    """Membership of f in m^[q] = (x_0^q, ..., x_n^q).  A monomial ideal, so
    membership is termwise: every monomial needs some exponent >= q."""
    return all(any(e >= q for e in m) for m in f.terms)


# ---------------------------------------------------------------------------
# assembling an ideal from parsed generators

def build_ideal(ring, polys, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Assemble an ideal object from parsed generators; the class is read
    from them.

    Every generator a single term (zero generators are dropped) gives a
    MonomialIdeal; anything else a CIIdeal, whose regular-sequence
    hypothesis is checked for one and two generators (`max_monomials`
    bounds the check for two) and otherwise a caller assertion.  Returns
    (ideal, warnings).
    """
    if all(len(f.terms) <= 1 for f in polys):
        return MonomialIdeal(ring, [next(iter(f.terms)) for f in polys if f.terms]), []
    ideal = CIIdeal(ring, polys, max_monomials=max_monomials)
    if ideal.regular_sequence_verified:
        return ideal, []
    return ideal, ["regular-sequence assertion recorded for polynomial generators"]


def regular_sequence_degrees(ideal):
    """The generator degrees when the ideal is generated by a regular
    sequence of forms of degree >= 1, else None: always for a CIIdeal, and
    for a monomial ideal, neither zero nor the unit ideal, whose
    generators have pairwise disjoint supports."""
    if isinstance(ideal, CIIdeal):
        return [f.degree() for f in ideal.gens]
    if isinstance(ideal, MonomialIdeal) and ideal.gens and not ideal.is_unit():
        if pairwise_disjoint_supports(ideal.gens):
            return [mono_degree(g) for g in ideal.gens]
    return None

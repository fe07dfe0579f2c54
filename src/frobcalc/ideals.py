"""Ideal-level operations for the two supported ideal classes.

MonomialIdeal carries a canonical minimal generator list (no generator
divides another), so ideal equality is generator-list equality.  CIIdeal
carries homogeneous generators proven on construction to be a regular
sequence: S is Cohen-Macaulay, so forms f_1..f_c are one iff
ht(f_1..f_c) = c.  Degree by degree, the pivots of the Macaulay matrix
(the products u*f_i) are the degrevlex leaders in(I)_D.  A rank below the
complete-intersection count refutes the sequence; leaders that no c - 1
variables meet prove it, as ht I = ht in(I) <= c (Krull).

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

import math
from itertools import count, groupby, islice, takewhile
from operator import le

from .errors import (
    NonArtinianError,
    ParseError,
    ResourceGuardError,
    RingMismatchError,
    UnsupportedIdealClassError,
)
from .modlinalg import pivots
from .polyring import (
    DEFAULT_MAX_MONOMIALS,
    Polynomial,
    bounded_count,
    mono_degree,
    mono_lcm,
    mono_mul,
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
    """Drop every monomial divisible by another; canonical descending order.
    The distinct monomials are taken one degree at a time, and each is
    tested only against the generators kept at lower degrees: distinct
    monomials of one degree never divide each other."""
    kept = []
    for _d, level in groupby(sorted(set(monos), key=mono_degree), mono_degree):
        lower = tuple(kept)
        kept.extend(m for m in level if not any(all(map(le, g, m)) for g in lower))
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
        return any(all(map(le, g, m)) for g in self.gens)

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
        degree, largest first in degrevlex; just before degree d is formed
        its candidates are added to a running total, which `max_monomials`
        bounds, so a long thin staircase is charged for every degree.

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
        total = len(level)
        for d in count():
            if total > max_monomials:
                raise ResourceGuardError(
                    f"enumeration of {total} monomials exceeds guard {max_monomials}"
                )
            if d:
                frontier = []
                for s in level:
                    for v in range(n):
                        m = s[:v] + (s[v] + 1,) + s[v + 1 :]
                        if not any(all(map(le, g, m)) for g in cuts.get((v, m[v]), ())):
                            frontier.append(m)
                            total += v + 1
                        if s[v]:
                            break
                level = frontier
            else:
                total += n * len(level)
            yield level

    def staircase(self, bound=None, max_monomials=DEFAULT_MAX_MONOMIALS):
        """Standard monomials for every degree through `bound`: a complete
        k-basis of S/I in degrees 0..bound, as per-degree lists, largest
        first.  With no bound the walk stops at the first empty degree, the
        Loewy length, so for artinian I the lists hold the whole basis."""
        if bound is not None:
            return list(islice(self._walk(max_monomials), max(bound + 1, 0)))
        return list(self._artinian_walk(max_monomials))

    def _artinian_walk(self, max_monomials):
        """The walk's nonempty degrees, refused for the unit ideal and for a
        quotient that is not artinian, whose walk never ends."""
        require_proper(self)
        if not self.is_artinian():
            raise NonArtinianError(f"{self!r} is not artinian")
        return takewhile(bool, self._walk(max_monomials))

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
        """Least n with every degree-n monomial in the ideal (m^n subset I):
        the walk's degrees are counted as they pass, none kept."""
        return sum(1 for _level in self._artinian_walk(max_monomials))


def _has_cover(supports, k, chosen=0):
    """True when k variables besides the bitmask `chosen` meet every support bitmask."""
    miss = next((s for s in supports if not s & chosen), 0)
    return not miss or k > 0 and any(
        _has_cover(supports, k - 1, chosen | 1 << v) for v in range(miss.bit_length()) if miss >> v & 1
    )


def _multipliers(ring):
    """[None] for degree 0, then the reversed monomials of each degree d >= 1,
    walked lazily and unguarded: the cell guard of each degree of the
    regular-sequence check is checked first and is never below the
    degree's multiplier count."""
    yield [None]
    for level in islice(MonomialIdeal.zero(ring)._walk(math.inf), 1, None):
        yield [u[::-1] for u in level]


class CIIdeal:
    """Homogeneous ideal generated by a regular sequence."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring, gens, max_monomials=DEFAULT_MAX_MONOMIALS):
        """Proves the regular sequence (see the module docstring) or raises.  Rows
        u*f_i are keyed by reversed exponent tuples, so their `pivots` are
        degrevlex leaders, as is the least key of each f_i, tested first.
        `max_monomials` bounds each degree's rows times the columns they can
        reach, checked before the rows are formed."""
        gens = tuple(gens)
        if not gens:
            raise UnsupportedIdealClassError("a complete intersection needs generators")
        if len(gens) > ring.nvars:
            raise UnsupportedIdealClassError(
                f"{len(gens)} generators exceed the {ring.nvars} variables"
            )
        degrees = []
        for f in gens:
            if not isinstance(f, Polynomial) or f.ring != ring:
                raise RingMismatchError("generators must be polynomials over the ring")
            degrees.append(f.homogeneous_degree() or 0)  # 0 when not homogeneous
            if degrees[-1] < 1:
                raise UnsupportedIdealClassError(
                    f"generator {f} must be homogeneous of degree >= 1"
                )
        self.ring = ring
        self.gens = gens
        reversed_terms = [{m[::-1]: a for m, a in f.terms.items()} for f in gens]
        supports = {sum(1 << v for v, e in enumerate(min(t)) if e) for t in reversed_terms}
        walk = _multipliers(ring)
        multipliers = []  # index k: the monomials of degree k, with None for 1
        for D in count(min(degrees)):
            if not _has_cover(sorted(supports, key=int.bit_count), len(gens) - 1):
                return
            counts = [bounded_count(ring.nvars, D - d) for d in degrees]
            dim = bounded_count(ring.nvars, D)
            cells = sum(counts) * min(dim, sum(k * len(t) for k, t in zip(counts, reversed_terms)))
            if cells > max_monomials:
                raise ResourceGuardError(
                    f"regular-sequence check in degree {D}: {cells} matrix cells exceed guard {max_monomials}"
                )
            multipliers.append(next(walk))
            leaders = pivots([
                {mono_mul(m, u): a for m, a in terms.items()} if u else terms
                for d, terms in zip(degrees, reversed_terms)
                for u in (multipliers[D - d] if D >= d else ())
            ], ring.p)
            expected = dim - self.hilbert_function(D)
            if len(leaders) < expected:
                raise UnsupportedIdealClassError(
                    f"not a regular sequence: in degree {D} the ideal has dimension "
                    f"{len(leaders)}, below the {expected} of a complete intersection"
                )
            supports.update(sum(1 << v for v, e in enumerate(m) if e) for m in leaders)

    def hilbert_function(self, d):
        """dim_k (S/I)_d via inclusion-exclusion over the regular sequence."""
        degs = [f.degree() for f in self.gens]
        total = 0
        for mask in range(1 << len(degs)):
            shift = sum(degs[i] for i in range(len(degs)) if mask >> i & 1)
            sign = -1 if bin(mask).count("1") % 2 else 1
            total += sign * bounded_count(self.ring.nvars, d - shift)
        return total

    def __repr__(self):
        return f"CIIdeal({', '.join(str(f) for f in self.gens)})"


# ---------------------------------------------------------------------------
# operations

def require_proper(ideal):
    """Refuse the unit ideal: S/I is zero, so no question about it has an
    answer worth reporting."""
    if isinstance(ideal, MonomialIdeal) and ideal.is_unit():
        raise UnsupportedIdealClassError("S/I is zero for the unit ideal")


def in_bracket_max(f, q):
    """Membership of f in m^[q] = (x_0^q, ..., x_n^q).  A monomial ideal, so
    membership is termwise: every monomial needs some exponent >= q."""
    return all(any(e >= q for e in m) for m in f.terms)


# ---------------------------------------------------------------------------
# assembling an ideal from parsed generators

def build_ideal(ring, polys, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Assemble an ideal object from parsed generators; the class is read
    from them once the zero generators are dropped.

    Every generator a single term gives a MonomialIdeal; anything else a
    CIIdeal, whose generators are proven to be a regular sequence
    (`max_monomials` bounds the check).
    """
    polys = [f for f in polys if f.terms]
    if all(len(f.terms) == 1 for f in polys):
        return MonomialIdeal(ring, [next(iter(f.terms)) for f in polys])
    return CIIdeal(ring, polys, max_monomials=max_monomials)


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

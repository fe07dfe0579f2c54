"""Frobenius splitting tests and graded-summand detection.

The central test: with q = p^e, the quotient R = S/I is F-split exactly
when the colon ideal (I^[q] : I) is not contained in m^[q].  More finely,
R(-j) is a direct summand of the e-th Frobenius pushforward of R exactly
when some element s of degree q*j satisfies s*(I^[q]:I) not in m^[q].

Monomials s suffice: m^[q] is a monomial ideal, so a polynomial s escapes
via some term of some product s*c; fixing a single monomial sigma of s,
the products sigma*gamma over terms gamma of c are pairwise distinct
monomials (multiplication by a monomial is injective on monomials), so no
cancellation can occur and sigma alone already escapes.

For a monomial ideal with minimal generators G the live part of the
colon has a closed form (`colon_generators`): x_S^(q-1), S the union of
the supports of G, when I is squarefree, and nothing otherwise.

For a complete intersection the colon is (f^(q-1)) + I^[q], f the product
of the generators.  The generators of I^[q] lie in m^[q], and so do the
terms of f^(q-1) with an exponent >= q, so the tests use the single
generator f^(q-1) mod m^[q].  A Lucas-style product of Frobenius powers
(f^(p-1))^[p^i], from the top factor down, forms it without expanding
f^(q-1) or f^(p-1), and ends at the first factor that leaves nothing: a
quotient with f^(p-1) in m^[p] costs one factor at every e
(`polyring.truncated_lucas_power`).

Slack criterion: call a term t of a colon generator live when every
exponent of t is below q.  A monomial s escapes with c exactly when
s <= (q-1) - t componentwise for some live term t of c, so R(-j) is a
summand iff some live term has slack sum(q-1-t_i) >= q*j.  The test reads
this off the live terms; no candidate s is enumerated.

Each test call forms one table of live terms per (ideal, e) and reads
every twist it needs from it.

Every positive verdict carries a witness (s, c) that re-verifies by a
termwise exponent check; every negative verdict records the size of the
capped search space it rules out and re-verifies by recomputing the slack
criterion.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    NonArtinianError,
    NotFSplitError,
    ResourceGuardError,
    UnsupportedIdealClassError,
    VerificationError,
)
from .ideals import (
    CIIdeal,
    MonomialIdeal,
    in_bracket_max,
    regular_sequence_degrees,
    require_proper,
)
from .polyring import (
    DEFAULT_MAX_MONOMIALS,
    Polynomial,
    bounded_count,
    capped_power,
    drl_key,
    mono_degree,
    mono_mul,
    mono_sorted,
    mono_str,
    truncated_lucas_power,
)

MAX_Q = 2**16


class SplitCertificate(
    namedtuple(
        "SplitCertificate",
        "verdict q e j kind witness_monomial colon_generator witness_term search_degree search_count",
        defaults=("colon", None, None, None, None, None),
    )
):
    """Verdict plus re-verifiable evidence for one splitting test.

    For a true verdict, `witness_monomial` (s) times `colon_generator`
    escapes m^[q] through `witness_term`, a product term with every
    exponent < q.  For a complete intersection `colon_generator` is
    f^(q-1) mod m^[q]: the terms of f^(q-1) inside m^[q] are left out, as
    no multiple of them can escape.  For a false verdict, the ruled-out
    search space is recorded (`search_degree`, `search_count`).  `kind`
    is "colon", or "socle" for the residue-field summand test.
    """

    __slots__ = ()

    def verify(self, ideal):
        """Recheck the stored evidence from scratch; True when consistent.

        A false verdict is rechecked by recomputing it: the slack criterion
        over the live colon terms, or the staircase scan for the socle test,
        must give back this very certificate."""
        if not self.verdict:
            if self.kind == "socle":
                return self == k_summand_test(ideal, self.e)
            return self == graded_summand_test(ideal, self.j, self.e)
        if self.kind == "socle":
            return _socle_witness_ok(ideal, self.witness_monomial, self.q)
        if self.witness_monomial is None or self.colon_generator is None:
            return False
        product = self.colon_generator.mul_monomial(self.witness_monomial)
        if in_bracket_max(product, self.q):
            return False
        if self.witness_term is not None:
            if self.witness_term not in product.terms:
                return False
            if any(e >= self.q for e in self.witness_term):
                return False
        return mono_degree(self.witness_monomial) == self.q * self.j

    def payload(self, ring):
        out = {
            "verdict": self.verdict,
            "q": self.q,
            "e": self.e,
            "twist": self.j,
            "kind": self.kind,
        }
        if self.verdict:
            out["witness"] = {
                "s": mono_str(ring, self.witness_monomial),
                "colon_generator": str(self.colon_generator)
                if self.colon_generator is not None
                else None,
                "surviving_term": mono_str(ring, self.witness_term)
                if self.witness_term is not None
                else None,
            }
        else:
            out["search"] = {
                "degree": self.search_degree,
                "candidates": self.search_count,
            }
        return out


def _frobenius_q(ring, e):
    """q = p^e for an exponent e >= 1, refused past MAX_Q.  The powers of p
    are formed only until one passes the guard (`capped_power`); a q that
    was not formed is named as p^e."""
    if e < 1:
        raise ValueError("e must be at least 1")
    q, k = capped_power(ring.p, e, MAX_Q)
    if q > MAX_Q:
        raise ResourceGuardError(f"q = {q if k == e else f'{ring.p}^{e}'} exceeds the guard {MAX_Q}")
    return q


def colon_generators(ideal, e, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Generators of (I^[q] : I), q = p^e, for the supported ideal classes,
    in a deterministic order, as polynomials whose terms are all live
    (every exponent below q): no test reads a term with an exponent >= q,
    so none is returned, and the tests read the terms as they are.

    For a monomial ideal with minimal generators G, a live monomial t
    (every exponent below q) has t*g in I^[q] exactly when q*h <= t + g
    for some h in G.  Such an h has h_v <= floor((q-1+g_v)/q) <= g_v, so
    h | g and h = g by minimality; but h_v < g_v where g_v >= 2, so a
    generator with an exponent >= 2 leaves no live t at all.  For
    squarefree I, h = g asks t_v = q-1 on supp g, so the live part of the
    colon is generated by x_S^(q-1), S the union of the supports (1 for
    the zero and the unit ideal).  Nothing is enumerated.

    For a complete intersection the only generator returned is
    f^(q-1) mod m^[q], f = f_1...f_c, formed from the generators by
    `truncated_lucas_power`: the generators f_i^q of I^[q] and the terms
    of f^(q-1) inside m^[q] have no live term.  `max_monomials` bounds
    the term pairs multiplied on the way, f's product included, as one
    count checked before each product is formed."""
    ring = ideal.ring
    q = _frobenius_q(ring, e)
    if isinstance(ideal, MonomialIdeal):
        if any(max(g) > 1 for g in ideal.gens):
            return []
        return [Polynomial.monomial(ring, tuple((q - 1) * x for x in ideal.lcm()))]
    if isinstance(ideal, CIIdeal):
        return [truncated_lucas_power(ideal.gens, e, max_monomials)]
    raise UnsupportedIdealClassError(f"unsupported ideal class {type(ideal).__name__}")


def _fits(s, term, q):
    """Does s*term keep every exponent below q?"""
    return all(a + b < q for a, b in zip(s, term))


def _top_divisor(box, degree):
    """The degrevlex-largest monomial of the given degree dividing `box`
    (fill the degree in from x_0 on), or None when deg(box) < degree."""
    s = []
    for cap in box:
        take = min(cap, degree)
        s.append(take)
        degree -= take
    return None if degree else tuple(s)


class _ColonTable(namedtuple("_ColonTable", "e q nvars live")):
    """(I^[q] : I) at one e as the tests read it: its live terms, each a
    (colon generator, live term) pair, in generator order and largest term
    first."""

    __slots__ = ()

    def escape(self, s, j):
        """The certificate that s, of degree q*j, escapes m^[q] through the
        first live term it fits; None when it fits none."""
        q = self.q
        for gen, t in self.live:
            if _fits(s, t, q):
                return SplitCertificate(True, q, self.e, j, witness_monomial=s,
                                        colon_generator=gen, witness_term=mono_mul(s, t))
        return None

    def certificate(self, j):
        """The graded-summand certificate for R(-j): the degrevlex-largest s
        of degree q*j dividing some box (q-1) - t, or else the capped
        search space ruled out."""
        q = self.q
        tops = [_top_divisor([q - 1 - x for x in t], q * j) for _gen, t in self.live]
        tops = [s for s in tops if s is not None]
        if tops:
            return self.escape(max(tops, key=drl_key), j)
        return SplitCertificate(False, q, self.e, j, search_degree=q * j,
                                search_count=bounded_count(self.nvars, q * j, q - 1))


def _colon_table(ideal, e, j=0, max_monomials=DEFAULT_MAX_MONOMIALS):
    """The colon table at e, after the checks in their fixed order: e >= 1,
    q <= MAX_Q, j >= 0, an ideal other than the unit ideal, then the
    colon-term guard."""
    q = _frobenius_q(ideal.ring, e)
    if j < 0:
        raise ValueError("twist j must be nonnegative")
    require_proper(ideal)
    live = [(g, t) for g in colon_generators(ideal, e, max_monomials) for t in mono_sorted(g.terms)]
    return _ColonTable(e, q, ideal.ring.nvars, live)


def graded_summand_test(ideal, j, e, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Does R(-j) split off the e-th Frobenius pushforward of R = S/I?

    True iff some monomial s of degree q*j has s*(I^[q]:I) not inside
    m^[q] (monomials suffice; see the module docstring).  By the slack
    criterion s escapes exactly when it divides the box (q-1) - t of some
    live colon term t.  The witness is the degrevlex-largest such s: the
    largest over the boxes of each box's top divisor of degree q*j.  Its
    colon generator and surviving term are the first, in generator and
    term order, that s fits.  A false verdict records the capped search
    space it rules out: every monomial of degree q*j with exponents < q.
    """
    return _colon_table(ideal, e, j, max_monomials).certificate(j)


def is_f_split(ideal, e, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Splitting test: true iff (I^[q] : I) is not inside m^[q], q = p^e."""
    return graded_summand_test(ideal, 0, e, max_monomials=max_monomials)


def not_split_certificate(ideal, e):
    """`is_f_split(ideal, e)` for a quotient not F-split at e = 1, written
    without a colon table: f^(p-1) in m^[p] puts f^(q-1) = f^(q/p-1) *
    (f^(p-1))^[q/p] in m^[q], and a monomial colon has a live term exactly
    when I is squarefree, at every e (`colon_generators`).  Only e,
    q <= MAX_Q and a proper ideal are checked; the search space ruled out
    is the one monomial of degree 0."""
    q = _frobenius_q(ideal.ring, e)
    require_proper(ideal)
    return SplitCertificate(False, q, e, 0, search_degree=0, search_count=1)


def _socle_witness_ok(ideal, u, q):
    ring = ideal.ring
    if u is None or ideal.contains_monomial(u) or any(e >= q for e in u):
        return False
    for v in range(ring.nvars):
        xq = [0] * ring.nvars
        xq[v] = q
        if not ideal.contains_monomial(mono_mul(u, tuple(xq))):
            return False
    return True


def k_summand_test(ideal, e, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Is the residue field a direct summand of the e-th pushforward of an
    artinian monomial quotient?

    True iff the annihilator of m^[q] in R escapes m^[q]R, i.e. some
    standard monomial u with all exponents < q satisfies x_v^q * u in I
    for every variable."""
    if not isinstance(ideal, MonomialIdeal):
        raise UnsupportedIdealClassError("k_summand_test needs a monomial ideal")
    if not ideal.is_artinian():
        raise NonArtinianError("k_summand_test needs an artinian quotient")
    q = _frobenius_q(ideal.ring, e)
    levels = ideal.staircase(max_monomials=max_monomials)
    checked = 0
    for level in levels:
        for u in level:
            checked += 1
            if _socle_witness_ok(ideal, u, q):
                return SplitCertificate(
                    verdict=True, q=q, e=e, j=0, kind="socle", witness_monomial=u
                )
    return SplitCertificate(
        verdict=False,
        q=q,
        e=e,
        j=0,
        kind="socle",
        search_degree=len(levels) - 1,
        search_count=checked,
    )


class TwistSpectrum(
    namedtuple("TwistSpectrum", "e q degree entries band hypotheses band_consistent")
):
    """Graded-summand certificates for the twists R(-j),
    j = 0..max(n - d, 0) + 1.

    `degree` is the sum of the generator degrees of the complete
    intersection, `entries` maps j to its SplitCertificate, and `band` is
    (0, n - d) when the hypotheses hold, else None."""

    __slots__ = ()

    def payload(self, ring):
        return {
            "e": self.e,
            "q": self.q,
            "degree": self.degree,
            "entries": {str(j): cert.payload(ring) for j, cert in sorted(self.entries.items())},
            "band": list(self.band) if self.band is not None else None,
            "hypotheses": self.hypotheses,
            "band_consistent": self.band_consistent,
        }


def _ci_degree(ideal, name):
    """d, the sum of the generator degrees of a complete intersection: a
    CIIdeal, or a monomial ideal whose generators form a regular sequence
    (`ideals.regular_sequence_degrees`)."""
    require_proper(ideal)
    degrees = regular_sequence_degrees(ideal)
    if degrees is None:
        raise UnsupportedIdealClassError(f"{name} needs a complete intersection")
    return sum(degrees)


def twist_spectrum(ideal, e, max_monomials=DEFAULT_MAX_MONOMIALS):
    """The graded_summand_test certificates for j = 0..max(n - d, 0) + 1
    on a complete intersection, all read from one colon table.

    Every live term of f^(q-1) mod m^[q] has degree d(q-1), so its slack
    is (n + 1 - d)(q-1) and no twist past n - d is a summand; the range
    ends one twist past the band.  When the hypotheses hold (degree
    d <= n where n+1 = #variables, q > n-d, and the j = 0 test passes),
    the theory predicts summands exactly for 0 <= j <= n-d; the report
    checks the computed entries against that band.  Outside the
    hypotheses the computed values are reported without any band
    assertion.
    """
    d = _ci_degree(ideal, "twist_spectrum")
    n = ideal.ring.nvars - 1
    table = _colon_table(ideal, e, max_monomials=max_monomials)
    q = table.q
    entries = {j: table.certificate(j) for j in range(max(n - d, 0) + 2)}
    hypotheses = {
        "degree_at_most_n": d <= n,
        "q_exceeds_band": q > n - d,
        "f_split": entries[0].verdict,
    }
    band = None
    band_consistent = None
    if all(hypotheses.values()):
        band = (0, n - d)
        band_consistent = all(
            cert.verdict == (band[0] <= j <= band[1]) for j, cert in entries.items()
        )
    return TwistSpectrum(
        e=e,
        q=q,
        degree=d,
        entries=entries,
        band=band,
        hypotheses=hypotheses,
        band_consistent=band_consistent,
    )


class WitnessChain(namedtuple("WitnessChain", "e q g degree expected_degree factors")):
    """A divisibility-maximal escape monomial g and its degree-jq factors.

    g satisfies g*f^(q-1) not in m^[q] while x_v*g*f^(q-1) lands in m^[q]
    for every variable; maximality forces the single surviving term of
    g*f^(q-1) to be (x_0...x_n)^(q-1), which pins deg(g) to
    (n+1)(q-1) - d(q-1).  Any divisor s_j of g of degree j*q then also
    escapes, certifying the twist R(-j).  `factors` lists the triples
    (j, s_j, SplitCertificate)."""

    __slots__ = ()

    def payload(self, ring):
        return {
            "e": self.e,
            "q": self.q,
            "g": mono_str(ring, self.g),
            "degree": self.degree,
            "expected_degree": self.expected_degree,
            "factors": [
                {"twist": j, "s": mono_str(ring, s), "certificate": cert.payload(ring)}
                for j, s, cert in self.factors
            ],
        }


def witness_from_proof(ideal, e, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Take a maximal escape monomial for an F-split complete intersection
    and extract one re-verified factor per twist in the band.

    By the slack criterion the escape monomials are the divisors of the
    boxes (q-1) - t over the live terms t of f^(q-1); the box of the
    lexicographically least live term is the one a greedy growth from 1,
    raising x_0 first, ends in."""
    d = _ci_degree(ideal, "witness_from_proof")
    table = _colon_table(ideal, e, max_monomials=max_monomials)
    if not table.live:
        raise NotFSplitError("no escape monomial exists: the quotient is not F-split")

    q = table.q
    n = ideal.ring.nvars - 1
    g = tuple(q - 1 - x for x in min(t for _gen, t in table.live))
    expected = (n + 1) * (q - 1) - d * (q - 1)
    if mono_degree(g) != expected:
        raise VerificationError(
            f"maximal escape monomial has degree {mono_degree(g)}, expected {expected}"
        )

    factors = []
    for j in range(max(n - d, 0) + 1):
        target = j * q
        if target > mono_degree(g):
            break
        s = _top_divisor(g, target)
        cert = table.escape(s, j)
        if cert is None:
            raise VerificationError(f"extracted factor of degree {target} does not escape")
        factors.append((j, s, cert))
    return WitnessChain(
        e=e,
        q=q,
        g=g,
        degree=mono_degree(g),
        expected_degree=expected,
        factors=factors,
    )

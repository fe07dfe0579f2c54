"""Bound reports: how many cone-building steps to reassemble R from a
Frobenius pushforward, and the generation exponent over the codepth.

The number of steps is not computed exactly in general; the reports carry
the certified bounds with machine-checkable certificates: a splitting
witness pins the value to 1, the Loewy length bounds artinian quotients,
and p^codim bounds complete intersections.  When no certified upper bound
applies, the report says "unknown" (the quantity is known to be finite).

Only the splitting test at e = 1 is run: a splitting at any e restricts
to one at e = 1, so once that test fails the certificate at each e >= 2
is written without forming the colon (`splitting.not_split_certificate`).
"""

from __future__ import annotations

from collections import namedtuple

from .ideals import MonomialIdeal, regular_sequence_degrees
from .koszul import codepth as koszul_codepth
from .polyring import DEFAULT_MAX_MONOMIALS, capped_power
from .splitting import is_f_split, not_split_certificate

DEFAULT_E_MAX = 4


class BoundReport(
    namedtuple(
        "BoundReport", "lower upper exact upper_status provenance split_certificates notes"
    )
):
    """Certified lower/upper bounds, with `exact` set when they meet.

    `upper` and `exact` are None when unknown; `upper_status` is
    "certified" or "unknown-finite"; `provenance` lists the triples (bound
    description, value, certificate kind); `split_certificates` maps e to
    its SplitCertificate."""

    __slots__ = ()

    def payload(self, ring):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "upper_status": self.upper_status,
            "provenance": [
                {"bound": desc, "value": value, "certificate": kind}
                for desc, value, kind in self.provenance
            ],
            "split_tests": {
                str(e): cert.payload(ring) for e, cert in sorted(self.split_certificates.items())
            },
            "notes": self.notes,
        }


def f_level_bounds(ideal, e_max=DEFAULT_E_MAX, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Bound report for the pushforward-level of R = S/I.

    lower = 1 always; exact = 1 when the splitting test at e = 1 finds a
    witness.  Otherwise lower = 2 at every e, since a splitting at any e
    restricts to one at e = 1, and the report holds the failed certificate
    for each e <= e_max.  Upper bounds: Loewy length for artinian
    quotients, p^codim for complete intersections, the smaller when both
    apply; otherwise unknown (finite).  exact = lower when the bounds
    meet.

    p^c needs no generator in m^2: S/I^[p] is filtered by the f^a,
    a in {0..p-1}^c, with p^c subquotients isomorphic to shifts of S/I,
    and F_* of S/I^[p] is free over R (Kunz)."""
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    certs = {1: is_f_split(ideal, 1, max_monomials=max_monomials)}
    if certs[1].verdict:
        provenance = [("splitting witness", 1, "split test at e=1")]
        return BoundReport(1, 1, 1, "certified", provenance, certs, [])
    certs.update((e, not_split_certificate(ideal, e)) for e in range(2, e_max + 1))
    provenance = [("no splitting witness", 2, f"split tests failed for e <= {e_max}")]
    notes = ["lower bound 2 holds at every e: a splitting at any e restricts to one at e = 1"]
    p = ideal.ring.p
    uppers = []
    if isinstance(ideal, MonomialIdeal):
        if ideal.is_artinian():
            ll = ideal.loewy_length(max_monomials=max_monomials)
            uppers.append(("artinian Loewy-length bound", ll, f"loewy_length = {ll}"))
    degrees = regular_sequence_degrees(ideal)
    if degrees is not None:
        c = len(degrees)
        uppers.append(("complete-intersection bound p^codim", p**c, f"codimension = {c}"))
    if not uppers:
        notes.append("no certified upper bound applies; the value is finite")
        return BoundReport(2, None, None, "unknown-finite", provenance, certs, notes)
    uppers.sort(key=lambda t: t[1])
    upper = uppers[0][1]
    exact = 2 if upper == 2 else None
    return BoundReport(2, upper, exact, "certified", provenance + uppers, certs, notes)


def generation_exponent(I, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Least e >= 1 with p^e > codepth(S/I); pushforwards beyond this
    exponent generate everything of full support."""
    c = koszul_codepth(I, max_monomials=max_monomials)
    return max(capped_power(I.ring.p, c + 1, c)[1], 1)

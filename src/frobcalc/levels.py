"""Bound reports: how many cone-building steps to reassemble R from a
Frobenius pushforward, and the generation exponent over the codepth.

The number of steps is not computed exactly in general; the reports carry
the certified bounds with machine-checkable certificates: a splitting
witness pins the value to 1, the Loewy length bounds artinian quotients,
and p^codim bounds complete intersections.  When no certified upper bound
applies, the report says "unknown" (the quantity is known to be finite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnsupportedIdealClassError
from .ideals import CIIdeal, MonomialIdeal, pairwise_disjoint_supports
from .koszul import codepth as koszul_codepth
from .polyring import DEFAULT_MAX_MONOMIALS, mono_degree
from .splitting import is_f_split

DEFAULT_E_MAX = 4


def _monomial_ci_codimension(I):
    """Number of generators when the monomial ideal is generated by a
    regular sequence (pairwise disjoint supports), else None."""
    if I.gens and pairwise_disjoint_supports(I.gens):
        return len(I.gens)
    return None


@dataclass
class BoundReport:
    """Certified lower/upper bounds, with `exact` set when they meet."""

    lower: int
    upper: int | None
    exact: int | None
    upper_status: str  # "certified" or "unknown-finite"
    provenance: list  # (bound description, value, certificate kind)
    split_certificates: dict = field(default_factory=dict)  # e -> SplitCertificate
    notes: list = field(default_factory=list)

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

    lower = 1 always; exact = 1 when a splitting witness exists; lower = 2
    when every tested e <= e_max fails (conditional on the tested range in
    the report wording, although a splitting at any e restricts to one at
    e = 1).  Upper bounds: Loewy length for artinian quotients, p^codim
    for complete intersections, the smaller when both apply; otherwise
    unknown (finite).  exact = lower when the bounds meet."""
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    ring = ideal.ring
    certs = {}
    split_at = None
    for e in range(1, e_max + 1):
        cert = is_f_split(ideal, e, max_monomials=max_monomials)
        certs[e] = cert
        if cert.verdict:
            split_at = e
            break

    provenance = []
    notes = []
    if split_at is not None:
        lower = 1
        exact = 1
        upper = 1
        status = "certified"
        provenance.append(("splitting witness", 1, f"split test at e={split_at}"))
    else:
        lower = 2
        exact = None
        provenance.append(
            ("no splitting witness", 2, f"split tests failed for e <= {e_max}")
        )
        notes.append(
            f"lower bound 2 is certified for the tested range e <= {e_max}"
        )
        if isinstance(ideal, MonomialIdeal) and len(ideal.gens) == 1:
            notes.append("hypersurface: the e = 1 test is decisive")

        upper_candidates = []
        if isinstance(ideal, MonomialIdeal):
            if ideal.is_artinian():
                ll = ideal.loewy_length(max_monomials=max_monomials)
                upper_candidates.append(("artinian Loewy-length bound", ll, f"loewy_length = {ll}"))
            c = _monomial_ci_codimension(ideal)
            if c is not None and all(mono_degree(g) >= 2 for g in ideal.gens):
                upper_candidates.append(
                    ("complete-intersection bound p^codim", ring.p**c, f"codimension = {c}")
                )
        elif isinstance(ideal, CIIdeal):
            c = ideal.codimension
            upper_candidates.append(
                ("complete-intersection bound p^codim", ring.p**c, f"codimension = {c}")
            )
        else:
            raise UnsupportedIdealClassError(f"unsupported ideal class {type(ideal).__name__}")

        if upper_candidates:
            upper_candidates.sort(key=lambda t: t[1])
            upper = upper_candidates[0][1]
            status = "certified"
            if upper == lower:
                exact = lower
            provenance.extend(upper_candidates)
        else:
            upper = None
            status = "unknown-finite"
            notes.append("no certified upper bound applies; the value is finite")
    return BoundReport(
        lower=lower,
        upper=upper,
        exact=exact,
        upper_status=status,
        provenance=provenance,
        split_certificates=certs,
        notes=notes,
    )


def generation_exponent(I, degree_bound=None, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Least e >= 1 with p^e > codepth(S/I); pushforwards beyond this
    exponent generate everything of full support."""
    c = koszul_codepth(I, degree_bound, max_monomials=max_monomials)
    p = I.ring.p
    e = 1
    power = p
    while power <= c:
        power *= p
        e += 1
    return e

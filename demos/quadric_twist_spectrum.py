"""Which twists R(-j) split off a Frobenius pushforward?

For the quadric x0 x1 + x2 x3 in four variables (n = 3, degree d = 2) the
predicted band is 0 <= j <= n - d = 1.  The search certifies each twist by
finding a degree-3j monomial s with s * f^(q-1) escaping m^[q], and the
witness chain construction extracts all of them from one maximal monomial.
"""

from frobcalc import (
    CIIdeal,
    PolyRing,
    parse_polynomial,
    twist_spectrum,
    witness_from_proof,
)
from frobcalc.polyring import mono_str

ring = PolyRing(3, ["x0", "x1", "x2", "x3"])
quadric = CIIdeal(ring, [parse_polynomial(ring, "x0*x1 + x2*x3")])

spectrum = twist_spectrum(quadric, e=1)
print("twist spectrum at q = 3:")
for j, cert in sorted(spectrum.entries.items()):
    marker = "summand" if cert.verdict else "no summand"
    extra = ""
    if cert.verdict:
        extra = f"  (witness s = {mono_str(ring, cert.witness_monomial)})"
    else:
        extra = f"  (searched {cert.search_count} monomials of degree {cert.search_degree})"
    print(f"  R(-{j}): {marker}{extra}")
print(f"predicted band: j in [{spectrum.band[0]}, {spectrum.band[1]}]")
print(f"computed entries match the band: {spectrum.band_consistent}")

print()
chain = witness_from_proof(quadric, e=1)
print(f"maximal escape monomial g = {mono_str(ring, chain.g)}")
print(f"deg(g) = {chain.degree}; the degree formula (n+1)(q-1) - d(q-1) gives {chain.expected_degree}")
print("factors extracted from g, one per twist in the band:")
for j, s, cert in chain.factors:
    print(f"  j={j}: s_{j} = {mono_str(ring, s)}, re-verified: {cert.verify(quadric)}")

"""Splitting tests across characteristics.

The criterion: R = S/I is F-split exactly when the colon ideal
(I^[q] : I) escapes m^[q] = (x_0^q, ..., x_n^q), q = p^e.  Every verdict
below comes with a witness or a ruled-out search space.
"""

from frobcalc import CIIdeal, MonomialIdeal, PolyRing, is_f_split, parse_polynomial

print("== the node xy ==")
for p in (2, 3, 5, 7):
    ring = PolyRing(p, ["x", "y"])
    cert = is_f_split(MonomialIdeal(ring, [(1, 1)]), 1)
    witness = cert.payload(ring)["witness"]
    print(f"  p={p}: split={cert.verdict}, colon generator {witness['colon_generator']}")

print()
print("== the Fermat cubic x^3 + y^3 + z^3 ==")
for p in (5, 7, 11, 13):
    ring = PolyRing(p, ["x", "y", "z"])
    cubic = CIIdeal(ring, [parse_polynomial(ring, "x^3 + y^3 + z^3")])
    cert = is_f_split(cubic, 1)
    if cert.verdict:
        term = cert.witness_term
        coeff = cert.colon_generator.terms[term]
        print(f"  p={p}: split, surviving term exponents {term} with coefficient {coeff}")
    else:
        print(f"  p={p}: not split (f^(p-1) lands in m^[p])")
print()
print("The p = 7 witness is the term x^6 y^6 z^6 of f^6: its multinomial")
print("coefficient 6!/(2!2!2!) = 90 = 6 mod 7 is nonzero, and every exponent")
print("stays below 7.  At p = 5 every term of f^4 has an exponent 3a >= 6 > 4.")

print()
print("== splitting persists under iteration ==")
ring = PolyRing(3, ["x", "y"])
node = MonomialIdeal(ring, [(1, 1)])
for e in (1, 2, 3):
    print(f"  e={e}: {is_f_split(node, e).verdict}")

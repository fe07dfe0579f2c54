"""A 12-dimensional quotient where the residue field is not a summand.

R = F_2[x,y]/(x^4, x^2 y^2, y^4).  Neither the residue field nor R itself
splits off F_*R, yet the pushforward decomposes into four cyclic pieces,
each a shifted copy of R/(x^2, xy, y^2).  Note the dimension count: four
3-dimensional pieces fill dim F_*R = dim R = 12.
"""

from itertools import count

from frobcalc import (
    FrobeniusModule,
    MonomialIdeal,
    PolyRing,
    cyclic_decompose,
    f_level_bounds,
    is_f_split,
    k_summand_test,
)
from frobcalc.polyring import mono_str

ring = PolyRing(2, ["x", "y"])
I = MonomialIdeal(ring, [(4, 0), (2, 2), (0, 4)])

print(f"dim_k R = {sum(map(len, I.staircase()))}, Loewy length = {I.loewy_length()}")
print(f"residue field splits off F_*R: {k_summand_test(I, 1).verdict}")
print(f"R splits off F_*R:            {is_f_split(I, 1).verdict}")

print()
module = FrobeniusModule(I, 1)
dec = cyclic_decompose(module)
print(
    f"cyclic decomposition by exponent residues mod {module.q}: {len(dec.pieces)} pieces "
    f"partitioning the {module.dimension()} basis monomials"
)
for piece in dec.pieces:
    ann = ", ".join(mono_str(ring, g) for g in piece.annihilator.gens)
    basis = ", ".join(mono_str(ring, u) for u in piece.basis)
    print(f"  generator {mono_str(ring, piece.generator):>4}: basis {{{basis}}}, annihilator ({ann})")
for ann, hilbert, mult in dec.iso_classes:
    names = ", ".join(mono_str(ring, g) for g in ann)
    print(f"isomorphism class R/({names}) with Hilbert function {hilbert}: multiplicity {mult}")

print()
report = f_level_bounds(I)
print(f"level bounds: lower {report.lower}, upper {report.upper} (Loewy length)")

print()
e0 = next(e for e in count(1) if all(I.contains_monomial(m) for m in [(2**e, 0), (0, 2**e)]))
print(f"m^[2^e] lands in I at e = {e0}; after that every cyclic piece is a line:")
dec2 = cyclic_decompose(FrobeniusModule(I, e0))
print(f"  e = {e0}: piece dimensions {sorted(len(p.basis) for p in dec2.pieces)}")

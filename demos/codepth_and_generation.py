"""Codepth from Koszul homology, and the exponent it buys.

codepth R = (number of variables) - depth R is the top homological degree
where the Koszul complex on the variables has homology.  Once p^e exceeds
it, the e-th pushforward of anything with full support generates everything
bounded.  The graded homology ranks double as the Betti table of S/I
(Koszul homology of S/I is Tor(S/I, k)), which `betti_table` reads from
the blocks inside the lcm box, or, for a stable ideal such as
(x^2, xy, y^2), from the Eliahou-Kervaire formula.
"""

from frobcalc import (
    MonomialIdeal,
    PolyRing,
    betti_power_formula,
    betti_table,
    codepth,
    generation_exponent,
)

ring = PolyRing(2, ["x", "y"])
examples = {
    "0": [],
    "(xy)": [(1, 1)],
    "(x^2, y^3)": [(2, 0), (0, 3)],
    "(x^2, xy, y^2)": [(2, 0), (1, 1), (0, 2)],
    "(x^4, x^2y^2, y^4)": [(4, 0), (2, 2), (0, 4)],
}
print("codepth / depth / generation exponent over F_2 in two variables:")
for label, gens in examples.items():
    I = MonomialIdeal(ring, gens)
    c = codepth(I)
    print(
        f"  {label:>20}: codepth {c}, depth {ring.nvars - c}, "
        f"e = {generation_exponent(I)} (2^e > {c})"
    )

print()
print("graded Koszul homology of R = S/(x^2, xy, y^2), the Betti table of S/I:")
for (i, d), r in betti_table(MonomialIdeal(ring, [(2, 0), (1, 1), (0, 2)])).items():
    print(f"  H_{i} in degree {d}: rank {r}")

print()
print("closed form for powers of the maximal ideal, three variables:")
for j in (1, 2, 3, 4):
    row = [betti_power_formula(3, j, i) for i in range(4)]
    print(f"  m^{j}: {row}")

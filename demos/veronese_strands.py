"""Veronese subrings of k[x,y]: strand modules and pushforward decompositions.

G_j is the span of monomials with degree congruent to j mod ell, a module
over the index-ell Veronese subring R = G_0.  The strand of the linear
resolution of m^j gives the short exact sequence
0 -> G_{ell-1}^(b2) -> R^(b1) -> G_j -> 0, whose graded ranks the
Hilbert-Burch resolution of m^j fixes in every degree,
and the pushforward F^e_* R splits into strand modules with multiplicities
computed from exponent residues.
"""

from frobcalc import strand_check, veronese_decompose

print("strand modules for ell = 3 (G_j in degree t is the S-degree 3t + j piece):")
for j in range(3):
    print(f"  G_{j}: Hilbert function {[3 * t + j + 1 for t in range(6)]}")

print()
print("strand exact sequences (graded ranks from the Hilbert-Burch resolution):")
for ell in (2, 3):
    for j in range(1, ell):
        report = strand_check(ell, j)
        print(
            f"  ell={ell}, class {j}: exact={report.exact}, "
            f"b1={report.b1}, b2={report.b2}, degrees checked "
            f"{[row['degree'] for row in report.rows]}"
        )

print()
print("pushforward decompositions F_*R = sum of G_j's:")
for ell, p in [(2, 2), (2, 3), (3, 2), (3, 3)]:
    dec = veronese_decompose(ell, p, 1)
    mults = ", ".join(f"G_{j} x {m}" for j, m in sorted(dec.multiplicities.items()))
    note = "" if dec.hs_solve_unique else "  [Hilbert data alone would be ambiguous]"
    print(f"  ell={ell}, p={p}: {mults}{note}")
print()
print("The free summand G_0 = R is always present (Veronese rings are")
print("F-split) and some G_j with j != 0 appears once ell >= 2, as it must:")
print("a free pushforward would force the ring to be regular.")

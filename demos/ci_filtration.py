"""The p^c-step filtration behind the complete-intersection level bound.

For a regular sequence f_1..f_c the ring R' = S/(f_1^p, ..., f_c^p) sits
between R and its Frobenius: the chain of submodules generated by the
products f^a (exponents a in {0..p-1}^c, lexicographic) has p^c steps and
every subquotient matches the pushforward of R = S/(f_1..f_c) in Hilbert
series.  That is the mechanism capping the level at p^c.

The subquotient dims printed come from that theorem (Kunz 1969): step a
is HF(S/(f)) shifted by deg f^a, read from the Koszul counts of the
sequence.  The tests compare them with a walk of the staircase of
S/(f_1^p, ..., f_c^p).
"""

from frobcalc import PolyRing, ci_filtration_check
from frobcalc.polyring import mono_str

for p, vars_, gens, label in [
    (2, ["x"], [(2,)], "(x^2) in F_2[x]"),
    (3, ["x"], [(2,)], "(x^2) in F_3[x]"),
    (2, ["x", "y"], [(2, 0), (0, 2)], "(x^2, y^2) in F_2[x,y]"),
]:
    ring = PolyRing(p, vars_)
    report = ci_filtration_check(ring, gens)
    print(f"{label}: p^c = {p}^{report.c} = {len(report.steps)} steps, "
          f"all subquotients match: {report.all_match}")
    for step in report.steps:
        print(
            f"  f^{step.exponents} = {mono_str(ring, step.generator):>5}  "
            f"shift {step.shift}  dims {step.dims}"
        )
    print()

"""The benchmark's three workloads, built from a seed.

Each workload is a list of `Query` objects: a frobcalc argv list plus a
check that recomputes the expected answer apart from the program (see
checks.py).  The seed picks variable names, the order of terms in the
input text, unit coefficients, small twists and the random monomial
ideals; the query mix and the sizes that set the cost do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from checks import (
    CIModel,
    MonomialModel,
    betti_length,
    box_count,
    check_betti_table,
    disjoint_supports,
    divides,
    hilbert_function,
    is_artinian,
    loewy_length,
    parse_monomial,
    staircase,
)


@dataclass
class Query:
    """One CLI call.  `check(envelope, envelopes_by_label)` returns a list
    of errors.  `known_fault` names a program defect that makes this query
    fail on every run; such a query is counted in `failed` without making
    the run incorrect."""

    label: str
    argv: list
    check: Callable
    known_fault: str | None = None


def mono_text(names, m):
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e]
    return "*".join(parts) or "1"


def ideal_args(sub, p, names, gens, *extra):
    text = ",".join(mono_text(names, g) for g in gens)
    return [sub, "--char", str(p), "--vars", ",".join(names), "--ideal", text, *map(str, extra)]


def unit(nvars, v, power=1):
    return tuple(power if i == v else 0 for i in range(nvars))


def power_of_max(nvars, j):
    """Generators of m^j."""
    out = []

    def rec(prefix, left):
        if len(prefix) == nvars - 1:
            out.append(tuple(prefix) + (left,))
            return
        for k in range(left, -1, -1):
            rec(prefix + [k], left - k)

    rec([], j)
    return out


def minimalize(gens):
    gens = sorted(set(gens), key=sum)
    kept = []
    for g in gens:
        if not any(divides(h, g) for h in kept):
            kept.append(g)
    return kept


def random_monomial(rng, nvars, degree):
    m = [0] * nvars
    for _ in range(degree):
        m[rng.randrange(nvars)] += 1
    return tuple(m)


# ---------------------------------------------------------------------------
# ci_split: splitting and summand tests on hypersurfaces

CI_NAMES = ["x", "y", "z", "w", "u", "v"]

# positional monomials of each hypersurface shape; the seed renames the
# variables and picks the coefficients, which leaves the cost unchanged
SHAPES = {
    "cubic": [unit(3, v, 3) for v in range(3)],
    "quartic": [unit(4, v, 4) for v in range(4)],
    "quadric": [(1, 1, 0, 0), (0, 0, 1, 1)],
}


def hypersurface(rng, shape, p):
    monos = SHAPES[shape]
    names = rng.sample(CI_NAMES, len(monos[0]))
    terms = [(rng.randrange(1, p), m) for m in monos]
    shown = [f"{c}*{mono_text(names, m)}" for c, m in terms]
    rng.shuffle(shown)
    return CIModel(names, terms, p), " + ".join(shown)


def ci_args(sub, model, text, *extra):
    return [sub, "--char", str(model.p), "--vars", ",".join(model.names), "--ideal", text, *extra]


def check_split(model, e, j):
    """fsplit and summand, on either model: the certificate's verdict and
    evidence."""
    return lambda env, _: model.check_certificate(env["result"]["certificate"], e, j)


def check_twists(model, e):
    def check(env, _):
        r = env["result"]
        n, d, q = model.nvars - 1, model.degree, model.p**e
        jmax = max(n - d, 0) + 1
        if sorted(map(int, r["entries"])) != list(range(jmax + 1)):
            return [f"twists {sorted(r['entries'])} != 0..{jmax}"]
        errors = []
        for j in range(jmax + 1):
            errors += model.check_certificate(r["entries"][str(j)], e, j)
        hypotheses = {
            "degree_at_most_n": d <= n,
            "q_exceeds_band": q > n - d,
            "f_split": model.summand(e, 0),
        }
        band = consistent = None
        if all(hypotheses.values()):
            band = [0, n - d]
            consistent = all(model.summand(e, j) == (j <= n - d) for j in range(jmax + 1))
        if (r["hypotheses"], r["band"], r["band_consistent"]) != (hypotheses, band, consistent):
            errors.append(f"band report {r['hypotheses']} {r['band']} {r['band_consistent']}")
        return errors

    return check


def check_witness(model, e):
    def check(env, _):
        r = env["result"]
        n, d, q = model.nvars - 1, model.degree, model.p**e
        live = model.live(e)

        def escapes(m):
            return any(all(a + b < q for a, b in zip(m, t)) for t in live)

        g = parse_monomial(r["g"], model.names)
        expected = (n + 1) * (q - 1) - d * (q - 1)
        errors = []
        if (r["degree"], r["expected_degree"], sum(g)) != (expected,) * 3:
            errors.append(f"g has degree {sum(g)}, expected {expected}")
        if not escapes(g):
            errors.append("g does not escape m^[q]")
        if any(escapes(tuple(a + b for a, b in zip(g, unit(model.nvars, v)))) for v in range(n + 1)):
            errors.append("g is not maximal")
        twists = [j for j in range(max(n - d, 0) + 1) if j * q <= sum(g)]
        if [f["twist"] for f in r["factors"]] != twists:
            errors.append(f"factor twists {[f['twist'] for f in r['factors']]} != {twists}")
        for f in r["factors"]:
            if not divides(parse_monomial(f["s"], model.names), g):
                errors.append(f"factor {f['s']} does not divide g")
            errors += model.check_certificate(f["certificate"], e, f["twist"])
        return errors

    return check


def check_flevel_ci(model, emax):
    def check(env, _):
        r = env["result"]
        split_at = next((e for e in range(1, emax + 1) if model.summand(e, 0)), None)
        tested = range(1, (split_at or emax) + 1)
        if sorted(map(int, r["split_tests"])) != list(tested):
            return [f"split tests at e = {sorted(r['split_tests'])}"]
        errors = []
        for e in tested:
            errors += model.check_certificate(r["split_tests"][str(e)], e, 0)
        if split_at:
            want = (1, 1, 1)
        else:
            upper = model.p  # p^codim, codimension 1
            want = (2, upper, 2 if upper == 2 else None)
        got = (r["lower"], r["upper"], r["exact"])
        if got != want or r["upper_status"] != "certified":
            errors.append(f"(lower, upper, exact) = {got}, expected {want}")
        return errors

    return check


def ci_split(rng):
    queries = []

    def add(label, sub, shape, p, *extra, check):
        model, text = hypersurface(rng, shape, p)
        queries.append(Query(label, ci_args(sub, model, text, *extra), check(model)))

    # fsplit: the cubic and quartic split exactly when p = 1 mod d
    for shape, p, e in [
        ("cubic", 2, 8),
        ("cubic", 3, 4),
        ("cubic", 5, 4),
        ("cubic", 7, 2),
        ("cubic", 11, 2),
        ("cubic", 13, 1),
        ("quartic", 3, 3),
        ("quartic", 5, 2),
        ("quartic", 7, 1),
        ("quartic", 13, 1),
        ("quadric", 2, 5),
        ("quadric", 3, 3),
    ]:
        add(f"fsplit {shape} p={p} e={e}", "fsplit", shape, p, "-e", str(e),
            check=lambda m, e=e: check_split(m, e, 0))
    # summand: twists inside the band 0..n-d and above it
    for shape, p, e, j in [
        ("quadric", 3, 3, 1),
        ("quadric", 3, 3, 2),
        ("quadric", 5, 2, 2),
        ("cubic", 7, 2, 1),
        ("quartic", 5, 1, 1),
    ]:
        add(f"summand {shape} p={p} e={e} j={j}", "summand", shape, p, "-e", str(e), "--j", str(j),
            check=lambda m, e=e, j=j: check_split(m, e, j))
    for shape, p, e in [("quadric", 3, 2), ("quadric", 5, 2), ("cubic", 7, 2), ("quartic", 13, 1)]:
        add(f"twists {shape} p={p} e={e}", "twists", shape, p, "-e", str(e),
            check=lambda m, e=e: check_twists(m, e))
    for shape, p, e in [("quadric", 3, 3), ("quadric", 5, 2), ("cubic", 7, 2), ("quartic", 5, 1)]:
        add(f"witness {shape} p={p} e={e}", "witness", shape, p, "-e", str(e),
            check=lambda m, e=e: check_witness(m, e))
    # flevel: split at e = 1, or every e <= emax tried in vain
    for shape, p, emax in [("cubic", 5, 3), ("cubic", 7, 3), ("cubic", 11, 2), ("quartic", 3, 3), ("quadric", 3, 3)]:
        add(f"flevel {shape} p={p} emax={emax}", "flevel", shape, p, "--emax", str(emax),
            check=lambda m, emax=emax: check_flevel_ci(m, emax))
    return queries


# ---------------------------------------------------------------------------
# monomial_homology: Koszul codepth and Betti tables

HOMOLOGY_NAMES = ["a", "b", "c", "d", "e", "f"]


def monomial_codepth(model, envs, betti_label):
    """Expected codepth: n for artinian quotients, c for monomial complete
    intersections, else the length of the (separately checked) Betti
    table of the same ideal."""
    if is_artinian(model.gens, model.nvars):
        return model.nvars
    if disjoint_supports(model.gens):
        return len(model.gens)
    env = envs.get(betti_label)
    if env is None:
        return None
    return betti_length({(b["i"], b["degree"]): b["value"] for b in env["result"]["betti"]})


def check_betti(model, power=None):
    def check(env, _):
        table = {(b["i"], b["degree"]): b["value"] for b in env["result"]["betti"]}
        return check_betti_table(model, table, power)

    return check


def check_codepth(model, betti_label):
    def check(env, envs):
        want = monomial_codepth(model, envs, betti_label)
        r = env["result"]
        if want is None:
            return [f"no checked Betti table under {betti_label!r}"]
        if (r["codepth"], r["depth"]) != (want, model.nvars - want):
            return [f"codepth {r['codepth']} depth {r['depth']}, expected {want}"]
        return []

    return check


def check_genexp(model, betti_label):
    def check(env, envs):
        c = monomial_codepth(model, envs, betti_label)
        if c is None:
            return [f"no checked Betti table under {betti_label!r}"]
        want = next(e for e in range(1, 64) if model.p**e > c)
        got = env["result"]["generation_exponent"]
        return [] if got == want else [f"generation exponent {got}, expected {want}"]

    return check


def check_strand(ell, j, steps):
    def check(env, _):
        r = env["result"]
        errors = []
        if not (r["exact"] and r["alternating_sums_zero"]) or len(r["rows"]) != steps + 1:
            errors.append("strand sequence not reported exact")
        for s, row in enumerate(r["rows"]):
            m = j + ell * s
            dims = [j * (m - j), (j + 1) * (m - j + 1), m + 1]
            if row["degree"] != m or row["dims"] != dims:
                errors.append(f"row {s}: degree {row['degree']} dims {row['dims']}, expected {m} {dims}")
            elif (row["rank_left"], row["rank_right"]) != (dims[0], dims[2]) or dims[0] - dims[1] + dims[2]:
                errors.append(f"row {s}: ranks {row['rank_left']}, {row['rank_right']} do not make it exact")
        return errors

    return check


def random_homology_ideal(rng, nvars):
    """Four generators of degree 2 or 3: a random ideal inside m^2."""
    gens = set()
    while len(gens) < 4:
        gens.add(random_monomial(rng, nvars, rng.choice((2, 3))))
    return minimalize(gens)


def monomial_homology(rng):
    queries = []

    def model_of(nvars, gens):
        return MonomialModel(rng.sample(HOMOLOGY_NAMES, nvars), gens, rng.choice((2, 3, 5, 7)))

    def add(label, sub, model, check, *extra):
        queries.append(Query(label, ideal_args(sub, model.p, model.names, model.gens, *extra), check))

    for nvars, j, subs in [
        (4, 2, ("betti", "codepth", "genexp")),
        (3, 3, ("betti", "codepth")),
        (3, 2, ("betti",)),
        (4, 3, ("codepth",)),
        (3, 4, ("codepth", "genexp")),
    ]:
        model = model_of(nvars, power_of_max(nvars, j))
        label = f"m^{j} in {nvars} vars"
        for sub in subs:
            check = {
                "betti": check_betti(model, power=j),
                "codepth": check_codepth(model, None),
                "genexp": check_genexp(model, None),
            }[sub]
            add(f"{sub} {label}", sub, model, check)
    # monomial complete intersections: codepth = number of generators
    for nvars, gens in [
        (4, [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 1)]),
        (3, [(3, 0, 0), (0, 2, 2)]),
        (4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]),
    ]:
        model = model_of(nvars, gens)
        label = "ci " + "*".join(str(sum(g)) for g in gens)
        add(f"betti {label}", "betti", model, check_betti(model))
        add(f"codepth {label}", "codepth", model, check_codepth(model, None))
    # random ideals in m^2: codepth must equal the length of the Betti
    # table.  Their cost varies with the seed, so they are kept to a small
    # share of the corpus.
    for k in range(3):
        nvars = 4
        model = model_of(nvars, random_homology_ideal(rng, nvars))
        label = f"random#{k}"
        add(f"betti {label}", "betti", model, check_betti(model))
        add(f"codepth {label}", "codepth", model, check_codepth(model, f"betti {label}"))
    for ell, j, steps, char in [(3, 1, 8, 2), (5, 3, 12, 3), (6, 2, 12, 5)]:
        queries.append(
            Query(
                f"strand ell={ell} j={j} steps={steps}",
                ["strand", "--ell", str(ell), "--j", str(j), "--steps", str(steps), "--char", str(char)],
                check_strand(ell, j, steps),
            )
        )
    return queries


# ---------------------------------------------------------------------------
# pushforward_modules: pushforward decompositions and monomial splitting

PUSH_NAMES = ["x", "y", "z", "w"]

EXACT_NULL = (
    "f_level_bounds leaves `exact` null when lower == upper "
    "(src/frobcalc/levels.py:93)"
)


def check_decompose(model, e):
    def check(env, _):
        r = env["result"]
        q = model.p**e
        basis = set(staircase(model.gens, model.nvars))
        bracket = model.gens + [unit(model.nvars, v, q) for v in range(model.nvars)]
        generators = len(staircase(bracket, model.nvars))
        errors = []
        if r["module_dimension"] != len(basis):
            errors.append(f"module dimension {r['module_dimension']} != dim S/I = {len(basis)}")
        pieces = r["pieces"]
        if r["direct"]:
            if len(pieces) != generators:
                errors.append(f"{len(pieces)} pieces, dim S/(I+m^[q]) = {generators}")
            seen = [parse_monomial(u, model.names) for piece in pieces for u in piece["basis"]]
            if len(seen) != len(basis) or set(seen) != basis:
                errors.append("piece bases do not partition the staircase")
        if sum(c["multiplicity"] for c in r["iso_classes"]) != len(pieces):
            errors.append("isomorphism-class multiplicities do not add up to the pieces")
        return errors

    return check


def check_veronese(p, e):
    def check(env, _):
        r = env["result"]
        q = p**e
        mult = r["multiplicities"]
        errors = []
        if sum(mult.values()) != q * q or len(r["pieces"]) != q * q:
            errors.append(f"multiplicities sum to {sum(mult.values())}, not q^2 = {q * q}")
        if not r["hilbert_series_verified"] or r["has_free_summand"] != (mult.get("0", 0) >= 1):
            errors.append("Hilbert series or free summand flag wrong")
        return errors

    return check


def check_pn(n, p, e):
    def check(env, _):
        r = env["result"]
        q = p**e
        total = sum(r["twists"].values())
        generates = all(str(-t) in r["twists"] for t in range(n + 1))
        if (r["total_rank"], total, r["generates"]) != (q**n, q**n, generates):
            return [f"total rank {r['total_rank']} (sum {total}), expected q^n = {q**n}"]
        return []

    return check


def check_alpha(n, p, l):
    def check(env, _):
        r = env["result"]
        want = {}
        i = -(l // p)
        while l + i * p <= (n + 1) * (p - 1):
            value = box_count(n + 1, l + i * p, p - 1)
            if value:
                want[str(i)] = value
            i += 1
        if r["alpha"] != want or r["sum"] != p**n or sum(want.values()) != p**n:
            return [f"alpha {r['alpha']} sum {r['sum']}, expected {want} summing to p^n = {p**n}"]
        return []

    return check


def check_filtration(model):
    def check(env, _):
        r = env["result"]
        p, c, n = model.p, len(model.gens), model.nvars
        errors = []
        if (r["step_count"], r["expected_step_count"], len(r["steps"])) != (p**c,) * 3:
            errors.append(f"{r['step_count']} steps, expected p^c = {p**c}")
        if not r["all_match"] or not all(s["matches"] for s in r["steps"]):
            errors.append("a filtration step does not match")
        bound = r["degree_bound"]
        big = [tuple(p * x for x in g) for g in model.gens]
        for s in r["steps"]:
            shift = s["shift"]
            want = [hilbert_function(model.gens, n, d - shift) if d >= shift else 0 for d in range(bound + 1)]
            if s["expected_dims"] != want or s["subquotient_dims"] != want:
                errors.append(f"step {s['exponents']}: dims differ from HF(S/I) shifted by {shift}")
        # the subquotients add up to S/(f_1^p, ..., f_c^p) degree by degree
        sums = [sum(s["subquotient_dims"][d] for s in r["steps"]) for d in range(bound + 1)]
        if sums != [hilbert_function(big, n, d) for d in range(bound + 1)]:
            errors.append("subquotient dimensions do not add up to S/(f^p)")
        return errors

    return check


def check_flevel_monomial(model, emax):
    def check(env, _):
        r = env["result"]
        n, gens = model.nvars, model.gens
        split = model.squarefree()
        tested = range(1, 2 if split else emax + 1)
        if sorted(map(int, r["split_tests"])) != list(tested):
            return [f"split tests at e = {sorted(r['split_tests'])}"]
        errors = []
        for e in tested:
            errors += model.check_certificate(r["split_tests"][str(e)], e, 0)
        if split:
            want = (1, 1, 1, "certified")
        else:
            uppers = []
            if is_artinian(gens, n):
                uppers.append(loewy_length(gens, n))
            if disjoint_supports(gens) and all(sum(g) >= 2 for g in gens):
                uppers.append(model.p ** len(gens))
            upper = min(uppers, default=None)
            want = (2, upper, 2 if upper == 2 else None, "certified" if uppers else "unknown-finite")
        got = (r["lower"], r["upper"], r["exact"], r["upper_status"])
        if got != want:
            errors.append(f"(lower, upper, exact, status) = {got}, expected {want}")
        return errors

    return check


def random_squarefree(rng, nvars):
    """Three squarefree generators of degree 2 or 3."""
    gens = set()
    while len(gens) < 3:
        support = rng.sample(range(nvars), rng.choice((2, 3)))
        gens.add(tuple(1 if v in support else 0 for v in range(nvars)))
    return minimalize(gens)


def random_artinian(rng, nvars, top):
    """Pure powers x_v^a with 2 <= a <= top, plus one mixed monomial."""
    gens = [unit(nvars, v, rng.randint(2, top)) for v in range(nvars)]
    mixed = tuple(rng.randint(1, top - 1) for _ in range(nvars))
    return minimalize(gens + [mixed])


def pushforward_modules(rng):
    queries = []

    def model_of(nvars, gens, p):
        return MonomialModel(rng.sample(PUSH_NAMES, nvars), gens, p)

    def add(label, sub, model, check, *extra, known_fault=None):
        argv = ideal_args(sub, model.p, model.names, model.gens, *extra)
        queries.append(Query(label, argv, check, known_fault))

    for label, nvars, gens, p, e in [
        ("(x^4,x^2y^2,y^4)", 2, [(4, 0), (2, 2), (0, 4)], 2, 1),
        ("(x^3,y^3,z^3)", 3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)], 3, 1),
        ("(x^4,y^4,z^4,xyz)", 3, [(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)], 2, 2),
        ("(x^5,y^5,z^5,x^2y^2)", 3, [(5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 2, 0)], 3, 1),
    ]:
        model = model_of(nvars, gens, p)
        add(f"decompose {label} p={p} e={e}", "decompose", model, check_decompose(model, e), "-e", e)
        add(f"loewy {label}", "loewy", model,
            lambda env, _, m=model: [] if env["result"]["loewy_length"] == loewy_length(m.gens, m.nvars)
            else ["wrong Loewy length"])
    for k in range(2):
        model = model_of(3, random_artinian(rng, 3, 4), 2)
        add(f"decompose artinian#{k} p=2 e=1", "decompose", model, check_decompose(model, 1), "-e", 1)
    for ell, p, e in [(4, 7, 2), (3, 5, 2), (2, 3, 3), (5, 3, 2)]:
        queries.append(
            Query(f"veronese ell={ell} p={p} e={e}",
                  ["veronese", "--ell", str(ell), "--p", str(p), "-e", str(e)], check_veronese(p, e))
        )
    for n, p, e in [(3, 3, 3), (2, 5, 3), (4, 2, 4)]:
        l = rng.randrange(4)
        queries.append(
            Query(f"pn n={n} p={p} e={e}",
                  ["pn", "--n", str(n), "--p", str(p), "-e", str(e), "--l", str(l)], check_pn(n, p, e))
        )
    for n, p in [(3, 7), (5, 5)]:
        l = rng.randrange(p)
        queries.append(
            Query(f"alpha n={n} p={p}", ["alpha", "--n", str(n), "--p", str(p), "--l", str(l)], check_alpha(n, p, l))
        )
    for label, nvars, gens, p in [
        ("(x^2,y^2,z^2)", 3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)], 3),
        ("(x^2,y^2)", 2, [(2, 0), (0, 2)], 5),
        ("(x^2,y^3)", 2, [(2, 0), (0, 3)], 3),
        ("(x^2,y^2,zw)", 4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 1)], 2),
    ]:
        model = model_of(nvars, gens, p)
        add(f"filtration {label} p={p}", "filtration", model, check_filtration(model))
    # monomial splitting: F-split exactly for squarefree ideals
    for k, p in enumerate((2, 3)):
        model = model_of(4, random_squarefree(rng, 4), p)
        add(f"fsplit squarefree#{k} p={p} e=2", "fsplit", model, check_split(model, 2, 0), "-e", 2)
        add(f"summand squarefree#{k} p={p} e=1 j=1", "summand", model,
            check_split(model, 1, 1), "-e", 1, "--j", 1)
        add(f"flevel squarefree#{k} p={p}", "flevel", model, check_flevel_monomial(model, 4))
    for label, nvars, gens, p in [
        ("(x^2,y^2,z^2)", 3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)], 3),
        ("(x^4,x^2y^2,y^4)", 2, [(4, 0), (2, 2), (0, 4)], 2),
    ]:
        model = model_of(nvars, gens, p)
        add(f"fsplit {label} p={p} e=2", "fsplit", model, check_split(model, 2, 0), "-e", 2)
        add(f"flevel {label} p={p} emax=3", "flevel", model, check_flevel_monomial(model, 3), "--emax", 3)
    # bounds that meet while `exact` stays null: fixed inputs, failing every run
    for label, names, gens, p in [
        ("(x^2,xy,y^2)", ["x", "y"], [(2, 0), (1, 1), (0, 2)], 2),
        ("m^2 in 3 vars", ["x", "y", "z"], power_of_max(3, 2), 3),
    ]:
        model = MonomialModel(names, gens, p)
        add(f"flevel {label} p={p} emax=2", "flevel", model, check_flevel_monomial(model, 2),
            "--emax", 2, known_fault=EXACT_NULL)
    return queries


WORKLOADS = {
    "ci_split": ci_split,
    "monomial_homology": monomial_homology,
    "pushforward_modules": pushforward_modules,
}

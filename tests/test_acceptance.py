"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated time budget.  All checks are exact (no tolerances)."""

import json
import math
import time
from contextlib import contextmanager

from conftest import assert_blocks_square_to_zero, corpus_ideals, monomials_of_degree
from test_ideals import pushforward_min_generators
from test_pushforward import alpha_by_enumeration

from frobcalc import (
    CIIdeal,
    FrobeniusModule,
    MonomialIdeal,
    PolyRing,
    alpha,
    betti_power_formula,
    betti_table,
    ci_filtration_check,
    codepth,
    cyclic_decompose,
    f_level_bounds,
    graded_summand_test,
    is_f_split,
    k_summand_test,
    parse_polynomial,
    pn_pushforward,
    strand_check,
    twist_spectrum,
    veronese_decompose,
    witness_from_proof,
)
from frobcalc.cli import EXIT_OK, run
from frobcalc.polyring import mono_degree


@contextmanager
def budget(name, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{name}: {elapsed:.2f}s exceeds the {seconds}s budget"
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s < {seconds}s)")


def mi(ring, *gens):
    return MonomialIdeal(ring, list(gens))


def ci(ring, *texts):
    return CIIdeal(ring, [parse_polynomial(ring, t) for t in texts])


def test_criterion_01_splitting_battery():
    with budget("1 splitting-battery", 1.0):
        for p in (2, 3, 5, 7):
            ring = PolyRing(p, ["x", "y"])
            node = mi(ring, (1, 1))
            cert = is_f_split(node, 1)
            assert cert.verdict and cert.verify(node)

        ring7 = PolyRing(7, ["x", "y", "z"])
        fermat7 = ci(ring7, "x^3 + y^3 + z^3")
        cert = is_f_split(fermat7, 1)
        assert cert.verdict and cert.verify(fermat7)

        ring5 = PolyRing(5, ["x", "y", "z"])
        fermat5 = ci(ring5, "x^3 + y^3 + z^3")
        cert = is_f_split(fermat5, 1)
        assert not cert.verdict and cert.verify(fermat5)

        for p in (2, 3, 5):
            ring4 = PolyRing(p, ["x0", "x1", "x2", "x3"])
            nodes = ci(ring4, "x0*x1", "x2*x3")
            cert = is_f_split(nodes, 1)
            assert cert.verdict and cert.verify(nodes)
            ring2v = PolyRing(p, ["x", "y"])
            node_ci = ci(ring2v, "x*y")
            cert = is_f_split(node_ci, 1)
            assert cert.verdict and cert.verify(node_ci)


def test_criterion_02_twist_spectrum_band():
    with budget("2 twist-spectrum-band", 10.0):
        ring = PolyRing(3, ["x0", "x1", "x2", "x3"])
        quadric = ci(ring, "x0*x1 + x2*x3")
        for j in range(4):
            cert = graded_summand_test(quadric, j, 1)
            assert cert.verdict == (j <= 1)
            if cert.verdict:
                assert cert.verify(quadric)
        spectrum = twist_spectrum(quadric, 1)
        assert sorted(spectrum.entries) == [0, 1, 2]
        assert spectrum.band == (0, 1) and spectrum.band_consistent
        chain = witness_from_proof(quadric, 1)
        assert chain.degree == chain.expected_degree == 4  # (n+1)(q-1) - d(q-1)
        assert [j for j, _s, _c in chain.factors] == [0, 1]
        for j, s, cert in chain.factors:
            assert mono_degree(s) == 3 * j
            assert cert.verify(quadric)


def test_criterion_03_alpha_counts():
    with budget("3 alpha-counts", 5.0):
        for n in (1, 2, 3):
            for p in (2, 3, 5):
                for l in range(-3, 4):
                    values = [alpha(n, p, i, l) for i in range(-4, 4 * (n + 1))]
                    assert sum(values) == p**n
                    for i in range(-3, 2 * (n + 1)):
                        assert alpha(n, p, i, l) == alpha_by_enumeration(n, p, i, l)
        for n in (1, 2, 3, 4):
            for p in (2, 3, 5):
                for e in (1, 2):
                    assert pn_pushforward(n, p, e, 0).generates == (p**e > n)


def test_criterion_04_betti_oracle():
    with budget("4 betti-oracle", 30.0):
        for d, powers in ((1, (1, 2, 3, 4)), (2, (1, 2, 3, 4)), (3, (1, 2, 3, 4)), (4, (1, 2, 3))):
            ring = PolyRing(2, [f"x{i}" for i in range(d)])
            for j in powers:
                power = MonomialIdeal(ring, monomials_of_degree(ring, j))
                table = betti_table(power)
                expected = {(0, 0): 1}
                for i in range(1, d + 1):
                    b = betti_power_formula(d, j, i)
                    if b:
                        expected[(i, j + i - 1)] = b  # twist: degree j + i - 1
                assert table == expected
                # alternating-sum Hilbert identity in every degree <= 12
                for D in range(13):
                    lhs = sum(
                        (-1) ** i * v * math.comb(D - a + d - 1, d - 1)
                        for (i, a), v in table.items()
                        if D - a >= 0
                    )
                    rhs = math.comb(D + d - 1, d - 1) if D < j else 0
                    assert lhs == rhs


def test_criterion_05_codepth_suite():
    with budget("5 codepth-suite", 60.0):
        corpus = corpus_ideals(p=2)
        assert len(corpus) >= 20
        for I, ci_codim in corpus:
            c = codepth(I)
            assert (c == 0) == I.is_zero()
            if ci_codim is not None:
                assert c == ci_codim
            # d compose d = 0 on every multidegree block of the Koszul complex
            assert_blocks_square_to_zero(I, min(6, mono_degree(I.lcm()) + 2))
            assert pushforward_min_generators(I, 1) >= I.ring.nvars


def test_criterion_06_twelve_dimensional_example():
    with budget("6 artinian-example", 1.0):
        ring = PolyRing(2, ["x", "y"])
        I = mi(ring, (4, 0), (2, 2), (0, 4))
        assert sum(map(len, I.staircase())) == 12
        assert I.loewy_length() == 5
        assert not k_summand_test(I, 1).verdict
        assert not is_f_split(I, 1).verdict
        module = FrobeniusModule(I, 1)
        dec = cyclic_decompose(module)
        reference = mi(ring, (2, 0), (1, 1), (0, 2))
        for piece in dec.pieces:
            assert piece.annihilator == reference
            assert piece.relative_hilbert == (1, 2)
        # the piece bases partition the module basis
        union = sorted(u for p in dec.pieces for u in p.basis)
        assert union == sorted(module.basis) and len(union) == 12
        computed_multiplicity = len(dec.pieces)
        # One published account of this decomposition lists 3 summands, but
        # 3 pieces of dimension 3 only reach dimension 9 < 12; the direct
        # computation forces 4.  Record both sides of the discrepancy.
        reported_multiplicity = 3
        assert computed_multiplicity == 4
        assert computed_multiplicity * 3 == 12
        assert reported_multiplicity * 3 != 12
        print(
            "[acceptance] 6 note: computed multiplicity "
            f"{computed_multiplicity} (dimension {computed_multiplicity * 3}) vs "
            f"reported {reported_multiplicity} (dimension {reported_multiplicity * 3})"
        )


def test_criterion_07_veronese():
    with budget("7 veronese", 30.0):
        for ell in (2, 3):
            for j in range(1, ell):
                report = strand_check(ell, j)
                assert report.exact and report.alternating_sums_zero
        for ell in (2, 3):
            for p in (2, 3):
                dec = veronese_decompose(ell, p, 1)
                assert dec.payload()["hilbert_series_verified"] is True
                assert dec.hs_bound >= 12 * ell * p  # through degree 12 and beyond
                assert dec.multiplicities.get(0, 0) >= 1
                assert any(j != 0 and m >= 1 for j, m in dec.multiplicities.items())


def test_criterion_08_filtration():
    with budget("8 filtration", 5.0):
        for p in (2, 3):
            ring = PolyRing(p, ["x"])
            report = ci_filtration_check(ring, [(2,)])
            assert len(report.steps) == p**1
            assert report.all_match and report.complete
        ring = PolyRing(2, ["x", "y"])
        report = ci_filtration_check(ring, [(2, 0), (0, 2)])
        assert len(report.steps) == 2**2
        assert report.all_match and report.complete


def test_criterion_09_flevel_reports():
    with budget("9 flevel-reports", 10.0):
        for I, ci_codim in corpus_ideals(p=2):
            if I.is_zero():
                continue
            report = f_level_bounds(I, e_max=2)
            split = is_f_split(I, 1).verdict
            assert (report.exact == 1) == split
            for cert in report.split_certificates.values():
                assert cert.verify(I)
            if not split:
                provenance = {desc: value for desc, value, _c in report.provenance}
                if I.is_artinian():
                    assert provenance["artinian Loewy-length bound"] == I.loewy_length()
                if ci_codim is not None:
                    assert (
                        provenance["complete-intersection bound p^codim"]
                        == I.ring.p ** codepth(I)
                    )
        # a monomial regular sequence with a linear generator: p^codim too
        x2_z = mi(PolyRing(2, ["x", "y", "z"]), (2, 0, 0), (0, 0, 1))
        report = f_level_bounds(x2_z)
        assert (report.upper, report.upper_status) == (4, "certified")
        # complete-intersection upper bound p^codepth on a polynomial example
        ring5 = PolyRing(5, ["x", "y", "z"])
        fermat = ci(ring5, "x^3 + y^3 + z^3")
        report = f_level_bounds(fermat)
        assert report.lower == 2 and report.upper == 5


def test_criterion_10_cli_determinism(capsys):
    with budget("10 cli-determinism", 30.0):
        commands = [
            ["fsplit", "--char", "7", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3"],
            ["twists", "--char", "3", "--vars", "x0,x1,x2,x3", "--ideal", "x0*x1 + x2*x3"],
            ["decompose", "--char", "2", "--vars", "x,y", "--ideal", "x^4, x^2*y^2, y^4"],
            ["flevel", "--char", "2", "--vars", "x,y", "--ideal", "x^4, x^2*y^2, y^4"],
            ["alpha", "--n", "2", "--p", "3"],
            ["veronese", "--ell", "2", "--p", "3"],
        ]
        for argv in commands:
            outputs = set()
            for _ in range(4):
                code = run(argv + ["--json"])
                raw = capsys.readouterr().out
                assert code == EXIT_OK
                payload = json.loads(raw)
                payload.pop("timing_seconds")
                outputs.add(json.dumps(payload, indent=2))
            assert len(outputs) == 1, f"nondeterministic output for {argv}"


def test_criterion_11_reference_cases():
    # the two slow reference cases listed in bench/README.md
    with budget("11 reference-cases", 5.0):
        dec = veronese_decompose(5, 7, 2)
        assert sum(dec.multiplicities.values()) == 49**2
        assert len(dec.ambiguity_notes) == 39
        ring = PolyRing(5, ["x", "y", "z"])
        report = ci_filtration_check(ring, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        assert report.all_match and report.complete
        assert len(report.steps) == 5**3


def test_criterion_12_strand_reference_case():
    # 31 degrees of the class-4 strand for ell = 9 over F_5; the largest
    # middle term has dimension 5 * 271 (about 11 s with dense elimination)
    with budget("12 strand-reference-case", 2.0):
        report = strand_check(9, 4, steps=30, char=5)
        assert report.exact and report.alternating_sums_zero
        assert report.rows[-1]["dims"] == [1080, 1355, 275]


def test_criterion_12_strand_costs_its_rows(capsys):
    # 1401 degrees whose maps have 8.8 * 10^6 columns, under the default
    # guard: the rows come from the resolution, so none of them is formed
    argv = ["strand", "--ell", "3", "--j", "1", "--steps", "1400", "--json"]
    with budget("12 strand-rows", 0.2):
        assert run(argv) == EXIT_OK
    rows = json.loads(capsys.readouterr().out.partition("\n[acceptance]")[0])["result"]["rows"]
    assert len(rows) == 1401 and rows[-1]["dims"] == [4200, 8402, 4202]


def test_criterion_13_codepth_reference_cases():
    # m^j is artinian, so its codepth is the number of variables; the
    # staircase has only the monomials of degree < j, while the degree
    # bound (lcm degree + n) is 21 and 24 here
    with budget("13 codepth-reference-cases", 2.0):
        for nvars, j in [(7, 2), (6, 3)]:
            ring = PolyRing(2, [f"x{i}" for i in range(nvars)])
            I = MonomialIdeal(ring, monomials_of_degree(ring, j))
            assert codepth(I) == nvars


def test_criterion_14_staircase_reference_cases(capsys):
    # a long thin staircase: 30 * 2^4 = 480 standard monomials, while the
    # degrees up to the Loewy length 34 hold about 5.8 * 10^5 monomials of S
    argv = ["--char", "2", "--vars", "x,y,z,w,u", "--ideal", "x^30, y^2, z^2, w^2, u^2", "--json"]
    with budget("14 loewy-thin-staircase", 2.0):
        assert run(["loewy"] + argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["result"]["loewy_length"] == 34
    capsys.readouterr()  # the budget's pass line
    with budget("14 decompose-thin-staircase", 2.0):
        assert run(["decompose", "-e", "1"] + argv) == EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["direct"] and result["module_dimension"] == 480
        assert sum(piece["dimension"] for piece in result["pieces"]) == 480

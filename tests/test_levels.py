from itertools import count

import pytest

from conftest import corpus_ideals

from frobcalc import (
    CIIdeal,
    FrobeniusModule,
    MonomialIdeal,
    PolyRing,
    codepth,
    cyclic_decompose,
    f_level_bounds,
    generation_exponent,
    is_f_split,
    parse_polynomial,
)
from frobcalc.errors import UnsupportedIdealClassError


def mi(ring, *gens):
    return MonomialIdeal(ring, list(gens))


class TestFLevelBounds:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_split_hypersurface_is_exact_one(self, p):
        ring = PolyRing(p, ["x", "y"])
        report = f_level_bounds(mi(ring, (1, 1)))
        assert report.exact == 1
        assert report.lower == report.upper == 1

    def test_twelve_dimensional_example(self, ring2):
        report = f_level_bounds(mi(ring2, (4, 0), (2, 2), (0, 4)))
        assert report.lower == 2
        assert report.upper == 5  # Loewy length
        assert report.exact is None
        assert report.upper_status == "certified"
        kinds = {desc for desc, _v, _c in report.provenance}
        assert "artinian Loewy-length bound" in kinds

    def test_fermat_cubic_p5_upper_from_codimension(self):
        ring = PolyRing(5, ["x", "y", "z"])
        I = CIIdeal(ring, [parse_polynomial(ring, "x^3 + y^3 + z^3")])
        report = f_level_bounds(I)
        assert report.lower == 2
        assert report.upper == 5  # p^codim = 5^1
        kinds = {desc for desc, _v, _c in report.provenance}
        assert "complete-intersection bound p^codim" in kinds

    def test_artinian_ci_takes_smaller_bound(self, ring2):
        # (x^2, y^2): Loewy length 3 beats p^2 = 4
        report = f_level_bounds(mi(ring2, (2, 0), (0, 2)))
        assert report.upper == 3
        values = {v for _d, v, _c in report.provenance}
        assert {3, 4} <= values

    @pytest.mark.parametrize("p", [2, 3])
    def test_monomial_regular_sequence_with_a_linear_generator(self, p):
        # (x^2, z): not artinian, codimension 2; the bound p^2 needs no
        # generator in m^2, and the CIIdeal of the same generators agrees
        ring = PolyRing(p, ["x", "y", "z"])
        report = f_level_bounds(mi(ring, (2, 0, 0), (0, 0, 1)))
        as_ci = CIIdeal(ring, [parse_polynomial(ring, t) for t in ("x^2", "z")])
        assert (report.lower, report.upper, report.upper_status) == (2, p**2, "certified")
        assert report == f_level_bounds(as_ci)

    def test_exact_when_bounds_meet(self, ring2):
        # m^2 in 2 variables at p=2: not split, Loewy length 2
        report = f_level_bounds(mi(ring2, (2, 0), (1, 1), (0, 2)), e_max=2)
        assert report.lower == report.upper == report.exact == 2

    def test_rejects_empty_test_range(self, ring2):
        # with no split test run, nothing certifies lower = 2
        with pytest.raises(ValueError):
            f_level_bounds(mi(ring2, (1, 1)), e_max=0)

    def test_rejects_the_unit_ideal(self, ring2):
        # S/I = 0 is no ring to bound a level of, although (S : S) = S splits
        with pytest.raises(UnsupportedIdealClassError, match="S/I is zero for the unit ideal"):
            f_level_bounds(mi(ring2, (0, 0)))

    def test_exact_one_iff_split_on_corpus(self):
        for I, _ci in corpus_ideals(p=2):
            if I.is_zero():
                continue
            report = f_level_bounds(I, e_max=2)
            assert (report.exact == 1) == is_f_split(I, 1).verdict

    def test_unknown_status_when_no_bound_applies(self):
        # not artinian (z is free), not a complete intersection, not split
        ring = PolyRing(2, ["x", "y", "z"])
        I = MonomialIdeal(ring, [(4, 0, 0), (2, 2, 0), (0, 4, 0)])
        assert not is_f_split(I, 1).verdict
        report = f_level_bounds(I)
        assert report.upper is None
        assert report.upper_status == "unknown-finite"

    def test_lower_bounded_by_upper(self):
        for I, _ci in corpus_ideals(p=2):
            if I.is_zero():
                continue
            report = f_level_bounds(I, e_max=2)
            if report.upper is not None:
                assert report.lower <= report.upper

    def test_certificates_reverify(self, ring2):
        I = mi(ring2, (1, 1))
        report = f_level_bounds(I)
        for cert in report.split_certificates.values():
            assert cert.verify(I)

    @pytest.mark.parametrize("gens", [[(1, 1)], [(4, 0), (2, 2), (0, 4)], [(2, 0), (0, 2)]])
    def test_reports_share_no_mutable_field(self, ring2, gens):
        first, second = (f_level_bounds(mi(ring2, *gens)) for _ in range(2))
        assert first == second
        assert first.notes is not second.notes
        assert first.split_certificates is not second.split_certificates


class TestGenerationExponent:
    def test_regular_ring(self, ring2):
        assert generation_exponent(MonomialIdeal.zero(ring2)) == 1

    def test_codepth_three_char_two(self):
        ring = PolyRing(2, ["x", "y", "z"])
        I = MonomialIdeal(ring, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        assert codepth(I) == 3
        assert generation_exponent(I) == 2  # 2^2 = 4 > 3

    def test_codepth_two(self, ring2):
        I = mi(ring2, (2, 0), (0, 3))
        assert generation_exponent(I) == 2  # p = 2: 2 <= 2, 4 > 2

    def test_one_iff_codepth_below_p(self):
        for p in (2, 3, 5):
            for I, _ci in corpus_ideals(p=p):
                e = generation_exponent(I)
                c = codepth(I)
                assert (e == 1) == (c < p)
                assert p**e > c
                assert e == 1 or p ** (e - 1) <= c


class TestSemisimpleExponent:
    def test_pushforward_becomes_semisimple(self, ring2):
        # e0 is the least e with m^[p^e] = (x^q, y^q) inside I: from there on
        # the maximal ideal acts as zero on the pushforward, a sum of lines
        I = mi(ring2, (4, 0), (2, 2), (0, 4))
        e0 = next(e for e in count(1) if all(I.contains_monomial(m) for m in [(2**e, 0), (0, 2**e)]))
        assert e0 == 2
        dec = cyclic_decompose(FrobeniusModule(I, e0))
        assert all(len(p.basis) == 1 for p in dec.pieces)
        below = cyclic_decompose(FrobeniusModule(I, e0 - 1))
        assert any(len(p.basis) > 1 for p in below.pieces)

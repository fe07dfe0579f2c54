import itertools

import pytest
from conftest import bracket, corpus_ideals, monomial_colon, naive_power
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcalc import (
    CIIdeal,
    MonomialIdeal,
    NonArtinianError,
    NotFSplitError,
    PolyRing,
    Polynomial,
    ResourceGuardError,
    SplitCertificate,
    UnsupportedIdealClassError,
    graded_summand_test,
    is_f_split,
    k_summand_test,
    parse_polynomial,
    twist_spectrum,
    witness_from_proof,
)
from frobcalc import splitting
from frobcalc.levels import f_level_bounds
from frobcalc.polyring import drl_key, mono_degree, mono_sorted
from frobcalc.splitting import colon_generators


def mi(ring, *gens):
    return MonomialIdeal(ring, list(gens))


def ci(ring, *texts):
    return CIIdeal(ring, [parse_polynomial(ring, t) for t in texts])


def quadric(p=3):
    ring = PolyRing(p, ["x0", "x1", "x2", "x3"])
    return ring, ci(ring, "x0*x1 + x2*x3")


class TestIsFSplit:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_node_is_split(self, p):
        ring = PolyRing(p, ["x", "y"])
        cert = is_f_split(mi(ring, (1, 1)), 1)
        assert cert.verdict
        # the colon generator is f^(p-1) = x^(p-1) y^(p-1)
        assert cert.colon_generator.single_monomial() == (p - 1, p - 1)
        assert cert.verify(mi(ring, (1, 1)))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_node_as_complete_intersection_agrees(self, p):
        ring = PolyRing(p, ["x", "y"])
        monomial_cert = is_f_split(mi(ring, (1, 1)), 1)
        ci_cert = is_f_split(ci(ring, "x*y"), 1)
        assert monomial_cert.verdict == ci_cert.verdict is True

    def test_fermat_cubic_p7(self):
        ring = PolyRing(7, ["x", "y", "z"])
        cert = is_f_split(ci(ring, "x^3 + y^3 + z^3"), 1)
        assert cert.verdict
        # the only admissible term is x^6 y^6 z^6, coefficient 6!/2!2!2! = 90 = 6 mod 7
        assert cert.witness_term == (6, 6, 6)
        assert cert.colon_generator.terms[(6, 6, 6)] == 90 % 7

    def test_fermat_cubic_p5(self):
        ring = PolyRing(5, ["x", "y", "z"])
        cert = is_f_split(ci(ring, "x^3 + y^3 + z^3"), 1)
        assert not cert.verdict
        assert cert.search_count == 1  # s = 1 is the whole space at j = 0

    def test_monomial_ci_nodes(self):
        ring = PolyRing(3, ["x0", "x1", "x2", "x3"])
        cert = is_f_split(ci(ring, "x0*x1", "x2*x3"), 1)
        assert cert.verdict and cert.verify(ci(ring, "x0*x1", "x2*x3"))

    def test_twelve_dimensional_example_not_split(self, ring2):
        I = mi(ring2, (4, 0), (2, 2), (0, 4))
        for e in (1, 2, 3):
            assert not is_f_split(I, e).verdict

    def test_splitting_iterates(self):
        # a verdict at e = 1 persists for every higher exponent
        for p in (2, 3, 5):
            ring = PolyRing(p, ["x", "y"])
            I = mi(ring, (1, 1))
            assert is_f_split(I, 1).verdict
            for e in (2, 3):
                assert is_f_split(I, e).verdict


class TestKSummand:
    def test_twelve_dimensional_example(self, ring2):
        assert not k_summand_test(mi(ring2, (4, 0), (2, 2), (0, 4)), 1).verdict

    def test_square_of_max_ideal(self, ring2):
        cert = k_summand_test(mi(ring2, (2, 0), (1, 1), (0, 2)), 1)
        assert cert.verdict
        assert cert.witness_monomial == (0, 0)

    @pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1)])
    def test_pure_power_line(self, p, e):
        # I = (x^q) in k[x]: the annihilator of m^[q] escapes m^[q]
        ring = PolyRing(p, ["x"])
        q = p**e
        I = MonomialIdeal(ring, [(q,)])
        cert = k_summand_test(I, e)
        # oracle: direct annihilator enumeration over the staircase
        escapes = [
            u
            for level in I.staircase(q - 1)
            for u in level
            if u[0] + q >= q and I.contains_monomial((u[0] + q,)) and u[0] < q
        ]
        assert cert.verdict == bool(escapes)
        assert cert.verdict

    def test_requires_artinian(self, ring2):
        with pytest.raises(NonArtinianError):
            k_summand_test(mi(ring2, (1, 1)), 1)

    def test_requires_monomial(self):
        ring = PolyRing(2, ["x", "y"])
        with pytest.raises(UnsupportedIdealClassError):
            k_summand_test(ci(ring, "x*y"), 1)

    @pytest.mark.parametrize("e", [0, -1])
    def test_requires_a_positive_exponent(self, ring2, e):
        with pytest.raises(ValueError, match="e must be at least 1"):
            k_summand_test(mi(ring2, (4, 0), (2, 2), (0, 4)), e)

    def test_guard_bounds_the_staircase_walk(self, ring2):
        # the walk of (x^4, x^2*y^2, y^4) charges 17 candidates in total
        twelve = mi(ring2, (4, 0), (2, 2), (0, 4))
        assert k_summand_test(twelve, 1, max_monomials=17) == k_summand_test(twelve, 1)
        with pytest.raises(ResourceGuardError, match="^enumeration of 17 monomials exceeds guard 16$"):
            k_summand_test(twelve, 1, max_monomials=16)


class TestGradedSummand:
    def test_j_zero_reduces_to_fsplit(self):
        ring, I = quadric()
        for j_ideal in (I, mi(ring, (1, 1, 0, 0))):
            a = graded_summand_test(j_ideal, 0, 1)
            b = is_f_split(j_ideal, 1)
            assert a.verdict == b.verdict
            assert a.witness_monomial == b.witness_monomial

    def test_quadric_twist_one(self):
        _ring, I = quadric()
        cert = graded_summand_test(I, 1, 1)
        assert cert.verdict
        assert mono_degree(cert.witness_monomial) == 3
        assert cert.verify(I)

    def test_quadric_twist_two_exhausted(self):
        _ring, I = quadric()
        cert = graded_summand_test(I, 2, 1)
        assert not cert.verdict
        assert cert.search_degree == 6
        # candidates: exponent vectors summing to 6 with entries <= 2
        assert cert.search_count == 10

    def test_hilbert_function_domination(self):
        # a graded summand R(-j) of the pushforward forces
        # dim R_{q d'} >= dim R_{d' - j}
        ring, I = quadric()
        q = 3
        for j in (0, 1):
            assert graded_summand_test(I, j, 1).verdict
            for dprime in range(8):
                assert I.hilbert_function(q * dprime) >= I.hilbert_function(dprime - j)


class TestTwistSpectrum:
    def test_quadric_band(self):
        _ring, I = quadric()
        spectrum = twist_spectrum(I, 1)
        verdicts = {j: c.verdict for j, c in spectrum.entries.items()}
        assert verdicts == {0: True, 1: True, 2: False}
        assert spectrum.band == (0, 1)
        assert spectrum.band_consistent

    def test_fermat_cubic_plane_no_band_asserted(self):
        # degree 3 > n = 2: hypotheses fail, values reported without assertion
        ring = PolyRing(7, ["x", "y", "z"])
        spectrum = twist_spectrum(ci(ring, "x^3 + y^3 + z^3"), 1)
        assert sorted(spectrum.entries) == [0, 1]
        assert spectrum.band is None
        assert spectrum.band_consistent is None
        assert spectrum.entries[0].verdict

    def test_space_cubic_band_is_origin(self):
        ring = PolyRing(7, ["x0", "x1", "x2", "x3"])
        spectrum = twist_spectrum(ci(ring, "x0^3 + x1^3 + x2^3 + x3^3"), 1)
        assert spectrum.band == (0, 0)
        assert spectrum.band_consistent
        assert {j: c.verdict for j, c in spectrum.entries.items()} == {0: True, 1: False}

    @pytest.mark.parametrize("gens", [[(2, 0), (1, 1)], []])
    def test_requires_complete_intersection(self, ring2, gens):
        # overlapping supports, the zero ideal
        for run in (twist_spectrum, witness_from_proof):
            with pytest.raises(UnsupportedIdealClassError, match="needs a complete intersection"):
                run(mi(ring2, *gens), 1)

    def test_the_unit_ideal_is_refused(self, ring2):
        # S/I = 0: the splitting tests and the twist band say nothing about it
        unit = mi(ring2, (0, 0))
        for run in (twist_spectrum, witness_from_proof, is_f_split):
            with pytest.raises(UnsupportedIdealClassError, match="S/I is zero for the unit ideal"):
                run(unit, 1)
        with pytest.raises(UnsupportedIdealClassError, match="S/I is zero for the unit ideal"):
            graded_summand_test(unit, 0, 1)

    def test_every_true_certificate_reverifies(self):
        _ring, I = quadric()
        spectrum = twist_spectrum(I, 1)
        for cert in spectrum.entries.values():
            if cert.verdict:
                assert cert.verify(I)


class TestWitnessFromProof:
    def test_quadric_degree_formula(self):
        _ring, I = quadric()
        chain = witness_from_proof(I, 1)
        # (n+1)(q-1) - d(q-1) with n = 3, d = 2, q = 3
        assert chain.expected_degree == 4
        assert chain.degree == 4
        assert [j for j, _s, _c in chain.factors] == [0, 1]
        for j, s, cert in chain.factors:
            assert mono_degree(s) == 3 * j
            assert cert.verify(I)

    def test_factors_pass_graded_test(self):
        _ring, I = quadric()
        chain = witness_from_proof(I, 1)
        for j, _s, _c in chain.factors:
            assert graded_summand_test(I, j, 1).verdict

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_node_has_trivial_chain(self, p):
        # n = 1, d = 2: deg(g) = 2(q-1) - 2(q-1) = 0, so g = 1 and only j = 0
        ring = PolyRing(p, ["x", "y"])
        chain = witness_from_proof(ci(ring, "x*y"), 1)
        assert chain.degree == 0
        assert chain.g == (0, 0)
        assert [j for j, _s, _c in chain.factors] == [0]

    def test_monotone_band(self):
        # when the chain exists, every twist in 0..n-d passes the search test
        ring = PolyRing(5, ["x0", "x1", "x2", "x3"])
        I = ci(ring, "x0*x1 + x2*x3")
        chain = witness_from_proof(I, 1)
        n, d = 3, 2
        assert len(chain.factors) == n - d + 1
        for j in range(n - d + 1):
            assert graded_summand_test(I, j, 1).verdict

    def test_not_split_raises(self):
        ring = PolyRing(5, ["x", "y", "z"])
        with pytest.raises(NotFSplitError):
            witness_from_proof(ci(ring, "x^3 + y^3 + z^3"), 1)


class TestCertificates:
    def test_false_certificates_record_search_space(self):
        ring = PolyRing(5, ["x", "y", "z"])
        cert = is_f_split(ci(ring, "x^3 + y^3 + z^3"), 1)
        assert cert.search_degree == 0
        assert cert.search_count == 1

    def test_payload_shape(self):
        ring, I = quadric()
        payload = is_f_split(I, 1).payload(ring)
        assert payload["verdict"] is True
        assert set(payload["witness"]) == {"s", "colon_generator", "surviving_term"}

    def test_true_negative_certificates_reverify(self, ring2):
        ring = PolyRing(5, ["x", "y", "z"])
        cubic = ci(ring, "x^3 + y^3 + z^3")
        assert is_f_split(cubic, 1).verify(cubic)
        _ring, I = quadric()
        assert graded_summand_test(I, 2, 1).verify(I)
        twelve = mi(ring2, (4, 0), (2, 2), (0, 4))
        assert k_summand_test(twelve, 1).verify(twelve)

    def test_certificates_are_immutable_values(self):
        _ring, I = quadric()
        cert = is_f_split(I, 1)
        with pytest.raises(AttributeError):
            cert.verdict = False
        assert cert == is_f_split(I, 1)
        assert cert != cert._replace(j=1)
        assert SplitCertificate(True, 3, 1, 0).kind == "colon"

    def test_made_up_search_count_fails(self):
        ring = PolyRing(3, ["x", "y", "z"])
        cubic = ci(ring, "x^3 + y^3 + z^3")
        cert = SplitCertificate(verdict=False, q=3, e=1, j=0, search_degree=0, search_count=999)
        assert not cert.verify(cubic)

    def test_negative_certificate_for_split_quadric_fails(self):
        _ring, I = quadric()
        cert = SplitCertificate(verdict=False, q=3, e=1, j=0, search_degree=0, search_count=1)
        assert not cert.verify(I)

    @pytest.mark.parametrize("build", ["witness", "twists"])
    def test_truncated_colon_generator_verifies(self, build):
        ring = PolyRing(7, ["x", "y", "z"])
        cubic = ci(ring, "x^3 + y^3 + z^3")
        if build == "witness":
            certs = [cert for _j, _s, cert in witness_from_proof(cubic, 2).factors]
        else:
            certs = list(twist_spectrum(cubic, 2).entries.values())
        full = naive_power(parse_polynomial(ring, "x^3 + y^3 + z^3"), 48)
        positive = [cert for cert in certs if cert.verdict]
        assert positive
        for cert in positive:
            generator = cert.colon_generator
            assert generator.terms == {m: c for m, c in full.terms.items() if max(m) < 49}
            assert generator != full
            assert cert.verify(cubic)

    def test_negative_socle_certificate_for_split_ring_fails(self, ring2):
        I = mi(ring2, (2, 0), (1, 1), (0, 2))
        cert = SplitCertificate(
            verdict=False, q=2, e=1, j=0, kind="socle", search_degree=1, search_count=3
        )
        assert not cert.verify(I)

    @pytest.mark.parametrize("tamper", [
        {"witness_monomial": None},
        {"colon_generator": None},
        # x0^3 lies in m^[3]
        {"colon_generator": "x0^3"},
        # 1 is no term of s * f^2
        {"witness_term": (0, 0, 0, 0)},
        # x0^3*x1^2 is a term of x0 * f^2, but not below q = 3
        {"witness_monomial": (1, 0, 0, 0), "witness_term": (3, 2, 0, 0)},
        # s = 1 has degree 0, not q * j = 3
        {"j": 1},
    ], ids=["no-s", "no-colon", "colon-in-bracket", "term-not-in-product", "term-not-below-q",
            "degree-not-qj"])
    def test_each_tampered_positive_certificate_fails(self, tamper):
        ring, I = quadric()
        cert = is_f_split(I, 1)
        assert cert.verdict and cert.witness_monomial == (0, 0, 0, 0) and cert.verify(I)
        if isinstance(tamper.get("colon_generator"), str):
            tamper = {"colon_generator": parse_polynomial(ring, tamper["colon_generator"])}
        assert not cert._replace(**tamper).verify(I)

    def test_positive_socle_certificate_verifies(self, ring2):
        I = mi(ring2, (2, 0), (1, 1), (0, 2))
        cert = k_summand_test(I, 1)
        assert cert.verdict and cert.kind == "socle"
        assert cert.verify(I)
        # u = 1 is standard and x^2 * 1, y^2 * 1 lie in I as well
        assert cert._replace(witness_monomial=(0, 0)).verify(I)

    @pytest.mark.parametrize("gens, u", [
        (((2, 0), (1, 1), (0, 2)), None),
        (((2, 0), (1, 1), (0, 2)), (1, 1)),  # in I
        (((4, 0), (0, 4)), (2, 0)),  # an exponent not below q = 2
        (((4, 0), (0, 4)), (1, 1)),  # x^2 * x*y = x^3*y is not in I
    ], ids=["no-u", "u-in-I", "u-not-below-q", "u-times-xq-not-in-I"])
    def test_each_tampered_socle_certificate_fails(self, ring2, gens, u):
        cert = SplitCertificate(True, 2, 1, 0, kind="socle", witness_monomial=u)
        assert not cert.verify(mi(ring2, *gens))


class TestColonGuard:
    """The colon guard counts the term pairs |a|*|b| of every product that
    forms f^(q-1) mod m^[q], summed, and refuses before a product that
    would take the count past it."""

    def test_power_guard_before_expansion(self):
        # f^4 for the Fermat cubic takes 3 + 9 + 18 + 30 pairs; the last
        # product, f^3 (10 terms) by f (3 terms), is refused under 59
        ring = PolyRing(5, ["x", "y", "z"])
        with pytest.raises(ResourceGuardError, match="takes at least 60 term products, over the guard 59"):
            colon_generators(ci(ring, "x^3 + y^3 + z^3"), 4, max_monomials=59)

    def test_guard_sized_by_largest_product(self):
        # the top Frobenius factor (f^4)^[125] keeps no term below 625, so
        # forming f^4 is all the work
        ring = PolyRing(5, ["x", "y", "z"])
        cubic = ci(ring, "x^3 + y^3 + z^3")
        assert colon_generators(cubic, 4, max_monomials=60)[0].is_zero()
        with pytest.raises(ResourceGuardError):
            colon_generators(cubic, 4, max_monomials=59)

    def test_guard_sized_by_top_factors(self):
        # x0*x1 + x2*x3 at q = 27: f^2 takes 2 + 4 pairs, the three factors
        # 1*3 + 3*3 + 9*3 = 39 more
        ring = PolyRing(3, ["x0", "x1", "x2", "x3"])
        quadric = ci(ring, "x0*x1 + x2*x3")
        assert len(colon_generators(quadric, 3, max_monomials=45)[0].terms) == 27
        with pytest.raises(ResourceGuardError, match="at least 45 term products"):
            colon_generators(quadric, 3, max_monomials=44)

    def test_sparse_power_fits_the_default_guard(self):
        # 2^16 live terms from 2 * (2^16 - 1) + 2 pairs; counting every
        # monomial of degree 2(q - 1) with exponents < q would have asked
        # for about 1.9e14
        ring = PolyRing(2, ["x0", "x1", "x2", "x3"])
        quadric = ci(ring, "x0*x1 + x2*x3")
        assert len(colon_generators(quadric, 16)[0].terms) == 2**16
        with pytest.raises(ResourceGuardError, match="at least 131072 term products"):
            colon_generators(quadric, 16, max_monomials=2**17 - 1)

    def test_generator_product_guarded(self):
        # one count: the product of the generators takes 3*3 pairs and
        # keeps x^2*y*z, x*y^2*z, x*y*z^2 below q = 3; f^2 takes 3 + 9 more
        # and keeps nothing below q, so the Frobenius factor costs no pair
        ring = PolyRing(3, ["x", "y", "z"])
        pair = ci(ring, "x^2 + y^2 + z^2", "x*y + y*z + x*z")
        assert colon_generators(pair, 1, max_monomials=21)[0].is_zero()
        with pytest.raises(ResourceGuardError, match="takes at least 9 term products, over the guard 8$"):
            colon_generators(pair, 1, max_monomials=8)
        with pytest.raises(ResourceGuardError, match="takes at least 21 term products, over the guard 20$"):
            colon_generators(pair, 1, max_monomials=20)


def oracle_colon_generators(ideal, e):
    """`colon_generators`, with the colon of a monomial ideal formed in full
    by the combinatorial oracle: every minimal generator of
    (I^[q] : I), live or not."""
    if isinstance(ideal, MonomialIdeal):
        q = ideal.ring.p**e
        colon = monomial_colon(bracket(ideal, q), ideal)
        return [Polynomial.monomial(ideal.ring, g) for g in colon.gens]
    return colon_generators(ideal, e)


class TestMonomialColonClosedForm:
    """The live part of (I^[q] : I) for a monomial ideal is x_S^(q-1) when
    I is squarefree and empty otherwise; the oracle forms the whole colon
    as an intersection of lcm pairs."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_live_generators_match_the_combinatorial_colon(self, data):
        p, e = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]))
        q = p**e
        nvars = data.draw(st.integers(1, 5))
        ring = PolyRing(p, [f"x{v}" for v in range(nvars)])
        # squarefree draws, which have a live colon term, half of the time
        top = data.draw(st.sampled_from([1, q + 1]))
        exponents = st.tuples(*[st.integers(0, top)] * nvars)
        I = MonomialIdeal(ring, data.draw(st.lists(exponents, max_size=6)))
        live = [g for g in monomial_colon(bracket(I, q), I).gens if max(g) < q]
        assert [g.single_monomial() for g in colon_generators(I, e)] == live

    @pytest.mark.parametrize("gens", [[], [(0, 0, 0)]], ids=["zero", "unit"])
    def test_zero_and_unit_ideals_give_one(self, gens):
        I = mi(PolyRing(3, ["x", "y", "z"]), *gens)
        assert colon_generators(I, 2) == [Polynomial.one(I.ring)]


def scan_oracle(ideal, j, e):
    """The witness search by enumeration: every monomial of degree q*j with
    exponents < q, largest first in degrevlex, tried against each colon
    generator's terms (largest first) until a product keeps every exponent
    below q."""
    q = ideal.ring.p**e
    gens = oracle_colon_generators(ideal, e)
    term_lists = [[t for t in mono_sorted(g.terms) if max(t) < q] for g in gens]
    candidates = sorted(
        (s for s in itertools.product(range(q), repeat=ideal.ring.nvars) if sum(s) == q * j),
        key=drl_key,
        reverse=True,
    )
    for s in candidates:
        for gi, terms in enumerate(term_lists):
            for t in terms:
                product = tuple(a + b for a, b in zip(s, t))
                if max(product) < q:
                    return s, gens[gi], product, len(candidates)
    return None, None, None, len(candidates)


@st.composite
def small_ideals(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.integers(1, 3))
    ring = PolyRing(p, ["x", "y", "z"][:nvars])
    exponents = st.tuples(*[st.integers(0, 2)] * nvars).filter(any)
    if draw(st.booleans()):
        return MonomialIdeal(ring, draw(st.lists(exponents, max_size=3)))
    gens = []
    for _ in range(draw(st.integers(1, min(nvars, 2)))):
        degree = draw(st.integers(1, 2))
        monos = [m for m in itertools.product(range(degree + 1), repeat=nvars) if sum(m) == degree]
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(1, p - 1), min_size=len(chosen), max_size=len(chosen)))
        gens.append(Polynomial(ring, dict(zip(chosen, coeffs))))
    try:
        return CIIdeal(ring, gens)
    except UnsupportedIdealClassError:
        # monomials with overlapping supports, or dependent or non-coprime generators
        if all(len(g.terms) == 1 for g in gens):
            return MonomialIdeal(ring, [g.single_monomial() for g in gens])
        return CIIdeal(ring, gens[:1])


class TestSlackCriterionOracle:
    @given(ideal=small_ideals(), e=st.integers(1, 2), j=st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_enumeration(self, ideal, e, j):
        cert = graded_summand_test(ideal, j, e)
        s, gen, term, count = scan_oracle(ideal, j, e)
        assert cert.verdict == (s is not None)
        if cert.verdict:
            assert cert.witness_monomial == s
            assert cert.colon_generator == gen
            assert cert.witness_term == term
            assert cert.verify(ideal)
        else:
            assert cert.search_degree == ideal.ring.p**e * j
            assert cert.search_count == count


def ci_fixtures():
    """Complete intersections: the corpus ideals with disjoint supports as
    CIIdeals at p = 2 and 3, and the hypersurfaces and quadrics used above."""
    out = []
    for p in (2, 3):
        for I, codim in corpus_ideals(p):
            if codim is not None:
                out.append(CIIdeal(I.ring, [Polynomial.monomial(I.ring, g) for g in I.gens]))
    for p, names, texts in [
        (3, "x0,x1,x2,x3", ["x0*x1 + x2*x3"]),
        (5, "x0,x1,x2,x3", ["x0*x1 + x2*x3"]),
        (3, "x0,x1,x2,x3", ["x0*x1", "x2*x3"]),
        (5, "x,y,z", ["x^3 + y^3 + z^3"]),
        (7, "x,y,z", ["x^3 + y^3 + z^3"]),
        (7, "x0,x1,x2,x3", ["x0^3 + x1^3 + x2^3 + x3^3"]),
        (3, "x,y,z,w", ["x^4 + y^4 + z^4 + w^4"]),
        (5, "x,y,z,w", ["x^4 + y^4 + z^4 + w^4"]),
        (2, "x,y", ["x*y"]),
    ]:
        ring = PolyRing(p, names.split(","))
        out.append(ci(ring, *texts))
    return out


class TestOneColonTable:
    """twist_spectrum, witness_from_proof and f_level_bounds read one colon
    table per call and agree with the single tests run directly."""

    @pytest.mark.parametrize("e", [1, 2])
    def test_twist_spectrum_entries_are_the_graded_tests(self, e):
        for I in ci_fixtures():
            spectrum = twist_spectrum(I, e)
            top = max(I.ring.nvars - 1 - spectrum.degree, 0) + 1
            assert spectrum.entries == {j: graded_summand_test(I, j, e) for j in range(top + 1)}

    def test_level_certificates_are_the_split_tests(self):
        ideals = [I for p in (2, 3) for I, _codim in corpus_ideals(p)] + ci_fixtures()
        for I in ideals:
            report = f_level_bounds(I, e_max=3)
            assert report.split_certificates
            for e, cert in report.split_certificates.items():
                assert cert == is_f_split(I, e)
                assert cert.verify(I)

    def test_each_call_forms_the_colon_once(self, monkeypatch):
        calls = []
        original = splitting.colon_generators

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(splitting, "colon_generators", counted)
        _ring, quadric_ideal = quadric()
        cubic = ci(PolyRing(5, ["x", "y", "z"]), "x^3 + y^3 + z^3")
        twelve = mi(PolyRing(2, ["x", "y"]), (4, 0), (2, 2), (0, 4))
        for run in [
            lambda: twist_spectrum(quadric_ideal, 2),
            lambda: witness_from_proof(quadric_ideal, 2),
            lambda: f_level_bounds(quadric_ideal, e_max=4),
            lambda: f_level_bounds(cubic, e_max=4),
            lambda: f_level_bounds(twelve, e_max=4),
        ]:
            calls.clear()
            run()
            assert len(calls) == 1

    def test_not_split_certificate_matches_the_test_at_every_e(self):
        cubic = ci(PolyRing(5, ["x", "y", "z"]), "x^3 + y^3 + z^3")
        twelve = mi(PolyRing(2, ["x", "y"]), (4, 0), (2, 2), (0, 4))
        for I in (cubic, twelve):
            assert not is_f_split(I, 1).verdict
            for e in (2, 3):
                assert splitting.not_split_certificate(I, e) == is_f_split(I, e)

    @pytest.mark.parametrize(
        "test",
        [colon_generators, k_summand_test, splitting.not_split_certificate],
        ids=lambda test: test.__name__,
    )
    def test_a_huge_exponent_is_refused_without_forming_q(self, test):
        # 3^3000000 has over a million digits: only 3^1..3^11 are formed
        twelve = mi(PolyRing(3, ["x", "y"]), (4, 0), (2, 2), (0, 4))
        with pytest.raises(ResourceGuardError, match=r"^q = 3\^3000000 exceeds the guard 65536$"):
            test(twelve, 3_000_000)
        with pytest.raises(ResourceGuardError, match="^q = 177147 exceeds the guard 65536$"):
            test(twelve, 11)

    def test_not_split_certificate_keeps_the_q_guard(self):
        twelve = mi(PolyRing(2, ["x", "y"]), (4, 0), (2, 2), (0, 4))
        assert splitting.not_split_certificate(twelve, 16).q == 2**16
        with pytest.raises(ResourceGuardError, match="q = 131072 exceeds the guard 65536"):
            splitting.not_split_certificate(twelve, 17)
        with pytest.raises(ValueError, match="e must be at least 1"):
            splitting.not_split_certificate(twelve, 0)


class TestMonomialRegularSequence:
    """A monomial regular sequence is both a complete intersection and a
    monomial ideal: the closed form x_S^(q-1) of the monomial colon and
    f^(q-1) mod m^[q], f the product of the generators, give the same
    certificates."""

    @pytest.mark.parametrize("texts", [["x*y", "z"], ["x*y"], ["x^2*y", "z"], ["x*y", "z*w"]])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("e", [1, 2])
    def test_both_classes_agree(self, e, p, texts):
        ring = PolyRing(p, ["x", "y", "z", "w"])
        as_ci = ci(ring, *texts)
        as_monomial = MonomialIdeal(ring, [parse_polynomial(ring, t).single_monomial() for t in texts])
        assert is_f_split(as_ci, e) == is_f_split(as_monomial, e)
        assert graded_summand_test(as_ci, 1, e) == graded_summand_test(as_monomial, 1, e)
        assert twist_spectrum(as_ci, e) == twist_spectrum(as_monomial, e)
        if is_f_split(as_ci, e).verdict:
            assert witness_from_proof(as_ci, e) == witness_from_proof(as_monomial, e)
        else:
            for ideal in (as_ci, as_monomial):
                with pytest.raises(NotFSplitError):
                    witness_from_proof(ideal, e)
        assert f_level_bounds(as_monomial).upper <= f_level_bounds(as_ci).upper

    def test_the_twist_range_ends_past_the_band(self):
        # no live term of f^(q-1) has slack for a twist past n - d, so the
        # spectrum stops at max(n - d, 0) + 1
        for p in (2, 3, 5):
            ring = PolyRing(p, ["x", "y", "z", "w", "v"])
            for gens in ([(1, 1, 0, 0, 0)], [(1, 0, 0, 0, 0), (0, 1, 1, 0, 0)], [(1, 1, 1, 1, 1)]):
                I = MonomialIdeal(ring, gens)
                spectrum = twist_spectrum(I, 1)
                d = spectrum.degree
                assert d == sum(map(sum, gens))
                assert sorted(spectrum.entries) == list(range(max(4 - d, 0) + 2))
                assert not spectrum.entries[max(4 - d, 0) + 1].verdict

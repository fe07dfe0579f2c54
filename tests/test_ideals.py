import itertools
import math
import re
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    bracket,
    corpus_ideals,
    frobenius,
    monomial_colon,
    monomials_of_degree,
    naive_power,
    walk_candidates,
)
from frobcalc import (
    CIIdeal,
    MonomialIdeal,
    NonArtinianError,
    PolyRing,
    Polynomial,
    ResourceGuardError,
    UnsupportedIdealClassError,
    in_bracket_max,
    parse_polynomial,
)
from frobcalc.ideals import _minimalize, build_ideal, koszul_counts, koszul_hilbert
from frobcalc.modlinalg import rank
from frobcalc.polyring import mono_degree, mono_divides, mono_pow, mono_sorted
from frobcalc.splitting import colon_generators


def mi(ring, *gens):
    return MonomialIdeal(ring, list(gens))


def ideal_sum(I, J):
    """I + J: the union of the generator lists, minimalized."""
    return MonomialIdeal(I.ring, I.gens + J.gens)


def equals_by_membership(I, J):
    """Ideal equality via mutual generator membership (no normal forms)."""
    return all(J.contains_monomial(g) for g in I.gens) and all(
        I.contains_monomial(g) for g in J.gens
    )


def ci_colon(ideal, e):
    """(I^[q] : I), q = p^e, for a complete intersection, as the explicit
    generator list [f^(q-1), f_1^q, ..., f_t^q] with f = f_1...f_t: the
    exact colon, f^(q-1) in full, of which the splitting tests read only
    f^(q-1) mod m^[q]."""
    q = ideal.ring.p**e
    f = math.prod(ideal.gens, start=Polynomial.one(ideal.ring))
    return [naive_power(f, q - 1)] + [frobenius(g, e) for g in ideal.gens]


def max_bracket_ideal(ring, q):
    """m^[q] as a monomial ideal."""
    return MonomialIdeal(
        ring, [mono_pow(ring.variable_monomial(i), q) for i in range(ring.nvars)]
    )


def pushforward_min_generators(I, e):
    """Minimal number of generators of the e-th Frobenius pushforward of
    S/I as a module over itself: dim_k S/(I + m^[q]) with q = p^e.  Valid
    over the prime field, where the residue field pushes forward to a
    one-dimensional vector space.  The oracle for the number of cyclic
    pieces of a decomposition."""
    ring = I.ring
    q = ring.p**e
    total = ideal_sum(I, max_bracket_ideal(ring, q))
    return sum(map(len, total.staircase((q - 1) * ring.nvars)))


def brute_colon_members(J, I, degree):
    """Oracle: monomials m of degree <= `degree` with m * I inside J."""
    out = []
    for d in range(degree + 1):
        for m in monomials_of_degree(J.ring, d):
            if all(
                J.contains_monomial(tuple(a + b for a, b in zip(m, g)))
                for g in I.gens
            ):
                out.append(m)
    return out


small_monos2 = st.tuples(st.integers(0, 3), st.integers(0, 3))


def small_ideals(ring):
    return st.lists(small_monos2, min_size=1, max_size=4).map(
        lambda gens: MonomialIdeal(ring, gens)
    )


class TestMonomialIdealBasics:
    def test_minimality_enforced(self, ring2):
        I = mi(ring2, (2, 0), (3, 0), (2, 1))
        assert I.gens == ((2, 0),)

    def test_generator_order_deterministic(self, ring2):
        a = mi(ring2, (2, 0), (0, 2), (1, 1))
        b = mi(ring2, (1, 1), (2, 0), (0, 2))
        assert a.gens == b.gens

    def test_equality_is_canonical(self, ring2):
        a = mi(ring2, (2, 0), (1, 1))
        b = mi(ring2, (1, 1), (2, 0), (3, 1))
        assert a == b
        assert equals_by_membership(a, b)

    def test_membership(self, ring2):
        I = mi(ring2, (1, 1))
        assert I.contains_monomial((2, 3))
        assert not I.contains_monomial((4, 0))
        # membership of a polynomial in a monomial ideal is termwise
        inside = parse_polynomial(ring2, "x*y + x^2*y^2")
        outside = parse_polynomial(ring2, "x*y + x^2")
        assert all(I.contains_monomial(m) for m in inside.terms)
        assert not all(I.contains_monomial(m) for m in outside.terms)

    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=12)))
    @settings(max_examples=300, deadline=None)
    def test_minimalize_matches_the_pairwise_test(self, monos):
        # repeats and mixed degrees: a monomial stays unless another,
        # distinct one divides it
        pairwise = {m for m in monos if not any(g != m and mono_divides(g, m) for g in monos)}
        assert _minimalize(monos) == tuple(mono_sorted(pairwise))


class TestBracketPowers:
    def test_variables_squared(self, ring2):
        I = mi(ring2, (1, 0), (0, 1))
        assert bracket(I, 2) == mi(ring2, (2, 0), (0, 2))

    def test_termwise(self, ring2):
        I = mi(ring2, (4, 0), (2, 2), (0, 4))
        assert bracket(I, 2) == mi(ring2, (8, 0), (4, 4), (0, 8))

    def test_sum_commutes_with_bracket(self, ring2):
        # (I+J)^[q] = I^[q] + J^[q]
        I = mi(ring2, (2, 0), (1, 1))
        J = mi(ring2, (0, 3), (2, 1))
        q = 4
        assert bracket(ideal_sum(I, J), q) == ideal_sum(bracket(I, q), bracket(J, q))

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_sum_commutes_with_bracket_random(self, data):
        ring = PolyRing(2, ["x", "y"])
        I = data.draw(small_ideals(ring))
        J = data.draw(small_ideals(ring))
        assert bracket(ideal_sum(I, J), 2) == ideal_sum(bracket(I, 2), bracket(J, 2))


class TestMonomialColon:
    def test_simple(self, ring2):
        assert monomial_colon(mi(ring2, (2, 0)), mi(ring2, (1, 0))) == mi(ring2, (1, 0))

    def test_colon_by_unit(self, ring2):
        J = mi(ring2, (2, 1), (0, 3))
        assert monomial_colon(J, mi(ring2, (0, 0))) == J

    def test_colon_by_zero_is_unit(self, ring2):
        J = mi(ring2, (2, 1))
        assert monomial_colon(J, MonomialIdeal.zero(ring2)).is_unit()

    def test_against_brute_force_membership(self, ring2):
        J = mi(ring2, (8, 0), (4, 4), (0, 8))
        I = mi(ring2, (4, 0), (2, 2), (0, 4))
        colon = monomial_colon(J, I)
        for m in brute_colon_members(J, I, 16):
            assert colon.contains_monomial(m)
        for d in range(17):
            for m in monomials_of_degree(ring2, d):
                if colon.contains_monomial(m):
                    assert all(
                        J.contains_monomial(tuple(a + b for a, b in zip(m, g)))
                        for g in I.gens
                    )

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_colon_properties_random(self, data):
        ring = PolyRing(2, ["x", "y"])
        J = data.draw(small_ideals(ring))
        I = data.draw(small_ideals(ring))
        colon = monomial_colon(J, I)
        # (J : I) contains J
        for g in J.gens:
            assert colon.contains_monomial(g)
        # (J : I) * I lies in J
        for a in colon.gens:
            for b in I.gens:
                assert J.contains_monomial(tuple(x + y for x, y in zip(a, b)))


class TestCIColon:
    def test_single_variable_cube(self):
        ring = PolyRing(2, ["x"])
        I = CIIdeal(ring, [parse_polynomial(ring, "x^3")])
        gens = ci_colon(I, 1)
        assert [str(g) for g in gens] == ["x^3", "x^6"]

    @pytest.mark.parametrize("p", [2, 3])
    def test_cross_oracle_with_monomial_colon(self, p):
        # (x^2, y^3) is both a monomial ideal and a complete intersection
        ring = PolyRing(p, ["x", "y"])
        q = p
        ci = CIIdeal(ring, [parse_polynomial(ring, "x^2"), parse_polynomial(ring, "y^3")])
        formula = ci_colon(ci, 1)
        as_monomial = MonomialIdeal(ring, [g.single_monomial() for g in formula])
        I = mi(ring, (2, 0), (0, 3))
        combinatorial = monomial_colon(bracket(I, q), I)
        assert equals_by_membership(as_monomial, combinatorial)

    def test_quadric_generators(self):
        ring = PolyRing(3, ["x0", "x1", "x2", "x3"])
        f = parse_polynomial(ring, "x0*x1 + x2*x3")
        I = CIIdeal(ring, [f])
        gens = ci_colon(I, 1)
        assert gens[0] == f * f
        assert gens[1] == parse_polynomial(ring, "x0^3*x1^3 + x2^3*x3^3")

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_live_colon_of_two_or_three_generators(self, data):
        # the product of the generators, truncated below q as it is formed,
        # gives the live terms of the full f^(q-1)
        p = data.draw(st.sampled_from([2, 3, 5]))
        n = data.draw(st.integers(2, 3))
        ring = PolyRing(p, ["x", "y", "z"][:n])
        gens = []
        for _ in range(data.draw(st.integers(2, n))):
            chosen = data.draw(st.lists(st.sampled_from(monomials_of_degree(ring, data.draw(st.integers(1, 2)))),
                                        min_size=1, max_size=3, unique=True))
            coeffs = data.draw(st.lists(st.integers(1, p - 1), min_size=len(chosen), max_size=len(chosen)))
            gens.append(Polynomial(ring, dict(zip(chosen, coeffs))))
        try:
            I = CIIdeal(ring, gens)
        except UnsupportedIdealClassError:
            assume(False)
        e = data.draw(st.sampled_from([k for k in (1, 2, 3, 4) if p**k <= 27]))
        q = p**e
        full = ci_colon(I, e)[0]
        live = {m: c for m, c in full.terms.items() if max(m) < q}
        assert colon_generators(I, e) == [Polynomial(ring, live)]

    def test_rejects_overlapping_monomial_supports(self, ring2):
        with pytest.raises(UnsupportedIdealClassError):
            CIIdeal(
                ring2,
                [parse_polynomial(ring2, "x*y"), parse_polynomial(ring2, "y^2")],
            )

    @pytest.mark.parametrize(
        "texts",
        [
            ["x*y + x*z", "x*y + x*z"],
            ["x^2 + y*z", "2*x^2 + 2*y*z"],
            # dependent over F_5 only: 3 = -2
            ["x^2 + 2*y^2", "x^2 - 3*y^2", "z^3"],
        ],
    )
    def test_rejects_linearly_dependent_generators(self, ring5xyz, texts):
        with pytest.raises(UnsupportedIdealClassError):
            CIIdeal(ring5xyz, [parse_polynomial(ring5xyz, t) for t in texts])

    def test_a_triple_with_a_common_zero_is_refused(self, ring5xyz):
        # x^2 + y*z, y^3 + z^3, z^4 + x*y^3 all vanish at (1, -1, 1), so the
        # height is at most 2
        texts = ["x^2 + y*z", "y^3 + z^3", "z^4 + x*y^3"]
        with pytest.raises(
            UnsupportedIdealClassError,
            match="not a regular sequence: in degree 7 the ideal has dimension 35, below the 36",
        ):
            CIIdeal(ring5xyz, [parse_polynomial(ring5xyz, t) for t in texts])

    def test_a_triple_is_regular_at_p_3_and_not_at_p_2(self):
        # over F_2 the three forms vanish at (1, 1, 1)
        texts = ["x^2 + y*z", "y^2 + x*z", "z^2 + x*y"]
        ring = PolyRing(3, ["x", "y", "z"])
        assert len(CIIdeal(ring, [parse_polynomial(ring, t) for t in texts]).gens) == 3
        ring = PolyRing(2, ["x", "y", "z"])
        with pytest.raises(UnsupportedIdealClassError, match="in degree 3 the ideal has dimension 7, below the 9"):
            CIIdeal(ring, [parse_polynomial(ring, t) for t in texts])

    @pytest.mark.parametrize(
        "texts",
        [
            ["x^2 + y*z", "y^3 + z^3"],
            ["x*y + z^2", "x^2 + y*z"],
            ["x + y", "y + z"],
            ["x^3 + y^3 + z^3", "x*y*z"],
            # one form: a nonzerodivisor on the domain S
            ["x^2 + y*z"],
            ["x + y"],
            ["x^3 + y^3 + z^3"],
            ["x*y*z"],
            # monomials with disjoint supports
            ["x^2", "y*z"],
        ],
    )
    def test_regular_sequences_are_proven(self, ring5xyz, texts):
        I = CIIdeal(ring5xyz, [parse_polynomial(ring5xyz, t) for t in texts])
        assert len(I.gens) == len(texts)

    @pytest.mark.parametrize(
        "texts",
        [
            ["x*y + x*z", "x^2 + x*y"],
            # common factor x + y of degree 1, generator degrees 2 and 3
            ["x^2 - y^2", "x^3 + y^3"],
            # common quadratic factor, generators of degree 3 and 2
            ["x^3 + x*y*z", "x^2 + y*z"],
            # common factor over F_5 only: x^2 + y^2 = (x + 2y)(x - 2y)
            ["x^2 + y^2", "x*z + 2*y*z"],
        ],
    )
    def test_two_generators_with_common_factor_rejected(self, ring5xyz, texts):
        with pytest.raises(UnsupportedIdealClassError, match="not a regular sequence"):
            CIIdeal(ring5xyz, [parse_polynomial(ring5xyz, t) for t in texts])

    def test_two_generator_check_is_guarded(self, ring5xyz):
        gens = [parse_polynomial(ring5xyz, t) for t in ["x^4 + y^4", "z^5 + x*y^4"]]
        # proven in degree 8: u*f with deg u = 4 and v*g with deg v = 3 give
        # 15 + 10 rows over the 45 monomials of degree 8, and the earlier
        # degrees have fewer cells
        with pytest.raises(ResourceGuardError, match="in degree 8: 1125 matrix cells exceed guard 1124"):
            CIIdeal(ring5xyz, gens, max_monomials=1124)
        assert len(CIIdeal(ring5xyz, gens, max_monomials=1125).gens) == 2


class TestBracketMaxMembership:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_all_exponents_below_q(self, ring2, q):
        f = parse_polynomial(ring2, f"x^{q - 1}*y^{q - 1}")
        assert not in_bracket_max(f, q)

    def test_single_surviving_term(self, ring2):
        f = parse_polynomial(ring2, "x^2 + y")
        assert not in_bracket_max(f, 2)

    def test_fermat_fourth_power_p5(self, ring5xyz):
        f = parse_polynomial(ring5xyz, "x^3 + y^3 + z^3")
        assert in_bracket_max(naive_power(f, 4), 5)


class TestHilbertAndLoewy:
    def test_hilbert_of_square(self, ring2):
        assert len(mi(ring2, (2, 0), (1, 1), (0, 2)).staircase(1)[1]) == 2

    def test_hilbert_of_zero_ideal(self, ring5xyz):
        levels = MonomialIdeal.zero(ring5xyz).staircase(5)
        assert [len(level) for level in levels] == [math.comb(d + 2, 2) for d in range(6)]

    def test_total_dimension_twelve(self, ring2):
        assert sum(map(len, mi(ring2, (4, 0), (2, 2), (0, 4)).staircase())) == 12

    def test_loewy_lengths(self, ring2):
        assert mi(ring2, (2, 0), (1, 1), (0, 2)).loewy_length() == 2
        assert mi(ring2, (4, 0), (2, 2), (0, 4)).loewy_length() == 5
        assert MonomialIdeal(PolyRing(2, ["x"]), [(1,)]).loewy_length() == 1

    def test_loewy_keeps_no_degree_it_has_counted(self, ring2):
        # x^150, y^150 has 22,500 standard monomials, about 1.5 MB kept;
        # counted as they pass, at most two degrees of 150 are alive
        I = mi(ring2, (150, 0), (0, 150))
        tracemalloc.start()
        try:
            assert I.loewy_length() == 299
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000

    def test_loewy_requires_artinian(self, ring2):
        with pytest.raises(NonArtinianError):
            mi(ring2, (1, 1)).loewy_length()

    def test_hilbert_vanishes_beyond_loewy(self, ring2):
        for gens in [[(2, 0), (1, 1), (0, 2)], [(4, 0), (2, 2), (0, 4)], [(3, 0), (0, 2)]]:
            I = mi(ring2, *gens)
            ll = I.loewy_length()
            assert I.staircase(ll + 3)[ll:] == [[]] * 4


# The enumerate-and-filter staircase that the frontier walk replaced, kept
# as an oracle: list every monomial of a degree, drop those in I.

def filtered_level(I, d):
    return [m for m in monomials_of_degree(I.ring, d) if not I.contains_monomial(m)]


def filtered_loewy_length(I):
    ceiling = sum(max(g) for g in I.gens) + 1
    for d in range(ceiling + 1):
        if not filtered_level(I, d):
            return d
    raise AssertionError("artinian staircase did not terminate")


def filtered_min_generators(I, e):
    q = I.ring.p**e
    total = ideal_sum(I, max_bracket_ideal(I.ring, q))
    return sum(len(filtered_level(total, d)) for d in range((q - 1) * I.ring.nvars + 1))


@st.composite
def oracle_ideals(draw):
    """Monomial ideals in 1..4 variables: zero, unit, artinian (a pure power
    of every variable among the generators) or arbitrary."""
    n = draw(st.integers(1, 4))
    ring = PolyRing(draw(st.sampled_from([2, 3])), ["x", "y", "z", "w"][:n])
    kind = draw(st.sampled_from(["zero", "unit", "artinian", "any"]))
    if kind == "zero":
        return MonomialIdeal.zero(ring)
    if kind == "unit":
        return MonomialIdeal(ring, [ring.unit_monomial()])
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=4))
    if kind == "artinian":
        for v in range(n):
            gens.append(tuple(draw(st.integers(1, 4)) if i == v else 0 for i in range(n)))
    return MonomialIdeal(ring, gens)


class TestStaircaseOracle:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_staircase_matches_enumerate_and_filter(self, data):
        I = data.draw(oracle_ideals())
        bound = data.draw(st.integers(0, mono_degree(I.lcm()) + 2))
        want = [filtered_level(I, d) for d in range(bound + 1)]
        assert I.staircase(bound) == want
        if I.is_unit():
            for method in (I.loewy_length, I.staircase):
                with pytest.raises(UnsupportedIdealClassError, match="S/I is zero for the unit ideal"):
                    method()
        elif I.is_artinian():
            ll = filtered_loewy_length(I)
            assert I.loewy_length() == ll
            assert I.staircase() == [filtered_level(I, d) for d in range(ll)]
        else:
            for method in (I.loewy_length, I.staircase):
                with pytest.raises(NonArtinianError):
                    method()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_min_generators_match_enumerate_and_filter(self, data):
        I = data.draw(oracle_ideals())
        e = data.draw(st.sampled_from([1, 2] if I.ring.p == 2 else [1]))
        assert pushforward_min_generators(I, e) == filtered_min_generators(I, e)

    def test_guard_counts_the_candidates_of_each_walked_degree(self, ring2):
        I = mi(ring2, (2, 0), (0, 2))  # the staircase is empty from degree 3 on
        # 1; x, y from 1; x^2 from x and x*y, y^2 from y; x^2*y from x*y
        assert walk_candidates(I, 5) == [1, 2, 3, 1, 0, 0]
        # the guard bounds their running total, 1, 3, 6, 7, 7, 7
        with pytest.raises(ResourceGuardError, match="enumeration of 3 monomials exceeds guard 2"):
            I.staircase(5, max_monomials=2)
        with pytest.raises(ResourceGuardError, match="enumeration of 6 monomials exceeds guard 5"):
            I.staircase(5, max_monomials=5)
        assert I.staircase(5, max_monomials=7)[3:] == [[], [], []]
        # the default walk stops at the Loewy length, whose degree is guarded
        with pytest.raises(ResourceGuardError, match="enumeration of 7 monomials exceeds guard 6"):
            I.loewy_length(max_monomials=6)
        assert I.loewy_length(max_monomials=7) == 3

    def test_guard_fires_at_the_first_degree_over_it(self):
        for I, _ci in corpus_ideals():
            counts = walk_candidates(I, 6)
            # never more than every monomial of the degree
            n = I.ring.nvars
            assert all(c <= math.comb(d + n - 1, n - 1) for d, c in enumerate(counts))
            # the guard bounds the running total of the candidates
            totals = list(itertools.accumulate(counts))
            for guard in sorted({t - 1 for t in totals} | set(totals)):
                over = [t for t in totals if t > guard]
                if over:
                    with pytest.raises(ResourceGuardError, match=f"^enumeration of {over[0]} "):
                        I.staircase(6, max_monomials=guard)
                else:
                    assert len(I.staircase(6, max_monomials=guard)) == 7


class TestPushforwardGenerators:
    def test_polynomial_ring(self, ring2):
        assert pushforward_min_generators(MonomialIdeal.zero(ring2), 1) == 4

    def test_ideal_inside_bracket(self, ring2):
        assert pushforward_min_generators(mi(ring2, (2, 0), (0, 2)), 1) == 4

    def test_embedding_dimension_inequality(self):
        from conftest import corpus_ideals

        for I, _ci in corpus_ideals(p=2):
            assert pushforward_min_generators(I, 1) >= I.ring.nvars


def inclusion_exclusion_hilbert(nvars, degrees, d):
    """dim_k (S/(f))_d for a regular sequence of forms of these degrees in
    `nvars` variables, by inclusion-exclusion over every subset of the
    generators: the oracle of the Koszul counts."""
    total = 0
    for mask in range(1 << len(degrees)):
        shift = sum(degrees[i] for i in range(len(degrees)) if mask >> i & 1)
        sign = -1 if bin(mask).count("1") % 2 else 1
        total += sign * (math.comb(d - shift + nvars - 1, nvars - 1) if d >= shift else 0)
    return total


class TestCIHilbert:
    @given(degrees=st.lists(st.integers(1, 4), min_size=1, max_size=5), extra=st.integers(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_koszul_counts_agree_with_inclusion_exclusion_and_the_walk(self, degrees, extra):
        # every N >= c against the oracle; the pure powers x_i^d_i in c or
        # c + 1 variables, a CIIdeal, also against their staircase
        c = len(degrees)
        counts = koszul_counts(degrees, 30)
        for n in range(c, c + 4):
            assert [koszul_hilbert(n, counts, d) for d in range(31)] == [
                inclusion_exclusion_hilbert(n, degrees, d) for d in range(31)
            ]
        n = c + extra
        ring = PolyRing(2, [f"x{v}" for v in range(n)])
        powers = [tuple(d if v == i else 0 for v in range(n)) for i, d in enumerate(degrees)]
        I = CIIdeal(ring, [Polynomial(ring, {m: 1}) for m in powers])
        levels = MonomialIdeal(ring, powers).staircase(30)
        walked = [len(level) for level in levels] + [0] * (31 - len(levels))
        assert [I.hilbert_function(d) for d in range(31)] == walked

    def test_hypersurface(self):
        ring = PolyRing(3, ["x", "y", "z"])
        I = CIIdeal(ring, [parse_polynomial(ring, "x^3 + y^3 + z^3")])
        # dim (S/f)_d = C(d+2,2) - C(d-1,2)
        for d in range(8):
            expected = math.comb(d + 2, 2) - (math.comb(d - 1, 2) if d >= 3 else 0)
            assert I.hilbert_function(d) == expected


@st.composite
def form_systems(draw, square):
    """c <= n nonzero forms of degree 1..3 in n <= 3 variables over F_2 or
    F_3, each with at most three terms; c = n when `square`."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    ring = PolyRing(p, ["x", "y", "z"][:n])
    gens = []
    for _ in range(n if square else draw(st.integers(1, n))):
        chosen = draw(st.lists(st.sampled_from(monomials_of_degree(ring, draw(st.integers(1, 3)))),
                               min_size=1, max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(1, p - 1), min_size=len(chosen), max_size=len(chosen)))
        gens.append(Polynomial(ring, dict(zip(chosen, coeffs))))
    return ring, gens


def ideal_dimension(ring, gens, d):
    """dim_k I_d from the rank of every product u*f_i of degree d, ranked
    as given, with no leaders and no height."""
    rows = [f.mul_monomial(u).terms for f in gens for u in monomials_of_degree(ring, d - f.degree())]
    return rank(rows, ring.p)


def refusal_degree(ring, gens):
    """The degree named by the refusal, or None when the check proves the
    sequence regular."""
    try:
        CIIdeal(ring, gens)
    except UnsupportedIdealClassError as exc:
        return int(re.search(r"in degree (\d+)", str(exc)).group(1))
    return None


class TestRegularSequenceOracle:
    @given(case=form_systems(square=True))
    @settings(max_examples=150, deadline=None)
    def test_n_forms_in_n_variables_are_regular_iff_they_contain_a_power_of_m(self, case):
        # S/I is then artinian, and a complete intersection has its socle in
        # degree sum(d_i - 1)
        ring, gens = case
        top = sum(f.degree() - 1 for f in gens) + 1
        contains = ideal_dimension(ring, gens, top) == len(monomials_of_degree(ring, top))
        assert (refusal_degree(ring, gens) is None) == contains

    @given(case=form_systems(square=False))
    @settings(max_examples=150, deadline=None)
    def test_the_hilbert_function_agrees_with_the_verdict(self, case):
        # a complete intersection has Hilbert series prod(1 - t^d_i) / (1 - t)^n
        ring, gens = case
        numerator = [1]
        for f in gens:
            shifted = [0] * f.degree() + [-a for a in numerator]
            numerator = [a + b for a, b in itertools.zip_longest(numerator, shifted, fillvalue=0)]
        refused = refusal_degree(ring, gens)
        degrees = range(sum(f.degree() for f in gens) + 2) if refused is None else [refused]
        agree = [
            len(monomials_of_degree(ring, d)) - ideal_dimension(ring, gens, d)
            == sum(a * len(monomials_of_degree(ring, d - k)) for k, a in enumerate(numerator))
            for d in degrees
        ]
        assert all(agree) if refused is None else not any(agree)


class TestIdealGrammar:
    """The class is read from the generators: all single terms give a
    MonomialIdeal, anything else a CIIdeal."""

    @staticmethod
    def build(ring, text):
        return build_ideal(ring, [parse_polynomial(ring, g) for g in text.split(",")])

    def test_a_polynomial_generator_gives_a_complete_intersection(self):
        ring = PolyRing(3, ["x", "y", "z"])
        assert isinstance(self.build(ring, "x^3+y^3+z^3"), CIIdeal)
        assert isinstance(self.build(ring, "x*y, x+z"), CIIdeal)

    def test_single_terms_give_a_monomial_ideal(self):
        ring = PolyRing(2, ["x", "y", "z"])
        # 2*x*y is zero over F_2 and drops out
        assert self.build(ring, "x*y, 3*z, 2*x*y") == mi(ring, (1, 1, 0), (0, 0, 1))
        assert self.build(ring, "0") == MonomialIdeal.zero(ring)

    def test_three_polynomial_generators_are_proven(self):
        ring = PolyRing(3, ["x", "y", "z"])
        assert isinstance(self.build(ring, "x^2+y*z, y^2+x*z, z^2+x*y"), CIIdeal)

    def test_a_polynomial_among_monomials_is_checked_as_a_regular_sequence(self):
        ring = PolyRing(2, ["x", "y"])
        with pytest.raises(UnsupportedIdealClassError, match="not a regular sequence"):
            self.build(ring, "x*y, x^2+x*y")

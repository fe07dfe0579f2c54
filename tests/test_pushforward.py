import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcalc import (
    FrobeniusModule,
    MonomialIdeal,
    NonArtinianError,
    PolyRing,
    alpha,
    ci_filtration_check,
    cyclic_decompose,
    pn_pushforward,
    veronese_decompose,
)
from frobcalc.polyring import mono_degree, mono_divides, mono_mul, mono_pow, monomials_of_degree
from frobcalc.pushforward import _annihilator_of_generator, _class_multiset_count
from test_ideals import pushforward_min_generators


def mi(ring, *gens):
    return MonomialIdeal(ring, list(gens))


def alpha_by_enumeration(n, p, i, l):
    """Brute-force companion to `alpha`: enumerate and count."""
    degree = l + i * p
    if degree < 0:
        return 0
    ring = PolyRing(p, [f"t{k}" for k in range(n + 1)])
    return len(monomials_of_degree(ring, degree, cap=p - 1))


# The twisted action on the staircase basis, by basis index: w . u is
# w^q * u, and a product missing from the basis (the whole staircase) is
# in I, reported as -1.

def basis_index(module):
    return {u: i for i, u in enumerate(module.basis)}


def act_monomial(module, w, i):
    product = tuple(u_i + module.q * w_i for u_i, w_i in zip(module.basis[i], w))
    return basis_index(module).get(product, -1)


def act_variable(module, v, i):
    return act_monomial(module, module.ring.variable_monomial(v), i)


def degree_of(module, i):
    """Fractional degree deg(u)/q of the i-th basis element."""
    return Fraction(mono_degree(module.basis[i]), module.q)


def assert_partitions(dec, module):
    """The piece bases are disjoint and together give the module basis."""
    union = [u for piece in dec.pieces for u in piece.basis]
    assert len(union) == len(set(union)) == module.dimension()
    assert set(union) == set(module.basis)


class TestPushforwardModule:
    def test_one_variable_square(self):
        ring = PolyRing(2, ["x"])
        M = FrobeniusModule(MonomialIdeal(ring, [(2,)]), 1)
        assert M.basis == ((0,), (1,))
        # x acts by multiplication with x^2, which dies in R
        assert act_variable(M, 0, 0) == -1
        assert act_variable(M, 0, 1) == -1

    def test_twelve_dimensional_action(self, ring2):
        M = FrobeniusModule(mi(ring2, (4, 0), (2, 2), (0, 4)), 1)
        assert M.dimension() == 12
        i_x = basis_index(M)[(1, 0)]
        assert M.basis[act_variable(M, 0, i_x)] == (3, 0)  # x . x = x^3

    def test_dimension_equals_quotient_dimension(self, ring2):
        for gens in [[(2, 0), (1, 1), (0, 2)], [(4, 0), (2, 2), (0, 4)], [(3, 0), (0, 2)]]:
            I = mi(ring2, *gens)
            for e in (1, 2):
                assert FrobeniusModule(I, e).dimension() == I.total_dimension()

    def test_fractional_degrees(self, ring2):
        M = FrobeniusModule(mi(ring2, (4, 0), (2, 2), (0, 4)), 1)
        degs = {degree_of(M, i) for i in range(M.dimension())}
        assert Fraction(1, 2) in degs
        assert max(degs) == Fraction(4, 2)

    def test_action_is_multiplicative(self, ring2):
        # (w w') . u = w . (w' . u) on sampled monomials
        M = FrobeniusModule(mi(ring2, (4, 0), (2, 2), (0, 4)), 1)
        samples = [(1, 0), (0, 1), (1, 1), (2, 0)]
        for w1 in samples:
            for w2 in samples:
                combined = tuple(a + b for a, b in zip(w1, w2))
                for i in range(M.dimension()):
                    step = act_monomial(M, w2, i)
                    via_steps = act_monomial(M, w1, step) if step >= 0 else -1
                    assert act_monomial(M, combined, i) == via_steps

    def test_requires_artinian(self, ring2):
        with pytest.raises(NonArtinianError):
            FrobeniusModule(mi(ring2, (1, 1)), 1)


class TestCyclicDecompose:
    def test_twelve_dimensional_example(self, ring2):
        I = mi(ring2, (4, 0), (2, 2), (0, 4))
        M = FrobeniusModule(I, 1)
        dec = cyclic_decompose(M)
        assert_partitions(dec, M)
        assert len(dec.pieces) == 4
        assert {p.generator for p in dec.pieces} == {(0, 0), (1, 0), (0, 1), (1, 1)}
        target_ann = mi(ring2, (2, 0), (1, 1), (0, 2))
        for piece in dec.pieces:
            assert len(piece.basis) == 3
            assert piece.annihilator == target_ann
            assert piece.relative_hilbert == (1, 2)
        # pieces partition the basis
        union = sorted(u for p in dec.pieces for u in p.basis)
        assert len(union) == 12 == len(set(union))
        assert dec.iso_classes == [(target_ann.gens, (1, 2), 4)]

    def test_semisimple_case_gives_lines(self, ring2):
        I = mi(ring2, (2, 0), (1, 1), (0, 2))
        M = FrobeniusModule(I, 1)
        dec = cyclic_decompose(M)
        assert_partitions(dec, M)
        assert sorted(len(p.basis) for p in dec.pieces) == [1, 1, 1]

    def test_piece_dimensions_sum(self, ring2):
        for gens in [[(3, 0), (0, 3)], [(4, 0), (2, 2), (0, 4)], [(2, 0), (1, 1), (0, 2)]]:
            I = mi(ring2, *gens)
            dec = cyclic_decompose(FrobeniusModule(I, 1))
            assert sum(len(p.basis) for p in dec.pieces) == I.total_dimension()

    def test_pieces_closed_under_action(self, ring2):
        I = mi(ring2, (4, 0), (2, 2), (0, 4))
        M = FrobeniusModule(I, 1)
        dec = cyclic_decompose(M)
        for piece in dec.pieces:
            members = set(piece.basis)
            for u in piece.basis:
                i = basis_index(M)[u]
                for v in range(2):
                    t = act_variable(M, v, i)
                    if t >= 0:
                        assert M.basis[t] in members


def scanned_annihilator(module, u):
    """The degree-by-degree scan that the closed-form annihilator replaced,
    kept as an oracle: the minimal w with w^q * u in I, degree by degree,
    until a whole degree annihilates."""
    ideal = module.ideal
    gens = []

    def annihilates(w):
        return ideal.contains_monomial(mono_mul(mono_pow(w, module.q), u))

    for d in range(sum(max(g) for g in ideal.gens) + 2):
        layer = monomials_of_degree(ideal.ring, d)
        gens.extend(w for w in layer if annihilates(w) and not any(mono_divides(g, w) for g in gens))
        if all(annihilates(w) for w in layer):
            break
    return MonomialIdeal(ideal.ring, gens)


def greedy_orbits(module):
    """The greedy orbit search that the residue-class split replaced, kept
    as an oracle: from each basis element not yet covered, least degree
    first, the breadth-first orbit under x_v . u = x_v^q * u.  Returns
    (generator, orbit basis in basis order, orbit size by BFS level) for
    each orbit, and whether the orbits partition the basis."""
    ring, basis = module.ring, module.basis
    powers = [mono_pow(ring.variable_monomial(v), module.q) for v in range(ring.nvars)]
    index = basis_index(module)
    action = [[index.get(mono_mul(xq, u), -1) for u in basis] for xq in powers]
    covered = set()
    orbits = []
    direct = True
    for i, u in enumerate(basis):
        if i in covered:
            continue
        seen = {i}
        frontier = [i]
        levels = []
        while frontier:
            levels.append(len(frontier))
            nxt = []
            for t in frontier:
                for v in range(ring.nvars):
                    s = action[v][t]
                    if s >= 0 and s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
        direct = direct and not seen & covered
        covered |= seen
        orbits.append((u, tuple(basis[t] for t in sorted(seen)), tuple(levels)))
    return orbits, direct and len(covered) == len(basis)


def artinian_module(data):
    """F^e_* of a random artinian monomial quotient: at most 3 variables,
    p <= 5, e <= 2."""
    n = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from([2, 3, 5]))
    e = data.draw(st.sampled_from([1, 2]))
    ring = PolyRing(p, ["x", "y", "z"][:n])
    gens = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=3))
    gens = [g for g in gens if any(g)]
    gens += [tuple(data.draw(st.integers(1, 6)) if i == v else 0 for i in range(n)) for v in range(n)]
    return FrobeniusModule(MonomialIdeal(ring, gens), e)


class TestAnnihilatorOracle:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_closed_form_matches_the_degree_scan(self, data):
        M = artinian_module(data)
        for u in M.basis:
            assert _annihilator_of_generator(M, u) == scanned_annihilator(M, u), u


class TestOrbitOracle:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_residue_classes_match_the_greedy_orbits(self, data):
        M = artinian_module(data)
        dec = cyclic_decompose(M)
        orbits, direct = greedy_orbits(M)
        assert direct
        assert_partitions(dec, M)
        assert [(p.generator, p.basis, p.relative_hilbert) for p in dec.pieces] == orbits
        for piece in dec.pieces:
            assert piece.annihilator == scanned_annihilator(M, piece.generator)
        assert len(dec.pieces) == pushforward_min_generators(M.ideal, M.e)


class TestAlpha:
    def test_projective_line_base_case(self):
        assert alpha(1, 2, 0, 0) == 1
        assert alpha(1, 2, 1, 0) == 1

    def test_negative_degree_vanishes(self):
        assert alpha(2, 3, 0, -1) == 0
        assert alpha(2, 3, -1, 2) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_rank_sums(self, n, p):
        for l in range(-3, 4):
            total = sum(alpha(n, p, i, l) for i in range(-4, 4 * (n + 1)))
            assert total == p**n

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_formula_matches_enumeration(self, n, p):
        for l in range(-3, 4):
            for i in range(-2, 2 * (n + 1)):
                assert alpha(n, p, i, l) == alpha_by_enumeration(n, p, i, l)


class TestPnPushforward:
    def test_projective_line(self):
        report = pn_pushforward(1, 2, 1, 0)
        assert report.twists == {0: 1, -1: 1}
        assert report.generates

    def test_plane_char_two_misses_a_twist(self):
        report = pn_pushforward(2, 2, 1, 0)
        assert not report.generates
        assert -2 not in report.twists

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("e", [1, 2])
    def test_generation_iff_q_exceeds_n(self, n, p, e):
        report = pn_pushforward(n, p, e, 0)
        assert report.generates == (p**e > n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("e", [1, 2])
    def test_total_rank(self, n, p, e):
        assert pn_pushforward(n, p, e, 0).total_rank() == p ** (e * n)

    def test_twisted_start(self):
        report = pn_pushforward(1, 2, 1, 3)
        assert report.total_rank() == 2
        assert set(report.twists) == {1, 0} or sum(report.twists.values()) == 2


class TestVeroneseDecompose:
    def test_index_one_is_free(self):
        for p, e in [(2, 1), (3, 1), (2, 2)]:
            dec = veronese_decompose(1, p, e)
            assert dec.multiplicities == {0: p ** (2 * e)}
            assert dec.payload()["hilbert_series_verified"] is True

    @pytest.mark.parametrize("ell", [2, 3])
    @pytest.mark.parametrize("p", [2, 3])
    def test_hilbert_series_identity(self, ell, p):
        dec = veronese_decompose(ell, p, 1)
        assert dec.payload()["hilbert_series_verified"] is True
        assert dec.hs_bound >= 12 * ell * p

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_nontrivial_class_appears(self, ell):
        dec = veronese_decompose(ell, 3, 1)
        assert dec.multiplicities.get(0, 0) >= 1
        assert any(j != 0 and m >= 1 for j, m in dec.multiplicities.items())
        assert dec.has_free_summand

    def test_total_count_is_rank(self):
        for ell, p, e in [(2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 2, 2)]:
            dec = veronese_decompose(ell, p, e)
            assert sum(dec.multiplicities.values()) == p ** (2 * e)

    def test_known_small_case(self):
        # index 2, q = 2: two copies each of G_0 and G_1
        dec = veronese_decompose(2, 2, 1)
        assert dec.multiplicities == {0: 2, 1: 2}
        assert dec.hs_solve_unique

    def test_ambiguous_hilbert_solve_is_flagged(self):
        # index 3, q = 2: one degree class admits {G_0, G_2} and {G_1, G_1}
        dec = veronese_decompose(3, 2, 1)
        assert dec.multiplicities == {0: 1, 1: 2, 2: 1}
        assert not dec.hs_solve_unique
        assert dec.ambiguity_notes

    @pytest.mark.parametrize("ell", range(1, 7))
    def test_multiset_count_matches_enumeration(self, ell):
        for count in range(9):
            weights = Counter(
                sum(j + 1 for j in classes)
                for classes in itertools.combinations_with_replacement(range(ell), count)
            )
            for total in range(count * ell + 2):
                assert _class_multiset_count(count, total, ell) == weights[total], (count, total)


class TestFiltration:
    def test_one_variable_char_two(self):
        ring = PolyRing(2, ["x"])
        report = ci_filtration_check(ring, [(2,)])
        assert len(report.steps) == 2
        assert report.all_match
        assert report.complete
        # both subquotients have dimension 2 = dim of the pushforward of R
        assert [sum(s.dims) for s in report.steps] == [2, 2]

    def test_one_variable_char_three(self):
        ring = PolyRing(3, ["x"])
        report = ci_filtration_check(ring, [(2,)])
        assert len(report.steps) == 3
        assert report.all_match

    def test_two_squares_char_two(self):
        ring = PolyRing(2, ["x", "y"])
        report = ci_filtration_check(ring, [(2, 0), (0, 2)])
        assert len(report.steps) == 4
        assert report.all_match
        assert [sum(s.dims) for s in report.steps] == [4, 4, 4, 4]

    @pytest.mark.parametrize("p,c", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_step_count_is_p_to_c(self, p, c):
        ring = PolyRing(p, ["x", "y"])
        gens = [(2, 0), (0, 2)][:c]
        report = ci_filtration_check(ring, gens)
        assert len(report.steps) == p**c

    def test_mixed_monomial_generator(self):
        # f = xy is allowed; the quotient is not artinian so the band is a window
        ring = PolyRing(2, ["x", "y"])
        report = ci_filtration_check(ring, [(1, 1)])
        assert len(report.steps) == 2
        assert report.all_match
        assert not report.complete

    def test_rejects_overlapping_supports(self):
        ring = PolyRing(2, ["x", "y"])
        with pytest.raises(ValueError):
            ci_filtration_check(ring, [(2, 0), (1, 1)])

    def test_rejects_linear(self):
        ring = PolyRing(2, ["x", "y"])
        with pytest.raises(ValueError):
            ci_filtration_check(ring, [(1, 0)])

    def test_shift_bookkeeping(self):
        ring = PolyRing(2, ["x", "y"])
        report = ci_filtration_check(ring, [(2, 0), (0, 2)])
        shifts = [s.shift for s in report.steps]
        assert shifts == [0, 2, 2, 4]

    @pytest.mark.parametrize(
        "p,gens,degree_bound",
        [
            (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)], None),  # artinian
            (2, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 1)], None),  # not artinian
            (3, [(2, 0, 0), (0, 3, 0)], 6),  # explicit bound
        ],
    )
    def test_step_dims_match_tail_counts(self, p, gens, degree_bound):
        # reference: count each tail submodule (f^a for a from step t on)
        # directly, and take differences of consecutive tails
        ring = PolyRing(p, [f"x{i}" for i in range(len(gens[0]))])
        report = ci_filtration_check(ring, gens, degree_bound=degree_bound)
        chain = []
        for a in itertools.product(range(p), repeat=len(gens)):
            chain.append(tuple(sum(k * m[i] for k, m in zip(a, gens)) for i in range(ring.nvars)))
        assert [s.generator for s in report.steps] == chain

        def divides(g, w):
            return all(x <= y for x, y in zip(g, w))

        staircase = [
            w
            for d in range(report.degree_bound + 1)
            for w in monomials_of_degree(ring, d)
            if not any(divides(tuple(p * x for x in m), w) for m in gens)
        ]
        tails = [
            [
                sum(1 for w in staircase if mono_degree(w) == d and any(divides(g, w) for g in chain[t:]))
                for d in range(report.degree_bound + 1)
            ]
            for t in range(len(chain) + 1)
        ]
        for t, step in enumerate(report.steps):
            assert step.dims == [x - y for x, y in zip(tails[t], tails[t + 1])]

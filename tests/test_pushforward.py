import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from conftest import monomials_of_degree
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
from frobcalc import pushforward
from frobcalc.errors import ResourceGuardError, UnsupportedIdealClassError
from frobcalc.polyring import (
    bounded_count,
    mono_degree,
    mono_divides,
    mono_mul,
    mono_pow,
)
from frobcalc.pushforward import (
    _class_multiset_count,
    _group_series,
    _start_groups,
    _step_counts,
)
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
                assert FrobeniusModule(I, e).dimension() == sum(map(len, I.staircase()))

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
            assert sum(len(p.basis) for p in dec.pieces) == sum(map(len, I.staircase()))

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


def root_generators(module, u):
    """ceil((g - u)^+ / q), entrywise, for each generator g of I: the raw
    generators of the Frobenius root of (I : u) that annihilates the piece
    of u."""
    q = module.q
    return tuple(tuple(-(min(u_i - g_i, 0) // q) for g_i, u_i in zip(g, u)) for g in module.ideal.gens)


def _annihilator_of_generator(module, u):
    """The annihilator of the piece of u built on its own, as
    `cyclic_decompose` did before it shared one ideal per distinct root;
    kept as an oracle."""
    return MonomialIdeal(module.ring, root_generators(module, u))


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
            assert piece.annihilator == _annihilator_of_generator(M, piece.generator)
        # one ideal object per distinct root, shared by the pieces with that root
        shared = {}
        for piece in dec.pieces:
            assert shared.setdefault(root_generators(M, piece.generator), piece.annihilator) is piece.annihilator
        assert len({id(p.annihilator) for p in dec.pieces}) == len(shared)
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


def alpha_by_inclusion_exclusion(n, p, i, l):
    """Companion to `alpha`: inclusion-exclusion over the variables whose
    exponent would exceed p-1."""
    degree = l + i * p
    return 0 if degree < 0 else bounded_count(n + 1, degree, p - 1)


def pn_by_iteration(n, p, e, l):
    """Companion to `pn_pushforward`: every count of every step a fresh
    inclusion-exclusion, twists in the order the steps find them."""
    top = (n + 1) * (p - 1)
    current = {l: 1}
    for _ in range(e):
        nxt = {}
        for twist, mult in current.items():
            i = -(twist // p)
            while twist + i * p <= top:
                a = alpha_by_inclusion_exclusion(n, p, i, twist)
                if a:
                    nxt[-i] = nxt.get(-i, 0) + mult * a
                i += 1
        current = nxt
    return current


class TestStepCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_recurrence_matches_inclusion_exclusion(self, n, p):
        top = (n + 1) * (p - 1)
        assert _step_counts(n, p) == [bounded_count(n + 1, k, p - 1) for k in range(top + 1)]

    @given(n=st.integers(1, 12), p=st.sampled_from([2, 3, 5, 7, 11]), i=st.integers(-3, 30),
           l=st.integers(-20, 20))
    @settings(max_examples=200, deadline=None)
    def test_alpha_matches_inclusion_exclusion(self, n, p, i, l):
        # Miller's recurrence, the list `pn_pushforward` reads, against the
        # one count `alpha` takes by inclusion-exclusion
        counts = _step_counts(n, p)
        degree = l + i * p
        expected = counts[degree] if 0 <= degree < len(counts) else 0
        assert alpha(n, p, i, l) == expected == alpha_by_inclusion_exclusion(n, p, i, l)

    def test_alpha_at_a_large_prime(self):
        # degree p in 4 parts below p: every composition of p but the 4
        # that put all of p in one part
        p = 1000003
        assert alpha(3, p, 1, 0) == math.comb(p + 3, 3) - 4

    def test_alpha_at_a_huge_twist(self):
        l = 10**20
        for i in (-(l // 3) - 1, -(l // 3), -(l // 3) + 1, -(l // 3) + 2):
            assert alpha(2, 3, i, l) == alpha_by_inclusion_exclusion(2, 3, i, l)


class TestPnPushforward:
    @given(n=st.integers(1, 12), p=st.sampled_from([2, 3, 5, 7, 11]), e=st.integers(1, 3),
           l=st.integers(-20, 20))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_inclusion_exclusion_iteration(self, n, p, e, l):
        twists = pn_pushforward(n, p, e, l).twists
        assert list(twists.items()) == list(pn_by_iteration(n, p, e, l).items())

    @pytest.mark.parametrize("l", [10**20, -(10**20), 10**20 + 1])
    def test_huge_twists_match_the_iteration(self, l):
        for n, p, e in [(1, 2, 2), (2, 3, 2), (3, 5, 1)]:
            assert pn_pushforward(n, p, e, l).twists == pn_by_iteration(n, p, e, l)

    def test_e_steps_are_one_step_at_q(self, monkeypatch):
        # F^e_* O(l) has the twist -i with multiplicity
        # bounded_count(n+1, l + i*q, q-1), q = p^e; pn_pushforward takes
        # that way or the list, whichever its guard counts as cheaper
        by_list = []
        monkeypatch.setattr(
            pushforward, "_step_counts", lambda n, p: by_list.append((n, p)) or _step_counts(n, p)
        )
        ways = set()
        for n in range(1, 5):
            for p in (2, 3, 5, 7):
                for e in (1, 2, 3):
                    q, top = p**e, (n + 1) * (p**e - 1)
                    for l in range(-2 * p, 2 * p + 1):
                        expected = list(pn_by_iteration(n, p, e, l).items())
                        at_q = [(-i, bounded_count(n + 1, l + i * q, q - 1))
                                for i in range(-(l // q), (top - l) // q + 1)]
                        assert at_q == expected, (n, p, e, l)
                        by_list.clear()
                        assert list(pn_pushforward(n, p, e, l).twists.items()) == expected
                        ways.add((e > 1, bool(by_list)))
        assert ways == {(False, False), (False, True), (True, False), (True, True)}

    def test_guard_counts_words_of_updates_and_products(self):
        # 3 updates of 4 one-word coefficients, then 2, 4 and 6 one-word
        # products at steps 1, 2 and 3
        assert pn_pushforward(2, 2, 3, max_monomials=24).total_rank() == 2**6
        with pytest.raises(ResourceGuardError, match="need 24 word operations"):
            pn_pushforward(2, 2, 3, max_monomials=23)
        with pytest.raises(ResourceGuardError, match="need 12 word operations"):
            pn_pushforward(2, 2, 1, max_monomials=11)
        # p^(n+1) = 2^3001 takes 47 words: 3 * 3002 * 47 before the list
        with pytest.raises(ResourceGuardError, match="need 423282 word operations"):
            pn_pushforward(3000, 2, 1, max_monomials=423281)

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


def veronese_by_triples(ell, q, bound):
    """Companion to `veronese_decompose`: every (u, v, j) tested, the
    Hilbert series filled piece by piece.  Returns the pieces, the class
    multiplicities, the start-degree groups and the series."""
    pieces = []
    mult = {}
    for u in range(q):
        for v in range(q):
            for j in range(ell):
                if (q * j + u + v) % ell == 0:
                    pieces.append((u, v, j, q * j + u + v))
                    mult[j] = mult.get(j, 0) + 1
    recon = [0] * (bound + 1)
    groups = {}
    for u, v, j, start in pieces:
        s = 0
        while start + q * ell * s <= bound:
            recon[start + q * ell * s] += ell * s + j + 1
            s += 1
        group = groups.setdefault(start, [0, 0])
        group[0] += 1
        group[1] += j + 1
    return pieces, mult, groups, recon


class TestVeroneseOracle:
    @pytest.mark.parametrize("ell", range(1, 7))
    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4),
                                     (5, 2), (3, 3), (2, 5), (7, 2)])
    def test_groups_and_series_match_the_triples(self, ell, p, e):
        q = p**e
        dec = veronese_decompose(ell, p, e)
        pieces, mult, groups, recon = veronese_by_triples(ell, q, dec.hs_bound)
        assert dec.pieces == pieces
        assert dec.multiplicities == mult
        _admissible, mult_by_sums, groups_by_sums = _start_groups(ell, q)
        assert mult_by_sums == mult
        assert groups_by_sums == groups
        assert _group_series(groups, ell, q, dec.hs_bound) == recon
        assert recon == [d + 1 if d % ell == 0 else 0 for d in range(dec.hs_bound + 1)]

    @pytest.mark.parametrize("ell,p,e", [(25, 2, 1), (20, 7, 1), (26, 5, 2), (24, 2, 3), (27, 3, 2), (18, 3, 1),
                                         (16, 2, 2), (50, 5, 2)])
    def test_closed_form_classes_past_the_residues_of_u_plus_v(self, ell, p, e):
        # gcd(q, ell) = 1 for the first three, > 1 for the rest; ell > 2q - 1
        # but for (26, 5, 2), so only the residues u + v takes are solved
        q = p**e
        admissible, mult, groups = _start_groups(ell, q)
        assert admissible == [[j for j in range(ell) if (q * j + r) % ell == 0] for r in range(min(ell, 2 * q - 1))]
        dec = veronese_decompose(ell, p, e)
        pieces, oracle_mult, oracle_groups, _recon = veronese_by_triples(ell, q, dec.hs_bound)
        assert (dec.pieces, dec.multiplicities, mult, groups) == (pieces, oracle_mult, oracle_mult, oracle_groups)


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

    @pytest.mark.parametrize("ell", range(1, 8))
    def test_multiset_count_matches_enumeration(self, ell):
        # top = total - count runs from below 0, through both halves of the
        # palindromic Gaussian binomial of degree count*(ell-1), to ell past it
        for count in range(9):
            weights = Counter(
                sum(j + 1 for j in classes)
                for classes in itertools.combinations_with_replacement(range(ell), count)
            )
            for total in range(count * ell + ell + 1):
                assert _class_multiset_count(count, total, ell) == weights[total], (count, total)
                if total - count > count * (ell - 1):
                    assert weights[total] == 0


@st.composite
def disjoint_filtration(draw):
    """`ci_filtration_check` on a random monomial sequence in m^2 with
    pairwise disjoint supports: 1-5 variables, p in {2, 3, 5}, artinian
    or not."""
    n = draw(st.integers(1, 5))
    p = draw(st.sampled_from([2, 3, 5]))
    owner = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))  # f_i per variable
    gens = []
    for i in sorted(set(owner)):
        exps = [draw(st.integers(1, 3)) if owner[v] == i and draw(st.booleans()) else 0 for v in range(n)]
        if sum(exps) < 2:
            exps[owner.index(i)] = 2
        gens.append(tuple(exps))
    ring = PolyRing(p, [f"x{v}" for v in range(n)])
    try:
        return ring, gens, ci_filtration_check(ring, gens, max_monomials=2000)
    except ResourceGuardError:
        return draw(st.nothing())


def step_dims_by_chain_scan(ring, f_monos, degree_bound):
    """Companion to `ci_filtration_check`: each standard monomial w of
    S/(f^p) through the bound goes to the lexicographically last a in
    {0..p-1}^c with f^a dividing w, at chain index sum a_i p^(c-1-i).  The
    dividing a are down-closed, so a greedy search finds it: the largest
    a_1 with f_1^a_1 | w, then the largest a_2 with f_1^a_1 f_2^a_2 | w,
    and so on."""
    p = ring.p
    big = MonomialIdeal(ring, [mono_pow(m, p) for m in f_monos])
    dims = [[0] * (degree_bound + 1) for _ in range(p ** len(f_monos))]
    for d, level in enumerate(big.staircase(degree_bound)):
        for w in level:
            g = ring.unit_monomial()
            t = 0
            for m in f_monos:
                a = 0
                while a + 1 < p and mono_divides(mono_mul(g, mono_pow(m, a + 1)), w):
                    a += 1
                g = mono_mul(g, mono_pow(m, a))
                t = t * p + a
            dims[t][d] += 1
    return dims


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
        # the window is p * deg f + 2
        assert report.degree_bound == 2 * 2 + 2

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_step_dims_match_the_chain_scan(self, data):
        ring, gens, report = data.draw(disjoint_filtration())
        dims = step_dims_by_chain_scan(ring, gens, report.degree_bound)
        assert [step.dims for step in report.steps] == dims

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_expected_dims_match_a_walk_of_the_small_quotient(self, data):
        # the expected side is HF(S/(f)) from its Hilbert series; a walk of
        # the staircase of (f_1..f_c) must give the same counts
        ring, gens, report = data.draw(disjoint_filtration())
        levels = MonomialIdeal(ring, gens).staircase(report.degree_bound)
        hf = [len(level) for level in levels] + [0] * (report.degree_bound + 1 - len(levels))
        for step in report.steps:
            assert step.expected == [0] * step.shift + hf[: report.degree_bound + 1 - step.shift]

    def test_rejects_overlapping_supports(self):
        ring = PolyRing(2, ["x", "y"])
        with pytest.raises(UnsupportedIdealClassError):
            ci_filtration_check(ring, [(2, 0), (1, 1)])

    def test_rejects_linear(self):
        ring = PolyRing(2, ["x", "y"])
        with pytest.raises(UnsupportedIdealClassError):
            ci_filtration_check(ring, [(1, 0)])

    def test_rejects_the_unit_ideal(self):
        # 1 among the generators makes S/I zero, whatever the others are
        ring = PolyRing(2, ["x", "y"])
        for gens in ([(0, 0)], [(0, 0), (2, 0)]):
            with pytest.raises(UnsupportedIdealClassError, match="S/I is zero for the unit ideal"):
                ci_filtration_check(ring, gens)

    def test_shift_bookkeeping(self):
        ring = PolyRing(2, ["x", "y"])
        report = ci_filtration_check(ring, [(2, 0), (0, 2)])
        shifts = [s.shift for s in report.steps]
        assert shifts == [0, 2, 2, 4]

    @pytest.mark.parametrize(
        "p,gens",
        [
            (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),  # artinian
            (2, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 1)]),  # not artinian
            (3, [(2, 0, 0), (0, 3, 0)]),  # not artinian: a free variable
            (3, [(2, 0), (0, 2)]),  # artinian, top degree 10
        ],
    )
    def test_step_dims_match_tail_counts(self, p, gens):
        # reference: count each tail submodule (f^a for a from step t on)
        # directly, and take differences of consecutive tails
        ring = PolyRing(p, [f"x{i}" for i in range(len(gens[0]))])
        report = ci_filtration_check(ring, gens)
        chain = []
        for a in itertools.product(range(p), repeat=len(gens)):
            chain.append(tuple(sum(k * m[i] for k, m in zip(a, gens)) for i in range(ring.nvars)))
        assert [s.generator for s in report.steps] == chain

        def divides(g, w):
            return all(x <= y for x, y in zip(g, w))

        def standard(d):
            powers = [tuple(p * x for x in m) for m in gens]
            return [w for w in monomials_of_degree(ring, d) if not any(divides(g, w) for g in powers)]

        staircase = [w for d in range(report.degree_bound + 1) for w in standard(d)]
        # the band is complete when the staircase ends inside it
        assert report.complete == (not standard(report.degree_bound + 1))
        tails = [
            [
                sum(1 for w in staircase if mono_degree(w) == d and any(divides(g, w) for g in chain[t:]))
                for d in range(report.degree_bound + 1)
            ]
            for t in range(len(chain) + 1)
        ]
        for t, step in enumerate(report.steps):
            assert step.dims == [x - y for x, y in zip(tails[t], tails[t + 1])]

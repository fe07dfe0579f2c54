import contextlib
import io
import json
import math
import random
from collections import Counter
from functools import reduce
from itertools import chain, combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_blocks_square_to_zero, corpus_ideals, membership_cells, monomials_of_degree

from frobcalc import (
    MonomialIdeal,
    PolyRing,
    ResourceGuardError,
    UnsupportedIdealClassError,
    betti_power_formula,
    betti_table,
    codepth,
    generation_exponent,
    strand_check,
)
from frobcalc.cli import run
from frobcalc.ideals import koszul_counts
from frobcalc.koszul import (
    StrandCheck,
    _block_sum,
    _box_points,
    _eliahou_kervaire,
    _is_stable,
    _lattice_points,
    _walk_points,
    betti_power_row,
    block_boundary,
    block_cells,
    block_homology,
)
from frobcalc.modlinalg import Span, rank
from frobcalc.polyring import mono_degree, mono_divides, mono_lcm


def mi(ring, *gens):
    return MonomialIdeal(ring, list(gens))


def koszul_homology(I, degree_bound):
    """Oracle for the lcm-box restriction: the unrestricted Koszul homology
    table {(i, d): rank of H_i(K^R)_d} for d <= degree_bound, summed over
    every block b = u + 1_T that can be nonzero, inside the lcm box or not
    (u a standard monomial, T a variable set containing supp u).
    `betti_table` and `codepth` visit only the blocks inside the box."""
    p = I.ring.p
    levels = I.staircase(degree_bound)
    standard = set(chain.from_iterable(levels))
    table = {}
    for du, level in enumerate(levels):
        for u in level:
            support = [v for v, e in enumerate(u) if e]
            free = [v for v, e in enumerate(u) if not e]
            base = du + len(support)
            for k in range(min(len(free), degree_bound - base) + 1):
                for extra in combinations(free, k):
                    b = list(u)
                    for v in chain(support, extra):
                        b[v] += 1
                    b = tuple(b)
                    if b in standard and (du or k):
                        continue
                    for i, h in enumerate(block_homology(b, I.gens, p)):
                        if h:
                            table[(i, base + k)] = table.get((i, base + k), 0) + h
    return table


def past_the_box(I):
    """A degree bound past every nonzero block: the lcm degree plus a band
    of max(2, number of variables) rows, where `koszul_homology` checks
    that the box restriction leaves nothing out."""
    return mono_degree(I.lcm()) + max(2, I.ring.nvars)


def dense_rank(rows, p):
    """Rank over F_p by Gaussian elimination on a list of lists."""
    m = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        for i in range(r + 1, len(m)):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


PRIMES = st.sampled_from([2, 3, 5, 7])


@st.composite
def small_matrices(draw):
    """Dense rows, 0-12 of them, 1-12 wide: tall and wide shapes."""
    p = draw(PRIMES)
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(1, 12))
    entry = st.one_of(st.just(0), st.integers(-2 * p, 2 * p))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    return p, rows


@st.composite
def unit_columns(draw):
    """Columns with one entry each, many of them repeated: more vectors
    than keys, so `rank` takes the transpose."""
    p = draw(PRIMES)
    nkeys = draw(st.integers(1, 6))
    entry = st.tuples(st.integers(0, nkeys - 1), st.integers(-2 * p, 2 * p))
    return p, [{k: c} for k, c in draw(st.lists(entry, max_size=12))]


@st.composite
def echelon_vectors(draw):
    """Vectors with pairwise distinct least keys.  The leading coefficient
    may be a multiple of p, which leaves the vectors echelon only in their
    keys, so `rank` has to eliminate."""
    p = draw(PRIMES)
    ncols = draw(st.integers(1, 12))
    leads = draw(st.lists(st.integers(0, ncols - 1), unique=True, max_size=ncols))
    lead_coeff = st.one_of(st.integers(1, p - 1), st.sampled_from([0, p, -p, 2 * p]))
    vectors = []
    for k in leads:
        vec = {k: draw(lead_coeff)}
        for key in draw(st.lists(st.integers(k + 1, ncols), max_size=3)):
            vec[key] = draw(st.integers(-2 * p, 2 * p))
        vectors.append(vec)
    return p, vectors


@st.composite
def sparse_matrices(draw):
    """Any of the above as dict vectors, with empty dicts and vectors whose
    entries are all multiples of p mixed in."""
    p, vectors = draw(st.one_of(
        small_matrices().map(lambda m: (m[0], [{c: x for c, x in enumerate(row) if x} for row in m[1]])),
        unit_columns(),
        echelon_vectors(),
    ))
    zero = st.one_of(
        st.just({}),
        st.dictionaries(st.integers(0, 12), st.sampled_from([0, p, -p, 3 * p]), min_size=1, max_size=3),
    )
    for _ in range(draw(st.integers(0, 3))):
        vectors.insert(draw(st.integers(0, len(vectors))), draw(zero))
    return p, vectors


def dense_rows(vectors):
    keys = sorted(set().union(*vectors))
    return [[vec.get(k, 0) for k in keys] for vec in vectors]


class TestSparseRank:
    @given(matrix=small_matrices())
    @settings(max_examples=300, deadline=None)
    def test_span_rank_matches_dense_elimination(self, matrix):
        p, rows = matrix
        expected = dense_rank(rows, p)
        span = Span(p)
        for row in rows:
            span.add(dict(enumerate(row)))
        assert span.rank == expected
        # the rank of the columns is the same number
        columns = [{i: row[c] for i, row in enumerate(rows)} for c in range(len(rows[0]) if rows else 0)]
        assert rank(columns, p) == expected

    @given(matrix=sparse_matrices())
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_dense_elimination(self, matrix):
        p, vectors = matrix
        assert rank(vectors, p) == dense_rank(dense_rows(vectors), p)
        assert rank(iter(vectors), p) == rank(vectors[::-1], p)

    def test_each_path(self, monkeypatch):
        calls = []

        class CountingSpan(Span):
            def __init__(self, p):
                calls.append(p)
                super().__init__(p)

        monkeypatch.setattr("frobcalc.modlinalg.Span", CountingSpan)
        # more vectors than keys: the transpose {0: {0: 1, 1: 2, 2: 1}} is echelon
        assert rank([{0: 1}, {0: 2}, {0: 4}], 3) == 1
        # distinct least keys with units there
        assert rank([{0: 1, 3: 1}, {}, {1: 2, 2: 1}, {2: 4}], 5) == 3
        assert calls == []
        # a leading coefficient divisible by p
        assert rank([{0: 3, 1: 1}, {1: 1}], 3) == 1
        # a repeated least key
        assert rank([{0: 1, 1: 1}, {0: 1, 2: 1}, {1: 1, 2: 1}], 2) == 2
        assert calls == [3, 2]

    def test_strand_maps_need_no_elimination(self, monkeypatch):
        # every strand row is read from the Hilbert-Burch resolution of
        # m^j, so no strand degree builds a Span or hands a map to `rank`;
        # the maps are formed only by `dict_matrix_strand_check`
        def no_span(p):
            raise AssertionError("rank eliminated")

        def no_rank(vectors, p):
            raise AssertionError("strand map ranked as a matrix")

        monkeypatch.setattr("frobcalc.modlinalg.Span", no_span)
        monkeypatch.setattr("frobcalc.koszul.rank", no_rank)
        for ell, j, steps, char in [(3, 1, 8, 2), (5, 3, 12, 3), (6, 2, 12, 5)]:
            assert strand_check(ell, j, steps, char).exact


class TestKoszulHomology:
    def test_polynomial_ring_is_acyclic(self):
        for nvars in (1, 2, 3):
            ring = PolyRing(2, ["x", "y", "z"][:nvars])
            table = koszul_homology(MonomialIdeal.zero(ring), 5)
            assert table == {(0, 0): 1}

    def test_hypersurface(self, ring2):
        table = koszul_homology(mi(ring2, (1, 1)), 6)
        assert any(i == 1 for (i, _d) in table)
        assert not any(i == 2 for (i, _d) in table)

    def test_square_of_max_ideal_has_top_homology(self, ring2):
        table = koszul_homology(mi(ring2, (2, 0), (1, 1), (0, 2)), 6)
        assert any(i == 2 for (i, _d) in table)

    def test_h0_is_residue_field(self, ring2):
        table = koszul_homology(mi(ring2, (2, 0), (1, 1), (0, 2)), 6)
        h0 = {d: r for (i, d), r in table.items() if i == 0}
        assert h0 == {0: 1}


def all_monomials_blocks(I, degree_bound):
    """Enumerate every monomial b of degree <= degree_bound and yield
    (b, homology ranks of its block) for each b whose cell at J = supp b,
    x^(b - 1_supp b), is standard."""
    ring = I.ring
    standard = set()
    for d in range(degree_bound + 1):
        monos = monomials_of_degree(ring, d)
        standard.update(m for m in monos if not I.contains_monomial(m))
        for b in monos:
            if tuple(e - 1 if e else 0 for e in b) in standard:
                yield b, block_homology(b, I.gens, ring.p)


def all_monomials_homology(I, degree_bound):
    """Reference for `koszul_homology`: the block homology of every
    monomial of degree <= degree_bound, summed by degree."""
    table = {}
    for b, ranks in all_monomials_blocks(I, degree_bound):
        for i, h in enumerate(ranks):
            if h:
                table[(i, sum(b))] = table.get((i, sum(b)), 0) + h
    return table


@st.composite
def small_monomial_ideals(draw):
    """0-5 generators of degree 1-3 in at most 4 variables over F_2, F_3 or
    F_5; artinian ones start with a pure power of every variable."""
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.integers(1, 4))
    ring = PolyRing(p, ["x", "y", "z", "w"][:nvars])
    gens = []
    if draw(st.booleans()):
        for v in range(nvars):
            gens.append(tuple(draw(st.integers(1, 3)) if w == v else 0 for w in range(nvars)))
    degree = st.integers(1, 3).flatmap(
        lambda d: st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d)
    )
    for support in draw(st.lists(degree, max_size=5 - len(gens))):
        gens.append(tuple(support.count(v) for v in range(nvars)))
    return MonomialIdeal(ring, gens)


def lcm_box(I):
    """Every b in the box [0, L] below the lcm L of the generators."""
    return product(*(range(e + 1) for e in I.lcm()))


def lcm_lattice(I):
    """The lcms of the sets of generators, 0 for the empty set."""
    points = {I.ring.unit_monomial()}
    for g in I.gens:
        points |= {mono_lcm(b, g) for b in points}
    return points


def walk_tables(I, bound):
    """The block sums of the lattice walk and of the box walk, in that
    order."""
    return [_block_sum(I, walk(I, bound)) for walk in (_lattice_points, _box_points)]


def in_order(I):
    """The ring's variable order, as `_stable_order` returns one."""
    return tuple(range(I.ring.nvars))


class TestFacetCells:
    @given(I=small_monomial_ideals())
    @settings(max_examples=150, deadline=None)
    def test_match_the_membership_cells_across_the_box(self, I):
        # every b of the box, x^b standard or not, on the lcm lattice or off
        # it: the facet cells are the subsets J with x^(b - 1_J) standard
        standard = {u for u in lcm_box(I) if not I.contains_monomial(u)}
        for b in lcm_box(I):
            assert block_cells(b, I.gens) == membership_cells(b, standard), b

    def test_the_box_holds_every_kind_of_point(self):
        # (x^2, xy): x and y are standard and off the lattice, with a full
        # simplex each; x^2, xy and x^2 y are the lattice points past 1
        ring = PolyRing(3, ["x", "y"])
        I = mi(ring, (2, 0), (1, 1))
        standard = {u for u in lcm_box(I) if not I.contains_monomial(u)}
        assert standard == {(0, 0), (1, 0), (0, 1)}
        assert lcm_lattice(I) == {(0, 0), (2, 0), (1, 1), (2, 1)}
        cells = {b: block_cells(b, I.gens) for b in lcm_box(I)}
        assert cells == {b: membership_cells(b, standard) for b in lcm_box(I)}
        assert cells[(1, 0)] == [0, 1]            # full simplex on {x}
        assert cells[(0, 1)] == [0, 1]            # full simplex on {y}
        assert cells[(2, 0)] == [1]               # {x}: x^2 / x = x
        assert cells[(1, 1)] == [1, 2, 3]         # all but the empty set
        assert cells[(2, 1)] == [3]               # x^2 y / (x y) = x only
        assert block_homology((1, 0), I.gens, 3) == []
        assert block_homology((2, 1), I.gens, 3) == [0, 0, 1]
        assert block_homology((0, 0), I.gens, 3) == [1]

    def test_supp_b_a_facet_leaves_no_cell(self):
        # x^3 y^2 divided by x y is x^2 y, a multiple of x^2: supp b is the
        # facet of x^2, and the old prefilter's x^(b - 1_supp b) lies in I
        I = mi(PolyRing(2, ["x", "y"]), (2, 0), (0, 3))
        assert block_cells((3, 2), I.gens) == []
        assert block_homology((3, 2), I.gens, 2) == [0, 0, 0]

    def test_boundary_signs(self):
        # on the full simplex of {x, y}: d{x, y} = {y} - {x}, d{x} = d{y} = 1
        assert block_boundary([0, 1, 2, 3]) == {0: {}, 1: {0: 1}, 2: {0: 1}, 3: {2: 1, 1: -1}}
        # faces that are not cells drop out
        assert block_boundary([1, 3]) == {1: {}, 3: {1: -1}}


class TestStaircaseWalk:
    @given(I=small_monomial_ideals())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_all_monomials_sum(self, I):
        for bound in sorted({0, 1, 2, mono_degree(I.lcm()), past_the_box(I)}):
            expected = all_monomials_homology(I, bound)
            table = koszul_homology(I, bound)
            assert table == expected, bound

    @given(I=small_monomial_ideals())
    @settings(max_examples=80, deadline=None)
    def test_nonzero_blocks_lie_on_the_lcm_lattice(self, I):
        # Gasharov-Peeva-Welker: a nonzero block sits at the lcm of the
        # generators dividing x^b, whatever the degree
        for b, ranks in all_monomials_blocks(I, past_the_box(I)):
            if any(ranks):
                below = [g for g in I.gens if mono_divides(g, b)]
                assert b == reduce(mono_lcm, below, I.ring.unit_monomial()), b

    @given(I=small_monomial_ideals())
    @settings(max_examples=80, deadline=None)
    def test_lattice_and_box_walks_agree(self, I):
        # each walk is the other's oracle, at every bound either may get
        for bound in sorted({0, 1, 2, mono_degree(I.lcm()), past_the_box(I)}):
            lattice, box = walk_tables(I, bound)
            assert lattice == box, bound

    @given(I=small_monomial_ideals())
    @settings(max_examples=150, deadline=None)
    def test_box_points_are_those_of_their_definition(self, I):
        # every b <= L with |b| <= bound whose x^(b - 1_supp b) is
        # standard, listed once each
        for bound in sorted({0, 1, 2, mono_degree(I.lcm())}):
            expected = [b for b in lcm_box(I)
                        if sum(b) <= bound and not I.contains_monomial(tuple(e - 1 if e else 0 for e in b))]
            assert sorted(_box_points(I, bound)) == expected, bound

    def test_walk_follows_the_smaller_count(self, monkeypatch):
        # neither ideal is a regular sequence or stable, so betti walks: the
        # four squares and x*y give 2^5 lattice points against a box of 3^4,
        # the six squarefree quadrics in four variables 2^6 against a box
        # of 2^4
        ring = PolyRing(2, ["x", "y", "z", "w"])
        squares_and_xy = MonomialIdeal(ring, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 0, 0)])
        edges = MonomialIdeal(ring, [m for m in monomials_of_degree(ring, 2) if max(m) == 1])
        walked = []

        def spy(walk):
            def spied(I, bound):
                walked.append(walk.__name__)
                return walk(I, bound)
            return spied

        monkeypatch.setattr("frobcalc.koszul._lattice_points", spy(_lattice_points))
        monkeypatch.setattr("frobcalc.koszul._box_points", spy(_box_points))
        assert max(i for i, _d in betti_table(squares_and_xy)) == 4
        assert max(i for i, _d in betti_table(edges)) == 3
        assert walked == ["_lattice_points", "_box_points"] == [
            "_lattice_points" if lattice_side(I) else "_box_points" for I in (squares_and_xy, edges)
        ]

    def test_codepth_walks_what_betti_walks(self, monkeypatch):
        # (x^2 y, x y^2) has 2^2 lattice points against a box of 3^2, the
        # six squarefree quadrics in four variables 2^6 against 2^4; neither
        # is artinian, a regular sequence or stable
        lattice = MonomialIdeal(PolyRing(2, ["x", "y"]), [(2, 1), (1, 2)])
        ring = PolyRing(2, ["x", "y", "z", "w"])
        edges = MonomialIdeal(ring, [m for m in monomials_of_degree(ring, 2) if max(m) == 1])
        walked = []

        def spy(walk):
            def spied(I, bound):
                walked.append(walk.__name__)
                return walk(I, bound)
            return spied

        monkeypatch.setattr("frobcalc.koszul._lattice_points", spy(_lattice_points))
        monkeypatch.setattr("frobcalc.koszul._box_points", spy(_box_points))
        assert codepth(lattice) == 2
        assert codepth(edges) == 3
        assert walked == ["_lattice_points", "_box_points"]

    def test_codepth_stops_once_no_block_is_wider_than_its_row(self, monkeypatch):
        # the squarefree quadrics in four variables: the one block of width
        # 4, at x y z w, has H_3; every block left is at most as wide, so
        # none is read, where the table reads every point of the box
        ring = PolyRing(2, ["x", "y", "z", "w"])
        edges = MonomialIdeal(ring, [m for m in monomials_of_degree(ring, 2) if max(m) == 1])
        read = []

        def recorded(b, gens, p):
            read.append(b)
            return block_homology(b, gens, p)

        monkeypatch.setattr("frobcalc.koszul.block_homology", recorded)
        assert codepth(edges) == 3
        assert read == [(1, 1, 1, 1)]
        read.clear()
        assert max(i for i, _d in betti_table(edges)) == 3
        assert len(read) == len(set(_box_points(edges, 4))) > 1

    def test_guard_counts_the_lcm_box(self, ring2):
        # codepth of (x^2 y, x y^2), neither artinian, nor a regular
        # sequence, nor stable, walks its lcm box, (2 + 1) * (2 + 1)
        # points; betti walks or reads the same box of m^2 in x, y whatever
        # its degree bound
        J = mi(ring2, (2, 1), (1, 2))
        assert codepth(J, max_monomials=9) == codepth(J) == 2
        with pytest.raises(ResourceGuardError, match="multidegree box of 9 points exceeds guard 8"):
            codepth(J, max_monomials=8)
        I = mi(ring2, (2, 0), (1, 1), (0, 2))
        for bound in (None, 2, 50):
            with pytest.raises(ResourceGuardError, match="multidegree box of 9 points exceeds guard 8"):
                betti_table(I, bound, max_monomials=8)


def walked_table(I, bound=None):
    """The Betti table of the walk `betti_table` takes when it does not
    read a closed form, row 1 cut at the bound as the walks cut it."""
    bound = mono_degree(I.lcm()) if bound is None else bound
    return _block_sum(I, _walk_points(I, math.prod(e + 1 for e in I.lcm()), bound))


def borel_closure(ring, monos):
    """The least strongly stable (Borel-fixed in characteristic 0) monomial
    ideal containing the monomials: closed under x^u -> x_i x^u / x_j for
    i < j with x_j dividing x^u.  Every such ideal is stable."""
    seen = set(monos)
    todo = list(monos)
    while todo:
        u = todo.pop()
        for j, e in enumerate(u):
            for i in range(j if e else 0):
                w = u[:i] + (u[i] + 1,) + u[i + 1 : j] + (e - 1,) + u[j + 1 :]
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    return MonomialIdeal(ring, list(seen))


@st.composite
def borel_fixed_ideals(draw):
    """The Borel closure of 1-3 monomials of degree 1-4 in 2-4 variables
    over F_2 or F_3."""
    p = draw(st.sampled_from([2, 3]))
    nvars = draw(st.integers(2, 4))
    ring = PolyRing(p, ["x", "y", "z", "w"][:nvars])
    degree = st.integers(1, 4).flatmap(
        lambda d: st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d)
    )
    seeds = draw(st.lists(degree, min_size=1, max_size=3))
    return borel_closure(ring, [tuple(s.count(v) for v in range(nvars)) for s in seeds])


def stable_by_definition(I):
    """Stability tested on every monomial of I up to the lcm degree, not
    only on the generators: x_i x^w / x_m(w) in I for each i < m(w)."""
    for d in range(mono_degree(I.lcm()) + 1):
        for w in monomials_of_degree(I.ring, d):
            if any(w) and I.contains_monomial(w):
                m = max(v for v, e in enumerate(w) if e)
                for i in range(m):
                    moved = w[:i] + (w[i] + 1,) + w[i + 1 : m] + (w[m] - 1,) + w[m + 1 :]
                    if not I.contains_monomial(moved):
                        return False
    return True


class TestEliahouKervaire:
    @given(I=borel_fixed_ideals())
    @settings(max_examples=200, deadline=None)
    def test_matches_both_walks_on_borel_fixed_ideals(self, I):
        assert _is_stable(I, in_order(I))
        for bound in sorted({0, 1, 2, 3, mono_degree(I.lcm())}):
            table = _eliahou_kervaire(I, in_order(I), bound)
            assert [table, table] == walk_tables(I, bound), bound

    @given(I=small_monomial_ideals())
    @settings(max_examples=150, deadline=None)
    def test_stability_test_reads_the_generators_only(self, I):
        if not I.is_zero() and not I.is_unit():
            assert _is_stable(I, in_order(I)) == stable_by_definition(I)

    @given(I=small_monomial_ideals())
    @settings(max_examples=150, deadline=None)
    def test_betti_table_matches_the_walk_on_every_route(self, I):
        # a non-stable ideal read by the formula would differ from its walk
        if I.is_zero():
            return
        for bound in sorted({0, 1, 2, mono_degree(I.lcm())}):
            walked = walked_table(I, bound)
            walked.update(Counter((1, mono_degree(g)) for g in I.gens))
            assert betti_table(I, bound) == walked, bound

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_matches_the_formula_mode_on_powers_of_the_maximal_ideal(self, d, j):
        ring = PolyRing(3, [f"x{v}" for v in range(d)])
        table = betti_table(power_ideal(ring, j))
        rows = [0] * (d + 1)
        for (i, degree), value in table.items():
            assert degree == (j + i - 1 if i else 0)
            rows[i] += value
        assert rows == betti_power_row(d, j)

    def test_stability_follows_the_variable_order(self):
        # (x^2, x y) is stable in the order x, y; in the order y, x the
        # move x y -> y^2 leaves it, whether the order is given as a
        # permutation or as a ring.  The table does not depend on the order
        xy = PolyRing(2, ["x", "y"])
        yx = PolyRing(2, ["y", "x"])
        assert _is_stable(MonomialIdeal(xy, [(2, 0), (1, 1)]), (0, 1))
        assert not _is_stable(MonomialIdeal(xy, [(2, 0), (1, 1)]), (1, 0))
        assert not _is_stable(MonomialIdeal(yx, [(0, 2), (1, 1)]), (0, 1))
        assert betti_table(MonomialIdeal(xy, [(2, 0), (1, 1)])) == betti_table(
            MonomialIdeal(yx, [(0, 2), (1, 1)])
        )


@st.composite
def permuted_lex_ideals(draw):
    """A lex-segment ideal in 2-4 variables over F_2 or F_3: the first r1
    monomials of degree d1 and the first r2 of degree d2 > d1 in lex order,
    which together span a lex segment in every degree, written in a drawn
    order of the variables."""
    p = draw(st.sampled_from([2, 3]))
    nvars = draw(st.integers(2, 4))
    order = draw(st.permutations(range(nvars)))
    ring = PolyRing(p, [["x", "y", "z", "w"][v] for v in order])
    plain = PolyRing(p, ["x", "y", "z", "w"][:nvars])
    d1 = draw(st.integers(1, 3))
    d2 = draw(st.integers(d1 + 1, 4))
    gens = []
    for d in (d1, d2):
        segment = sorted(monomials_of_degree(plain, d), reverse=True)
        gens += segment[: draw(st.integers(1, len(segment)))]
    return MonomialIdeal(ring, [tuple(g[v] for v in order) for g in gens])


class TestStableVariableOrder:
    """`betti_table` tries the given variable order, then the variables by
    their exponent sums per generator degree; the walks are the oracle."""

    def assert_formula_matches_both_walks(self, I):
        def refuse(I, bound):
            raise AssertionError(f"walked {I!r}")

        bounds = sorted({0, 1, 2, mono_degree(I.lcm())})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("frobcalc.koszul._lattice_points", refuse)
            patch.setattr("frobcalc.koszul._box_points", refuse)
            tables = [betti_table(I, bound) for bound in bounds]
        for bound, table in zip(bounds, tables):
            for name, walked in zip(("lattice", "box"), walk_tables(I, bound)):
                walked.update(Counter((1, mono_degree(g)) for g in I.gens))
                assert table == walked, (name, bound)

    def assert_builds_nothing(self, I):
        # the order is a permutation read on I as it is: neither a ring nor
        # an ideal is built to test it
        built = []

        def spy(cls):
            init = cls.__init__

            def spied(self, *args, **kwargs):
                built.append(cls.__name__)
                init(self, *args, **kwargs)
            return spied

        with pytest.MonkeyPatch.context() as patch:
            for cls in (PolyRing, MonomialIdeal):
                patch.setattr(cls, "__init__", spy(cls))
            betti_table(I)
            if min(map(mono_degree, I.gens)) >= 2:
                codepth(I)
        assert built == []

    def test_stable_once_y_comes_first(self):
        # (y^2, x y) is not stable in the order x, y: x y -> x^2 leaves it
        I = MonomialIdeal(PolyRing(2, ["x", "y"]), [(0, 2), (1, 1)])
        assert not _is_stable(I, (0, 1))
        self.assert_formula_matches_both_walks(I)

    def test_the_stable_route_builds_no_ring_or_ideal(self):
        self.assert_builds_nothing(MonomialIdeal(PolyRing(2, ["x", "y"]), [(0, 2), (1, 1)]))

    def test_the_given_order_is_tried_first(self):
        # (x^2, x y, y^3) is stable as given, but y has the larger exponent
        # sum, 4 against 3, and with y first the move x y -> y^2 leaves it
        I = MonomialIdeal(PolyRing(3, ["x", "y"]), [(2, 0), (1, 1), (0, 3)])
        assert not _is_stable(I, (1, 0))
        self.assert_formula_matches_both_walks(I)

    def test_degrees_are_compared_lowest_first(self):
        # (x^3, x^2 y^3, x y^4, y^5) written y, x: the total exponent sums,
        # 12 for y against 6 for x, would keep y first, which is not stable
        I = MonomialIdeal(PolyRing(2, ["y", "x"]), [(0, 3), (3, 2), (4, 1), (5, 0)])
        assert not _is_stable(I, (0, 1))
        self.assert_formula_matches_both_walks(I)

    @given(I=permuted_lex_ideals())
    @settings(max_examples=150, deadline=None)
    def test_lex_segment_ideals_in_any_order(self, I):
        self.assert_formula_matches_both_walks(I)

    @given(I=permuted_lex_ideals())
    @settings(max_examples=50, deadline=None)
    def test_lex_segment_ideals_build_no_ring_or_ideal(self, I):
        self.assert_builds_nothing(I)


def random_artinian_ideal(rng):
    """A pure power of each of 1-4 variables, of degree 2-4, and up to four
    more generators of degree 2-4."""
    nvars = rng.randint(1, 4)
    ring = PolyRing(rng.choice([2, 3, 5]), ["x", "y", "z", "w"][:nvars])
    gens = [tuple(rng.randint(2, 4) if w == v else 0 for w in range(nvars)) for v in range(nvars)]
    for _ in range(rng.randint(0, 4)):
        u = [0] * nvars
        for _ in range(rng.randint(2, 4)):
            u[rng.randrange(nvars)] += 1
        gens.append(tuple(u))
    return MonomialIdeal(ring, gens)


class TestClosedFormCodepth:
    def test_matches_the_walk_on_the_corpus(self):
        for I, _ci in corpus_ideals(p=2):
            if not I.is_zero():
                assert codepth(I) == max(i for i, _d in walked_table(I)), I

    def test_matches_the_walk_on_random_artinian_ideals(self):
        rng = random.Random(26)
        for _ in range(300):
            I = random_artinian_ideal(rng)
            assert I.is_artinian()
            assert codepth(I) == max(i for i, _d in walked_table(I)) == I.ring.nvars, I


@st.composite
def monomial_regular_sequences(draw):
    """Monomials on pairwise disjoint sets of variables, exponents 1-3, in
    1-4 variables over F_2 or F_3; some variables may be left out."""
    p = draw(st.sampled_from([2, 3]))
    nvars = draw(st.integers(1, 4))
    ring = PolyRing(p, ["x", "y", "z", "w"][:nvars])
    # each variable goes to one of four generators or to none (-1)
    owner = draw(st.lists(st.integers(-1, 3), min_size=nvars, max_size=nvars))
    gens = []
    for g in sorted(set(owner) - {-1}):
        gens.append(tuple(draw(st.integers(1, 3)) if o == g else 0 for o in owner))
    return MonomialIdeal(ring, gens)


class TestKoszulTable:
    @given(I=monomial_regular_sequences())
    @settings(max_examples=200, deadline=None)
    def test_matches_both_walks_at_every_bound(self, I):
        for bound in range(mono_degree(I.lcm()) + 1):
            table = koszul_counts([mono_degree(g) for g in I.gens], bound)
            assert [table, table] == walk_tables(I, bound), bound

    def test_counts_generator_sets_by_degree(self):
        # x^2, y^3, z w: the sets {}, {x^2}, {y^3}, {zw}, {x^2, y^3},
        # {x^2, zw}, {y^3, zw} and all three, of degrees 0, 2, 3, 2, 5, 4, 5, 7
        degrees = [mono_degree(g) for g in ((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 1))]
        assert koszul_counts(degrees, 7) == {(0, 0): 1, (1, 2): 2, (1, 3): 1, (2, 4): 1, (2, 5): 2, (3, 7): 1}
        assert koszul_counts(degrees, 4) == {(0, 0): 1, (1, 2): 2, (1, 3): 1, (2, 4): 1}


class TestWalkSpy:
    """Inputs a theorem answers never enter either Koszul walk."""

    @pytest.fixture(autouse=True)
    def no_walk(self, monkeypatch):
        def refuse(I, *bounds):
            raise AssertionError(f"walked {I!r}")

        for walk in ("_walk_points", "_lattice_points", "_box_points"):
            monkeypatch.setattr(f"frobcalc.koszul.{walk}", refuse)

    @pytest.mark.parametrize("d, j", [(2, 2), (3, 3), (4, 2), (6, 2), (3, 5)])
    def test_powers_of_the_maximal_ideal(self, d, j):
        I = power_ideal(PolyRing(2, [f"x{v}" for v in range(d)]), j)
        assert max(i for i, _d in betti_table(I)) == codepth(I) == d

    def test_monomial_complete_intersections(self):
        for I, ci in corpus_ideals(p=3):
            if ci is not None:
                assert codepth(I) == ci
                assert max(i for i, _d in betti_table(I)) == ci
                assert generation_exponent(I) == (2 if ci >= 3 else 1)

    @pytest.mark.parametrize("subcommand, vars_, ideal, result", [
        ("codepth", "x,y,z", "x^2, y^3, z^2", {"codepth": 3, "depth": 0}),
        ("codepth", "x,y,z", "x^2, x*y, y^2, z^9", {"codepth": 3, "depth": 0}),
        ("codepth", "x,y,z,w", "x*y, z^3*w", {"codepth": 2, "depth": 2}),
        ("genexp", "x,y,z", "x^2, y^2, z^2", {"generation_exponent": 2}),
        ("genexp", "x,y,z,w", "x*y*z*w", {"generation_exponent": 1}),
    ])
    def test_codepth_and_genexp_answer_under_any_guard(self, capsys, subcommand, vars_, ideal, result):
        argv = [subcommand, "--char", "2", "--vars", vars_, "--ideal", ideal, "--max-monomials", "1"]
        assert run(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"] == result

    @pytest.mark.parametrize("subcommand", ["codepth", "betti"])
    def test_the_guard_never_picks_the_route(self, capsys, subcommand):
        # (x y, y^2) is stable with y first; its box has 6 points and
        # k^2 N = 8, so a guard of 6 admits it and must not turn the
        # Eliahou-Kervaire route into a walk
        argv = [subcommand, "--char", "2", "--vars", "x,y", "--ideal", "x*y, y^2", "--json"]
        reports = []
        for guard in ([], ["--max-monomials", "6"]):
            assert run(argv + guard) == 0
            envelope = json.loads(capsys.readouterr().out)
            envelope.pop("timing_seconds")
            reports.append(envelope)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("guard", [10**7, 2 * 10**7])
    def test_a_stable_ideal_past_k2n_is_tested(self, guard):
        # y m^2999 in x, y is stable with y first: 3000 generators, so
        # k^2 N = 1.8 * 10^7 is past the stability budget, yet the test
        # needs one scan and 3000 set lookups.  Its box has 9.0 * 10^6
        # points, whose walk takes minutes.
        ring = PolyRing(2, ["x", "y"])
        I = MonomialIdeal(ring, [(2999 - b, b + 1) for b in range(3000)])
        assert betti_table(I, max_monomials=guard) == {(0, 0): 1, (1, 3000): 3000, (2, 3001): 2999}
        assert codepth(I, max_monomials=guard) == 2


class TestCodepth:
    def test_zero_iff_regular_on_corpus(self):
        seen_nonzero = 0
        for I, _ci in corpus_ideals(p=2):
            c = codepth(I)
            assert (c == 0) == I.is_zero()
            seen_nonzero += c > 0
        assert seen_nonzero >= 18

    def test_complete_intersections_have_codepth_t(self):
        for I, ci in corpus_ideals(p=2):
            if ci is not None:
                assert codepth(I) == ci

    def test_named_examples(self, ring2):
        assert codepth(MonomialIdeal.zero(ring2)) == 0
        assert codepth(mi(ring2, (1, 1))) == 1
        assert codepth(mi(ring2, (2, 0), (0, 3))) == 2

    def test_cross_check_against_table(self, ring2):
        I = mi(ring2, (2, 0), (0, 3))
        table = koszul_homology(I, past_the_box(I))
        assert codepth(I) == max(i for (i, _d) in table)

    def test_rejects_linear_generators(self, ring2):
        with pytest.raises(UnsupportedIdealClassError):
            codepth(mi(ring2, (1, 0)))

    def test_value_comes_from_the_whole_table(self, ring2):
        # (x^3, y^4): rows 5 and 6 vanish and both generators lie below 5,
        # but the syzygy in degree 7, the lcm degree, is the top row
        I = mi(ring2, (3, 0), (0, 4))
        assert betti_table(I)[(2, 7)] == 1
        assert codepth(I) == 2

    def test_negative_bound_rejected(self, ring2):
        I = mi(ring2, (1, 1))
        with pytest.raises(ValueError):
            betti_table(I, degree_bound=-1)

    def test_depth(self, capsys):
        # the CLI reports depth = #variables - codepth
        cases = [("x,y,z", "0", 3), ("x,y", "x^2, x*y, y^2", 0), ("x,y", "x*y", 1)]
        for vars_, ideal, depth in cases:
            assert run(["codepth", "--char", "2", "--vars", vars_, "--ideal", ideal, "--json"]) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            assert result == {"codepth": len(vars_.split(",")) - depth, "depth": depth}

    @given(I=small_monomial_ideals())
    @settings(max_examples=80, deadline=None)
    def test_boxed_rows_match_the_unrestricted_table(self, I):
        # codepth visits only the blocks inside the lcm box; the oracle's
        # table, summed up to past the box, predicts its value
        if any(mono_degree(g) < 2 for g in I.gens):
            with pytest.raises(UnsupportedIdealClassError):
                codepth(I)
            return
        full = koszul_homology(I, past_the_box(I))
        assert codepth(I) == max(i for (i, _d) in full)

    @pytest.mark.parametrize("nvars, gens, expected", [
        (5, [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1)], 3),
        (5, [(2, 0, 0, 0, 0), (0, 1, 0, 1, 0), (0, 0, 1, 0, 2)], 3),
        (5, [(1, 0, 1, 0, 0), (0, 2, 0, 0, 1), (1, 1, 0, 1, 0), (0, 0, 2, 1, 0)], 3),
        (6, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1), (1, 0, 1, 0, 1, 0)], 3),
        (6, [(2, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 0, 0, 2, 0, 1), (1, 0, 0, 0, 1, 0)], 4),
        (6, [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1), (1, 1, 1, 0, 0, 0)], 3),
    ])
    def test_non_artinian_ideals_match_the_oracle(self, nvars, gens, expected):
        # the oracle walks every block through two degrees past the box
        I = MonomialIdeal(PolyRing(2, [f"x{v}" for v in range(nvars)]), gens)
        full = koszul_homology(I, mono_degree(I.lcm()) + 2)
        assert full == betti_table(I)
        assert max(i for (i, _d) in full) == codepth(I) == expected


def lattice_side(I):
    """True when `betti_table` walks the lcm lattice of I, False when it
    walks the box, where neither closed form applies."""
    return 2 ** len(I.gens) < math.prod(e + 1 for e in I.lcm())


@st.composite
def walked_ideals(draw, side, nvars=(2, 4)):
    """Generators of degree 2-4 over F_2, F_3 or F_5 on one side of the
    choice between the walks: "lattice", 2-4 random generators in 2-4
    variables, or "box", at least N of the squarefree quadrics and up to
    two more of degree 2 or 3 in N = 3 or 4 variables, their count at
    least log2 of the box count."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(*nvars) if side == "lattice" else st.integers(max(nvars[0], 3), nvars[1]))
    ring = PolyRing(p, [f"x{v}" for v in range(n)])

    def monomials(degree):
        return st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree).map(
            lambda support: tuple(support.count(v) for v in range(n))
        )

    if side == "lattice":
        gens = draw(st.lists(st.integers(2, 4).flatmap(monomials), min_size=2, max_size=4))
    else:
        pool = [m for m in monomials_of_degree(ring, 2) if max(m) == 1]
        pool += draw(st.lists(st.integers(2, 3).flatmap(monomials), max_size=2))
        gens = draw(st.lists(st.sampled_from(pool), min_size=n, unique=True))
    I = MonomialIdeal(ring, gens)
    assume(lattice_side(I) == (side == "lattice"))
    return I


def permuted(I, order):
    """I with its variables written in the given order."""
    ring = PolyRing(I.ring.p, [I.ring.variables[v] for v in order])
    return MonomialIdeal(ring, [tuple(g[v] for v in order) for g in I.gens])


def disjoint_sum(I, J):
    """I + J in the variables of I followed by those of J, renamed apart."""
    n, m = I.ring.nvars, J.ring.nvars
    ring = PolyRing(I.ring.p, [f"x{v}" for v in range(n + m)])
    return MonomialIdeal(ring, [g + (0,) * m for g in I.gens] + [(0,) * n + h for h in J.gens])


def convolved(s, t):
    """The Betti table of a tensor product of resolutions: entries of s
    and t multiplied, homological degrees and internal degrees added."""
    out = Counter()
    for (i, d), a in s.items():
        for (j, e), b in t.items():
            out[(i + j, d + e)] += a * b
    return dict(out)


def term_text(names, u, c=1):
    """c x^u written for --ideal, with no zero exponent."""
    factors = [f"{x}^{e}" if e > 1 else x for x, e in zip(names, u) if e]
    return "*".join(([str(c)] if c != 1 else []) + factors)


@st.composite
def artinian_texts(draw, prefix):
    """(variable names, generator texts) of an artinian monomial ideal in
    1-3 variables named prefix0, prefix1, ...: a pure power of degree 1-4
    of each, and up to three more generators of degree 1-4."""
    n = draw(st.integers(1, 3))
    names = [f"{prefix}{v}" for v in range(n)]
    gens = [tuple(draw(st.integers(1, 4)) if w == v else 0 for w in range(n)) for v in range(n)]
    for degree in draw(st.lists(st.integers(1, 4), max_size=3)):
        support = draw(st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree))
        gens.append(tuple(support.count(v) for v in range(n)))
    return names, [term_text(names, u) for u in gens]


@st.composite
def form_texts(draw, prefix, p):
    """(variable names, text) of a nonzero form over F_p of degree 1-3 in
    1-2 variables named prefix0, prefix1, ..."""
    n = draw(st.integers(1, 2))
    names = [f"{prefix}{v}" for v in range(n)]
    degree = draw(st.integers(1, 3))
    monomials = [u for u in product(range(degree + 1), repeat=n) if sum(u) == degree]
    coefficients = draw(st.lists(st.integers(0, p - 1), min_size=len(monomials), max_size=len(monomials)))
    assume(any(coefficients))
    return names, " + ".join(term_text(names, u, c) for u, c in zip(monomials, coefficients) if c)


def cli_result(subcommand, char, names, gens, *extra):
    """The result of one `--json` run through `cli.run`, which must exit 0."""
    argv = [subcommand, "--char", str(char), "--vars", ",".join(names), "--ideal", ", ".join(gens), *extra]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(argv + ["--json"]) == 0, argv
    return json.loads(out.getvalue())["result"]


class TestMetamorphicRelations:
    """Relations between the invariants of related ideals: Betti tables and
    codepth on ideals drawn on both sides of the choice between the walks,
    Loewy lengths and splitting through the command line."""

    @pytest.mark.parametrize("side", ["lattice", "box"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_permuting_the_variables_changes_nothing(self, side, data):
        I = data.draw(walked_ideals(side))
        J = permuted(I, data.draw(st.permutations(range(I.ring.nvars))))
        table = betti_table(I)
        assert betti_table(J) == table
        assert codepth(J) == codepth(I) == max(i for i, _d in table)

    @pytest.mark.parametrize("sides", [("lattice", "lattice"), ("lattice", "box"), ("box", "box")])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ideals_in_disjoint_variables(self, sides, data):
        # S/(I + J) is the tensor product of S_A/I and S_B/J: resolutions
        # tensor, so Betti tables convolve and projective dimensions add
        I, J = (data.draw(walked_ideals(side, nvars=(2, 3))) for side in sides)
        both = disjoint_sum(I, J)
        assert betti_table(both) == convolved(betti_table(I), betti_table(J))
        assert codepth(both) == codepth(I) + codepth(J)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_loewy_lengths_add_in_disjoint_variables(self, data):
        # S/(I + J) is S_A/I (x) S_B/J, whose top degree is the sum of theirs
        p = data.draw(st.sampled_from([2, 3, 5]))
        (a, I), (b, J) = data.draw(artinian_texts("a")), data.draw(artinian_texts("b"))
        loewy = [cli_result("loewy", p, *side)["loewy_length"] for side in ((a, I), (b, J), (a + b, I + J))]
        assert loewy[2] == loewy[0] + loewy[1] - 1

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_splitting_of_forms_in_disjoint_variables(self, data):
        # Fedder: (f g)^(q-1) lies outside m^[q] exactly when f^(q-1) and
        # g^(q-1) lie outside it, f and g in disjoint variables
        p = data.draw(st.sampled_from([2, 3, 5]))
        e = str(data.draw(st.sampled_from([1, 2])))
        (a, f), (b, g) = data.draw(form_texts("a", p)), data.draw(form_texts("b", p))
        verdicts = [cli_result("fsplit", p, names, gens, "-e", e)["certificate"]["verdict"]
                    for names, gens in ((a, [f]), (b, [g]), (a + b, [f, g]))]
        assert verdicts[2] == (verdicts[0] and verdicts[1])


class TestDifferentialSquaresToZero:
    @pytest.mark.parametrize("gens", [
        [(1, 1)],
        [(2, 0), (1, 1), (0, 2)],
        [(4, 0), (2, 2), (0, 4)],
    ])
    def test_two_variables(self, ring2, gens):
        I = mi(ring2, *gens)
        self._check(I, degree_bound=8)

    def test_three_variables(self):
        ring = PolyRing(3, ["x", "y", "z"])
        I = MonomialIdeal(ring, [(2, 0, 0), (0, 2, 0), (1, 0, 1)])
        self._check(I, degree_bound=7)

    @given(I=small_monomial_ideals())
    @settings(max_examples=60, deadline=None)
    def test_random_ideals_past_the_box(self, I):
        self._check(I, degree_bound=mono_degree(I.lcm()) + 1)

    @staticmethod
    def _check(I, degree_bound):
        assert_blocks_square_to_zero(I, degree_bound)


class TestEulerCharacteristic:
    def test_degreewise_identity(self):
        # rank-nullity: alternating sum of chain dims = alternating sum of
        # homology dims in every internal degree
        for I, _ci in corpus_ideals(p=3):
            if I.is_zero():
                continue
            bound = past_the_box(I)
            table = koszul_homology(I, bound)
            hf = [len(level) for level in I.staircase(bound)]
            for d in range(bound + 1):
                # (K_i)_d has a basis e_J (x) u: an i-subset J times a
                # standard monomial u of degree d - i
                chain = sum(
                    (-1) ** i * math.comb(I.ring.nvars, i) * hf[d - i]
                    for i in range(min(I.ring.nvars, d) + 1)
                )
                hom = sum(
                    (-1) ** i * table.get((i, d), 0) for i in range(I.ring.nvars + 1)
                )
                assert chain == hom


class TestBettiFormula:
    def test_square_of_max_ideal_two_vars(self):
        assert betti_power_formula(2, 2, 1) == 3
        assert betti_power_formula(2, 2, 2) == 2
        assert betti_power_formula(2, 2, 0) == 1

    @pytest.mark.parametrize("j", [1, 2, 3, 5, 9])
    def test_one_variable(self, j):
        assert betti_power_formula(1, j, 1) == 1
        assert betti_power_formula(1, j, 2) == 0

    def test_vanishing_beyond_dimension(self):
        assert betti_power_formula(3, 4, 4) == 0

    def test_first_betti_counts_generators(self):
        # m^j in d variables has C(j+d-1, d-1) generators
        for d in (1, 2, 3):
            for j in (1, 2, 3, 4):
                assert betti_power_formula(d, j, 1) == math.comb(j + d - 1, d - 1)

    def test_matches_the_factorial_product(self):
        for d in range(1, 30):
            for j in range(1, 8):
                for i in range(d + 2):
                    assert betti_power_formula(d, j, i) == betti_by_factorials(d, j, i), (d, j, i)

    def test_row_guard_counts_word_operations(self):
        # 3 entries of at most 3 one-word operations each
        assert betti_power_row(3, 2, max_monomials=9) == [1, 6, 8, 3]
        with pytest.raises(ResourceGuardError, match="^the Betti row may need 9 word operations, over the guard 8$"):
            betti_power_row(3, 2, max_monomials=8)
        # 2000^2 operations on numbers of 4004 bits, refused before any entry
        with pytest.raises(ResourceGuardError, match="need 252000000 word operations"):
            betti_power_row(2000, 2)
        # d is checked before the guard: a negative d is a usage error
        with pytest.raises(ValueError, match="need d >= 1"):
            betti_power_row(-1, 2, max_monomials=-1)


def betti_by_factorials(d, j, i):
    """b_i of S/m^j as (j+d-1)! / ((j-1)! (d-i)! (i-1)! (j+i-1)) for
    1 <= i <= d: the product formula the binomial form replaced."""
    if i == 0:
        return 1
    if i > d:
        return 0
    num = math.prod(range(j, j + d))
    den = math.factorial(d - i) * math.factorial(i - 1) * (j + i - 1)
    assert num % den == 0
    return num // den


def power_ideal(ring, j):
    return MonomialIdeal(ring, monomials_of_degree(ring, j))


def kernel(columns, p):
    """F_p basis of the kernel of the linear map sending basis vector g to
    the sparse vector columns[g], as dicts g -> coefficient: the columns are
    row-reduced, each tagged with the basis vector it came from, and a row
    whose pivot is a tag is a relation (image keys sort before tags)."""
    space = Span(p)
    for g, col in columns.items():
        space.add({(0, h): c for h, c in col.items()} | {(1, g): 1})
    return [
        {g: c for (_, g), c in row.items()}
        for (part, _), row in space.rows.items()
        if part == 1
    ]


def brute_betti(I, degree_bound=None):
    """Oracle for `betti_table`: the graded Betti table of a minimal free
    resolution of S/I over S, computed step by step.

    Returns {(i, d): beta_{i,d}}: every generator of I at i = 1, and the
    higher steps through internal degree `degree_bound` (default: the
    degree of the lcm L of the generators).  Every free module carries a
    multigrading, and all its minimal generators lie in the box [0, L]
    (Taylor bound).  Each step walks the box in order of |b|: the map at b
    has one column per free generator of multidegree <= b, and the new
    minimal generators at b are its kernel modulo the kernels at b - e_v
    (multiplied by x_v, which keeps the coordinates).
    """
    betti = {(0, 0): 1}
    top = I.lcm()
    bound = mono_degree(top) if degree_bound is None else min(degree_bound, mono_degree(top))

    # step 1: the columns of F_1 -> F_0 = S are the minimal generators of I
    degs = list(I.gens)
    cols = [{0: 1} for _ in degs]
    for a in degs:
        betti[(1, mono_degree(a))] = betti.get((1, mono_degree(a)), 0) + 1
    step = 1
    while True:
        degs, cols = _minimal_syzygies(top, bound, degs, cols, I.ring.p)
        if not degs:
            return betti
        step += 1
        for a in degs:
            betti[(step, mono_degree(a))] = betti.get((step, mono_degree(a)), 0) + 1


def _box_level(top, d):
    """Points b of the box 0 <= b <= top with |b| = d."""
    if not top:
        if d == 0:
            yield ()
        return
    rest = sum(top[1:])
    for e in range(max(0, d - rest), min(top[0], d) + 1):
        for tail in _box_level(top[1:], d - e):
            yield (e,) + tail


def _minimal_syzygies(top, bound, degs, cols, p):
    """Minimal generators of the kernel of the map sending free generator g,
    of multidegree degs[g], to cols[g], at every b <= top with |b| <= bound:
    their multidegrees and their columns (dicts g -> coefficient)."""
    new_degs = []
    new_cols = []
    below = {}  # b -> kernel basis at b, one degree down
    for d in range(bound + 1):
        level = {}
        for b in _box_level(top, d):
            present = {g: cols[g] for g, a in enumerate(degs) if all(x <= y for x, y in zip(a, b))}
            ker = kernel(present, p)
            span = Span(p)
            for v, e in enumerate(b):
                if e:
                    for vec in below[b[:v] + (e - 1,) + b[v + 1 :]]:
                        span.add(vec)
            for vec in ker:
                if span.add(vec):
                    new_degs.append(b)
                    new_cols.append(vec)
            level[b] = ker
        below = level
    return new_degs, new_cols


class TestBruteBetti:
    """`betti_table` (Koszul blocks in the lcm box) against known tables
    and the minimal-resolution oracle `brute_betti`."""

    def test_principal_ideal_single_step(self):
        ring = PolyRing(2, ["x"])
        assert betti_table(MonomialIdeal(ring, [(1,)])) == {(0, 0): 1, (1, 1): 1}

    def test_square_of_max_ideal(self, ring2):
        table = betti_table(mi(ring2, (2, 0), (1, 1), (0, 2)))
        assert table == {(0, 0): 1, (1, 2): 3, (2, 3): 2}

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_matches_formula_with_twists(self, d, j):
        ring = PolyRing(2, [f"x{i}" for i in range(d)])
        expected = {(0, 0): 1}
        for i in range(1, d + 1):
            b = betti_power_formula(d, j, i)
            if b:
                expected[(i, j + i - 1)] = b
        assert betti_table(power_ideal(ring, j)) == expected
        assert brute_betti(power_ideal(ring, j)) == expected

    def test_koszul_homology_equals_betti_table(self):
        # Tor commutes: Koszul homology ranks of R equal the graded Betti
        # numbers of S/I, computed by the independent resolution route.
        for gens in [[(1, 1)], [(2, 0), (1, 1), (0, 2)], [(2, 0), (0, 3)]]:
            ring = PolyRing(3, ["x", "y"])
            I = MonomialIdeal(ring, gens)
            bound = past_the_box(I)
            table = koszul_homology(I, bound)
            assert table == brute_betti(I) == betti_table(I)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tor_symmetry_on_random_ideals(self, data):
        # the two routes share only the F_p eliminator
        p = data.draw(st.sampled_from([2, 3, 5]))
        nvars = data.draw(st.integers(1, 4))
        ring = PolyRing(p, ["x", "y", "z", "w"][:nvars])
        degree = st.integers(2, 3).flatmap(
            lambda d: st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d)
        )
        gens = []
        for support in data.draw(st.lists(degree, min_size=1, max_size=5)):
            gens.append(tuple(support.count(v) for v in range(nvars)))
        I = MonomialIdeal(ring, gens)
        full = brute_betti(I)
        assert koszul_homology(I, past_the_box(I)) == full
        for bound in {0, 1, mono_degree(I.lcm()) - 1}:
            expected = {(i, d): v for (i, d), v in full.items() if i <= 1 or d <= bound}
            assert brute_betti(I, bound) == expected

    @given(I=small_monomial_ideals())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_resolution_oracle_at_every_bound(self, I):
        for bound in [None, *range(mono_degree(I.lcm()) + 2)]:
            assert betti_table(I, bound) == brute_betti(I, bound), bound

    def test_alternating_hilbert_identity(self, ring2):
        # sum_i (-1)^i sum_d beta_{i,d} dim S_{D-d} = dim (S/I)_D
        I = mi(ring2, (4, 0), (2, 2), (0, 4))
        betti = betti_table(I)
        hf = [len(level) for level in I.staircase(12)]
        for D in range(13):
            lhs = sum(
                (-1) ** i * v * math.comb(D - d + 1, 1)
                for (i, d), v in betti.items()
                if D - d >= 0
            )
            assert lhs == hf[D]


def dict_matrix_strand_check(ell, j, steps, char):
    """Oracle for `strand_check`: both maps of every degree built as dict
    columns, the composite formed by nested loops over them and both ranks
    taken by `rank`.  No argument checks and no guard."""
    p = char
    b1 = j + 1
    b2 = j
    rows = []
    exact = True
    alt_zero = True
    for s in range(steps + 1):
        m = j + ell * s
        k = m - j
        dim_left = b2 * k
        dim_mid = b1 * (k + 1)
        dim_right = m + 1

        def mid(t, xdeg):
            # the middle basis (t, u), u = x^xdeg y^(k-xdeg), grouped by t
            # with xdeg descending
            return t * (k + 1) + (k - xdeg)

        # right map: (t, u) -> u * x^(j-t) y^t, keyed by the y-degree
        right = {mid(t, a): {m - a - (j - t): 1} for t in range(b1) for a in range(k + 1)}
        # left map: (r, w) -> w*y e_r - w*x e_{r+1}, w = x^a y^(k-1-a)
        left = [{mid(r, a): 1, mid(r + 1, a + 1): p - 1} for r in range(b2) for a in range(k)]
        composite_zero = True
        for col in left:
            image = {}
            for key, c in col.items():
                for row, v in right[key].items():
                    image[row] = (image.get(row, 0) + c * v) % p
            composite_zero = composite_zero and not any(image.values())
        rank_a = rank(left, p)
        rank_b = rank(right.values(), p)
        ok = composite_zero and rank_a == dim_left and rank_b == dim_right and rank_a + rank_b == dim_mid
        alt = dim_left - dim_mid + dim_right
        exact = exact and ok
        alt_zero = alt_zero and alt == 0
        rows.append(
            {
                "degree": m,
                "dims": [dim_left, dim_mid, dim_right],
                "rank_left": rank_a,
                "rank_right": rank_b,
                "composite_zero": composite_zero,
                "exact": ok,
                "alternating_sum": alt,
            }
        )
    return StrandCheck(ell, j, char, b1, b2, rows, exact, alt_zero)


class TestStrandExactness:
    def test_matches_the_dict_matrix_oracle(self):
        # every ell in 2..7, every class j, steps 0..8 and four primes,
        # then every case a golden, the benchmark or acceptance criterion 12
        # prints: the oracle is the one place the maps are built
        cases = 0
        for ell in range(2, 8):
            for j in range(1, ell):
                for steps in range(9):
                    for char in (2, 3, 5, 7):
                        assert strand_check(ell, j, steps, char) == dict_matrix_strand_check(ell, j, steps, char)
                        cases += 1
        assert cases == 756
        for ell, j, steps, char in [(3, 1, 8, 2), (5, 3, 12, 3), (6, 2, 12, 5), (9, 4, 30, 5)]:
            assert strand_check(ell, j, steps, char) == dict_matrix_strand_check(ell, j, steps, char)

    @pytest.mark.parametrize("ell,j", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_exactness(self, ell, j):
        report = strand_check(ell, j)
        assert report.exact
        assert report.alternating_sums_zero
        assert report.b1 == j + 1
        assert report.b2 == j

    def test_rank_bookkeeping_recorded(self):
        report = strand_check(2, 1, steps=4)
        for row in report.rows:
            left, mid, right = row["dims"]
            assert row["rank_left"] == left
            assert row["rank_right"] == right
            assert left - mid + right == 0

    @pytest.mark.parametrize("char", [2, 3, 5])
    def test_char_independent(self, char):
        assert strand_check(3, 2, char=char).exact

    def test_rejects_bad_class(self):
        with pytest.raises(ValueError):
            strand_check(3, 0)
        with pytest.raises(ValueError):
            strand_check(3, 3)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            strand_check(3, 1, steps=-2)

    @pytest.mark.parametrize("char", [2, 3, 5])
    def test_ranks_fill_the_outer_terms(self, char):
        for ell in range(2, 8):
            for j in range(1, ell):
                report = strand_check(ell, j, steps=8, char=char)
                assert report.exact
                for row in report.rows:
                    left, _mid, right = row["dims"]
                    assert row["rank_left"] == left
                    assert row["rank_right"] == right
                    assert row["composite_zero"]

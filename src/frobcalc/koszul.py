"""Koszul complexes on the variables over R = S/I and graded invariants.

For a monomial ideal I the Koszul complex K on the images of the variables
satisfies H_i(K)_b = dim_k Tor_i^S(S/I, k)_b, the multigraded Betti numbers
of S/I over S, so one computation gives the Koszul homology, the codepth
and the graded Betti table.  K is Z^n-graded and splits into blocks:
e_J (x) u has multidegree u + 1_J, and the block at b is fixed by b and
the generators that divide x^b: x^(b - 1_J) lies in I exactly when J lies
in a facet A_g = {v in supp b : g_v < b_v} of a generator g <= b.  The
cells, the J whose e_J (x) x^(b - 1_J) survives in R, are the subsets of
supp b in no facet, kept as bitmasks over the positions of supp b.  The
facets span the upper Koszul simplicial complex K^b(I) (Miller-Sturmfels,
Combinatorial Commutative Algebra, ch. 1); the block is the relative chain
complex of the simplex on supp b modulo it, one test per mask of the
2^|supp b|, and its homology ranks are cell counts minus ranks over F_p.
The block is empty when supp b is itself a facet, and a full simplex,
which is exact, when b != 0 and no generator divides x^b.

Every nonzero block lies in the box [0, L] below the lcm L of the
generators (Taylor bound), and more narrowly on the lcm lattice, the lcms
of sets of generators (Gasharov-Peeva-Welker, "The lcm-lattice in monomial
resolutions", 1999): k generators give at most 2^k such points.

`betti_table` reads the graded Betti table by the first route that
applies, after the box guard:
- generators with pairwise disjoint supports, a monomial regular
  sequence, whose Koszul complex resolves S/I (Tate, "Homology of
  Noetherian rings and local rings", 1957): beta_{i,d}(S/I) is the number
  of i-sets of generators whose degrees sum to d;
- an ideal stable in the ring's variable order or in one other
  (Eliahou-Kervaire, "Minimal resolutions of some monomial ideals", 1990)
  in closed form, beta_{i+1, i+j}(S/I) the sum over the degree-j
  generators u of C(m(u) - 1, i), m(u) the last variable of u; the order
  is a tuple of variable indices, read on the ideal as it is
  (`_stable_order`);
- the blocks at the points of one walk (`_walk_points`): the lattice
  (`_lattice_points`) when 2^k is below the box's prod(L_v + 1) points,
  else the box, b = u + 1_T with u a standard monomial inside the box and
  T a variable set containing supp u (`_box_points`).
The walks are each other's test oracle, and both are the oracle of the
closed forms.  `codepth` (embedding dimension minus depth, the top
nonvanishing homological degree) is N for an artinian quotient
(Auslander-Buchsbaum: depth 0), the number of generators for a monomial
regular sequence (the Koszul complex on it resolves S/I), and the top row
of the table otherwise, read alone: from the last variables of a stable
ideal's generators, or from the blocks at the same points taken widest
first, since the block at b has cells only in degrees <= |supp b|.

`strand_check` reports the degree-class strands of the linear resolution
of m^j in k[x, y] degree by degree, each row in closed form: the
resolution 0 -> S(-j-1)^j -> S(-j)^(j+1) -> m^j -> 0 is exact over every
field (Hilbert-Burch; Eagon-Northcott 1962), which fixes every dim and
rank.  The oracle in `tests/test_koszul.py` builds both maps and ranks
them.  The guard still counts the maps' columns, so it refuses what it
refused when they were formed; a guard on the rows alone is left open.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import chain, combinations
from operator import le

from .errors import ResourceGuardError, UnsupportedIdealClassError
from .ideals import MonomialIdeal, pairwise_disjoint_supports, require_proper
from .modlinalg import rank
from .polyring import DEFAULT_MAX_MONOMIALS, check_degree_bound, count_str, mono_degree


# ---------------------------------------------------------------------------
# Koszul homology

def block_cells(b, gens):
    """Cells of the block of K at multidegree b, ascending, as bitmasks J
    over the positions of supp b (bit t for its t-th variable).

    x^(b - 1_J) lies in I exactly when J lies in a facet
    A_g = {v in supp b : g_v < b_v} of a generator g <= b, so the cells are
    the masks that meet the complement of every facet: none when supp b is
    itself a facet."""
    support = [v for v, e in enumerate(b) if e]
    full = (1 << len(support)) - 1
    outside = {full ^ sum(1 << t for t, v in enumerate(support) if g[v] < b[v])
               for g in gens if all(map(le, g, b))}
    return [] if 0 in outside else [J for J in range(full + 1) if all(map(J.__and__, outside))]


def block_boundary(cells):
    """d on a block, as columns {J: {J minus its t-th set bit: (-1)^t}};
    faces that are not cells have x^(b - 1_face) in I and vanish in R."""
    live = set(cells)
    columns = {}
    for J in cells:
        col = {}
        rest, sign = J, 1
        while rest:
            face = J ^ (rest & -rest)
            if face in live:
                col[face] = sign
            rest &= rest - 1
            sign = -sign
        columns[J] = col
    return columns


def block_homology(b, gens, p):
    """Ranks of H_i over F_p of the block of K at b, i = 0..|supp b|: cell
    counts minus the ranks of d_i and d_(i+1).  [] when b != 0 and no
    generator divides x^b, the one case where the empty set is a cell:
    every mask is then a cell, and the full simplex is exact."""
    cells = block_cells(b, gens)
    if cells[:1] == [0] and any(b):
        return []
    width = len(b) - b.count(0)
    columns = [[] for _ in range(width + 1)]
    for J, col in block_boundary(cells).items():
        columns[J.bit_count()].append(col)
    ranks = [0] * (width + 2)
    for i in range(1, width + 1):
        if columns[i] and columns[i - 1]:
            ranks[i] = rank(columns[i], p)
    return [len(columns[i]) - ranks[i] - ranks[i + 1] for i in range(width + 1)]


def _lattice_points(I, bound):
    """The points b of the lcm lattice of I with |b| <= bound.

    The lattice is {0} closed under lcm with each generator; a point past
    the bound only has points past it above it, so it is dropped as it
    appears.  Some generator divides x^b at every point b != 0, so no full
    simplex is visited."""
    points = {I.ring.unit_monomial()}
    for g in I.gens:
        points |= {m for m in (tuple(map(max, b, g)) for b in points) if sum(m) <= bound}
    return points


def _box_points(I, bound):
    """The points b = u + 1_T <= L = lcm(I) with |b| <= bound, where u runs
    over the standard monomials of I inside the box and T over the
    variable sets containing supp u.

    Every nonzero block is among these: the block at b is empty unless
    u = b - 1_supp b is standard, for otherwise supp b is a facet, b -> (u, T)
    is a bijection, and b <= L means u_v < L_v on supp u and L_v >= 1 on the
    rest of T.  Those u are the standard monomials of I plus a wall
    x_v^max(L_v, 1) for every variable."""
    top = I.lcm()
    n = I.ring.nvars
    walls = [tuple(max(e, 1) if w == v else 0 for w in range(n)) for v, e in enumerate(top)]
    levels = MonomialIdeal(I.ring, I.gens + tuple(walls)).staircase(bound, max_monomials=math.inf)
    for du, level in enumerate(levels):
        for u in level:
            support = [v for v, e in enumerate(u) if e]
            extras = [v for v, e in enumerate(u) if not e and top[v]]
            for k in range(min(len(extras), bound - du - len(support)) + 1):
                for extra in combinations(extras, k):
                    b = list(u)
                    for v in chain(support, extra):
                        b[v] += 1
                    yield tuple(b)


def _walk_points(I, box, bound):
    """The points with |b| <= bound that the Koszul routes walk: the lcm
    lattice, at most 2^k points for k generators, when 2^k is below the
    box's `box` points, else the box; a choice by cost."""
    return _lattice_points(I, bound) if 2 ** len(I.gens) < box else _box_points(I, bound)


def _block_sum(I, points):
    """Nonzero ranks {(i, d): dim H_i(K^R)_d} summed over the blocks at the
    points."""
    p = I.ring.p
    table = {}
    for b in points:
        d = sum(b)
        for i, h in enumerate(block_homology(b, I.gens, p)):
            if h:
                table[(i, d)] = table.get((i, d), 0) + h
    return table


def _lcm_box(I, max_monomials):
    """(L, prod(L_v + 1)): the lcm of the generators and the number of
    points of the box [0, L], refused past `max_monomials`."""
    top = I.lcm()
    box = math.prod(e + 1 for e in top)
    if box > max_monomials:
        raise ResourceGuardError(f"multidegree box of {count_str(box)} points exceeds guard {max_monomials}")
    return top, box


def codepth(I, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Largest i with H_i(K^R) != 0; zero exactly when R is regular.

    Requires I inside the square of the maximal ideal (a minimal
    presentation); callers must pre-reduce linear forms.  Then the codepth
    is pd_S(S/I), the top row of `betti_table`, read by the first route
    that applies:
    - N when S/I is artinian: its depth is 0 (Auslander-Buchsbaum);
    - the number of generators when they have pairwise disjoint supports:
      they form a regular sequence, resolved by their Koszul complex;
    - after the box guard of `betti_table`, for an ideal stable in the
      order `_stable_order` finds, one more than the largest
      `_last_variable` of its generators, the top row of the
      Eliahou-Kervaire table;
    - otherwise the blocks at the `_walk_points` of `betti_table`, widest
      support first.  The block at b has cells only in degrees
      <= |supp b|, and row 1 holds every generator, so the walk starts
      from row 1 and stops once no block left is wider than the best row.

    `max_monomials` bounds the points of the lcm box, as in `betti_table`;
    the two closed forms before it enumerate nothing and answer first.
    """
    if not isinstance(I, MonomialIdeal):
        raise UnsupportedIdealClassError("codepth is computed for monomial ideals")
    require_proper(I)
    if any(mono_degree(g) < 2 for g in I.gens):
        raise UnsupportedIdealClassError(
            "codepth needs I inside m^2; reduce linear generators first"
        )
    if I.is_artinian():
        return I.ring.nvars
    if pairwise_disjoint_supports(I.gens):
        return len(I.gens)
    top, box = _lcm_box(I, max_monomials)
    if order := _stable_order(I):
        return 1 + max(_last_variable(u, order) for u in I.gens)
    best = 1
    points = _walk_points(I, box, mono_degree(top))
    for width, b in sorted(((len(b) - b.count(0), b) for b in points), reverse=True):
        if width <= best:
            break
        homology = block_homology(b, I.gens, I.ring.p)
        best = max(best, max((i for i, h in enumerate(homology) if h), default=0))
    return best


def _last_variable(u, order):
    """m(u) - 1: the position in `order` of the last variable dividing x^u,
    u != 0, for `order` the variable indices, first to last."""
    return max(i for i, v in enumerate(order) if u[v])


def _is_stable(I, order):
    """True when I is stable in `order`: x_v u / x_m lies in I for every
    minimal generator u, x_m its last variable in `order` and every x_v
    before it.  Testing the generators suffices (Eliahou-Kervaire 1990).
    Each test is a set lookup when x_v u / x_m is itself a generator, as
    for every power of the maximal ideal, and a scan of the k generators
    otherwise.  False, a choice by cost that reads the ideal alone, before
    a scan would pass `_STABILITY_STEPS` divisibility tests; at most
    k (N - 1) scans are needed in N variables, so with k^2 N within that
    budget the test always decides."""
    gens = set(I.gens)
    scans = _STABILITY_STEPS // len(I.gens)
    for u in I.gens:
        last = _last_variable(u, order)
        m = order[last]
        for v in order[:last]:
            w = list(u)
            w[v] += 1
            w[m] -= 1
            w = tuple(w)
            if w not in gens:
                scans -= 1
                if scans < 0 or not I.contains_monomial(w):
                    return False
    return True


# the divisibility tests past which `_is_stable` gives up on an order
_STABILITY_STEPS = 10**7


def _stable_order(I):
    """A variable order, as indices first to last, in which I is stable, or
    None: the ring's order, else the variables by their exponent sums over
    the generators of each degree, lowest degree first, larger sums first
    and ties in the ring's order.  The Betti table does not see the order.
    The sums take k N steps, and each `_is_stable` test at most
    `_STABILITY_STEPS` divisibility tests."""
    n = I.ring.nvars
    given = tuple(range(n))
    if _is_stable(I, given):
        return given
    groups = {}
    for g in I.gens:
        groups.setdefault(mono_degree(g), []).append(g)
    sums = [[-sum(g[v] for g in groups[d]) for d in sorted(groups)] for v in given]
    order = tuple(sorted(given, key=sums.__getitem__))
    return order if order != given and _is_stable(I, order) else None


def _koszul_table(I, bound):
    """Nonzero ranks {(i, d): beta_{i,d}(S/I)} with d <= bound for
    generators with pairwise disjoint supports, a regular sequence: their
    Koszul complex resolves S/I (Tate 1957), so beta_{i,d} is the number
    of i-sets of generators whose degrees sum to d.  One generator at a
    time, each set either leaves it out or takes it."""
    table = {(0, 0): 1}
    for g in I.gens:
        j = mono_degree(g)
        for (i, d), count in list(table.items()):
            if d + j <= bound:
                table[(i + 1, d + j)] = table.get((i + 1, d + j), 0) + count
    return table


def _eliahou_kervaire(I, order, bound):
    """Nonzero ranks {(i, d): beta_{i,d}(S/I)} with d <= bound for I stable
    in `order`: beta_{i+1, i+j} is the sum over the generators u of degree
    j of C(m(u) - 1, i), where m(u) - 1 = `_last_variable(u, order)`.  The
    formula holds over every field."""
    table = {(0, 0): 1}
    for u in I.gens:
        j = mono_degree(u)
        m = _last_variable(u, order)
        for i in range(min(m, bound - j) + 1):
            table[(i + 1, i + j)] = table.get((i + 1, i + j), 0) + math.comb(m, i)
    return table


def betti_table(I, degree_bound=None, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Graded Betti table {(i, d): beta_{i,d}} of S/I over S.

    Koszul homology of S/I is Tor^S(S/I, k), so beta_{i,d} is the rank of
    H_i(K^R)_d.  Only degrees d <= min(degree_bound, |L|) are read
    (default bound: |L|), L the lcm of the generators; no Betti number
    lies past |L| (Taylor).  With k minimal generators in N variables and
    a box [0, L] of prod(L_v + 1) points, the table comes from the first
    route that applies:
    - when the generators have pairwise disjoint supports, a regular
      sequence, the count of generator sets by degree (`_koszul_table`);
    - when `_stable_order` finds an order in which I is stable, the
      Eliahou-Kervaire formula (`_eliahou_kervaire`);
    - otherwise the blocks at the `_walk_points`, the lcm-lattice points
      when 2^k is below the box count, else the box's staircase
      (`_block_sum`).
    All four give the same table.  Row i = 1 lists every generator of I
    whatever the bound.

    `max_monomials` bounds the number of points of the box, checked first
    for every route, so the route never decides whether a table is
    refused, and the guard never decides the route.  It bounds every
    standard monomial the box walk keeps, the at most 2^k < box lattice
    points, and the 2^|supp b| <= box masks of each block, so no
    per-degree count is applied.  The fixed `_STABILITY_STEPS` budget of
    each stability test is a choice by cost, like 2^k < box.
    """
    check_degree_bound(degree_bound)
    if I.is_zero():
        return {(0, 0): 1}
    require_proper(I)
    top, box = _lcm_box(I, max_monomials)
    bound = mono_degree(top) if degree_bound is None else min(degree_bound, mono_degree(top))
    if pairwise_disjoint_supports(I.gens):
        betti = _koszul_table(I, bound)
    elif order := _stable_order(I):
        betti = _eliahou_kervaire(I, order, bound)
    else:
        betti = _block_sum(I, _walk_points(I, box, bound))
    betti.update(Counter((1, mono_degree(g)) for g in I.gens))
    return dict(sorted(betti.items()))


# ---------------------------------------------------------------------------
# Betti numbers of powers of the maximal ideal

def betti_power_formula(d, j, i):
    """Betti number b_i of S/m^j for S a polynomial ring in d variables.

    b_0 = 1, b_i = C(j+i-2, i-1) * C(d+j-1, j+i-1) for 1 <= i <= d (the
    Eagon-Northcott count), and 0 beyond; exact integer arithmetic.
    The resolution is linear after the first step: the i-th free module
    (i >= 1) is generated in internal degree j + i - 1.
    """
    if d < 1 or j < 1 or i < 0:
        raise ValueError("need d >= 1, j >= 1, i >= 0")
    if i == 0:
        return 1
    if i > d:
        return 0
    return math.comb(j + i - 2, i - 1) * math.comb(d + j - 1, j + i - 1)


def betti_power_row(d, j, max_monomials=DEFAULT_MAX_MONOMIALS):
    """[b_0, ..., b_d] of S/m^j by `betti_power_formula`, which raises
    ValueError unless d >= 1 and j >= 1.

    The guard counts 64-bit word operations once d and j are checked and
    before any other entry is formed: each of the d entries takes at most
    d multiplications and divisions, on numbers below 2^(2(d+j)) and
    below (d+j)^d."""
    row = [betti_power_formula(d, j, 0)]
    work = d * d * (min(2 * (d + j), d * (d + j).bit_length()) // 64 + 1)
    if work > max_monomials:
        raise ResourceGuardError(
            f"the Betti row may need {count_str(work)} word operations, over the guard {max_monomials}"
        )
    return row + [betti_power_formula(d, j, i) for i in range(1, d + 1)]


# ---------------------------------------------------------------------------
# strand exact sequences for the two-variable Veronese story

class StrandCheck(namedtuple("StrandCheck", "ell j char b1 b2 rows exact alternating_sums_zero")):
    """Exactness report for the degree-class strand of the linear resolution
    of m^j in k[x, y] over the index-ell Veronese subring."""

    __slots__ = ()

    def payload(self):
        return {"ell": self.ell, "class": self.j, "char": self.char, "b1": self.b1, "b2": self.b2,
                "exact": self.exact, "alternating_sums_zero": self.alternating_sums_zero, "rows": self.rows}


def strand_check(ell, j, steps=6, char=2, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Verify exactness of 0 -> G_{ell-1}^b2 -> R^b1 -> G_j -> 0 in k[x,y].

    The sequence is the degree-class-j strand of the linear resolution of
    m^j: generators mu_t = x^(j-t) y^t (t = 0..j) and syzygies
    y mu_t - x mu_{t+1}.  Each row is the S-degree m = j + ell*s piece of
    0 -> S(-j-1)^j -> S(-j)^(j+1) -> m^j -> 0 for s = 0..steps, with
    k = ell*s: dims [j k, (j+1)(k+1), m+1].  The resolution is exact over
    every field (Hilbert-Burch: m^j is the ideal of maximal minors of the
    (j+1) x j syzygy matrix; Eagon-Northcott 1962), so the left map is
    injective, the right map onto (m^j)_m = S_m, the composite zero and
    the alternating sum 0: rank_left = j k and rank_right = m + 1 in every
    characteristic `char`.  The oracle in the tests builds both maps and
    ranks them.

    `max_monomials` bounds the columns of both maps over all the degrees,
    the sum over s of b1*(k+1) + b2*k, checked first, although no map is
    formed; a guard on the rows alone, which would refuse fewer inputs,
    is left open.
    """
    if ell < 2 or not (1 <= j <= ell - 1):
        raise ValueError("need ell >= 2 and 1 <= j <= ell-1")
    if steps < 0:
        raise ValueError("need steps >= 0")
    b1 = j + 1
    b2 = j
    columns = b1 * (steps + 1) + (b1 + b2) * ell * steps * (steps + 1) // 2
    if columns > max_monomials:
        raise ResourceGuardError(f"strand maps with {count_str(columns)} columns exceed guard {max_monomials}")
    rows = []
    for s in range(steps + 1):
        k = ell * s
        m = j + k
        rows.append({"degree": m, "dims": [b2 * k, b1 * (k + 1), m + 1], "rank_left": b2 * k,
                     "rank_right": m + 1, "composite_zero": True, "exact": True, "alternating_sum": 0})
    return StrandCheck(ell, j, char, b1, b2, rows, True, True)

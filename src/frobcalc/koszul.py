"""Koszul complexes on the variables over R = S/I and graded invariants.

For a monomial ideal I the Koszul complex K on the images of the variables
satisfies H_i(K)_d = dim_k Tor_i^S(S/I, k)_d, the graded Betti numbers of
S/I over S.  Both sides are computed here by independent routes:

* `koszul_homology` builds the differentials of K degreewise and takes
  kernel-rank minus image-rank over F_p;
* `brute_betti` computes a minimal graded free resolution of S/I step by
  step, finding minimal kernel generators by linear algebra on graded
  pieces.

The codepth of R (embedding dimension minus depth) is the top nonvanishing
homological degree of K.  Monomial ideals have all Betti numbers in
internal degrees at most deg(lcm of the generators) -- the Taylor complex
bound -- which makes the truncation below safe; a runtime verification
band double-checks it anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import UnsupportedIdealClassError, VerificationError
from .ideals import MonomialIdeal
from .modlinalg import RowSpace, nullspace_mod, rank_mod
from .polyring import (
    DEFAULT_MAX_MONOMIALS,
    mono_degree,
    mono_mul,
    monomials_of_degree,
)


# ---------------------------------------------------------------------------
# Koszul homology

def koszul_basis(I, i, d, std_cache, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Basis of the internal-degree-d piece of K_i: pairs (J, u) with J an
    i-subset of the variables and u a standard monomial of degree d - i."""
    nv = I.ring.nvars
    if i < 0 or i > nv or d - i < 0:
        return []
    if d - i not in std_cache:
        std_cache[d - i] = I.standard_monomials(d - i, max_monomials=max_monomials)
    std = std_cache[d - i]
    return [(J, u) for J in combinations(range(nv), i) for u in std]


def koszul_differential(I, i, d, std_cache, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Matrix of d_i : (K_i)_d -> (K_{i-1})_d over F_p.

    Rows are indexed by the (i-1, d) basis, columns by the (i, d) basis.
    d(e_J (x) u) = sum over positions t of (-1)^t x_{j_t} e_{J minus j_t} (x) u,
    with the product x_{j_t} u reduced in R (zero when it lands in I).
    """
    p = I.ring.p
    dom = koszul_basis(I, i, d, std_cache, max_monomials)
    cod = koszul_basis(I, i - 1, d, std_cache, max_monomials)
    A = np.zeros((len(cod), len(dom)), dtype=np.int64)
    if not dom or not cod:
        return A, dom, cod
    cod_index = {key: r for r, key in enumerate(cod)}
    nv = I.ring.nvars
    for col, (J, u) in enumerate(dom):
        for t, jt in enumerate(J):
            target = list(u)
            target[jt] += 1
            target = tuple(target)
            if I.contains_monomial(target):
                continue
            row = cod_index[(tuple(x for x in J if x != jt), target)]
            A[row, col] = (A[row, col] + (-1) ** t) % p
    return A, dom, cod


@dataclass
class HomologyTable:
    """Ranks of H_i(K^R) indexed by (homological degree, internal degree)."""

    nvars: int
    bound: int
    entries: dict = field(default_factory=dict)  # (i, d) -> rank, only nonzero kept

    def rank(self, i, d):
        return self.entries.get((i, d), 0)

    def row_is_zero(self, d):
        return not any(key[1] == d for key in self.entries)

    def top_degree(self):
        """Largest homological i with nonzero homology (0 when only H_0)."""
        positive = [i for (i, _d) in self.entries if i >= 1]
        return max(positive) if positive else 0

    def payload(self):
        return {
            "bound": self.bound,
            "entries": [
                {"i": i, "degree": d, "rank": r}
                for (i, d), r in sorted(self.entries.items())
            ],
        }


def koszul_homology(I, degree_bound, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Exact ranks of H_i(K^R)_d for all i and all d <= degree_bound."""
    ring = I.ring
    if I.is_unit():
        raise UnsupportedIdealClassError("the quotient by the unit ideal is zero")
    nv = ring.nvars
    p = ring.p
    table = HomologyTable(nvars=nv, bound=degree_bound)
    for d in range(degree_bound + 1):
        std_cache = {}
        dims = {}
        ranks = {}
        for i in range(nv + 2):
            dims[i] = len(koszul_basis(I, i, d, std_cache, max_monomials))
        for i in range(1, nv + 2):
            if dims[i] == 0 or dims[i - 1] == 0:
                ranks[i] = 0
                continue
            A, _, _ = koszul_differential(I, i, d, std_cache, max_monomials)
            ranks[i] = rank_mod(A, p)
        ranks[0] = 0
        for i in range(nv + 1):
            h = dims[i] - ranks[i] - ranks.get(i + 1, 0)
            if h:
                table.entries[(i, d)] = h
    return table


def default_codepth_bound(I):
    """deg(lcm of generators) plus enough headroom for a two-row zero band."""
    return I.lcm_degree() + max(2, I.ring.nvars)


def codepth(I, degree_bound=None, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Largest i with H_i(K^R) != 0; zero exactly when R is regular.

    Requires I inside the square of the maximal ideal (a minimal
    presentation); callers must pre-reduce linear forms.  The truncation
    bound is verified at runtime: the two top degree rows of the computed
    table must vanish, otherwise the bound is flagged insufficient.
    """
    if not isinstance(I, MonomialIdeal):
        raise UnsupportedIdealClassError("codepth is computed for monomial ideals")
    if any(mono_degree(g) < 2 for g in I.gens):
        raise UnsupportedIdealClassError(
            "codepth needs I inside m^2; reduce linear generators first"
        )
    bound = default_codepth_bound(I) if degree_bound is None else degree_bound
    table = koszul_homology(I, bound, max_monomials=max_monomials)
    if not (table.row_is_zero(bound) and table.row_is_zero(bound - 1)):
        raise VerificationError(
            f"truncation bound {bound} insufficient: homology persists in the "
            "verification band; rerun with a larger degree bound"
        )
    return table.top_degree()


def depth_from_codepth(I, degree_bound=None, max_monomials=DEFAULT_MAX_MONOMIALS):
    """depth R = #variables - codepth R."""
    return I.ring.nvars - codepth(I, degree_bound, max_monomials=max_monomials)


# ---------------------------------------------------------------------------
# Betti numbers of powers of the maximal ideal

def betti_power_formula(d, j, i):
    """Betti number b_i of S/m^j for S a polynomial ring in d variables.

    b_0 = 1, b_i(j) = (j+d-1)! / ((j-1)! (d-i)! (i-1)! (j+i-1)) for
    1 <= i <= d, and 0 beyond; exact integer arithmetic throughout.
    The resolution is linear after the first step: the i-th free module
    (i >= 1) is generated in internal degree j + i - 1.
    """
    if d < 1 or j < 1 or i < 0:
        raise ValueError("need d >= 1, j >= 1, i >= 0")
    if i == 0:
        return 1
    if i > d:
        return 0
    num = 1
    for t in range(j, j + d):  # (j+d-1)! / (j-1)!
        num *= t
    den = math.factorial(d - i) * math.factorial(i - 1) * (j + i - 1)
    q, r = divmod(num, den)
    assert r == 0, "formula should be an exact integer"
    return q


def _column_times_monomial(col, u):
    return {(h, mono_mul(m, u)): c for (h, m), c in col.items()}


def brute_betti(I, degree_bound=None, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Graded Betti table of the minimal free resolution of S/I over S.

    Returns {(i, d): beta_{i,d}}.  Computed degreewise: at each homological
    step, the kernel of the current presentation matrix is found in every
    internal degree up to the bound, and minimal generators are the kernel
    vectors independent of the span of the previous degree's kernel shifted
    by the variables.
    """
    ring = I.ring
    p = ring.p
    betti = {(0, 0): 1}
    if I.is_zero():
        return betti
    if I.is_unit():
        raise UnsupportedIdealClassError("S/I is zero for the unit ideal")
    bound = I.lcm_degree() if degree_bound is None else degree_bound

    # step 1: columns of F_1 -> F_0 = S are the minimal generators of I
    prev_degs = [0]
    cur_degs = [mono_degree(g) for g in I.gens]
    cur_cols = [{(0, g): 1} for g in I.gens]
    for a in cur_degs:
        betti[(1, a)] = betti.get((1, a), 0) + 1

    step = 1
    while step <= ring.nvars + 1:
        new_degs, new_cols = _minimal_syzygies(
            ring, prev_degs, cur_degs, cur_cols, bound, max_monomials
        )
        if not new_degs:
            break
        step += 1
        for a in new_degs:
            betti[(step, a)] = betti.get((step, a), 0) + 1
        prev_degs, cur_degs, cur_cols = cur_degs, new_degs, new_cols
    return betti


def _minimal_syzygies(ring, prev_degs, cur_degs, cur_cols, bound, max_monomials):
    """Minimal generators of ker(F -> G) for the graded map with the given
    column dictionaries, through internal degree `bound`."""
    p = ring.p
    new_degs = []
    new_cols = []
    prev_kernel = []  # kernel vectors at degree D-1, as dicts (gidx, mono) -> c
    start = min(cur_degs) + 1
    for D in range(start, bound + 1):
        dom = [
            (gidx, u)
            for gidx, a in enumerate(cur_degs)
            if D - a >= 0
            for u in monomials_of_degree(ring, D - a, max_monomials=max_monomials)
        ]
        if not dom:
            prev_kernel = []
            continue
        cod = [
            (h, w)
            for h, b in enumerate(prev_degs)
            if D - b >= 0
            for w in monomials_of_degree(ring, D - b, max_monomials=max_monomials)
        ]
        dom_index = {key: c for c, key in enumerate(dom)}
        cod_index = {key: r for r, key in enumerate(cod)}
        A = np.zeros((len(cod), len(dom)), dtype=np.int64)
        for c, (gidx, u) in enumerate(dom):
            for key, coeff in _column_times_monomial(cur_cols[gidx], u).items():
                A[cod_index[key], c] = (A[cod_index[key], c] + coeff) % p
        kernel = nullspace_mod(A, p)

        # span of the module generated so far, in this degree
        shifted_rows = []
        for vec in prev_kernel:
            for v in range(ring.nvars):
                shifted = np.zeros(len(dom), dtype=np.int64)
                xv = ring.variable_monomial(v)
                for (gidx, u), c in vec.items():
                    shifted[dom_index[(gidx, mono_mul(u, xv))]] = c
                shifted_rows.append(shifted)
        span = RowSpace.from_matrix(np.array(shifted_rows, dtype=np.int64), p) \
            if shifted_rows else RowSpace(len(dom), p)
        for k in kernel:
            if span.add(k):
                new_degs.append(D)
                new_cols.append(
                    {dom[c]: int(k[c]) for c in range(len(dom)) if k[c]}
                )
        prev_kernel = [
            {dom[c]: int(k[c]) for c in range(len(dom)) if k[c]} for k in kernel
        ]
    return new_degs, new_cols


# ---------------------------------------------------------------------------
# strand exact sequences for the two-variable Veronese story

@dataclass
class StrandCheck:
    """Exactness report for the degree-class strand of the linear resolution
    of m^j in k[x, y] over the index-ell Veronese subring."""

    ell: int
    j: int
    char: int
    b1: int
    b2: int
    rows: list
    exact: bool
    alternating_sums_zero: bool

    def payload(self):
        return {
            "ell": self.ell,
            "class": self.j,
            "char": self.char,
            "b1": self.b1,
            "b2": self.b2,
            "exact": self.exact,
            "alternating_sums_zero": self.alternating_sums_zero,
            "rows": self.rows,
        }


def strand_check(ell, j, steps=6, char=2):
    """Verify exactness of 0 -> G_{ell-1}^b2 -> R^b1 -> G_j -> 0 in k[x,y].

    The sequence is the degree-class-j strand of the linear resolution of
    m^j: generators mu_t = x^(j-t) y^t (t = 0..j) and syzygies
    y mu_t - x mu_{t+1}.  Exactness is checked by graded rank computations
    in every S-degree m = j + ell*s for s = 0..steps, over F_char: the
    composite vanishes, the left map is injective, the right map is
    surjective, and the ranks fill the middle dimension.
    """
    if ell < 2 or not (1 <= j <= ell - 1):
        raise ValueError("need ell >= 2 and 1 <= j <= ell-1")
    if steps < 0:
        raise ValueError("need steps >= 0")
    p = char
    b1 = j + 1
    b2 = j
    rows = []
    exact = True
    alt_zero = True
    for s in range(steps + 1):
        m = j + ell * s
        dim_left = b2 * max(m - j, 0)           # coefficients in S_{m-j-1}
        dim_mid = b1 * (m - j + 1)              # coefficients in S_{m-j}
        dim_right = m + 1                       # (G_j)_m = S_m
        # right map B: (t, u) -> u * x^(j-t) y^t
        B = np.zeros((dim_right, dim_mid), dtype=np.int64)
        col = 0
        for t in range(b1):
            for a in range(m - j, -1, -1):      # u = x^a y^(m-j-a)
                xdeg = a + (j - t)
                B[m - xdeg, col] = 1            # row indexed by y-degree
                col += 1
        # left map A: (r, w) -> w*y e_r - w*x e_{r+1}
        A = np.zeros((dim_mid, dim_left), dtype=np.int64)

        def mid_index(t, xdeg):
            # columns of B group by t, then u = x^a y^(...) with a descending
            return t * (m - j + 1) + (m - j - xdeg)

        col = 0
        for r in range(b2):
            for a in range(m - j - 1, -1, -1):  # w = x^a y^(m-j-1-a)
                A[mid_index(r, a), col] = (A[mid_index(r, a), col] + 1) % p
                A[mid_index(r + 1, a + 1), col] = (A[mid_index(r + 1, a + 1), col] - 1) % p
                col += 1
        composite_zero = not ((B @ A) % p).any()
        rank_a = rank_mod(A, p) if dim_left else 0
        rank_b = rank_mod(B, p) if dim_mid else 0
        ok = (
            composite_zero
            and rank_a == dim_left
            and rank_b == dim_right
            and rank_a + rank_b == dim_mid
        )
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
    return StrandCheck(
        ell=ell,
        j=j,
        char=char,
        b1=b1,
        b2=b2,
        rows=rows,
        exact=exact,
        alternating_sums_zero=alt_zero,
    )

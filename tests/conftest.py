import itertools

import pytest

from frobcalc import MonomialIdeal, Polynomial, PolyRing
from frobcalc.koszul import block_boundary, block_cells
from frobcalc.polyring import mono_sorted


@pytest.fixture
def ring2():
    return PolyRing(2, ["x", "y"])


@pytest.fixture
def ring3():
    return PolyRing(3, ["x", "y"])


@pytest.fixture
def ring5xyz():
    return PolyRing(5, ["x", "y", "z"])


# Monomial ideal corpus inside m^2, in at most 3 variables.  Entries are
# (#vars, generator exponent tuples, ci_codimension or None).  Complete
# intersections are the ones with pairwise disjoint supports.
CORPUS = [
    (2, [], None),
    (2, [(2, 0)], 1),
    (2, [(1, 1)], 1),
    (2, [(0, 3)], 1),
    (2, [(2, 0), (0, 2)], 2),
    (2, [(2, 0), (0, 3)], 2),
    (2, [(3, 0), (0, 4)], 2),
    (2, [(2, 0), (1, 1)], None),
    (2, [(2, 0), (1, 1), (0, 2)], None),
    (2, [(4, 0), (2, 2), (0, 4)], None),
    (2, [(3, 0), (2, 2)], None),
    (2, [(2, 1), (1, 2)], None),
    (3, [], None),
    (3, [(1, 1, 1)], 1),
    (3, [(2, 0, 0), (0, 2, 0)], 2),
    (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)], 3),
    (3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)], 3),
    (3, [(1, 1, 0), (0, 0, 2)], 2),
    (3, [(2, 0, 0), (1, 1, 0), (0, 2, 0)], None),
    (3, [(1, 1, 0), (0, 1, 1)], None),
    (3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)], None),
    (3, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)], None),
    (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], None),
]


def monomials_of_degree(ring, d, cap=None):
    """Every monomial of total degree d, each exponent at most cap when
    given, largest first in degrevlex: the oracle for the staircase walk,
    from a scan of the exponent box with no walk and no guard."""
    top = d if cap is None else min(d, cap)
    box = itertools.product(range(top + 1), repeat=ring.nvars)
    return mono_sorted(m for m in box if sum(m) == d)


def walk_candidates(I, top):
    """The candidates the staircase walk forms for degrees 0..top: the
    unit monomial, then for each standard s of the degree below one per
    variable up to the first of supp s (every variable for s = 1), from
    the brute-force staircase."""
    n = I.ring.nvars
    counts = [0 if I.contains_monomial(I.ring.unit_monomial()) else 1]
    for d in range(1, top + 1):
        below = [s for s in monomials_of_degree(I.ring, d - 1) if not I.contains_monomial(s)]
        counts.append(sum(next((v + 1 for v, e in enumerate(s) if e), n) for s in below))
    return counts


def bracket(I, q):
    """I^[q]: generated by g^q for each generator g.  Over F_p this
    generates the full bracket power, since q-th powers of generators
    generate the ideal of q-th powers of elements."""
    return MonomialIdeal(I.ring, [tuple(q * x for x in g) for g in I.gens])


def intersection(I, J):
    """I cap J for monomial ideals: generated by the pairwise lcms."""
    if I.is_zero() or J.is_zero():
        return MonomialIdeal.zero(I.ring)
    return MonomialIdeal(I.ring, [tuple(map(max, a, b)) for a in I.gens for b in J.gens])


def monomial_colon(J, I):
    """(J : I) for monomial ideals, the oracle for the closed form of
    `splitting.colon_generators`: intersect (J : g) over generators g of I,
    where (J : g) is generated by the J-generators divided by their gcd
    with g."""
    ring = J.ring
    if I.is_zero():
        return MonomialIdeal(ring, [ring.unit_monomial()])
    result = None
    for g in I.gens:
        quotient = MonomialIdeal(ring, [tuple(max(a - b, 0) for a, b in zip(j, g)) for j in J.gens])
        result = quotient if result is None else intersection(result, quotient)
    return result


def naive_power(f, n):
    """f^n by plain repeated multiplication: the oracle for powers."""
    out = Polynomial.one(f.ring)
    for _ in range(n):
        out = out * f
    return out


def frobenius(f, e):
    """f^(p^e) termwise: every monomial raised to the power p^e, the
    coefficients kept (c^p = c over F_p)."""
    q = f.ring.p**e
    return Polynomial(f.ring, {tuple(x * q for x in m): c for m, c in f.terms.items()})


def corpus_ideals(p=2):
    """Instantiate the corpus over F_p."""
    out = []
    for nvars, gens, ci in CORPUS:
        ring = PolyRing(p, ["x", "y", "z"][:nvars])
        out.append((MonomialIdeal(ring, gens), ci))
    return out


def membership_cells(b, standard):
    """Oracle for `koszul.block_cells`: the masks J over the positions of
    supp b, ascending, with x^(b - 1_J) in `standard`, any container of the
    exponent tuples of the standard monomials below b, listed by forming
    b - 1_J for every subset J."""
    support = [v for v, e in enumerate(b) if e]
    cells = []
    for J in range(1 << len(support)):
        u = list(b)
        for t, v in enumerate(support):
            u[v] -= J >> t & 1
        if tuple(u) in standard:
            cells.append(J)
    return cells


def assert_blocks_square_to_zero(I, degree_bound):
    """d_(i-1) d_i = 0 over F_p on the block of the Koszul complex at every
    multidegree b with |b| <= degree_bound, with the cells and boundary
    the Koszul walks use."""
    p = I.ring.p
    for d in range(degree_bound + 1):
        for b in monomials_of_degree(I.ring, d):
            columns = block_boundary(block_cells(b, I.gens))
            for J, col in columns.items():
                image = {}
                for face, c in col.items():
                    for edge, c2 in columns[face].items():
                        image[edge] = (image.get(edge, 0) + c * c2) % p
                assert not any(image.values()), (b, J)

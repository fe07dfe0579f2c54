"""Frobenius pushforwards as explicit graded modules.

The e-th pushforward of R = S/I has the same underlying k-space as R but
r acts as multiplication by r^q (q = p^e), and the grading takes values in
(1/q)Z: a basis monomial u sits in degree deg(u)/q.  Degrees are exact
reduced (numerator, denominator) pairs, never floats.

Over the prime field the action of a polynomial r = sum c_w w on the
pushforward is sum c_w (w^q * u), so the action of the monomials
determines everything, and it keeps every exponent's residue mod q.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import namedtuple

from .errors import ResourceGuardError, UnsupportedIdealClassError, VerificationError
from .ideals import (
    MonomialIdeal,
    koszul_counts,
    koszul_hilbert,
    pairwise_disjoint_supports,
    require_proper,
)
from .polyring import (
    DEFAULT_MAX_MONOMIALS,
    bounded_count,
    capped_power,
    count_str,
    mono_degree,
    mono_mul,
    mono_pow,
    mono_str,
)


@functools.cache
def _digit_ceiling(digits):
    """10^digits, the least integer with more than `digits` decimal digits."""
    return 10**digits


class FrobeniusModule:
    """The e-th Frobenius pushforward of an artinian monomial quotient on
    its staircase basis, least degree first.

    q = p^e is refused when it has more decimal digits than the interpreter
    prints (the default limit when it sets none): every quotient but k has
    a piece generated by a variable, whose degree offset 1/q no report could
    print.  The powers of p stop at the first past the limit
    (`capped_power`), and the refusal waits for the staircase walk, which
    refuses a quotient that is not artinian first."""

    __slots__ = ("ideal", "e", "q", "basis")

    def __init__(self, ideal, e, max_monomials=DEFAULT_MAX_MONOMIALS):
        if e < 1:
            raise ValueError("e must be at least 1")
        digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        q, _k = capped_power(ideal.ring.p, e, _digit_ceiling(digits) - 1)
        levels = ideal.staircase(max_monomials=max_monomials)
        if q >= _digit_ceiling(digits):
            raise ResourceGuardError(
                f"q = {ideal.ring.p}^{count_str(e)} has more than {digits} decimal digits, the most a report prints"
            )
        self.ideal = ideal
        self.e = e
        self.q = q
        self.basis = tuple(u for level in levels for u in reversed(level))

    @property
    def ring(self):
        return self.ideal.ring

    def dimension(self):
        return len(self.basis)


class CyclicPiece(
    namedtuple(
        "CyclicPiece", "generator basis annihilator relative_hilbert degree_offset"
    )
):
    """One cyclic summand: its generator monomial, its basis monomials, the
    MonomialIdeal annihilating it, its dimensions by degree offset from the
    generator, and the generator's degree deg(u)/q as a reduced
    (numerator, denominator) pair."""

    __slots__ = ()

    def payload(self, ring):
        num, den = self.degree_offset
        return {
            "generator": mono_str(ring, self.generator),
            "dimension": len(self.basis),
            "basis": [mono_str(ring, u) for u in self.basis],
            "annihilator": [mono_str(ring, g) for g in self.annihilator.gens],
            "relative_hilbert": list(self.relative_hilbert),
            "degree_offset": {"num": num, "den": den},
        }


class CyclicDecomposition(
    namedtuple("CyclicDecomposition", "module_dimension pieces iso_classes")
):
    """Decomposition of a pushforward module into cyclic pieces, one per
    residue class of exponent vectors mod q.

    The pieces partition the basis, so the sum is always direct; the
    report still carries `"direct": true`.
    Pieces are grouped into isomorphism classes by annihilator ideal plus
    shift-normalized Hilbert function, which identifies cyclic modules
    over these quotients.  `iso_classes` lists the triples (annihilator
    gens, relative hilbert, multiplicity)."""

    __slots__ = ()

    def payload(self, ring):
        return {
            "module_dimension": self.module_dimension,
            "direct": True,
            "pieces": [piece.payload(ring) for piece in self.pieces],
            "iso_classes": [
                {
                    "annihilator": [mono_str(ring, g) for g in ann],
                    "relative_hilbert": list(hf),
                    "multiplicity": mult,
                }
                for ann, hf, mult in self.iso_classes
            ],
        }


def cyclic_decompose(module):
    """Split the pushforward by exponent residues mod q.

    x_v acts as x_v^q, which keeps every exponent mod q, and the staircase
    is closed under division; so the standard monomials w congruent to a
    standard u with every exponent below q span the cyclic submodule
    generated by u, and these classes partition the basis.  u is the
    least-degree member of its class, so it comes first in basis order and
    the pieces come out in the order of their generators.

    The annihilator of the piece of u is all w with w^q * u inside I, a
    Frobenius root of the colon (I : u) (Blickle-Mustata-Smith 2008).  In
    closed form it is generated by ceil((g - u)^+ / q), entrywise, over the
    generators g of I.  This is exact: w^q * u lies in I exactly when some
    g <= q*w + u, i.e. when w_i >= (g_i - u_i) / q for every i.  Pieces
    share few distinct roots, so each is built once, keyed by its raw
    generators."""
    q = module.q
    ring, gens = module.ring, module.ideal.gens
    classes = {}
    for w in module.basis:
        classes.setdefault(tuple(x % q for x in w), []).append(w)
    roots = {}
    pieces = []
    for members in classes.values():
        u = members[0]
        raw = tuple(tuple(-(min(u_i - g_i, 0) // q) for g_i, u_i in zip(g, u)) for g in gens)
        annihilator = roots.get(raw)
        if annihilator is None:
            annihilator = roots[raw] = MonomialIdeal(ring, raw)
        gen_degree = mono_degree(u)
        common = math.gcd(gen_degree, q)
        rel = {}
        for w in members:
            offset = (mono_degree(w) - gen_degree) // q
            rel[offset] = rel.get(offset, 0) + 1
        pieces.append(
            CyclicPiece(
                generator=u,
                basis=tuple(members),
                annihilator=annihilator,
                relative_hilbert=tuple(rel.get(t, 0) for t in range(max(rel) + 1)),
                degree_offset=(gen_degree // common, q // common),
            )
        )
    iso = {}
    for piece in pieces:
        key = (piece.annihilator.gens, piece.relative_hilbert)
        iso[key] = iso.get(key, 0) + 1
    return CyclicDecomposition(
        module_dimension=module.dimension(),
        pieces=pieces,
        iso_classes=[(ann, hf, mult) for (ann, hf), mult in sorted(iso.items())],
    )


# ---------------------------------------------------------------------------
# pushforwards of line bundles on projective n-space

def _step_counts(n, p):
    """Coefficients a_0..a_top of A = g^(n+1), g = 1 + x + ... + x^(p-1),
    top = (n+1)(p-1): a_k counts the monomials of degree k in n+1
    variables with every exponent at most p-1.

    J. C. P. Miller's recurrence for the power of a polynomial comes from
    g * A' = (n+1) * g' * A.  Written for g = (1 - x^p) / (1 - x), that
    identity is (1-x)(1-x^p) A' = (n+1) A (1 - p x^(p-1) + (p-1) x^p), so
    every coefficient takes three earlier ones, whatever p:
    k a_k = (k+n) a_{k-1} + (k-p-(n+1)p) a_{k-p} + ((n+2)p - n - k) a_{k-p-1},
    with a_0 = 1, terms of negative index zero, and every division exact."""
    top = (n + 1) * (p - 1)
    counts = [1]
    for k in range(1, top + 1):
        total = (k + n) * counts[k - 1]
        if k >= p:
            total += (k - p - (n + 1) * p) * counts[k - p]
        if k > p:
            total += ((n + 2) * p - n - k) * counts[k - p - 1]
        counts.append(total // k)
    return counts


def _words(p, k):
    """64-bit words of 2^(b*k), b the bit length of p - 1: a bound on the
    words of p^k, exact for p = 2."""
    return (p - 1).bit_length() * k // 64 + 1


def alpha(n, p, i, l):
    """Multiplicity of the twist -i in the Frobenius pushforward of O(l) on
    projective n-space: the number of monomials in n+1 variables of total
    degree l + i*p with every exponent at most p-1 (zero outside
    0 <= l + i*p <= (n+1)(p-1)).

    One coefficient of (1 + x + ... + x^(p-1))^(n+1), the list
    `pn_pushforward` reads at every step, counted by inclusion-exclusion
    over the exponents that pass p - 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    degree = l + i * p
    if not 0 <= degree <= (n + 1) * (p - 1):
        return 0
    return bounded_count(n + 1, degree, p - 1)


class TwistMultiset(namedtuple("TwistMultiset", "n p e l twists generates")):
    """Pushforward of O(l) on P^n: twists with multiplicities.

    `twists` maps each twist (positive ones occur for l > 0) to its
    multiplicity; `generates` says whether all of 0, -1, ..., -n occur."""

    __slots__ = ()

    def total_rank(self):
        return sum(self.twists.values())

    def payload(self):
        return {
            "n": self.n,
            "p": self.p,
            "e": self.e,
            "l": self.l,
            "twists": {str(t): m for t, m in sorted(self.twists.items(), reverse=True)},
            "total_rank": self.total_rank(),
            "generates": self.generates,
        }


def pn_pushforward(n, p, e, l=0, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Iterate the one-step decomposition of Frobenius pushforwards of line
    bundles on projective n-space e times, starting from O(l).

    A twist t with multiplicity m contributes m * a[t + i*p] to the twist
    -i, for every i with 0 <= t + i*p <= (n+1)(p-1), where a is the list of
    `alpha` counts: the coefficients of (1 + x + ... + x^(p-1))^(n+1),
    formed once per call.  Reports whether every twist 0..-n occurs, the
    criterion for the pushforward to generate everything built from those
    twists.

    The guard counts word operations before they are done: the three
    updates of each of the (n+1)(p-1)+1 coefficients, on numbers of the
    size of p^(n+1) (the coefficients sum to it), and then at each step its
    (twist, i) products, each of the size of that step's total rank
    p^(n*step).  Sizes are counted in 64-bit words (`_words`).

    The e steps together are one step with p replaced by q = p^e: the
    twist -i has multiplicity `alpha(n, q, i, l)`, and only the about n+1
    entries with 0 <= l + i*q <= (n+1)(q-1) are nonzero.  Counted one by
    one, the k-th of them takes k inclusion-exclusion terms, each a
    binomial below (top_q+n)^n formed by n one-word multiplications and n
    exact divisions: about (n+1)^2 terms against the (n+1)(p-1)
    coefficients of the list, which pays when p is large against n.  The
    call takes whichever way the guard counts fewer word operations for:
    by entry, or the list.  A q of more than 64 words is left to the list,
    whose steps the guard charges one by one."""
    if e < 1:
        raise ValueError("e must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    top = (n + 1) * (p - 1)
    work = 0

    def guard(more):
        nonlocal work
        work += more
        if work > max_monomials:
            raise ResourceGuardError(
                f"twist counts may need {count_str(work)} word operations, over the guard {max_monomials}"
            )

    by_list = 3 * (top + 1) * _words(p, n + 1)
    by_entry = by_list
    if _words(p, e) <= 64:  # forming a larger q costs more than the count charges
        q = p**e
        top_q = (n + 1) * (q - 1)
        least = -(l // q)  # least i with l + i*q >= 0, where l + i*q = l % q
        entries = (top_q - l % q) // q + 1
        # entries (entries + 1) / 2 terms of 2n operations each
        by_entry = entries * (entries + 1) * n * _words(top_q + n + 1, n)
    if by_entry < by_list:
        guard(by_entry)
        current = {-i: alpha(n, q, i, l) for i in range(least, least + entries)}
    else:
        guard(by_list)
        counts = _step_counts(n, p)
        current = {l: 1}
        for step in range(1, e + 1):
            guard(_words(p, n * step) * sum((top - t) // p + t // p + 1 for t in current))
            nxt = {}
            for twist, mult in current.items():
                i = -(twist // p)  # least i with twist + i*p >= 0 (floor-division ceil)
                for degree in range(twist + i * p, top + 1, p):
                    nxt[-i] = nxt.get(-i, 0) + mult * counts[degree]
                    i += 1
            current = nxt
    generates = all(-t in current for t in range(0, n + 1))
    return TwistMultiset(n=n, p=p, e=e, l=l, twists=current, generates=generates)


# ---------------------------------------------------------------------------
# the Veronese decomposition for k[x, y] into strand modules

class Rows:
    """A table of integer rows that a report writes as a list of objects.
    `layout` holds one (name, width) pair per field, width >= 1: the field
    takes the next `width` entries of a row, as the entry itself at width
    1 and as a list of them otherwise.  `rows` holds flat int tuples."""

    __slots__ = ("layout", "rows")

    def __init__(self, layout, rows):
        self.layout, self.rows = layout, rows

    def records(self):
        """The list of dicts the table stands for."""
        records = []
        for row in self.rows:
            record, at = {}, 0
            for name, width in self.layout:
                record[name] = row[at] if width == 1 else list(row[at : at + width])
                at += width
            records.append(record)
        return records


class ConicDecomposition(
    namedtuple(
        "ConicDecomposition",
        "ell p e q multiplicities pieces hs_bound hs_solve_unique ambiguity_notes has_free_summand",
    )
):
    """Decomposition of the e-th pushforward of the index-ell Veronese
    subring of k[x,y] into strand modules G_j: the span of the monomials of
    degree congruent to j mod ell, a module over the Veronese subring.

    Pieces come from the exact partition of the monomial basis by exponent
    residues mod q and then by degree residue mod ell; each piece is a
    genuine submodule isomorphic to a G_j.  The Hilbert-series identity
    sum_j mult(j) * HS(G_j) = HS(F^e_* R) is verified degreewise through
    the stated bound (shifts accounted); a failure raises, so a
    decomposition that exists is verified.  The ambiguity of a pure
    Hilbert-series solve is reported in `hs_solve_unique`, each group's
    alternatives counted as a Gaussian binomial coefficient.
    `multiplicities` maps j to its count, `pieces` lists the quadruples
    (u, v, j, start S-degree), and `hs_bound` is the S-degree bound of the
    verification."""

    __slots__ = ()

    def payload(self):
        """The report's result.  Its `pieces`, objects {"residues": [u, v],
        "class": j, "start_degree": start}, form a `Rows` table: the one
        non-JSON value of any payload, which json.dumps refuses."""
        return {
            "ell": self.ell,
            "p": self.p,
            "e": self.e,
            "q": self.q,
            "multiplicities": {str(j): m for j, m in sorted(self.multiplicities.items())},
            "pieces": Rows((("residues", 2), ("class", 1), ("start_degree", 1)), self.pieces),
            "hilbert_series_verified": True,
            "hilbert_series_bound": self.hs_bound,
            "hilbert_solve_unique": self.hs_solve_unique,
            "ambiguity_notes": self.ambiguity_notes,
            "has_free_summand": self.has_free_summand,
        }


def veronese_decompose(ell, p, e, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Decompose the e-th Frobenius pushforward of the index-ell Veronese
    subring of k[x, y] into strand modules.

    Partition: a basis monomial x^a y^b (with ell | a+b) belongs to the
    class (a mod q, b mod q); writing a = q*alpha + u, b = q*beta + v, the
    map x^a y^b -> x^alpha y^beta identifies the subspace with fixed
    alpha+beta mod ell with the strand module G_j, compatibly with the
    twisted action.  Each admissible triple (u, v, j) contributes one
    summand.

    The piece (u, v, j) starts in S-degree q*j + u + v, and its Hilbert
    function is ell*s + j + 1 in S-degree start + q*ell*s.  The pieces are
    gathered by start degree into (count, sum of j+1); each group's
    Hilbert function is count*ell*s + total there, so the check fills one
    series per group.  Pieces with the same start degree that share a
    class count and a total weight have the same Hilbert function; the
    number of class multisets with that profile is a Gaussian binomial
    coefficient (`_class_multiset_count`).

    Every start degree is below q * (ell + 2), and past the last one each
    group's Hilbert function is linear along its progression mod q*ell,
    so a check through 4 * ell * q is already a proof.  The check runs
    through 12 * ell * q all the same, so that reports keep their
    `hilbert_series_bound` and the check reaches S-degree 12 * ell * p at
    every e.  It holds one dimension per S-degree, and the pieces are at
    most q^2 * ell triples; `max_monomials` guards both counts."""
    if ell < 1 or e < 1:
        raise ValueError("need ell >= 1 and e >= 1")
    # past max_monomials, q already fails the first guard: form no more of p^e
    q, k = capped_power(p, e, max_monomials)
    bound = 12 * ell * q
    if bound + 1 > max_monomials:
        degrees = count_str(bound + 1) if k == e else f"12 * {ell} * {p}^{e} + 1"
        raise ResourceGuardError(
            f"Hilbert-series check over {degrees} degrees exceeds guard {max_monomials}"
        )
    if q * q * ell > max_monomials:
        raise ResourceGuardError(
            f"{count_str(q * q * ell)} candidate pieces (q^2 * ell) exceed guard {max_monomials}"
        )
    admissible, mult, groups = _start_groups(ell, q)
    pieces = [
        (u, v, j, q * j + u + v)
        for u in range(q)
        for v in range(q)
        for j in admissible[(u + v) % ell]
    ]
    # Hilbert-series verification through an S-degree bound: reconstruct
    # the dimension of every fractional degree layer from the groups.
    recon = _group_series(groups, ell, q, bound)
    residual = []
    for deg in range(bound + 1):
        actual = deg + 1 if deg % ell == 0 else 0
        if recon[deg] != actual:
            residual.append({"degree": deg, "reconstructed": recon[deg], "actual": actual})
    if residual:
        raise VerificationError(
            f"Hilbert-series matching failed at {len(residual)} degrees; "
            f"first residuals: {residual[:3]}"
        )

    # Ambiguity of a numeric Hilbert-series solve: within one start-degree
    # group, any multiset of classes with the same (count, sum of j+1) has
    # an identical Hilbert function.
    unique = True
    notes = []
    for start, (count, total) in sorted(groups.items()):
        alternatives = _class_multiset_count(count, total, ell)
        if alternatives > 1:
            unique = False
            notes.append(
                f"start degree {start}: {alternatives} class multisets share "
                f"the Hilbert profile (count {count}, weight {total})"
            )
    return ConicDecomposition(
        ell=ell,
        p=p,
        e=e,
        q=q,
        multiplicities=mult,
        pieces=pieces,
        hs_bound=bound,
        hs_solve_unique=unique,
        ambiguity_notes=notes,
        has_free_summand=mult.get(0, 0) >= 1,
    )


def _start_groups(ell, q):
    """The classes j with q*j + r = 0 mod ell, ascending, for each residue
    r of u + v mod ell (u + v <= 2q - 2, so r < min(ell, 2q - 1)); the
    number of pieces of each class; and, per start S-degree q*j + u + v,
    the [count, sum of j+1] of its pieces.  The last two depend on u + v
    only, which takes the value s for min(s, 2q-2-s) + 1 pairs (u, v).

    With g = gcd(q, ell) the congruence has a solution only when g | r,
    and then its solutions are j = -(r/g) * (q/g)^(-1) mod ell/g: g
    classes, each found in closed form."""
    g = math.gcd(q, ell)
    step = ell // g
    inverse = pow(q // g, -1, step)
    admissible = [
        [] if r % g else list(range(-(r // g) * inverse % step, ell, step))
        for r in range(min(ell, 2 * q - 1))
    ]
    mult = {}
    groups = {}
    for s in range(2 * q - 1):
        pairs = min(s, 2 * q - 2 - s) + 1
        for j in admissible[s % ell]:
            mult[j] = mult.get(j, 0) + pairs
            group = groups.setdefault(q * j + s, [0, 0])
            group[0] += pairs
            group[1] += pairs * (j + 1)
    return admissible, mult, groups


def _group_series(groups, ell, q, bound):
    """Dimensions in S-degrees 0..bound of the sum of the pieces: a group
    of `count` pieces of weight `total` at `start` adds count*ell*s + total
    in S-degree start + q*ell*s."""
    recon = [0] * (bound + 1)
    for start, (count, total) in groups.items():
        for s, deg in enumerate(range(start, bound + 1, q * ell)):
            recon[deg] += count * ell * s + total
    return recon


def _class_multiset_count(count, total, ell):
    """Number of multisets of `count` classes in 0..ell-1 whose
    (j+1)-weights sum to `total`: the partitions of total-count that fit in
    a count x (ell-1) box, i.e. the coefficient of x^(total-count) in the
    Gaussian binomial [count+ell-1 choose ell-1]_x = [count+ell-1 choose
    count]_x.  With k the smaller of count and ell-1 and h the larger,
    that polynomial is the product over i = 1..k of
    (1 - x^(h+i)) / (1 - x^i), formed here as a power series truncated at
    degree total-count.  The polynomial has degree count*(ell-1) and is
    palindromic, so the series stops at the nearer end."""
    top = min(total - count, count * ell - total)
    if top < 0:
        return 0
    k, h = (count, ell - 1) if count < ell else (ell - 1, count)
    coeffs = [1] + [0] * top
    for i in range(1, k + 1):
        for d in range(top, h + i - 1, -1):  # times 1 - x^(h+i)
            coeffs[d] -= coeffs[d - h - i]
        for d in range(i, top + 1):  # divided by 1 - x^i
            coeffs[d] += coeffs[d - i]
    return coeffs[top]


# ---------------------------------------------------------------------------
# the complete-intersection filtration of the first pushforward

class FiltrationStep(namedtuple("FiltrationStep", "exponents generator shift dims")):
    """One step of the filtration: the exponents a, the product monomial
    f^a, its degree, and the subquotient dimensions, one list shared by
    every step of the same shift."""

    __slots__ = ()

    def payload(self, ring):
        # the subquotient is S/(f) shifted by deg f^a (Kunz 1969), so the
        # dims found are the dims expected and every step matches
        return {
            "exponents": list(self.exponents),
            "generator": mono_str(ring, self.generator),
            "shift": self.shift,
            "subquotient_dims": self.dims,
            "expected_dims": self.dims,
            "matches": True,
        }


class FiltrationReport(namedtuple("FiltrationReport", "p c steps degree_bound complete")):
    """Chain of submodules of R' = S/(f_1^p, ..., f_c^p) generated by the
    products f^a, a in {0..p-1}^c in lexicographic order; each subquotient
    has the Hilbert series of the pushforward of R = S/(f_1..f_c) after
    rescaling degrees by p and shifting by deg f^a.  Hilbert-series
    equality is a necessary, not sufficient, isomorphism check and the
    report says so.  `complete` is True when the band covers the whole
    (artinian) module."""

    __slots__ = ()
    all_match = True  # by theorem, see `ci_filtration_check`

    def payload(self, ring):
        return {
            "p": self.p,
            "codimension": self.c,
            "step_count": len(self.steps),
            "expected_step_count": self.p**self.c,
            "degree_bound": self.degree_bound,
            "complete": self.complete,
            "all_match": self.all_match,
            "comparison": "Hilbert series equality (necessary, not sufficient)",
            "steps": [s.payload(ring) for s in self.steps],
        }


def ci_filtration_check(ring, f_monos, max_monomials=DEFAULT_MAX_MONOMIALS):
    """The p^c-step filtration of R' = S/(f^p) with pushforward-sized
    subquotients, for a monomial regular sequence f_1..f_c inside m^2.

    The subquotients of the chain of the f^a are shifts of S/(f) (Kunz
    1969), and for monomials with pairwise disjoint supports the step
    dims are a closed form.  A standard monomial w of R' has f_i-adic
    orders a_i < p, and dividing by f^a maps the w of orders a one-to-one
    onto the monomials that no f_i divides.  So step a has dimension
    HF(S/(f))(d - deg f^a) in degree d, with HF read from the Koszul
    counts of the sequence (`koszul_counts`, `koszul_hilbert`).  No
    staircase is formed; the tests count the steps on a walk of R'.

    An artinian R' (every f_i a pure power, c = N) is read through its
    top degree D = sum_i (p deg f_i - 1), so the report is complete;
    otherwise the dims stop at D = p * sum_i deg f_i + 2.  `max_monomials`
    bounds the p^c * (D + 1) cells of the step table, the only guard,
    checked before the chain is formed."""
    p = ring.p
    f_monos = [tuple(m) for m in f_monos]
    c = len(f_monos)
    if c == 0 or c > ring.nvars:
        raise UnsupportedIdealClassError("need 1 <= c <= #variables monomials")
    small = MonomialIdeal(ring, f_monos)  # (f_1..f_c)
    require_proper(small)
    degrees = [mono_degree(m) for m in f_monos]
    if min(degrees) < 2:
        raise UnsupportedIdealClassError("each f_i must lie in m^2 (degree >= 2)")
    if not pairwise_disjoint_supports(f_monos):
        raise UnsupportedIdealClassError("supports must be pairwise disjoint (regular sequence)")

    artinian = small.is_artinian()
    degree_bound = sum(p * d - 1 for d in degrees) if artinian else p * sum(degrees) + 2
    cells = p**c * (degree_bound + 1)
    if cells > max_monomials:
        raise ResourceGuardError(
            f"filtration table of {p}^{c} steps by {degree_bound + 1} degrees, "
            f"{count_str(cells)} cells, exceeds guard {max_monomials}"
        )

    counts = koszul_counts(degrees, degree_bound)
    small_hf = [koszul_hilbert(ring.nvars, counts, d) for d in range(degree_bound + 1)]
    by_shift = {}
    steps = []
    for a in itertools.product(range(p), repeat=c):
        g = ring.unit_monomial()
        for m, k in zip(f_monos, a):
            g = mono_mul(g, mono_pow(m, k))
        shift = mono_degree(g)
        if shift not in by_shift:
            by_shift[shift] = [0] * shift + small_hf[: degree_bound + 1 - shift]
        steps.append(FiltrationStep(exponents=a, generator=g, shift=shift, dims=by_shift[shift]))
    return FiltrationReport(p=p, c=c, steps=steps, degree_bound=degree_bound, complete=artinian)

"""Exact multivariate polynomial arithmetic over the prime field F_p.

Monomials are exponent tuples indexed by the ring's variable order; every
variable has degree one.  Polynomials are finite term maps from monomials to
nonzero coefficients in 0..p-1.  Everything is immutable after construction
and all arithmetic is exact.

The term order used everywhere for determinism is degree reverse
lexicographic (degrevlex) with the declared variable order: compare total
degree first, ties broken so that the monomial whose *last* differing
exponent is smaller is the larger one.
"""

from __future__ import annotations

import math
import re
from operator import add, le

from .errors import (
    ExponentOverflowError,
    ParseError,
    ResourceGuardError,
    RingMismatchError,
)

EXPONENT_LIMIT = 2**31
DEFAULT_MAX_MONOMIALS = 10**7


# Miller-Rabin with the first 12 prime bases is exact below this bound
# (Sorenson and Webster, 2015)
PRIME_TEST_LIMIT = 318665857834031151167461
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for every n < PRIME_TEST_LIMIT
    (about 3.18e23); a larger n raises ValueError."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"primality is decided only below {PRIME_TEST_LIMIT}: got {n}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_NAME_RE = re.compile(_NAME)


class PolyRing:
    """Descriptor for F_p[x_0, ..., x_n] with the standard grading."""

    __slots__ = ("p", "variables", "_index")

    def __init__(self, p, variables):
        if not isinstance(p, int) or not (2 <= p < EXPONENT_LIMIT) or not is_prime(p):
            raise ParseError(f"characteristic must be a prime in [2, 2^31): got {p!r}")
        variables = tuple(variables)
        if not variables:
            raise ParseError("at least one variable is required")
        for name in variables:
            if not _NAME_RE.fullmatch(name):
                raise ParseError(f"invalid variable name {name!r}")
        if len(set(variables)) != len(variables):
            raise ParseError("variable names must be distinct")
        self.p = p
        self.variables = variables
        self._index = {name: i for i, name in enumerate(variables)}

    @property
    def nvars(self):
        return len(self.variables)

    def var_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ParseError(f"unknown variable {name!r}") from None

    def unit_monomial(self):
        return (0,) * self.nvars

    def variable_monomial(self, i):
        m = [0] * self.nvars
        m[i] = 1
        return tuple(m)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.p == other.p
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.p, self.variables))

    def __repr__(self):
        return f"PolyRing(p={self.p}, variables={', '.join(self.variables)})"


# ---------------------------------------------------------------------------
# monomial helpers (plain exponent tuples)

def mono_degree(m):
    return sum(m)


def mono_mul(a, b):
    out = tuple(map(add, a, b))
    if max(out) >= EXPONENT_LIMIT:
        e = next(e for e in out if e >= EXPONENT_LIMIT)
        raise ExponentOverflowError(f"exponent {e} exceeds 2^31")
    return out


def mono_pow(m, k):
    out = tuple(e * k for e in m)
    for e in out:
        if e >= EXPONENT_LIMIT:
            raise ExponentOverflowError(f"exponent {e} exceeds 2^31")
    return out


def mono_divides(a, b):
    """True when a | b, i.e. a's exponents are <= b's componentwise."""
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def drl_key(m):
    """Sort key: ascending order under this key is ascending degrevlex."""
    return (sum(m), tuple(-e for e in reversed(m)))


def mono_sorted(monos):
    """Largest first in degrevlex: the order in which generator lists and
    enumerations are presented: ascending under (-degree, reversed
    exponents), the order of `drl_key` descending."""
    return sorted(monos, key=lambda m: (-sum(m), m[::-1]))


def mono_str(ring, m):
    if not any(m):
        return "1"
    parts = []
    for name, e in zip(ring.variables, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def bounded_count(nparts, total, cap=None):
    """Number of exponent vectors with `nparts` entries summing to `total`,
    each entry <= cap when cap is given.  Inclusion-exclusion over the
    entries that exceed the cap; the uncapped case is stars and bars."""
    if total < 0:
        return 0
    if cap is None:
        return math.comb(total + nparts - 1, nparts - 1)
    if cap < 0:
        return 0
    count = 0
    for t in range(nparts + 1):
        rest = total - t * (cap + 1)
        if rest < 0:
            break
        count += (-1) ** t * math.comb(nparts, t) * math.comb(rest + nparts - 1, nparts - 1)
    return count


def capped_power(p, e, cap):
    """(p^k, k) for k the least exponent <= e with p^k > cap, or (p^e, e)
    when there is none.  A power of p far past `cap` is never formed, so a
    huge e costs as little as a small one; k < e means p^e > p^k > cap."""
    q, k = 1, 0
    while k < e and q <= cap:
        q, k = q * p, k + 1
    return q, k


def count_str(n):
    """A count for a guard message: its decimal digits, or its size when it
    has more digits than the interpreter will print."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


def check_degree_bound(degree_bound):
    """Refuse a negative degree bound; None means no bound."""
    if degree_bound is not None and degree_bound < 0:
        raise ValueError(f"need degree bound >= 0: got {degree_bound}")


# ---------------------------------------------------------------------------

class Polynomial:
    """Element of F_p[x_0..x_n] stored as a term map; zero coefficients are
    never stored, so the zero polynomial has an empty term map."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        p = ring.p
        clean = {}
        n = ring.nvars
        for mono, coeff in terms.items():
            if len(mono) != n:
                raise ParseError(f"monomial {mono} has wrong arity for {ring!r}")
            for e in mono:
                if e < 0 or e >= EXPONENT_LIMIT:
                    raise ExponentOverflowError(f"exponent {e} out of range")
            c = coeff % p
            if c:
                clean[tuple(mono)] = c
        self.ring = ring
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def one(cls, ring):
        return cls(ring, {ring.unit_monomial(): 1})

    @classmethod
    def monomial(cls, ring, mono):
        return cls(ring, {tuple(mono): 1})

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def single_monomial(self):
        if len(self.terms) != 1:
            raise ValueError("not a single-term polynomial")
        return next(iter(self.terms))

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def homogeneous_degree(self):
        """The common term degree when homogeneous, else None."""
        if not self.terms:
            return None
        degs = {mono_degree(m) for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def sorted_terms(self):
        """(monomial, coefficient) pairs, largest monomial first."""
        return [(m, self.terms[m]) for m in mono_sorted(self.terms)]

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        self._check_ring(other)
        p = self.ring.p
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = (terms.get(m, 0) + c) % p
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        out = Polynomial.__new__(Polynomial)
        out.ring = self.ring
        out.terms = terms
        return out

    def __mul__(self, other):
        self._check_ring(other)
        p = self.ring.p
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = (terms.get(m, 0) + c1 * c2) % p
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        out = Polynomial.__new__(Polynomial)
        out.ring = self.ring
        out.terms = terms
        return out

    def mul_monomial(self, mono):
        out = Polynomial.__new__(Polynomial)
        out.ring = self.ring
        out.terms = {mono_mul(m, mono): c for m, c in self.terms.items()}
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            if not any(m):
                parts.append(str(c))
            elif c == 1:
                parts.append(mono_str(self.ring, m))
            else:
                parts.append(f"{c}*{mono_str(self.ring, m)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


def truncated_lucas_power(factors, e, max_monomials=DEFAULT_MAX_MONOMIALS):
    """f^(q-1) mod m^[q], q = p^e, for f the product of the polynomials
    `factors` (at least one, over one ring): the terms of f^(q-1), with
    their coefficients, whose exponents are all below q.

    f itself is formed mod m^[q]: the first factor's terms below q, times
    each further factor.  Since q-1 = (p-1)(1 + p + ... + p^(e-1)),
    f^(q-1) is the product of the Frobenius powers (f^(p-1))^[p^i] for
    i < e.  Every term with an exponent >= q is dropped as soon as it is
    formed, while f, then f^(p-1), is formed and while the factors are
    multiplied: exponents only grow, so no later product can bring it
    back, and every term kept gets its full coefficient.

    The factors are multiplied from i = e-1 down to 0.  After k of them
    the product is (f^(p^k-1) mod m^[p^k])^[p^(e-k)], so the loop stops
    once it is empty: an f with f^(p-1) in m^[p] is settled by the first
    factor.

    A monomial is packed into one int, w = q.bit_length() + 1 bits per
    exponent, so a product of monomials is one addition.  "Every exponent
    below c" is one mask test, (m + below(c)) & high == 0: below(c) adds
    2^(w-1) - c to each slot and high masks each slot's top bit.  Operands
    with exponents below q keep each slot of the sum below 2q <= 2^w, so
    no carry crosses slots.  Coefficients are reduced mod p once per
    product, and the monomials unpacked once at the end.

    `max_monomials` bounds the term pairs multiplied, summed over every
    product on the way, f's included: each product of a by b terms adds
    |a|*|b| to one running count, checked before the product is formed.
    A single factor costs nothing before f^(p-1).
    """
    if e < 0:
        raise ValueError("e must be nonnegative")
    ring = factors[0].ring
    p = ring.p
    q = p**e
    w = q.bit_length() + 1
    ones = sum(1 << (w * v) for v in range(ring.nvars))
    high = ones << (w - 1)

    def below(c):
        return ((1 << (w - 1)) - c) * ones

    off = below(q)

    def live(g):
        return [(sum(x << (w * v) for v, x in enumerate(m)), c) for m, c in g.terms.items() if max(m) < q]

    pairs = 0

    def times(terms, factor):
        nonlocal pairs
        pairs += len(terms) * len(factor)
        if pairs > max_monomials:
            raise ResourceGuardError(
                f"f^(q-1) mod m^[q] takes at least {pairs} term products, over the guard {max_monomials}"
            )
        product = {}
        for m1, c1 in terms.items():
            for m2, c2 in factor:
                m = m1 + m2
                if not (m + off) & high:
                    product[m] = product.get(m, 0) + c1 * c2
        return {m: r for m, c in product.items() if (r := c % p)}

    f = dict(live(factors[0]))
    for g in factors[1:]:
        f = times(f, live(g))
    base = {0: 1}
    for _ in range(p - 1):
        base = times(base, f.items())
    terms = {0: 1}
    for i in range(e - 1, -1, -1):
        if not terms:
            break
        scale = p**i
        cap = below(q // scale)
        terms = times(terms, [(m * scale, c) for m, c in base.items() if not (m + cap) & high])
    mask = (1 << w) - 1
    return Polynomial(ring, {
        tuple((m >> (w * v)) & mask for v in range(ring.nvars)): c for m, c in terms.items()
    })


# ---------------------------------------------------------------------------
# text grammar: terms joined by '+' (or '-'), term = optional integer
# coefficient and '*'-separated powers `x^k`; whitespace insignificant.

_TOKEN_RE = re.compile(rf"\s*(?:(?P<num>\d+)|(?P<word>{_NAME}|[-+*^])|(?P<bad>\S))")


def _tokenize(text):
    """The tokens of the stripped text in one scan: numbers as ints, names
    and the operators + - * ^ as strings.  The `bad` group matches any
    other character, so the matches cover the text and the first one it
    takes is refused, quoted from the whitespace before it."""
    text = text.strip()
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        num, word, bad = m.groups()
        if bad is not None:
            pos = m.start()
            raise ParseError(f"unexpected character at {text[pos:pos + 10]!r}")
        tokens.append(word if num is None else int(num))
    return tokens


_OPS = frozenset("+-*^")


def parse_polynomial(ring, text):
    """Parse the polynomial text grammar; coefficients reduce mod p."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    terms = {}
    i = 0
    n = len(tokens)
    p = ring.p
    sign = 1
    while i < n:
        # optional leading signs for this term
        while i < n and tokens[i] in ("+", "-"):
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError("trailing sign without a term")
        coeff = 1
        mono = [0] * ring.nvars
        while True:
            if i >= n:
                raise ParseError("expected a factor after '*'")
            tok = tokens[i]
            i += 1
            if type(tok) is int:
                coeff = coeff * tok
            elif tok in _OPS:
                raise ParseError(f"unexpected {tok!r} inside term")
            else:
                v = ring.var_index(tok)
                exp = 1
                if i < n and tokens[i] == "^":
                    i += 1
                    if i >= n or type(tokens[i]) is not int:
                        raise ParseError(f"expected exponent after {tok}^")
                    exp = tokens[i]
                    i += 1
                if exp >= EXPONENT_LIMIT:
                    raise ExponentOverflowError(f"exponent {exp} exceeds 2^31")
                mono[v] += exp
            if i < n and tokens[i] == "*":
                i += 1
                continue
            break
        m = tuple(mono)
        c = (terms.get(m, 0) + sign * coeff) % p
        if c:
            terms[m] = c
        else:
            terms.pop(m, None)
        sign = 1
        if i < n:
            tok = tokens[i]
            if tok not in ("+", "-"):
                raise ParseError(f"expected '+' between terms, got {tok!r}")
            sign = -1 if tok == "-" else 1
            i += 1
            if i >= n:
                raise ParseError("trailing operator")
    return Polynomial(ring, terms)


# a comma-separated list of bare monomials, exponents of at most ten
# digits: powers x^k each followed by '*' or ',' but the last, so no
# generator is empty
_POWER = rf"\s*{_NAME}(?:\s*\^\s*\d{{1,10}})?\s*"
_BARE_MONOMIALS_RE = re.compile(rf"{_POWER}(?:[*,]{_POWER})*")
_POWER_RE = re.compile(rf"({_NAME})(?:\s*\^\s*(\d+))?")


def parse_monomials(ring, text):
    """The exponent tuples of the comma-separated generators in `text` when
    each is a bare monomial, names joined by '*', each with an optional
    '^' and digits, whitespace where the polynomial grammar allows it;
    None for any other text.

    One regex match decides, then each generator is read one match per
    factor.  None also when a name is not a variable of the ring, an
    exponent is written with more than ten digits, or an exponent or a sum
    of them reaches 2^31, so that every error, coefficient, constant and
    sign is left to `parse_polynomial`.  Where this reader gives tuples,
    that one gives the same monomials, one per generator."""
    if not _BARE_MONOMIALS_RE.fullmatch(text):
        return None
    index = ring._index
    monos = []
    for chunk in text.split(","):
        mono = [0] * len(index)
        for name, exp in _POWER_RE.findall(chunk):
            v = index.get(name)
            if v is None:
                return None
            mono[v] += int(exp) if exp else 1
        if max(mono) >= EXPONENT_LIMIT:
            return None
        monos.append(tuple(mono))
    return monos

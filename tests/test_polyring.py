import itertools
import math
import re

import pytest
from conftest import frobenius, monomials_of_degree, naive_power
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcalc import MonomialIdeal, ParseError, Polynomial, PolyRing, is_prime
from frobcalc.errors import (
    ExponentOverflowError,
    ResourceGuardError,
    RingMismatchError,
)
from frobcalc.polyring import (
    DEFAULT_MAX_MONOMIALS,
    EXPONENT_LIMIT,
    PRIME_TEST_LIMIT,
    bounded_count,
    capped_power,
    drl_key,
    mono_sorted,
    parse_monomials,
    parse_polynomial,
    truncated_lucas_power,
)


def poly(ring, text):
    return parse_polynomial(ring, text)


def multinomial_power(f, n):
    """Oracle for repeated multiplication: f^n by the multinomial theorem,
    a sum over the compositions k of n into one part per term of f."""
    items = list(f.terms.items())
    if not items:
        return Polynomial.one(f.ring) if n == 0 else f
    terms = {}
    for bars in itertools.combinations(range(n + len(items) - 1), len(items) - 1):
        parts = [b - a - 1 for a, b in zip((-1,) + bars, bars + (n + len(items) - 1,))]
        coeff = math.factorial(n)
        mono = [0] * f.ring.nvars
        for (m, c), k in zip(items, parts):
            coeff = coeff // math.factorial(k) * c**k
            mono = [x + k * y for x, y in zip(mono, m)]
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + coeff
    return Polynomial(f.ring, terms)


def full_lucas_power(f, e):
    """f^(q-1), q = p^e, in full: the product of the Frobenius powers
    (f^(p-1))^[p^i] for i < e, with nothing dropped (the identity
    f^(p^e) = f^[p^e] is checked against naive_power in TestFrobenius)."""
    base = naive_power(f, f.ring.p - 1)
    out = Polynomial.one(f.ring)
    for i in range(e):
        out = out * frobenius(base, i)
    return out


def live_terms(f, q):
    """The terms of f with every exponent below q, i.e. f mod m^[q]."""
    return {m: c for m, c in f.terms.items() if max(m) < q}


def trial_division(n):
    """Oracle for is_prime."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def small_polys(ring, max_terms=4, max_exp=3):
    monos = st.tuples(*[st.integers(0, max_exp) for _ in range(ring.nvars)])
    return st.dictionaries(monos, st.integers(0, ring.p - 1), max_size=max_terms).map(
        lambda terms: Polynomial(ring, terms)
    )


class TestPrimality:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 32003, 2**31 - 1])
    def test_primes(self, p):
        assert is_prime(p)

    @pytest.mark.parametrize("n", [0, 1, 4, 6, 9, 91, 32000, 2**31 - 3])
    def test_composites(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize(
        "n,factors",
        [
            # strong pseudoprimes to the bases 2..7, 2..17 and 2..23
            (3215031751, [151, 751, 28351]),
            (341550071728321, [10670053, 32010157]),
            (3825123056546413051, [149491, 747451, 34233211]),
        ],
    )
    def test_strong_pseudoprimes(self, n, factors):
        assert math.prod(factors) == n
        assert not is_prime(n)

    # the last one is the largest prime below PRIME_TEST_LIMIT
    @pytest.mark.parametrize("p", [2**61 - 1, 2**64 - 59, PRIME_TEST_LIMIT - 20])
    def test_large_primes(self, p):
        assert is_prime(p)

    def test_large_composite(self):
        assert 193707721 * 761838257287 == 2**67 - 1
        assert not is_prime(2**67 - 1)

    def test_undecided_beyond_the_limit(self):
        with pytest.raises(ValueError, match="primality is decided only below"):
            is_prime(PRIME_TEST_LIMIT)

    def test_matches_trial_division(self):
        for n in range(-3, 20000):
            assert is_prime(n) == trial_division(n), n

    @given(st.integers(2, 10**12))
    @settings(max_examples=60, deadline=None)
    def test_matches_trial_division_on_large_numbers(self, n):
        assert is_prime(n) == trial_division(n)

    def test_ring_rejects_composite(self):
        with pytest.raises(ParseError):
            PolyRing(4, ["x"])

    def test_ring_rejects_duplicate_vars(self):
        with pytest.raises(ParseError):
            PolyRing(2, ["x", "x"])

    @pytest.mark.parametrize("name", ["x\n", "x ", " x", "x\ny", "2x", ""])
    def test_ring_rejects_a_name_the_grammar_cannot_read(self, name):
        # a name must match whole: `$` alone would let a final newline in
        with pytest.raises(ParseError, match="invalid variable name"):
            PolyRing(2, [name])


class TestAddition:
    def test_additive_inverse_mod_p(self):
        ring = PolyRing(5, ["x"])
        assert poly(ring, "x") + poly(ring, "4*x") == Polynomial.zero(ring)

    def test_distinct_variables(self, ring2):
        assert poly(ring2, "x") + poly(ring2, "y") == poly(ring2, "x + y")

    def test_char_two_cancellation(self, ring2):
        # (x^2 + xy) + xy = x^2 since 2 = 0 in F_2
        assert poly(ring2, "x^2 + x*y") + poly(ring2, "x*y") == poly(ring2, "x^2")

    def test_ring_mismatch(self, ring2, ring3):
        with pytest.raises(RingMismatchError):
            poly(ring2, "x") + poly(ring3, "x")


class TestMultiplication:
    def test_variables(self, ring2):
        assert poly(ring2, "x") * poly(ring2, "y") == poly(ring2, "x*y")

    def test_freshmans_dream(self, ring2):
        f = poly(ring2, "x + y")
        assert f * f == poly(ring2, "x^2 + y^2")

    def test_quadric_square_by_hand(self):
        ring = PolyRing(3, ["x0", "x1", "x2", "x3"])
        f = poly(ring, "x0*x1 + x2*x3")
        expected = poly(ring, "x0^2*x1^2 + 2*x0*x1*x2*x3 + x2^2*x3^2")
        assert f * f == expected

    def test_homogeneous_flag_propagates(self, ring2):
        f = poly(ring2, "x + y")
        assert (f * f).homogeneous_degree() == 2
        g = poly(ring2, "x^2 + y")
        assert g.homogeneous_degree() is None

    def test_exponent_overflow_checked(self, ring2):
        f = Polynomial.monomial(ring2, (2**30, 0))
        with pytest.raises(ExponentOverflowError):
            f * f


class TestPowers:
    """Powers by repeated multiplication, against independent expansions."""

    def test_cube(self, ring2):
        assert naive_power(poly(ring2, "x"), 3) == poly(ring2, "x^3")

    def test_matches_naive_multiplication(self):
        # f^(q-1) for q = 9, term by term from the multinomial theorem
        ring = PolyRing(3, ["x0", "x1", "x2", "x3"])
        f = poly(ring, "x0*x1 + x2*x3")
        assert naive_power(f, 8) == multinomial_power(f, 8)

    def test_multinomial_shape(self, ring5xyz):
        f = poly(ring5xyz, "x^3 + y^3 + z^3")
        g = naive_power(f, 4)
        for mono in g.terms:
            assert all(e % 3 == 0 for e in mono)
            assert sum(e // 3 for e in mono) == 4

    def test_power_zero_is_unit(self, ring2):
        # f^(q-1) mod m^[q] at q = 1 is f^0 = 1, the zero polynomial's too
        for f in (poly(ring2, "x + y"), Polynomial.zero(ring2)):
            assert naive_power(f, 0) == Polynomial.one(ring2)
            assert truncated_lucas_power([f], 0) == Polynomial.one(ring2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_power_against_oracle(self, p, data):
        ring = PolyRing(p, ["x", "y"])
        f = data.draw(small_polys(ring))
        n = data.draw(st.integers(0, 5))
        assert naive_power(f, n) == multinomial_power(f, n)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_power_of_product(self, data):
        ring = PolyRing(3, ["x", "y"])
        f = data.draw(small_polys(ring, max_terms=3, max_exp=2))
        g = data.draw(small_polys(ring, max_terms=3, max_exp=2))
        n = data.draw(st.integers(0, 6))
        assert naive_power(f * g, n) == naive_power(f, n) * naive_power(g, n)


class TestFrobenius:
    """f^(p^e) = f^[p^e]: the identity the Lucas power rests on."""

    def test_char_two(self, ring2):
        assert naive_power(poly(ring2, "x + y"), 4) == poly(ring2, "x^4 + y^4")

    def test_coefficients_are_fixed(self, ring3):
        # 2^3 = 8 = 2 mod 3, so the coefficient survives untouched
        assert naive_power(poly(ring3, "2*x + y"), 3) == poly(ring3, "2*x^3 + y^3")

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("e", [1, 2])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_against_poly_power(self, p, e, data):
        ring = PolyRing(p, ["x", "y"])
        f = data.draw(small_polys(ring))
        assert frobenius(f, e) == naive_power(f, p**e)


def homogeneous_polys(ring, degree, max_terms=3):
    """Homogeneous polynomials of the given degree; a monomial is drawn as
    the multiset of its variables."""
    monos = st.lists(st.integers(0, ring.nvars - 1), min_size=degree, max_size=degree).map(
        lambda vs: tuple(vs.count(i) for i in range(ring.nvars))
    )
    return st.dictionaries(monos, st.integers(1, ring.p - 1), min_size=1, max_size=max_terms).map(
        lambda terms: Polynomial(ring, terms)
    )


class TestTruncatedLucasPower:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_live_terms_of_full_power(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        e = data.draw(st.integers(0, max(k for k in range(6) if p**k <= 49)))
        ring = PolyRing(p, [f"x{i}" for i in range(data.draw(st.integers(1, 4)))])
        f = data.draw(homogeneous_polys(ring, data.draw(st.integers(1, 3))))
        q = p**e
        assert truncated_lucas_power([f], e).terms == live_terms(naive_power(f, q - 1), q)

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_live_terms_up_to_q_128(self, data):
        # e >= 1, largest first, capped where the full power could pass 50000 terms
        p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
        ring = PolyRing(p, [f"x{i}" for i in range(data.draw(st.integers(1, 4)))])
        f = data.draw(homogeneous_polys(ring, data.draw(st.integers(1, 4)), max_terms=5))
        base = len(naive_power(f, p - 1).terms)
        e = data.draw(st.sampled_from([k for k in range(7, 0, -1) if p**k <= 128 and base**k <= 50000]))
        q = p**e
        assert truncated_lucas_power([f], e).terms == live_terms(full_lucas_power(f, e), q)

    @pytest.mark.parametrize("e", range(8))
    def test_slot_width_jumps_at_powers_of_two(self, e):
        # q = 2^e: the slot width q.bit_length() + 1 grows at every e
        ring = PolyRing(2, ["x0", "x1", "x2", "x3"])
        f = poly(ring, "x0*x1 + x2*x3 + x0*x2 + x1^2")
        got = truncated_lucas_power([f], e).terms
        assert got == live_terms(full_lucas_power(f, e), 2**e)
        assert got

    @pytest.mark.parametrize("p", [2, 5, 11])
    def test_zero_at_e_one_stays_zero(self, p):
        # f^(p-1) in m^[p] puts every f^(q-1) in m^[q]
        f = poly(PolyRing(p, ["x", "y", "z"]), "x^3 + y^3 + z^3")
        for e in range(1, 9):
            assert truncated_lucas_power([f], e).is_zero(), e

    def test_fermat_cubic_keeps_only_the_corner(self, ring5xyz):
        # at p = 5 the corner coefficient of f^624 vanishes by Lucas' theorem
        assert truncated_lucas_power([poly(ring5xyz, "x^3 + y^3 + z^3")], 4).is_zero()
        ring = PolyRing(7, ["x", "y", "z"])
        g = truncated_lucas_power([poly(ring, "x^3 + y^3 + z^3")], 4)
        assert list(g.terms) == [(2400, 2400, 2400)]

    def test_fermat_cubic_corner_at_p7_e5(self):
        # one corner per factor: 90^5 = (-1)^5 mod 7, 90 = 6!/(2!)^3 the
        # coefficient of (x*y*z)^6 in f^6
        f = poly(PolyRing(7, ["x", "y", "z"]), "x^3 + y^3 + z^3")
        assert truncated_lucas_power([f], 5).terms == {(16806, 16806, 16806): 6}


class TestCommutativityAssociativity:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_mul_commutative_associative(self, data):
        ring = PolyRing(5, ["x", "y"])
        f = data.draw(small_polys(ring, max_terms=3))
        g = data.draw(small_polys(ring, max_terms=3))
        h = data.draw(small_polys(ring, max_terms=3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def walked_level(ring, d, cap=None, max_monomials=DEFAULT_MAX_MONOMIALS):
    """The degree-d level of the staircase walk of the zero ideal, or of
    m^[cap + 1] when cap is given: every monomial of degree d, each
    exponent at most cap."""
    n = ring.nvars
    gens = [] if cap is None else [tuple(cap + 1 if w == v else 0 for w in range(n)) for v in range(n)]
    return MonomialIdeal(ring, gens).staircase(d, max_monomials=max_monomials)[d]


class TestMonomialEnumeration:
    """The staircase walk is the only enumeration of monomials; the brute
    force scan of the exponent box is its oracle."""

    def test_two_vars_degree_two(self, ring2):
        assert walked_level(ring2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_cap_excludes_squares(self, ring2):
        assert walked_level(ring2, 2, cap=1) == [(1, 1)]

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [0, 1, 2, 5, 8])
    def test_count_is_stars_and_bars(self, nvars, d):
        ring = PolyRing(2, [f"x{i}" for i in range(nvars)])
        got = walked_level(ring, d)
        assert len(got) == math.comb(d + nvars - 1, nvars - 1)
        assert got == monomials_of_degree(ring, d)

    def test_strictly_sorted(self, ring5xyz):
        got = walked_level(ring5xyz, 4)
        keys = [drl_key(m) for m in got]
        assert all(a > b for a, b in zip(keys, keys[1:]))

    def test_resource_guard(self, ring2):
        # degree d takes d + 1 candidates, so the walk stops at degree 13,
        # where the running total 1 + 2 + ... + 14 = 105 first passes 100
        with pytest.raises(ResourceGuardError, match="^enumeration of 105 monomials exceeds guard 100$"):
            walked_level(ring2, 10**8, max_monomials=100)

    def test_bounded_count_matches_enumeration(self, ring5xyz):
        for d in range(8):
            for cap in (None, 1, 2, 3):
                got = walked_level(ring5xyz, d, cap=cap)
                assert got == monomials_of_degree(ring5xyz, d, cap=cap)
                assert bounded_count(3, d, cap) == len(got)

    @pytest.mark.parametrize(
        "p,e,cap,expected",
        [(3, 2, 100, (9, 2)), (2, 17, 2**16, (2**17, 17)), (2, 18, 2**16, (2**17, 17)),
         (3, 10**9, 100, (243, 5)), (2, 0, 0, (1, 0))],
    )
    def test_capped_power_stops_at_the_first_power_past_the_cap(self, p, e, cap, expected):
        assert capped_power(p, e, cap) == expected


class TestParsing:
    def test_whitespace_insignificant(self, ring2):
        assert poly(ring2, " x ^ 2 + x * y ") == poly(ring2, "x^2+x*y")

    def test_coefficients_reduce_mod_p(self, ring5xyz):
        assert poly(ring5xyz, "7*x") == poly(ring5xyz, "2*x")

    def test_round_trip(self, ring5xyz):
        f = poly(ring5xyz, "x^4 + 2*x^2*y^2 + y^4 + 3*z")
        assert parse_polynomial(ring5xyz, str(f)) == f

    def test_rejects_unknown_variable(self, ring2):
        with pytest.raises(ParseError):
            poly(ring2, "x + w")

    def test_rejects_garbage(self, ring2):
        with pytest.raises(ParseError):
            poly(ring2, "x +")
        with pytest.raises(ParseError):
            poly(ring2, "(x)")
        for text in ("2*", "x*", "x^2*y*"):
            with pytest.raises(ParseError):
                poly(ring2, text)

    @pytest.mark.parametrize("text, monos", [
        ("x*y, z^2", [(1, 1, 0), (0, 0, 2)]),
        (" x ^ 2 * x ,\ty\n", [(3, 0, 0), (0, 1, 0)]),
        ("x^0,z", [(0, 0, 0), (0, 0, 1)]),
        ("x^2147483647", [(2**31 - 1, 0, 0)]),
        ("x^0000000002", [(2, 0, 0)]),
        # left to the polynomial grammar
        ("x,,y", None), ("x,", None), ("", None), ("2*x", None), ("x + y", None), ("-x", None),
        ("1", None), ("0", None), ("w", None), ("x y", None), ("x^2y", None),
        ("x^2147483648", None), ("x^1073741824*x^1073741824", None), ("x^00000000002", None),
    ])
    def test_bare_monomial_reader(self, ring5xyz, text, monos):
        assert parse_monomials(ring5xyz, text) == monos
        if monos is not None:
            assert [poly(ring5xyz, chunk) for chunk in text.split(",")] == [
                Polynomial.monomial(ring5xyz, m) for m in monos
            ]

    def test_minus_folds_into_coefficient(self, ring5xyz):
        assert poly(ring5xyz, "x - y") == poly(ring5xyz, "x + 4*y")

    def test_constant_and_zero(self, ring2):
        assert poly(ring2, "1") == Polynomial.one(ring2)
        assert poly(ring2, "0").is_zero()


# The match-per-token tokenizer and the tuple-token parser that the one-scan
# versions replaced, kept as their oracle.
_ORACLE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^]))"
)


def oracle_tokenize(text):
    text = text.strip()
    pos = 0
    tokens = []
    while pos < len(text):
        m = _ORACLE_TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected character at {text[pos:pos + 10]!r}")
        if m.lastgroup == "num":
            tokens.append(("num", int(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def oracle_parse_polynomial(ring, text):
    tokens = oracle_tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    terms = {}
    i = 0
    n = len(tokens)
    p = ring.p
    sign = 1
    while i < n:
        while i < n and tokens[i] == ("op", "+") or i < n and tokens[i] == ("op", "-"):
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError("trailing sign without a term")
        coeff = 1
        mono = [0] * ring.nvars
        saw_factor = False
        while True:
            if i >= n:
                raise ParseError("expected a factor after '*'")
            kind, val = tokens[i]
            if kind == "num":
                coeff = coeff * val
                i += 1
            elif kind == "name":
                v = ring.var_index(val)
                exp = 1
                i += 1
                if i < n and tokens[i] == ("op", "^"):
                    i += 1
                    if i >= n or tokens[i][0] != "num":
                        raise ParseError(f"expected exponent after {val}^")
                    exp = tokens[i][1]
                    i += 1
                if exp >= EXPONENT_LIMIT:
                    raise ExponentOverflowError(f"exponent {exp} exceeds 2^31")
                mono[v] += exp
            else:
                raise ParseError(f"unexpected {val!r} inside term")
            saw_factor = True
            if i < n and tokens[i] == ("op", "*"):
                i += 1
                continue
            break
        if not saw_factor:
            raise ParseError("empty term")
        m = tuple(mono)
        c = (terms.get(m, 0) + sign * coeff) % p
        if c:
            terms[m] = c
        else:
            terms.pop(m, None)
        sign = 1
        if i < n:
            kind, val = tokens[i]
            if kind != "op" or val not in "+-":
                raise ParseError(f"expected '+' between terms, got {val!r}")
            sign = -1 if val == "-" else 1
            i += 1
            if i >= n:
                raise ParseError("trailing operator")
    return Polynomial(ring, terms)


def parse_outcome(parse, ring, text):
    """The term map, or the exception's type and message."""
    try:
        return parse(ring, text).terms
    except Exception as exc:
        return type(exc), str(exc)


# known and unknown names, digits and 11-digit numbers (past 2^31 as an
# exponent), the operators, whitespace, and characters outside the grammar
_PIECES = ["x", "y", "w", "x_1", "0", "1", "3", "7", "12345678901", "^", "*", "+", "-",
           " ", "\t", "$", ",", "("]


class TestParserOracle:
    @given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_tuple_token_parser(self, text):
        ring = PolyRing(5, ["x", "y"])
        assert parse_outcome(parse_polynomial, ring, text) == parse_outcome(oracle_parse_polynomial, ring, text)

    @pytest.mark.parametrize("text", ["x $", "  x^2 +\t(y)", "3*x^12345678901", "x y", "3^2", "x^", "-", "x--y"])
    def test_matches_on_hand_picked_texts(self, ring2, text):
        assert parse_outcome(parse_polynomial, ring2, text) == parse_outcome(oracle_parse_polynomial, ring2, text)


def test_sorted_terms_descending(ring2):
    f = parse_polynomial(ring2, "x^2 + x*y + y^2 + x + 1")
    monos = [m for m, _ in f.sorted_terms()]
    assert monos == mono_sorted(monos)
    assert monos[0] == (2, 0)

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcalc import ParseError, Polynomial, PolyRing, frobenius_power, is_prime
from frobcalc.errors import (
    ExponentOverflowError,
    ResourceGuardError,
    RingMismatchError,
)
from frobcalc.polyring import (
    PRIME_TEST_LIMIT,
    bounded_count,
    drl_key,
    mono_sorted,
    monomials_of_degree,
    parse_polynomial,
    truncated_lucas_power,
)


def poly(ring, text):
    return parse_polynomial(ring, text)


def naive_power(f, n):
    """Oracle for repeated squaring: plain repeated multiplication."""
    out = Polynomial.one(f.ring)
    for _ in range(n):
        out = out * f
    return out


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
    def test_cube(self, ring2):
        assert poly(ring2, "x") ** 3 == poly(ring2, "x^3")

    def test_matches_naive_multiplication(self):
        ring = PolyRing(3, ["x0", "x1", "x2", "x3"])
        f = poly(ring, "x0*x1 + x2*x3")
        assert f**2 == naive_power(f, 2)

    def test_multinomial_shape(self, ring5xyz):
        f = poly(ring5xyz, "x^3 + y^3 + z^3")
        g = f**4
        for mono in g.terms:
            assert all(e % 3 == 0 for e in mono)
            assert sum(e // 3 for e in mono) == 4

    def test_power_zero_is_unit(self, ring2):
        assert poly(ring2, "x + y") ** 0 == Polynomial.one(ring2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_power_against_oracle(self, p, data):
        ring = PolyRing(p, ["x", "y"])
        f = data.draw(small_polys(ring))
        n = data.draw(st.integers(0, 5))
        assert f**n == naive_power(f, n)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_power_of_product(self, data):
        ring = PolyRing(3, ["x", "y"])
        f = data.draw(small_polys(ring, max_terms=3, max_exp=2))
        g = data.draw(small_polys(ring, max_terms=3, max_exp=2))
        n = data.draw(st.integers(0, 6))
        assert (f * g) ** n == (f**n) * (g**n)


class TestFrobenius:
    def test_char_two(self, ring2):
        assert frobenius_power(poly(ring2, "x + y"), 1) == poly(ring2, "x^2 + y^2")

    def test_coefficients_are_fixed(self, ring3):
        # 2^3 = 8 = 2 mod 3, so the coefficient survives untouched
        assert frobenius_power(poly(ring3, "2*x + y"), 1) == poly(ring3, "2*x^3 + y^3")

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("e", [1, 2])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_against_poly_power(self, p, e, data):
        ring = PolyRing(p, ["x", "y"])
        f = data.draw(small_polys(ring))
        assert frobenius_power(f, e) == naive_power(f, p**e)


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
        live = {m: c for m, c in (f ** (q - 1)).terms.items() if max(m) < q}
        assert truncated_lucas_power(f, e).terms == live

    def test_fermat_cubic_keeps_only_the_corner(self, ring5xyz):
        # at p = 5 the corner coefficient of f^624 vanishes by Lucas' theorem
        assert truncated_lucas_power(poly(ring5xyz, "x^3 + y^3 + z^3"), 4).is_zero()
        ring = PolyRing(7, ["x", "y", "z"])
        g = truncated_lucas_power(poly(ring, "x^3 + y^3 + z^3"), 4)
        assert list(g.terms) == [(2400, 2400, 2400)]


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


class TestMonomialEnumeration:
    def test_two_vars_degree_two(self, ring2):
        assert monomials_of_degree(ring2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_cap_excludes_squares(self, ring2):
        assert monomials_of_degree(ring2, 2, cap=1) == [(1, 1)]

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [0, 1, 2, 5, 8])
    def test_count_is_stars_and_bars(self, nvars, d):
        ring = PolyRing(2, [f"x{i}" for i in range(nvars)])
        got = monomials_of_degree(ring, d)
        assert len(got) == math.comb(d + nvars - 1, nvars - 1)

    def test_strictly_sorted(self, ring5xyz):
        got = monomials_of_degree(ring5xyz, 4)
        keys = [drl_key(m) for m in got]
        assert all(a > b for a, b in zip(keys, keys[1:]))

    def test_resource_guard(self, ring2):
        with pytest.raises(ResourceGuardError):
            monomials_of_degree(ring2, 10**8, max_monomials=1000)

    def test_bounded_count_matches_enumeration(self, ring5xyz):
        for d in range(8):
            for cap in (None, 1, 2, 3):
                assert bounded_count(3, d, cap) == len(
                    monomials_of_degree(ring5xyz, d, cap=cap)
                )


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

    def test_minus_folds_into_coefficient(self, ring5xyz):
        assert poly(ring5xyz, "x - y") == poly(ring5xyz, "x + 4*y")

    def test_constant_and_zero(self, ring2):
        assert poly(ring2, "1") == Polynomial.one(ring2)
        assert poly(ring2, "0").is_zero()


def test_sorted_terms_descending(ring2):
    f = parse_polynomial(ring2, "x^2 + x*y + y^2 + x + 1")
    monos = [m for m, _ in f.sorted_terms()]
    assert monos == mono_sorted(monos)
    assert monos[0] == (2, 0)

"""Independent checks for frobcalc reports.

Nothing here imports frobcalc: every expected value is computed from the
mathematics (Lucas' theorem, staircase counts, closed-form Betti numbers)
with plain Python, so a defect in the program's arithmetic cannot hide in
its own check.  Each check takes the parsed JSON envelope and returns a
list of error strings; an empty list means the report is correct.

Monomials are exponent tuples in the order of the query's variable list.
"""

from __future__ import annotations

import itertools
import math


# ---------------------------------------------------------------------------
# counting and monomial helpers


def box_count(nparts, total, cap):
    """Exponent vectors with `nparts` entries in 0..cap summing to `total`,
    counted by a running table (not inclusion-exclusion)."""
    if total < 0:
        return 0
    ways = [1] + [0] * total
    for _ in range(nparts):
        nxt = [0] * (total + 1)
        for t in range(total + 1):
            if ways[t]:
                for k in range(min(cap, total - t) + 1):
                    nxt[t + k] += ways[t]
        ways = nxt
    return ways[total]


def monomials(nvars, d):
    """Every exponent vector of total degree d (any order)."""
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        m = [0] * nvars
        for v in combo:
            m[v] += 1
        yield tuple(m)


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def in_ideal(gens, m):
    return any(divides(g, m) for g in gens)


def hilbert_function(gens, nvars, d):
    """dim_k (S/I)_d for the monomial ideal generated by `gens`."""
    return sum(1 for m in monomials(nvars, d) if not in_ideal(gens, m))


def staircase(gens, nvars):
    """All standard monomials of an artinian monomial quotient."""
    out = []
    d = 0
    while True:
        layer = [m for m in monomials(nvars, d) if not in_ideal(gens, m)]
        if not layer:
            return out
        out.extend(layer)
        d += 1


def loewy_length(gens, nvars):
    d = 0
    while any(not in_ideal(gens, m) for m in monomials(nvars, d)):
        d += 1
    return d


def is_artinian(gens, nvars):
    return all(
        any(g[v] and sum(g) == g[v] for g in gens) for v in range(nvars)
    )


def disjoint_supports(gens):
    seen = set()
    for g in gens:
        support = {v for v, e in enumerate(g) if e}
        if support & seen:
            return False
        seen |= support
    return True


# ---------------------------------------------------------------------------
# parsing the report's polynomial and monomial strings


def parse_monomial(text, names):
    exps = [0] * len(names)
    if text == "1":
        return tuple(exps)
    index = {name: i for i, name in enumerate(names)}
    for factor in text.split("*"):
        name, _, power = factor.partition("^")
        exps[index[name]] += int(power) if power else 1
    return tuple(exps)


def parse_polynomial(text, names):
    """{monomial: coefficient} from the report's `c*x^a*y^b + ...` form."""
    terms = {}
    for part in text.split(" + "):
        head, _, rest = part.partition("*")
        if head.isdigit():
            coeff, mono = int(head), (rest or "1")
        else:
            coeff, mono = 1, part
        terms[parse_monomial(mono, names)] = coeff
    return terms


# ---------------------------------------------------------------------------
# f^(q-1) for a sum of monomials with disjoint supports, by Lucas' theorem


def lucas_power(terms, p, e, live_only=False):
    """Terms of f^(q-1) mod p, q = p^e, for f = sum of c_i * m_i with the
    monomials m_i on pairwise disjoint variables (so no two products
    collide).  The multinomial coefficient of k = (k_1..k_r), |k| = q-1,
    is nonzero mod p exactly when the base-p digits of the k_i add up to
    the digits p-1 of q-1 without carries, and then it is the product of
    the digitwise multinomials.  With `live_only`, only terms whose every
    exponent is < q are kept."""
    q = p**e
    r = len(terms)
    digit_splits = []
    for split in itertools.product(range(p), repeat=r):
        if sum(split) == p - 1:
            multinomial = math.factorial(p - 1)
            for k in split:
                multinomial //= math.factorial(k)
            digit_splits.append((split, multinomial % p))
    nvars = len(terms[0][1])
    # a partial k only grows, so a term that is dead stays dead
    partial = {(0,) * r: 1}
    for position in range(e):
        place = p**position
        nxt = {}
        for k, c in partial.items():
            for split, multinomial in digit_splits:
                k2 = tuple(a + place * b for a, b in zip(k, split))
                if live_only and any(
                    k2[i] * m[v] >= q for i, (_, m) in enumerate(terms) for v in range(nvars)
                ):
                    continue
                nxt[k2] = c * multinomial % p
        partial = nxt
    out = {}
    for k, c in partial.items():
        coeff = c
        mono = [0] * nvars
        for ki, (ci, m) in zip(k, terms):
            coeff = coeff * pow(ci, ki, p) % p
            for v in range(nvars):
                mono[v] += ki * m[v]
        if coeff:
            out[tuple(mono)] = coeff
    return out


class CIModel:
    """A hypersurface f = sum c_i m_i (disjoint supports) with its closed
    forms: R(-j) splits off F^e_*R iff some live term t of f^(q-1) has
    sum(q-1-t_v) >= q*j."""

    def __init__(self, names, terms, p):
        self.names = names
        self.terms = terms  # [(coefficient, monomial)]
        self.p = p
        self.degree = sum(terms[0][1])
        self._power = {}

    @property
    def nvars(self):
        return len(self.names)

    def power(self, e, live_only=True):
        key = (e, live_only)
        if key not in self._power:
            self._power[key] = lucas_power(self.terms, self.p, e, live_only)
        return self._power[key]

    def live(self, e):
        return self.power(e)

    def best_slack(self, e):
        q = self.p**e
        return max((sum(q - 1 - x for x in t) for t in self.live(e)), default=-1)

    def summand(self, e, j):
        return self.best_slack(e) >= self.p**e * j

    def check_certificate(self, cert, e, j):
        """Verdict, and the evidence behind it, against the closed form."""
        errors = []
        q = self.p**e
        if (cert.get("q"), cert.get("e"), cert.get("twist")) != (q, e, j):
            errors.append(f"certificate header {cert.get('q'), cert.get('e'), cert.get('twist')}")
        expected = self.summand(e, j)
        if cert.get("verdict") is not expected:
            return errors + [f"e={e} j={j}: verdict {cert.get('verdict')}, closed form {expected}"]
        if expected:
            errors += self._check_witness(cert["witness"], e, j)
        else:
            search = cert.get("search") or {}
            if search.get("degree") != q * j:
                errors.append(f"search degree {search.get('degree')} != {q * j}")
            want = box_count(self.nvars, q * j, q - 1)
            if search.get("candidates") != want:
                errors.append(f"search candidates {search.get('candidates')} != {want}")
        return errors

    def _check_witness(self, witness, e, j):
        q = self.p**e
        s = parse_monomial(witness["s"], self.names)
        term = parse_monomial(witness["surviving_term"], self.names)
        errors = []
        if sum(s) != q * j:
            errors.append(f"witness s has degree {sum(s)}, not {q * j}")
        t = tuple(a - b for a, b in zip(term, s))
        if min(t) < 0 or t not in self.live(e):
            errors.append("surviving term is not s times a live term of f^(q-1)")
        if max(term) >= q:
            errors.append("surviving term lies in m^[q]")
        errors += self.check_power_string(witness["colon_generator"], e)
        return errors

    def check_power_string(self, text, e):
        """The printed f^(q-1): every printed term is a term of f^(q-1)
        with its coefficient, and every live term is printed (terms inside
        m^[q] may be left out)."""
        printed = parse_polynomial(text, self.names)
        full = self.power(e, live_only=False)
        if any(full.get(m) != c for m, c in printed.items()):
            return ["colon generator has a term that f^(q-1) does not have"]
        if any(printed.get(m) != c for m, c in self.live(e).items()):
            return ["colon generator misses a live term of f^(q-1)"]
        return []


# ---------------------------------------------------------------------------
# monomial ideals


class MonomialModel:
    """A monomial ideal, with brute-force answers computed from its
    generators."""

    def __init__(self, names, gens, p):
        self.names = names
        self.gens = [tuple(g) for g in gens]
        self.p = p

    @property
    def nvars(self):
        return len(self.names)

    def in_colon(self, c, q):
        """c in (I^[q] : I): c*g in I^[q] for every generator g."""
        bracket = [tuple(q * x for x in h) for h in self.gens]
        return all(
            in_ideal(bracket, tuple(a + b for a, b in zip(c, g))) for g in self.gens
        )

    def best_slack(self, e):
        """Largest sum(q-1-c_v) over colon elements c inside the box
        [0, q-1]^n, by scanning the whole box; -1 when none."""
        q = self.p**e
        best = -1
        for c in itertools.product(range(q), repeat=self.nvars):
            slack = sum(q - 1 - x for x in c)
            if slack > best and self.in_colon(c, q):
                best = slack
        return best

    def squarefree(self):
        return all(max(g) <= 1 for g in self.gens)

    def check_certificate(self, cert, e, j):
        errors = []
        q = self.p**e
        if (cert.get("q"), cert.get("e"), cert.get("twist")) != (q, e, j):
            errors.append(f"certificate header {cert.get('q'), cert.get('e'), cert.get('twist')}")
        expected = self.best_slack(e) >= q * j
        if j == 0 and expected != self.squarefree():
            errors.append("box scan disagrees with the squarefree criterion")
        if cert.get("verdict") is not expected:
            return errors + [f"e={e} j={j}: verdict {cert.get('verdict')}, expected {expected}"]
        if expected:
            w = cert["witness"]
            s = parse_monomial(w["s"], self.names)
            c = parse_monomial(w["colon_generator"], self.names)
            term = parse_monomial(w["surviving_term"], self.names)
            if sum(s) != q * j:
                errors.append("witness s has the wrong degree")
            if not self.in_colon(c, q):
                errors.append("colon generator is not in (I^[q] : I)")
            if term != tuple(a + b for a, b in zip(s, c)) or max(term) >= q:
                errors.append("surviving term is not s*c outside m^[q]")
        else:
            search = cert.get("search") or {}
            want = box_count(self.nvars, q * j, q - 1)
            if search.get("degree") != q * j or search.get("candidates") != want:
                errors.append(f"search record {search} != degree {q * j}, {want} candidates")
        return errors


def eagon_northcott(nvars, j):
    """Betti table of S/m^j: beta_{i, j+i-1} = C(j+i-2, i-1) C(n+j-1, j+i-1)."""
    table = {(0, 0): 1}
    for i in range(1, nvars + 1):
        table[(i, j + i - 1)] = math.comb(j + i - 2, i - 1) * math.comb(nvars + j - 1, j + i - 1)
    return table


def check_betti_table(model, table, power=None):
    """Alternating sums of the table against (1-t)^n times the Hilbert
    series, and the Eagon-Northcott numbers when I = m^power."""
    errors = []
    n = model.nvars
    top = max(d for (_i, d) in table) + 1
    hf = [hilbert_function(model.gens, n, d) for d in range(top + 1)]
    numerator = [
        sum((-1) ** k * math.comb(n, k) * hf[d - k] for k in range(min(n, d) + 1))
        for d in range(top + 1)
    ]
    alternating = [0] * (top + 1)
    for (i, d), value in table.items():
        alternating[d] += (-1) ** i * value
    if alternating != numerator:
        errors.append(f"alternating sums {alternating} != (1-t)^n HS {numerator}")
    if power is not None and table != eagon_northcott(n, power):
        errors.append("Betti table differs from the Eagon-Northcott numbers")
    return errors


def betti_length(table):
    return max(i for (i, _d) in table)

"""Independent oracles used to pin expected values.

Each oracle deliberately takes a different computational route from the
library code it checks: radical/binomial expansions instead of recurrences,
the defining recurrence instead of a closed form, brute-force scans instead
of continued fractions, sympy instead of the in-package arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction

import sympy

from sharpmap import Polynomial
from sharpmap.search import SharpWitness, Support, monomial_universe, solve_support_system


def family_by_radical_expansion(d: int) -> Polynomial:
    """Expand ((x + R)/2)^d + ((x - R)/2)^d + (-1)^(d+1) y^d with R^2 = x^2 + 4y.

    Odd powers of R cancel, leaving 2^(1-d) * sum_j C(d, 2j) x^(d-2j) (x^2+4y)^j,
    evaluated here term by term with exact rationals.
    """
    terms: dict[tuple[int, int], Fraction] = {}
    for j in range(d // 2 + 1):
        outer = math.comb(d, 2 * j)
        for t in range(j + 1):
            exp = (d - 2 * t, t)
            coeff = Fraction(outer * math.comb(j, t) * 4 ** t, 2 ** (d - 1))
            terms[exp] = terms.get(exp, Fraction(0)) + coeff
    tail = (0, d)
    terms[tail] = terms.get(tail, Fraction(0)) + (1 if d % 2 else -1)
    return Polynomial(2, {e: c for e, c in terms.items() if c})


def family_by_recurrence(d: int) -> Polynomial:
    """f(d) = g_d + (-1)^(d+1) y^d from g_0 = 2, g_1 = x, g_d = x g_{d-1} + y g_{d-2}.

    The defining recurrence, run with integer dictionaries: O(d^2) additions.
    """
    g_prev: dict[tuple[int, int], int] = {(0, 0): 2}
    g: dict[tuple[int, int], int] = {(1, 0): 1}
    for _ in range(d - 1):
        nxt = {(a + 1, b): c for (a, b), c in g.items()}
        for (a, b), c in g_prev.items():
            nxt[(a, b + 1)] = nxt.get((a, b + 1), 0) + c
        g_prev, g = g, nxt
    terms = dict(g)
    terms[(0, d)] = terms.get((0, d), 0) + (1 if d % 2 else -1)
    return Polynomial(2, terms)


def pell_fundamental_by_scan(lam: int) -> tuple[int, int]:
    """Smallest (d, k) with d^2 = lam k^2 + 1, by scanning k = 1, 2, ..."""
    k = 1
    while True:
        t = lam * k * k + 1
        d = math.isqrt(t)
        if d * d == t:
            return d, k
        k += 1


def pell_power_by_binomial(lam: int, d1: int, k1: int, m: int) -> tuple[int, int]:
    """(d1 + k1 sqrt(lam))^m expanded by the binomial theorem, split by parity."""
    d = sum(math.comb(m, i) * d1 ** (m - i) * k1 ** i * lam ** (i // 2)
            for i in range(0, m + 1, 2))
    k = sum(math.comb(m, i) * d1 ** (m - i) * k1 ** i * lam ** ((i - 1) // 2)
            for i in range(1, m + 1, 2))
    return d, k


def _variables(nvars: int) -> tuple:
    return sympy.symbols(f"x0:{nvars}")


def to_sympy(p: Polynomial):
    """The polynomial as a sympy expression in x0, ..., x_{nvars-1}."""
    xs = _variables(p.nvars)
    expr = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for x, e in zip(xs, exp):
            term *= x ** e
        expr += term
    return sympy.expand(expr)


def sympy_restriction(p: Polynomial):
    """Substitute the last variable -> 1 - (sum of the others) symbolically and expand."""
    xs = _variables(p.nvars)
    return sympy.expand(to_sympy(p).subs(xs[-1], 1 - sum(xs[:-1])))


def binomial_row(e: int) -> list[int]:
    """The coefficients (-1)^j C(e, j), j = 0..e, of (1 - x)^e."""
    row = [1] * (e + 1)
    for j in range(e):
        row[j + 1] = -row[j] * (e - j) // (j + 1)
    return row


def one_minus_sum_power(m: int, e: int) -> list[tuple[tuple[int, ...], int]]:
    """Terms of (1 - x_1 - ... - x_m)^e as (exponent, integer coefficient) pairs.

    With s = x_1 + ... + x_{m-1}: (1 - s - x_m)^e = sum_j row_e[j] x_m^j (1 - s)^(e-j).
    """
    if m == 0:
        return [((), 1)]
    return [(k + (j,), r * c)
            for j, r in enumerate(binomial_row(e))
            for k, c in one_minus_sum_power(m - 1, e - j)]


def restrict_by_terms(p: Polynomial) -> Polynomial:
    """p(x_1, ..., x_{n-1}, 1 - sum x_j) by expanding (1 - s)^e for each term.

    Each term x^head x_n^e becomes x^head (1 - x_1 - ... - x_{n-1})^e, summed
    in integers over the common denominator of the coefficients.
    """
    m = p.nvars - 1
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    out: dict[tuple[int, ...], int] = {}
    for exp, c in p.terms.items():
        scaled = c.numerator * (den // c.denominator)
        head = exp[:m]
        for k, v in one_minus_sum_power(m, exp[m]):
            key = tuple(map(operator.add, head, k))
            out[key] = out.get(key, 0) + scaled * v
    return Polynomial(m, {k: Fraction(v, den) for k, v in out.items() if v})


def sympy_h_term_count(m: int) -> int:
    """Brute-force expansion of the subtraction construction at index m.

    Uses the radical form of the family members so that nothing from the
    package's recurrence enters.
    """
    fam = {k: to_sympy(family_by_radical_expansion(k))
           for k in (4 * m - 1, 2 * m - 2)}
    x, y = _variables(2)
    expr = sympy.expand(
        fam[4 * m - 1] - (4 * m - 1) * x ** (2 * m - 1) * y * (fam[2 * m - 2] - 1))
    return len(expr.as_poly(x, y).terms())


def random_polynomial(rng: random.Random, nvars: int = 2, max_degree: int = 4,
                      max_terms: int = 5) -> Polynomial:
    """Small random polynomial with rational coefficients (seeded)."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        terms[exp] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Polynomial(nvars, {e: c for e, c in terms.items() if c})


def max_min_by_vertices(columns, rhs):
    """Max of t over { A u = rhs, u_i >= t, 0 <= t <= 1 } by vertex enumeration.

    The region lies in u >= 0, t >= 0, so it contains no line and the
    bounded objective t, when feasible, is maximal at a vertex.  A vertex is
    a feasible point where the equalities and some tight inequalities have
    full rank n + 1; every such choice is solved with sympy's LUsolve.
    Returns the optimum as a Fraction, or None when the region is empty.
    """
    n, m = len(columns), len(rhs)
    # inequality rows g . (u, t) >= h: u_i - t >= 0, t >= 0, -t >= -1
    ineqs = [([1 if j == i else 0 for j in range(n)] + [-1], 0) for i in range(n)]
    ineqs += [([0] * n + [1], 0), ([0] * n + [-1], -1)]
    eq_rows = [[columns[i][r] for i in range(n)] + [0] for r in range(m)]
    rank = sympy.Matrix(eq_rows).rank() if m else 0
    best = None
    for active in itertools.combinations(ineqs, n + 1 - rank):
        M = sympy.Matrix(eq_rows + [g for g, _ in active])
        if M.rank() < n + 1:
            continue
        b = sympy.Matrix(list(rhs) + [h for _, h in active])
        try:
            x = M.LUsolve(b)
        except ValueError:  # inconsistent
            continue
        if all(sum(g[k] * x[k] for k in range(n + 1)) >= h for g, h in ineqs):
            t = Fraction(int(x[n].p), int(x[n].q))
            best = t if best is None else max(best, t)
    return best


def enumerate_naive(degree: int, terms: int) -> list[SharpWitness]:
    """Completeness oracle: every size-``terms`` subset, no pruning, no symmetry.

    Feasible supports whose realized polynomial has the requested degree are
    returned (both orientations of asymmetric supports appear).  Intended
    for small degrees only.
    """
    out = []
    for combo in itertools.combinations(monomial_universe(degree), terms):
        res = solve_support_system(combo, degree)
        if res.feasible:
            poly = Polynomial(2, dict(zip(combo, res.coefficients)))
            if poly.degree() == degree:
                out.append(SharpWitness(Support(degree, combo), poly, res.freedom))
    return out

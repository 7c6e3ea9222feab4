"""Independent oracles used to pin expected values.

Each oracle deliberately takes a different computational route from the
library code it checks: radical/binomial expansions instead of recurrences,
the defining recurrence or repeated squaring instead of a closed form,
brute-force scans instead of continued fractions, unit classes and
Sylvester's two-coin formula, sympy instead of the in-package arithmetic,
whole-system elimination instead of column-by-column reduction, the basis
x^k y^(d-k) instead of powers of x, a filter over every combination instead
of a pruned depth-first walk, row-by-row echelon forms instead of the column
reduction's lead row and pivot rows, and the standard library's Gaussian
instead of the sphere check's own Box-Muller draws.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import time
from fractions import Fraction
from types import MappingProxyType

import sympy

from sharpmap import Polynomial
from sharpmap import search
from sharpmap.polynomial import line_columns
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


def ladder_identity_by_squaring(j: int) -> Polynomial:
    """P_j from P_1 = x^2 + 2y and P_(j+1) = P_j^2 - 2y^(2^j), by polynomial squaring."""
    p = Polynomial(2, {(2, 0): 1, (0, 1): 2})
    for i in range(1, j):
        p = p * p - Polynomial(2, {(0, 2 ** i): 2})
    return p


def pell_fundamental_by_scan(lam: int) -> tuple[int, int]:
    """Smallest (d, k) with d^2 = lam k^2 + 1, by scanning k = 1, 2, ..."""
    k = 1
    while True:
        t = lam * k * k + 1
        d = math.isqrt(t)
        if d * d == t:
            return d, k
        k += 1


def generalized_pell_by_scan(D: int, N: int, b_bound: int) -> list[tuple[int, int]]:
    """Every (a, b) with a, b > 0, b <= b_bound and a^2 - D b^2 = N, by testing each b."""
    out = []
    for b in range(1, b_bound + 1):
        t = N + D * b * b
        a = math.isqrt(max(t, 0))
        if a > 0 and a * a == t:
            out.append((a, b))
    return out


def pell_power_by_binomial(lam: int, d1: int, k1: int, m: int) -> tuple[int, int]:
    """(d1 + k1 sqrt(lam))^m expanded by the binomial theorem, split by parity."""
    d = sum(math.comb(m, i) * d1 ** (m - i) * k1 ** i * lam ** (i // 2)
            for i in range(0, m + 1, 2))
    k = sum(math.comb(m, i) * d1 ** (m - i) * k1 ** i * lam ** ((i - 1) // 2)
            for i in range(1, m + 1, 2))
    return d, k


def largest_gap_by_scan(a: int, b: int) -> int:
    """Largest integer that is no nonnegative combination of coprime a and b, by a scan.

    The scan walks up from 0 and stops after min(a, b) representable
    integers in a row: adding the smaller one then reaches every later
    integer.  It returns -1 when every nonnegative integer is representable.
    """
    reach = [True]
    largest, run = -1, 1
    while run < min(a, b):
        n = len(reach)
        ok = (n >= a and reach[n - a]) or (n >= b and reach[n - b])
        reach.append(ok)
        largest, run = (largest, run + 1) if ok else (n, 0)
    return largest


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


@functools.cache
def homogenized_columns(degree: int):
    """``line_columns(degree)`` in the basis x^k y^(degree-k), k = 0..degree.

    On x + y = 1, x^a y^b equals x^a y^b (x + y)^(degree-a-b), whose
    coefficient of x^k y^(degree-k) is C(degree-a-b, k-a) for
    a <= k <= degree-b and 0 otherwise.  The two tables differ by an
    invertible change of basis, so every support has the same solutions in
    both.  Same keys in the same order; cached, as the search reads the
    table on every solve.
    """
    return MappingProxyType({(a, b): tuple(math.comb(degree - a - b, k - a) if k >= a else 0
                                           for k in range(degree + 1))
                             for a, b in line_columns(degree)})


def compose(a: Polynomial, term: tuple[tuple[int, ...], Fraction], b: Polynomial) -> Polynomial:
    """A - c·m + c·m·B for the term c·m of A: B substituted into that one term.

    B is 1 on the hyperplane, so the result is too, with degree deg m + deg B.
    """
    part = Polynomial(a.nvars, [term])
    return a - part + part * b


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


def simplex_points_by_gauss(n: int, samples: int, seed: int) -> list[list[float]]:
    """Points x_j = |z_j|^2 / ||z||^2 from two ``gauss(0.0, 1.0)`` calls per coordinate.

    The standard library's Gaussian instead of the sampler's own Box-Muller
    draws; the norm is a left fold, the ``sum`` of CPython 3.10 and 3.11.
    """
    rng = random.Random(seed)
    points = []
    for _ in range(samples):
        while True:
            sq_moduli = [rng.gauss(0.0, 1.0) ** 2 + rng.gauss(0.0, 1.0) ** 2
                         for _ in range(n)]
            norm = functools.reduce(operator.add, sq_moduli)
            if norm > 0.0:
                break
        points.append([v / norm for v in sq_moduli])
    return points


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


ZERO = Fraction(0)
ONE = Fraction(1)


def eliminate_rows(columns, rhs):
    """Integer row reduction of [A | rhs], A having the given columns.

    Returns (pivots, rows), with pivots the (row, column) positions of the
    echelon form, or None when the system is inconsistent.  A consistent
    system is reduced further: each pivot column is zero outside its pivot
    row, so pivot row r with pivot column c reads
    rows[r][c] u_c + sum over free j of rows[r][j] u_j = rows[r][n].  Row
    updates use exact cross-multiplication, so all entries stay integers.
    """
    n = len(columns)
    m = len(rhs)
    rows = [[col[t] for col in columns] + [rhs[t]] for t in range(m)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pr = rows[r]
        pv = pr[c]
        for i in range(r + 1, m):
            v = rows[i][c]
            if v:
                ri = rows[i]
                for k in range(c, n + 1):
                    ri[k] = ri[k] * pv - pr[k] * v
        pivots.append((r, c))
        r += 1
    for i in range(r, m):
        if rows[i][n]:
            return None
    for r, c in pivots:
        pr = rows[r]
        pv = pr[c]
        for i in range(r):
            v = rows[i][c]
            if v:
                rows[i] = [x * pv - y * v for x, y in zip(rows[i], pr)]
    return pivots, rows


def max_min_by_rows(columns, rhs):
    """The max-min program of ``linprog.max_min_component``, read off reduced rows.

    Maximizes t over { u : sum_i u_i col_i = rhs, u_i >= t, 0 <= t <= 1 }
    after eliminating the whole system [A | rhs] at once with
    ``eliminate_rows``: a second route to the same particular solution and
    directions as the library's column-by-column reduction.

    Returns (t_star, u, freedom) when t_star > 0, and (None, None, freedom)
    otherwise; freedom = n - rank is the dimension of the solution set (0
    for an inconsistent system).  A strictly positive solution of the
    equality system exists iff t_star > 0: scaling is fixed by the
    equalities, and capping t at 1 keeps the program bounded without
    affecting the sign of the optimum.

    The reduced echelon form gives u_c = (row[n] - sum_j row[j] s_j) / row[c]
    at each pivot column c, with s_j = u_j at the free columns j.  A pivot
    row without free entries pins u_c, so row[n] * row[c] <= 0 rejects in
    integers.  Otherwise the solutions are u = p + sum_j s_j v_j, one
    direction v_j per free column, and the program lives in the k = n - rank
    variables s_j: its rows are t <= p_i + sum_j v_ij s_j and t <= 1.
    Fourier-Motzkin elimination removes s_{k-1}, ..., s_0 in turn.  Two facts
    keep it short:

    - Every derived row is a positive combination of rows whose t
      coefficient is -1, so every row stays an upper bound on t; t_star is
      the least of the final bounds.
    - Free column j has the row t <= s_j (p and the other directions vanish
      there), which keeps its form until s_j is eliminated.  So at t = t_star
      each s_j, taken in the order s_0, s_1, ..., has a lower bound, and the
      largest one is feasible: u is the least point of the optimal face in
      that order.

    After each step only the row with the least constant is kept for each
    coefficient vector in the remaining s: a dropped row is implied by the
    kept one, so it can never be the largest lower bound, and t_star and u
    are unchanged.
    """
    n = len(columns)
    outcome = eliminate_rows(columns, rhs)
    if outcome is None:
        return None, None, 0
    pivots, rows = outcome
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(n) if c not in pivot_cols]
    freedom = len(free)
    for r, c in pivots:
        row = rows[r]
        if row[n] * row[c] <= 0 and not any(row[j] for j in free):
            return None, None, freedom
    # a row b stands for t <= b[0] + sum_j b[j + 1] s_j; row i < n is u_i >= t
    solution_rows = [[ZERO] * (freedom + 1) for _ in range(n)]
    for k, c in enumerate(free):
        solution_rows[c][k + 1] = ONE
    for r, c in pivots:
        row = rows[r]
        solution_rows[c] = [Fraction(row[n], row[c])] + [Fraction(-row[j], row[c]) for j in free]
    bounds = solution_rows + [[ONE] + [ZERO] * freedom]
    lowers = []  # per s_j, from s_{k-1} down: the rows bounding s_j below
    for j in reversed(range(freedom)):
        lower = [b for b in bounds if b[j + 1] > 0]
        lowers.append(lower)
        upper = [b for b in bounds if b[j + 1] < 0]
        bounds = [b[:j + 1] for b in bounds if not b[j + 1]]
        for lo in lower:
            for up in upper:
                a, c = lo[j + 1], -up[j + 1]
                bounds.append([(c * x + a * y) / (a + c)
                               for x, y in zip(lo[:j + 1], up[:j + 1])])
        least: dict[tuple, list] = {}
        for b in bounds:
            key = tuple(b[1:])
            if key not in least or b[0] < least[key][0]:
                least[key] = b
        bounds = list(least.values())
    t_star = min(b[0] for b in bounds)
    if t_star <= 0:
        return None, None, freedom
    s: list[Fraction] = []
    for j, lower in enumerate(reversed(lowers)):
        s.append(max((t_star - b[0] - sum(a * x for a, x in zip(b[1:j + 1], s))) / b[j + 1]
                     for b in lower))
    u = tuple(b[0] + sum(a * x for a, x in zip(b[1:], s)) for b in solution_rows)
    return t_star, u, freedom


def first_unsolvable_row(columns, rhs) -> int:
    """The least r such that rows 0..r of A u = rhs have no solution, or -1 if none.

    The rows of [A | rhs] are added one at a time to a row echelon form in
    Fractions; row r makes the truncated system inconsistent iff it reduces
    to (0, ..., 0 | nonzero), and then every longer truncation stays
    inconsistent.
    """
    n = len(columns)
    echelon: list[tuple[int, list[Fraction]]] = []
    for r, target in enumerate(rhs):
        row = [Fraction(c[r]) for c in columns] + [Fraction(target)]
        for p, e in echelon:
            if row[p]:
                factor = row[p] / e[p]
                row = [x - factor * y for x, y in zip(row, e)]
        p = next((j for j in range(n) if row[j]), None)
        if p is not None:
            echelon.append((p, row))
        elif row[n]:
            return r
    return -1


def leading_rows(columns) -> set[int]:
    """The rows r at which some vector of the span of ``columns`` starts (is first nonzero).

    The rows of the matrix whose columns are ``columns`` are added one at a
    time to a row echelon form in Fractions.  The span's vectors that vanish
    on rows 0..r-1 form a space of dimension rank(A) - rank(rows 0..r-1), so
    r is a leading row iff row r raises the rank: it does not reduce to zero
    against the rows before it.
    """
    n = len(columns)
    echelon: list[tuple[int, list[Fraction]]] = []
    rows = set()
    for r in range(len(columns[0]) if columns else 0):
        row = [Fraction(c[r]) for c in columns]
        for p, e in echelon:
            if row[p]:
                factor = row[p] / e[p]
                row = [x - factor * y for x, y in zip(row, e)]
        p = next((j for j in range(n) if row[j]), None)
        if p is not None:
            echelon.append((p, row))
            rows.add(r)
    return rows


def search_block_by_combinations(degree: int, terms: int, first: int, second: int, deadline):
    """``search._search_block`` by filtering every combination of the later indices.

    Indices point into the universe sorted by (a, b).  Each candidate is
    built by ``itertools.combinations``, tested against the four rule
    masks, compared with its mirror, sorted, and tested for the lead rule:
    for every proper prefix whose truncated systems first fail at row r
    (``first_unsolvable_row``), the next index must have a <= r.  Then the
    pivot-row rule: the last index must have a among the leading rows of
    the span of the other columns (``leading_rows``) or equal to the first
    unsolvable row of the other columns.  The survivors are solved in the
    same lexicographic order, with the deadline checked at the start and
    before every solve.
    """
    # a unit taken after the deadline does no work
    if deadline is not None and time.monotonic() > deadline:
        return [], 0, 0, False
    universe = sorted(monomial_universe(degree))
    n_universe = len(universe)
    index_of = {m: i for i, m in enumerate(universe)}
    top_even = top_odd = pure_x = pure_y = 0
    for i, (a, b) in enumerate(universe):
        if a + b == degree:
            if b % 2 == 0:
                top_even |= 1 << i
            else:
                top_odd |= 1 << i
        if b == 0:
            pure_x |= 1 << i
        if a == 0:
            pure_y |= 1 << i
    swap_index = [index_of[(b, a)] for (a, b) in universe]
    bit = [1 << i for i in range(n_universe)]
    table = line_columns(degree)
    rhs = table[(0, 0)]

    @functools.cache
    def lead(prefix):
        return first_unsolvable_row([table[universe[i]] for i in prefix], rhs)

    @functools.cache
    def starts(prefix):
        return leading_rows([table[universe[i]] for i in prefix]) | {lead(prefix)}

    def closes_rows(combo):
        for k in range(1, len(combo)):
            r = lead(combo[:k])
            if r >= 0 and universe[combo[k]][0] > r:
                return False
        return universe[combo[-1]][0] in starts(combo[:-1])

    witnesses: list[SharpWitness] = []
    examined = pruned = 0
    for rest in itertools.combinations(range(second + 1, n_universe), terms - 2):
        combo = (first, second) + rest
        mask = 0
        for i in combo:
            mask |= bit[i]
        if not (mask & top_even and mask & top_odd
                and mask & pure_x and mask & pure_y):
            pruned += 1
            continue
        mirrored = sorted(swap_index[i] for i in combo)
        if mirrored < list(combo) or not closes_rows(combo):
            pruned += 1
            continue
        # before every solve: one solve can take seconds at high freedom
        if deadline is not None and time.monotonic() > deadline:
            return witnesses, examined, pruned, False
        examined += 1
        mons = tuple(universe[i] for i in combo)
        if search.solve_support_system(mons, degree).feasible:
            witnesses.append(search._grlex_witness(mons, degree))
    return witnesses, examined, pruned, True

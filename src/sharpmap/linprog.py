"""Exact linear algebra for the positivity question: elimination and max-min.

Every entry is an integer or a Fraction and every step is exact, so an
optimum is a certificate, not an approximation.  ``eliminate`` brings an
integer system to reduced echelon form, and ``max_min_component`` reads the
solution set off it and decides strict positivity there by Fourier-Motzkin
elimination, in a space whose dimension is small: at most 3 in every
minimal-term search measured so far, and 5 in ``enumerate_sharp(4, 10)``.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def eliminate(columns, rhs):
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


def max_min_component(columns, rhs):
    """Maximize t over { u : sum_i u_i col_i = rhs, u_i >= t, 0 <= t <= 1 }.

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
    outcome = eliminate(columns, rhs)
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
    solution_rows = [[_ZERO] * (freedom + 1) for _ in range(n)]
    for k, c in enumerate(free):
        solution_rows[c][k + 1] = _ONE
    for r, c in pivots:
        row = rows[r]
        solution_rows[c] = [Fraction(row[n], row[c])] + [Fraction(-row[j], row[c]) for j in free]
    bounds = solution_rows + [[_ONE] + [_ZERO] * freedom]
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

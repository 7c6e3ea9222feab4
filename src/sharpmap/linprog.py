"""Exact linear algebra for the positivity question: elimination and max-min.

Every entry is an integer or a Fraction and every step is exact, so an
optimum is a certificate, not an approximation.  ``eliminate`` brings an
integer system to echelon form, ``back_substitute`` reads solutions off it,
and ``max_min_component`` decides strict positivity in the solution space,
whose dimension is small (at most 3 on every search measured so far).
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def eliminate(columns, rhs):
    """Integer row reduction of [A | rhs], A having the given columns.

    Returns (rank, pivots, rows), with pivots the (row, column) positions of
    the echelon form, or None when the system is inconsistent.  Row updates
    use exact cross-multiplication, so all entries stay integers.
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
    return r, pivots, rows


def back_substitute(pivots, rows, u, rhs_weight=1):
    """Fill the pivot entries of ``u`` so that A u = rhs_weight * rhs; return u.

    ``pivots`` and ``rows`` come from ``eliminate``.  The free entries of
    ``u`` are taken as preset; ``rhs_weight=0`` gives solutions of A u = 0.
    """
    n = len(u)
    for row_idx, col in reversed(pivots):
        row = rows[row_idx]
        s = Fraction(rhs_weight * row[n])
        for k in range(col + 1, n):
            if row[k]:
                s -= row[k] * u[k]
        u[col] = s / row[col]
    return u


def max_min_component(columns, rhs):
    """Maximize t over { u : sum_i u_i col_i = rhs, u_i >= t, 0 <= t <= 1 }.

    Returns (t_star, u) for a feasible program and (None, None) otherwise.
    A strictly positive solution of the equality system exists iff
    t_star > 0: scaling is fixed by the equalities, and capping t at 1
    keeps the program bounded without affecting the sign of the optimum.

    The solutions are u = p + sum_j s_j v_j, one direction v_j per free
    column j, so the program lives in the k = n - rank variables s_j: its
    rows are t <= p_i + sum_j v_ij s_j and t <= 1.  Fourier-Motzkin
    elimination removes s_{k-1}, ..., s_0 in turn.  Two facts keep it short:

    - Every derived row is a positive combination of rows whose t
      coefficient is -1, so every row stays an upper bound on t; t_star is
      the least of the final bounds, and t_star < 0 means no nonnegative
      solution exists.
    - Free column j has the row t <= s_j (p and the other directions vanish
      there), which keeps its form until s_j is eliminated.  So at t = t_star
      each s_j, taken in the order s_0, s_1, ..., has a lower bound, and the
      largest one is feasible: u is the least point of the optimal face in
      that order.
    """
    outcome = eliminate(columns, rhs)
    if outcome is None:
        return None, None
    _, pivots, rows = outcome
    n = len(columns)
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(n) if c not in pivot_cols]
    p = back_substitute(pivots, rows, [_ZERO] * n)
    dirs = [back_substitute(pivots, rows, [_ONE if c == j else _ZERO for c in range(n)], 0)
            for j in free]
    # a row b stands for t <= b[0] + sum_j b[j + 1] s_j; row i < n is u_i >= t
    solution_rows = [[p[i]] + [v[i] for v in dirs] for i in range(n)]
    bounds = solution_rows + [[_ONE] + [_ZERO] * len(free)]
    lowers = []  # per s_j, from s_{k-1} down: the rows bounding s_j below
    for j in reversed(range(len(free))):
        lower = [b for b in bounds if b[j + 1] > 0]
        lowers.append(lower)
        upper = [b for b in bounds if b[j + 1] < 0]
        bounds = [b[:j + 1] for b in bounds if not b[j + 1]]
        for lo in lower:
            for up in upper:
                a, c = lo[j + 1], -up[j + 1]
                bounds.append([(c * x + a * y) / (a + c)
                               for x, y in zip(lo[:j + 1], up[:j + 1])])
    t_star = min(b[0] for b in bounds)
    if t_star < 0:
        return None, None
    s: list[Fraction] = []
    for j, lower in enumerate(reversed(lowers)):
        s.append(max((t_star - b[0] - sum(a * x for a, x in zip(b[1:j + 1], s))) / b[j + 1]
                     for b in lower))
    return t_star, tuple(b[0] + sum(a * x for a, x in zip(b[1:], s)) for b in solution_rows)

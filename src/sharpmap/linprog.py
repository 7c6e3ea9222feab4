"""Exact linear algebra for the positivity question: column reduction and max-min.

Every entry is an integer or a Fraction and every step is exact, so an
optimum is a certificate, not an approximation.  A system A u = rhs is
reduced one column of A at a time.  The state after columns c_0..c_{k-1}
holds an echelon basis of their span (each entry a pivot row, an integer
vector and the integer combination of columns giving it), one dependency
sum_i delta_i c_i = 0 for each column that is free (a combination of the
columns before it), and the residual R = s rhs - sum_i rho_i c_i reduced
against every pivot.  The system is consistent iff R = 0, and then
p = rho / s is the particular solution that vanishes on the free columns,
and delta / delta_j is the direction of free column j.

``max_min_component`` decides strict positivity on that solution set by
Fourier-Motzkin elimination, in a space whose dimension is the freedom
n - rank: at most 3 in every minimal-term search measured so far, and 5 in
``enumerate_sharp(4, 10)``.  Nothing bounds one call: each eliminated
parameter can take r rows to r^2 / 4, and a run of ``enumerate_sharp(5, 19)``
(freedom 13 or more) passed 3.5 GB in 10 minutes, which no time budget
read between calls can stop.  A caller that asks about many systems sharing
all but their last column passes the reduction of that prefix, built by
``_extend`` from ``_start``: the search keeps one per depth of its walk.
With a prefix, only the last column is read, and the column count n is
the prefix width.  The last column is first reduced in its m row entries
alone.  When the prefix residual R is nonzero, the system is rejected
unless that reduction is parallel to R; when R is zero, it is rejected
if that reduction is nonzero, as the last column is then a new pivot,
whose coefficient is 0 in every solution.  Of the systems a certificate
at d = 7 asks about, 39 % end at the first test and 54 % at the second
(41 % and 54 % at d = 9), before any combination coefficient is
computed; the search's lead and pivot-row rules skip most such systems
before they are asked about.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


# The column reduction state of the columns seen so far, never mutated once
# built: a plain tuple (pivot_rows, basis, free, deltas, residual, scale,
# lead), the cheapest record to build and unpack.  Every vector is held
# augmented, m entries in the row space followed by ``width`` combination
# coefficients, one per column of the system, so one cross-multiplication
# updates both.  ``pivot_rows[k]`` and ``basis[k]`` are the k-th basis entry
# [w | a], w = sum_i a_i c_i, zero at every earlier pivot row and nonzero at
# pivot_rows[k].  ``free[k]`` is a free column j and ``deltas[k]`` its
# dependency, with deltas[k][j] != 0.  ``residual`` is [R | -rho],
# R = s rhs - sum_i rho_i c_i, with ``scale`` = s; ``lead`` is the first row
# where R is nonzero, or -1 when R = 0, that is when the columns so far
# solve the system.
_Reduction = tuple


def _start(rhs, width: int) -> _Reduction:
    """The state before any column of a system of ``width`` columns."""
    lead = next((r for r, x in enumerate(rhs) if x), -1)
    return [], [], [], [], list(rhs) + [0] * width, 1, lead


def _extend(state: _Reduction, column) -> _Reduction:
    """The state after one more column, by exact cross-multiplication."""
    pivot_rows, basis, free, deltas, residual, scale, lead = state
    m = len(column)
    j = len(pivot_rows) + len(free)
    vec = list(column) + [0] * (len(residual) - m)
    vec[m + j] = 1
    for r, b in zip(pivot_rows, basis):
        t = vec[r]
        if t:
            pv = b[r]
            vec = [x * pv - y * t for x, y in zip(vec, b)]
    for r in range(m):
        if vec[r]:
            break
    else:
        return pivot_rows, basis, free + [j], deltas + [vec[m:]], residual, scale, lead
    t = residual[r]
    if t:
        pv = vec[r]
        residual = [x * pv - y * t for x, y in zip(residual, vec)]
        scale *= pv
        while lead < m and not residual[lead]:
            lead += 1
        if lead == m:
            lead = -1
    return pivot_rows + [r], basis + [vec], free, deltas, residual, scale, lead


def max_min_component(columns, rhs, prefix: _Reduction | None = None):
    """Maximize t over { u : sum_i u_i col_i = rhs, u_i >= t, 0 <= t <= 1 }.

    Returns (t_star, u, freedom) when t_star > 0, and (None, None, freedom)
    otherwise; freedom = n - rank is the dimension of the solution set (0
    for an inconsistent system).  A strictly positive solution of the
    equality system exists iff t_star > 0: scaling is fixed by the
    equalities, and capping t at 1 keeps the program bounded without
    affecting the sign of the optimum.

    ``prefix``, when given, is the reduction of all but the last column
    against ``rhs``, built by ``_start`` and ``_extend``; the system has as
    many columns as the prefix's width, and only ``columns[-1]`` is read.
    Without it the prefix is reduced here.  A nonzero residual means no
    solution.  The last column reduces to some w in its m row entries.
    When the prefix residual R is nonzero, w is zero at every pivot row as
    R is, and the residual of the whole system is R w_r - w R_r at the
    first row r where w is nonzero: it is zero iff w is a nonzero multiple
    of R, that is iff w is nonzero at R's lead row l and w_l R_i = R_l w_i
    at every row i.  When R is zero and w is not, the last column is a new
    pivot: it lies outside the span of the others, which holds rhs, so its
    coefficient is 0 in every solution and the rank grows by one, leaving
    the freedom at the prefix's free count.  Both tests read the m row
    entries alone, before any combination coefficient of the last column
    is computed.

    Otherwise the solutions are
    u = p + sum_j s_j v_j, with p = rho / s the particular solution that
    is zero on the free columns, and one direction v_j = delta / delta_j
    per free column j, which is 1 at j and 0 at the other free columns.
    A column that no direction touches is pinned at p_c, so rho_c s <= 0
    rejects in integers.  Otherwise the program lives in the k = n - rank
    variables s_j: its rows are t <= p_i + sum_j v_ij s_j and t <= 1, one
    formula for every column.  On free column j, rho and every other
    dependency are 0 and its own is not, so the formula gives its unit row
    t <= s_j and the pinned test never fires on it.
    Fourier-Motzkin elimination removes s_{k-1}, ..., s_0 in turn.
    Two facts keep it short:

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
    m = len(rhs)
    if prefix is None:
        prefix = _start(rhs, len(columns))
        for column in columns[:-1]:
            prefix = _extend(prefix, column)
    pivot_rows, basis, free, deltas, residual, scale, lead = prefix
    n = len(residual) - m
    if n:
        column = columns[-1]
        # zip stops at the m row entries of each augmented basis vector
        w = column
        for r, b in zip(pivot_rows, basis):
            t = w[r]
            if t:
                pv = b[r]
                w = [x * pv - y * t for x, y in zip(w, b)]
        if lead < 0:
            if any(w):
                return None, None, len(free)
        else:
            pv, t = w[lead], residual[lead]
            if not pv:
                return None, None, 0
            for x, y in zip(residual, w):
                if x * pv != y * t:
                    return None, None, 0
        pivot_rows, basis, free, deltas, residual, scale, lead = _extend(prefix, column)
    elif lead >= 0:
        return None, None, 0
    freedom = len(free)
    rho = [-x for x in residual[m:]]
    for c in range(n):
        if rho[c] * scale <= 0 and not any(d[c] for d in deltas):
            return None, None, freedom
    # a row b stands for t <= b[0] + sum_j b[j + 1] s_j; row i < n is u_i >= t
    solution_rows = [[Fraction(rho[c], scale)]
                     + [Fraction(d[c], d[j]) for j, d in zip(free, deltas)] for c in range(n)]
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

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
Fourier-Motzkin elimination, in a space whose dimension is small: at most 3
in every minimal-term search measured so far, and 5 in
``enumerate_sharp(4, 10)``.  The search asks about supports in
lexicographic order, so consecutive calls share all but their last columns:
the state of every column prefix but the full one comes from a small LRU
memo, and each call reduces only its last column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(slots=True)
class _Reduction:
    """Column reduction state of the columns seen so far; never mutated once built.

    Every vector is held augmented, m entries in the row space followed by
    ``width`` combination coefficients, one per column of the system, so
    one cross-multiplication updates both.  ``pivot_rows[k]`` and
    ``basis[k]`` are the k-th basis entry [w | a], w = sum_i a_i c_i, zero
    at every earlier pivot row and nonzero at pivot_rows[k].  ``free[k]`` is
    a free column j and ``deltas[k]`` its dependency, with deltas[k][j] != 0.
    ``residual`` is [R | -rho], R = s rhs - sum_i rho_i c_i, with
    ``scale`` = s.
    """

    pivot_rows: list[int]
    basis: list[list[int]]
    free: list[int]
    deltas: list[list[int]]
    residual: list[int]
    scale: int


def _extend(state: _Reduction, column, m: int) -> _Reduction:
    """The state after one more column of m entries, by exact cross-multiplication."""
    j = len(state.pivot_rows) + len(state.free)
    vec = list(column) + [0] * (len(state.residual) - m)
    vec[m + j] = 1
    for r, b in zip(state.pivot_rows, state.basis):
        t = vec[r]
        if t:
            pv = b[r]
            vec = [x * pv - y * t for x, y in zip(vec, b)]
    for r in range(m):
        if vec[r]:
            break
    else:
        return _Reduction(state.pivot_rows, state.basis, state.free + [j],
                          state.deltas + [vec[m:]], state.residual, state.scale)
    residual, scale = state.residual, state.scale
    t = residual[r]
    if t:
        pv = vec[r]
        residual = [x * pv - y * t for x, y in zip(residual, vec)]
        scale *= pv
    return _Reduction(state.pivot_rows + [r], state.basis + [vec], state.free, state.deltas,
                      residual, scale)


@lru_cache(maxsize=16)
def _prefix_state(prefix: tuple, rhs: tuple, width: int) -> _Reduction:
    """The reduction state of a column prefix in a system of ``width`` columns.

    ``prefix`` is () or a pair (shorter prefix, last column).  Consecutive
    calls from ``max_min_component`` share their prefixes, so the memo
    holds the chain of prefixes of the last few calls.
    """
    if not prefix:
        return _Reduction([], [], [], [], list(rhs) + [0] * width, 1)
    shorter, column = prefix
    return _extend(_prefix_state(shorter, rhs, width), column, len(rhs))


def max_min_component(columns, rhs):
    """Maximize t over { u : sum_i u_i col_i = rhs, u_i >= t, 0 <= t <= 1 }.

    Returns (t_star, u, freedom) when t_star > 0, and (None, None, freedom)
    otherwise; freedom = n - rank is the dimension of the solution set (0
    for an inconsistent system).  A strictly positive solution of the
    equality system exists iff t_star > 0: scaling is fixed by the
    equalities, and capping t at 1 keeps the program bounded without
    affecting the sign of the optimum.

    The columns are reduced one at a time (see the module docstring); the
    state of all but the last comes from the prefix memo.  A nonzero
    residual means no solution.  Otherwise the solutions are
    u = p + sum_j s_j v_j, with p = rho / s the particular solution that
    is zero on the free columns, and one direction v_j = delta / delta_j
    per free column j, which is 1 at j and 0 at the other free columns.
    A pivot column that no direction touches is pinned at p_c, so
    rho_c s <= 0 rejects in integers.  Otherwise the program lives in the
    k = n - rank variables s_j: its rows are t <= p_i + sum_j v_ij s_j and
    t <= 1.  Fourier-Motzkin elimination removes s_{k-1}, ..., s_0 in turn.
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
    n = len(columns)
    m = len(rhs)
    # nested pairs, not one fresh tuple of n - 1 columns per call: CPython
    # keeps up to 2,000 freed tuples of each length, about 0.15 MB here
    prefix = ()
    for column in columns[:-1]:
        prefix = (prefix, tuple(column))
    state = _prefix_state(prefix, tuple(rhs), n)
    if n:
        state = _extend(state, columns[-1], m)
    if any(state.residual[:m]):
        return None, None, 0
    free, deltas, scale = state.free, state.deltas, state.scale
    freedom = len(free)
    rho = [-x for x in state.residual[m:]]
    free_set = set(free)
    pivots = [c for c in range(n) if c not in free_set]
    for c in pivots:
        if rho[c] * scale <= 0 and not any(d[c] for d in deltas):
            return None, None, freedom
    # a row b stands for t <= b[0] + sum_j b[j + 1] s_j; row i < n is u_i >= t
    solution_rows = [[_ZERO] * (freedom + 1) for _ in range(n)]
    for k, c in enumerate(free):
        solution_rows[c][k + 1] = _ONE
    for c in pivots:
        solution_rows[c] = [Fraction(rho[c], scale)] + [
            Fraction(d[c], d[j]) for j, d in zip(free, deltas)]
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

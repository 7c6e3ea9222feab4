"""The exact max-min routine against a brute-force vertex oracle."""

from __future__ import annotations

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sharpmap.linprog import max_min_component
from sharpmap.polynomial import line_columns

from .oracles import max_min_by_vertices


@st.composite
def generic_systems(draw):
    """Integer systems with n <= 5 unknowns, at most min(n, 4) rows, entries in -3..3."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, min(n, 4)))
    entry = st.integers(-3, 3)
    columns = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(n)]
    rhs = draw(st.lists(entry, min_size=m, max_size=m))
    return columns, rhs


@st.composite
def signed_line_systems(draw):
    """Sign-flipped restriction columns, as ``gaps.signature_impossible`` builds them."""
    max_degree = draw(st.integers(1, 4))
    monomials = [(a, b) for a in range(max_degree + 1) for b in range(max_degree + 1 - a)]
    support = draw(st.lists(st.sampled_from(monomials), min_size=2, max_size=5,
                            unique=True))
    degree = max(a + b for a, b in support)
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(support),
                          max_size=len(support)))
    table = line_columns(degree)
    columns = [[s * v for v in table[mon]] for s, mon in zip(signs, support)]
    return columns, list(table[(0, 0)])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.one_of(generic_systems(), signed_line_systems()))
# sympy 1.14's simplex returns t = 0, u = 0 for this inconsistent system
@example(([[0, 1, -4, 6, -4, 1], [1, -5, 10, -10, 5, -1], [-1, 4, -6, 4, -1, 0],
           [0, 0, 0, 0, 1, 0]], [1, 0, 0, 0, 0, 0]))
# sympy 1.14's simplex returns a point off A u = rhs here
@example(([[1, -2, 1, 0], [0, 0, 1, 0], [0, 0, 1, -1], [1, 0, 0, 0], [0, 1, -2, 1]],
          [1, 0, 0, 0]))
# full rank, and the unique solution (1, 0) has a zero component
@example(([[1, 0], [0, 1]], [1, 0]))
def test_max_min_component_matches_vertex_oracle(system):
    columns, rhs = system
    t_star, u, freedom = max_min_component(columns, rhs)
    A = sympy.Matrix(columns).T
    rank = A.rank()
    if rank == A.row_join(sympy.Matrix(rhs)).rank():  # consistent
        assert freedom == len(columns) - rank
    oracle = max_min_by_vertices(columns, rhs)
    if oracle is None or oracle <= 0:
        assert (t_star, u) == (None, None)
        return
    assert t_star == oracle
    for r, target in enumerate(rhs):
        assert sum(u_i * col[r] for u_i, col in zip(u, columns)) == target
    assert min(u) >= t_star

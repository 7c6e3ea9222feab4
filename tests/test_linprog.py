"""The exact max-min routine against a brute-force vertex oracle and whole-system elimination."""

from __future__ import annotations

from fractions import Fraction

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sharpmap import linprog
from sharpmap.linprog import _extend, _start, max_min_component
from sharpmap.polynomial import line_columns

from .oracles import max_min_by_rows, max_min_by_vertices


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


@st.composite
def reducible_systems(draw):
    """Systems with m <= 8 rows and n <= 6 columns, some of them zero or dependent.

    Half of the right-hand sides are positive combinations of the columns,
    so that many systems are consistent and some have positive solutions.
    """
    m = draw(st.integers(0, 8))
    n = draw(st.integers(1, 6))
    small = st.integers(-2, 2)
    columns = []
    for _ in range(n):
        kind = draw(st.sampled_from(("generic", "zero", "dependent")))
        if kind == "zero":
            columns.append([0] * m)
        elif kind == "dependent" and columns:
            a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            x, y = draw(small), draw(small)
            columns.append([x * u + y * v for u, v in zip(a, b)])
        else:
            columns.append(draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        rhs = [sum(w * col[r] for w, col in zip(weights, columns)) for r in range(m)]
    else:
        rhs = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    return columns, rhs


ORACLE_EXAMPLES = [
    # sympy 1.14's simplex returns t = 0, u = 0 for this inconsistent system
    ([[0, 1, -4, 6, -4, 1], [1, -5, 10, -10, 5, -1], [-1, 4, -6, 4, -1, 0],
      [0, 0, 0, 0, 1, 0]], [1, 0, 0, 0, 0, 0]),
    # sympy 1.14's simplex returns a point off A u = rhs here
    ([[1, -2, 1, 0], [0, 0, 1, 0], [0, 0, 1, -1], [1, 0, 0, 0], [0, 1, -2, 1]],
     [1, 0, 0, 0]),
    # full rank, and the unique solution (1, 0) has a zero component
    ([[1, 0], [0, 1]], [1, 0]),
]


def with_examples(*systems):
    def decorate(test):
        for system in reversed(systems):
            test = example(system)(test)
        return test
    return decorate


@settings(derandomize=True, deadline=None, max_examples=300)
@given(reducible_systems())
@with_examples(*ORACLE_EXAMPLES)
def test_column_reduction_matches_whole_system_elimination(system):
    columns, rhs = system
    assert max_min_component(columns, rhs) == max_min_by_rows(columns, rhs)


def prefix_reduction(columns, rhs):
    """The reduction of ``columns[:-1]``, built as the search builds its prefixes."""
    state = _start(rhs, len(columns))
    for column in columns[:-1]:
        state = _extend(state, column, len(rhs))
    return state


PREFIX_EXAMPLES = [
    # the prefix leaves R = (0, 1) and the last column reduces to zero
    ([[1, 0], [2, 0]], [0, 1]),
    # the last column reduces to (0, 1, 0), nonzero first where R = (0, 0, 1)
    # is zero, so the new pivot leaves R as it is
    ([[1, 0, 0], [0, 1, 0]], [0, 0, 1]),
    # the reduction (0, 1, 1) meets R = (0, 1, 2) at its lead row only
    ([[1, 0, 0], [0, 1, 1]], [0, 1, 2]),
    # the reduction (0, 1) is R itself: consistent, u = (1, 1)
    ([[1, 0], [1, 1]], [2, 1]),
]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(reducible_systems())
@with_examples(*ORACLE_EXAMPLES, *PREFIX_EXAMPLES)
def test_prefix_reduction_gives_the_same_answer(system):
    # the consistency-first rejection against a nonzero prefix residual and
    # the full reduction of the last column must agree with both oracles
    columns, rhs = system
    want = max_min_by_rows(columns, rhs)
    prefix = prefix_reduction(columns, rhs)
    assert max_min_component(columns, rhs, prefix) == want
    # with a prefix only the last column is read, and n is the prefix width
    assert max_min_component(columns[-1:], rhs, prefix) == want
    assert max_min_component(columns, rhs) == want


def test_new_pivot_on_a_solved_prefix_is_rejected_from_its_rows(monkeypatch):
    # (1, 0) solves the system and (2, 0) is free, so the prefix residual is
    # zero (lead -1); the last column (0, 1) is independent of the prefix,
    # a new pivot whose coefficient is 0 in every solution: its row entries
    # alone reject it, with the freedom of the whole system
    columns, rhs = [[1, 0], [2, 0], [0, 1]], [1, 0]
    prefix = prefix_reduction(columns, rhs)
    assert prefix[-1] == -1 and len(prefix[2]) == 1
    extended = []

    def counting(state, column, m):
        extended.append(column)
        return _extend(state, column, m)

    monkeypatch.setattr(linprog, "_extend", counting)
    assert max_min_component(columns[-1:], rhs, prefix) == (None, None, 1)
    assert extended == []
    assert max_min_by_rows(columns, rhs) == (None, None, 1)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.one_of(generic_systems(), signed_line_systems()))
@with_examples(*ORACLE_EXAMPLES)
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


def test_no_columns():
    # the empty system solves rhs = 0 only, and then t is capped at 1
    assert max_min_component([], [1, 0]) == (None, None, 0)
    assert max_min_component([], [0, 0]) == (Fraction(1), (), 0)

"""Exact feasibility and the pruned exhaustive search vs the naive oracle."""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sharpmap import (
    Polynomial,
    Support,
    enumerate_sharp,
    f,
    is_map_polynomial,
    mod6,
    q,
    uniqueness_status,
)
from sharpmap import search
from sharpmap.polynomial import line_columns, min_term_count
from sharpmap.search import (
    FAILS,
    UNIQUE,
    UNIQUE_UP_TO_EQUIVALENCE,
    UNKNOWN,
    SearchStats,
    UniquenessResult,
    solve_support_system,
)

from .oracles import (enumerate_naive, first_unsolvable_row, homogenized_columns, leading_rows,
                      max_min_by_vertices, search_block_by_combinations)


@pytest.fixture
def serial_pool(monkeypatch):
    """Run ``enumerate_sharp``'s worker pool in this process, task by task.

    Returns the list of pool sizes requested, one entry per pool.
    """
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args, chunksize=None):
            return [fn(*a) for a in args]

    class SerialContext:
        Pool = SerialPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SerialContext)
    return sizes


def support_of(p):
    return tuple(sorted(p.terms.keys(), key=lambda m: (m[0] + m[1], m)))


def canonical_class(monomials):
    direct = tuple(sorted(monomials, key=lambda m: (m[0] + m[1], m)))
    mirrored = tuple(sorted(((b, a) for a, b in monomials),
                            key=lambda m: (m[0] + m[1], m)))
    return min(direct, mirrored)


class TestFeasible:
    def test_f7_support_is_a_point(self):
        s = Support(7, support_of(f(7)))
        res = solve_support_system(s.monomials, s.degree)
        assert res.status == "point"
        assert sorted(res.coefficients) == [1, 1, 7, 7, 14]

    def test_degree2_point(self):
        s = Support(2, ((2, 0), (1, 1), (0, 1)))
        res = solve_support_system(s.monomials, s.degree)
        assert res.status == "point"
        assert res.coefficients == (Fraction(1), Fraction(1), Fraction(1))

    def test_degree1_pair(self):
        s = Support(1, ((1, 0), (0, 1)))
        res = solve_support_system(s.monomials, s.degree)
        assert res.status == "point" and res.coefficients == (Fraction(1), Fraction(1))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Support(3, ((1, 0), (0, 1)))

    def test_x_y_xy_support_infeasible(self):
        # the only solution forces the xy coefficient to zero
        s = Support(2, ((1, 0), (0, 1), (1, 1)))
        res = solve_support_system(s.monomials, s.degree)
        assert res.status == "infeasible"

    def test_missing_pure_terms_rejected(self):
        with pytest.raises(ValueError):
            Support(2, ((1, 1), (2, 0)))  # no x-exponent-0 term

    def test_polytope_detected(self):
        s = Support(2, ((2, 0), (1, 1), (0, 2), (0, 1)))
        res = solve_support_system(s.monomials, s.degree)
        assert res.status == "polytope"
        assert res.freedom == 1
        assert all(c > 0 for c in res.coefficients)
        # pinned, so a solver change that moves the witness shows here
        assert res.coefficients == (Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), 1)

    def test_infeasible_zero_forced(self):
        # x^2 + x + y support forces the x coefficient to vanish
        res = solve_support_system(((2, 0), (1, 0), (0, 1)), 2)
        assert res.status == "infeasible"

    def test_monomial_above_degree_rejected(self):
        # x^3 has no row at degree 2; cutting that row would give a false polytope
        with pytest.raises(ValueError, match=r"\(0, 3\).* 2"):
            solve_support_system(((2, 0), (1, 1), (0, 1), (0, 3)), 2)

    def test_deterministic(self):
        support = Support(2, ((2, 0), (1, 1), (0, 2), (0, 1)))
        first = solve_support_system(support.monomials, support.degree)
        for _ in range(3):
            again = solve_support_system(support.monomials, support.degree)
            assert again.status == first.status
            assert again.coefficients == first.coefficients


X_PLUS_Y = Polynomial(2, {(1, 0): 1, (0, 1): 1})
MONOMIALS_UP_TO_5 = [(a, b) for a in range(6) for b in range(6 - a)]


def sympy_columns(monomials, degree):
    """Coefficients of x^a (1-x)^b in 1, x, ..., x^degree, expanded by sympy."""
    x = sympy.Symbol("x")
    return [[int(c) for c in sympy.Poly(x ** a * (1 - x) ** b, x).all_coeffs()[::-1]]
            + [0] * (degree - a - b) for a, b in monomials]


@st.composite
def supports_with_pure_powers(draw):
    """Supports holding some x^a and some y^b, as pruning rule (ii) requires."""
    pure = [draw(st.sampled_from([(a, 0) for a in range(1, 6)])),
            draw(st.sampled_from([(0, b) for b in range(1, 6)]))]
    rest = draw(st.lists(st.sampled_from(MONOMIALS_UP_TO_5), max_size=4, unique=True))
    return pure + [m for m in rest if m not in pure]


@st.composite
def supports_around_maps(draw):
    """The support of f(d), d <= 5, or of (x + y)^k, k <= 4, with up to two more monomials."""
    base = draw(st.sampled_from([f(d) for d in range(1, 6)]
                                + [math.prod([X_PLUS_Y] * k) for k in (2, 3, 4)]))
    degree = base.degree()
    extra = draw(st.lists(st.sampled_from([m for m in MONOMIALS_UP_TO_5 if sum(m) <= degree]),
                          max_size=2, unique=True))
    support = list(base.terms)
    return (support + [m for m in extra if m not in support])[:6]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.one_of(
    st.lists(st.sampled_from(MONOMIALS_UP_TO_5), min_size=2, max_size=6, unique=True),
    supports_with_pure_powers(), supports_around_maps()))
@example([(3, 0), (1, 1), (0, 3)])  # f(3): a positive point
@example([(2, 0), (1, 1), (0, 2), (0, 1)])  # a polytope of freedom 1
@example([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])  # freedom 2
def test_solve_support_system_matches_sympy(monomials):
    degree = max(a + b for a, b in monomials)
    columns = sympy_columns(monomials, degree)
    rhs = [1] + [0] * degree
    A = sympy.Matrix(columns).T
    b = sympy.Matrix(rhs)
    result = solve_support_system(monomials, degree)
    t_star = max_min_by_vertices(columns, rhs)  # None when A u = rhs has no solution
    if t_star is None or t_star <= 0:
        assert result.status == "infeasible"
        return
    rank = A.rank()
    assert result.freedom == len(monomials) - rank
    if rank == len(monomials):
        assert result.status == "point"
        solution, _ = A.gauss_jordan_solve(b)
        assert list(result.coefficients) == [Fraction(int(v.p), int(v.q)) for v in solution]
    else:
        assert result.status == "polytope"
        u = sympy.Matrix([sympy.Rational(c.numerator, c.denominator)
                          for c in result.coefficients])
        assert A * u == b and min(result.coefficients) > 0


def test_solver_outcomes_are_pinned():
    # every support of size <= 6 at d <= 4: a solver change that moves any
    # point, polytope witness or freedom shows here
    digest = hashlib.sha256()
    outcomes = Counter()
    for d in range(1, 5):
        for size in range(1, 7):
            for combo in combinations(line_columns(d), size):
                res = solve_support_system(combo, d)
                outcomes[res.status, res.freedom] += 1
                coeffs = None if res.coefficients is None else [str(c) for c in res.coefficients]
                digest.update(repr((combo, res.status, coeffs, res.freedom)).encode())
    assert outcomes == {("infeasible", 0): 9797, ("point", 0): 129, ("polytope", 1): 719,
                        ("polytope", 2): 217, ("polytope", 3): 3}
    assert digest.hexdigest() == \
        "b7ca228a595405a92d70e9adc6e49c22366b4b775b2a93c5204ff60925d4c9ef"


def test_solver_outcomes_do_not_depend_on_the_order():
    # the supports of the pinned test in a shuffled order: consecutive calls
    # share few prefixes, so a prefix memo that leaks state shows here
    supports = [(combo, d) for d in range(1, 5) for size in range(1, 7)
                for combo in combinations(line_columns(d), size)]
    random.Random(0).shuffle(supports)
    outcomes = Counter()
    for combo, d in supports:
        res = solve_support_system(combo, d)
        outcomes[res.status, res.freedom] += 1
    assert outcomes == {("infeasible", 0): 9797, ("point", 0): 129, ("polytope", 1): 719,
                        ("polytope", 2): 217, ("polytope", 3): 3}


class TestEnumerate:
    def test_degree3_unique_class(self):
        witnesses, exhaustive, _ = enumerate_sharp(3, 3)
        assert exhaustive
        assert [w.polynomial for w in witnesses] == [f(3)]

    def test_degree5_unique_class(self):
        witnesses, exhaustive, _ = enumerate_sharp(5, 4)
        assert exhaustive
        assert len(witnesses) == 1
        assert witnesses[0].polynomial in (f(5), f(5).swap_xy())

    def test_degree7_contains_all_three_constructions(self):
        witnesses, exhaustive, _ = enumerate_sharp(7, 5)
        assert exhaustive
        found = {canonical_class(w.support.monomials) for w in witnesses}
        for p in (f(7), q(7), mod6(1)):
            assert canonical_class(support_of(p)) in found

    def test_soundness(self):
        witnesses, _, _ = enumerate_sharp(6, 5)
        for w in witnesses:
            assert is_map_polynomial(w.polynomial)
            assert w.polynomial.degree() == 6
            assert w.polynomial.term_count() == 5

    def test_matches_naive_oracle_small_degrees(self):
        # around the sharp size for each degree; larger supports are all
        # rank-deficient and exercised separately
        for d in range(1, 6):
            n_min = (d + 4) // 2
            for n in range(2, n_min + 1):
                pruned, exhaustive, _ = enumerate_sharp(d, n)
                assert exhaustive
                naive = enumerate_naive(d, n)
                pruned_classes = {canonical_class(w.support.monomials) for w in pruned}
                naive_classes = {canonical_class(w.support.monomials) for w in naive}
                assert pruned_classes == naive_classes, (d, n)

    def test_matches_naive_oracle_above_sharp_size(self):
        # one rank-deficient size: polytopes appear in both enumerations
        pruned, _, _ = enumerate_sharp(4, 5)
        naive = enumerate_naive(4, 5)
        pruned_classes = {canonical_class(w.support.monomials) for w in pruned}
        naive_classes = {canonical_class(w.support.monomials) for w in naive}
        assert pruned_classes == naive_classes
        assert any(w.freedom > 0 for w in pruned)

    def test_swap_orbit_bookkeeping(self):
        witnesses, _, _ = enumerate_sharp(7, 5)
        enumerated = {w.support.monomials for w in witnesses}
        for w in witnesses:
            mirrored = canonical_class(tuple((b, a) for a, b in w.support.monomials))
            assert mirrored in {canonical_class(s) for s in enumerated}

    def test_shards_do_not_change_output(self, monkeypatch):
        # the shard count is clamped to the core count; keep three workers
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        serial, _, _ = enumerate_sharp(6, 5, shards=1)
        parallel, _, _ = enumerate_sharp(6, 5, shards=3)
        assert [w.support.monomials for w in serial] == \
            [w.support.monomials for w in parallel]
        assert [w.polynomial for w in serial] == [w.polynomial for w in parallel]

    def test_more_terms_than_monomials(self):
        # degree 2 has 6 monomials: no unit, no candidate, an exhaustive run
        witnesses, exhaustive, stats = enumerate_sharp(2, 7)
        assert (witnesses, exhaustive, stats.examined, stats.pruned) == ([], True, 0, 0)

    @pytest.mark.parametrize("shards", [0, -2])
    def test_shards_below_one_rejected(self, shards):
        with pytest.raises(ValueError, match="shards"):
            enumerate_sharp(3, 3, shards=shards)
        # before the budget check, which a zero budget would fail first
        with pytest.raises(ValueError, match="shards"):
            uniqueness_status(3, budget_seconds=0, shards=shards)

    def test_shard_count_is_clamped(self, serial_pool, monkeypatch):
        serial, _, _ = enumerate_sharp(4, 4)
        # d = 4 has 15 universe monomials: the core count binds
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        clamped, _, _ = enumerate_sharp(4, 4, shards=10_000)
        # d = 1 has 3 units, one per pair of its 3 monomials: the unit count binds
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        enumerate_sharp(1, 2, shards=10_000)
        # an unknown core count runs serially
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        enumerate_sharp(4, 4, shards=10_000)
        assert serial_pool == [3, 3]
        assert [w.polynomial for w in clamped] == [w.polynomial for w in serial]

    # (examined, pruned) of the certificates when every (first, second)
    # unit was dispatched
    CERTIFICATE_COUNTERS = {1: (1, 2), 2: (3, 17), 3: (2, 118), 4: (27, 1338), 5: (37, 5948),
                            6: (1032, 97248), 7: (1624, 375368)}

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_counters_do_not_depend_on_shard_count(self, serial_pool, monkeypatch,
                                                   degree):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        terms = min_term_count(degree)
        runs = [enumerate_sharp(degree, terms, shards=k) for k in (1, 2, 3)]
        assert serial_pool == [2, 3]
        (witnesses, exhaustive, stats), *others = runs
        assert exhaustive and witnesses
        assert (stats.examined, stats.pruned) == self.CERTIFICATE_COUNTERS[degree]
        # a rule moves candidates from examined to pruned, never drops one
        assert stats.examined + stats.pruned == \
            math.comb(len(line_columns(degree)), terms)
        for other_witnesses, other_exhaustive, other_stats in others:
            assert other_exhaustive
            assert other_witnesses == witnesses
            assert (other_stats.examined, other_stats.pruned) == \
                (stats.examined, stats.pruned)

    def test_only_units_that_can_start_a_support_are_dispatched(self, monkeypatch):
        firsts = []
        block = search._search_block

        def recording(degree, terms, first, second, deadline):
            firsts.append(first)
            return block(degree, terms, first, second, deadline)

        monkeypatch.setattr(search, "_search_block", recording)
        enumerate_sharp(7, 5)
        # 228 of the 528 (first, second) units: those whose first index has a = 0
        assert len(firsts) == 228 and max(firsts) == 7


WALK_CASES = ([(d, min_term_count(d)) for d in range(1, 8)]
              + [(d, min_term_count(d) + 1) for d in range(1, 6)] + [(4, 10)])


class TestWalk:
    """The depth-first walk against a filter over every combination."""

    @pytest.mark.parametrize("degree, terms", WALK_CASES)
    def test_matches_combination_filter(self, monkeypatch, degree, terms):
        # d = 1 at 2 terms leaves the walk one slot; (4, 10) solves
        # freedom-5 polytopes that take seconds, so there only the order of
        # the solved supports is compared and every solve is answered
        # infeasible
        solved = []

        def recording(mons, d, prefix=None, solve=search.solve_support_system):
            solved.append(mons)
            return solve(mons, d, prefix) if terms < 10 else search._INFEASIBLE

        monkeypatch.setattr(search, "solve_support_system", recording)
        n = len(line_columns(degree))
        for first, second in combinations(range(n), 2):
            got = search._search_block(degree, terms, first, second, math.inf)
            walk_order = solved[:]
            solved.clear()
            assert got == search_block_by_combinations(degree, terms, first, second, math.inf)
            assert walk_order == solved
            solved.clear()

    @staticmethod
    def clock_after(monkeypatch, calls):
        """Patch the search clock so that a deadline of 1 passes after ``calls`` readings."""
        readings = itertools.count()
        monkeypatch.setattr(search.time, "monotonic", lambda: 0 if next(readings) < calls else 2)

    @pytest.mark.parametrize("calls", [0, 1, 2, 3, 7, 40, 300])
    def test_budget_stop_counts_match_the_filter(self, monkeypatch, calls):
        # the deadline is read at unit start and before every solve, so a
        # stop leaves the candidates after it uncounted in both; the units
        # solve 80, 38 and 7 supports and the last two find witnesses
        for first, second in ((0, 1), (1, 12), (3, 8)):
            self.clock_after(monkeypatch, calls)
            got = search._search_block(6, 5, first, second, 1)
            self.clock_after(monkeypatch, calls)
            want = search_block_by_combinations(6, 5, first, second, 1)
            assert got == want

    @pytest.mark.parametrize("per_mille", [1, 2, 5, 120, 900])
    def test_budget_stop_stats_match_the_filter(self, monkeypatch, per_mille):
        # the stop point is a share of the clock readings of an unstopped run,
        # so it falls inside the run however often the walk reads the clock
        readings = itertools.count()
        monkeypatch.setattr(search.time, "monotonic", lambda: 0 * next(readings))
        assert enumerate_sharp(6, 5, budget_seconds=1)[1]
        calls = max(1, next(readings) * per_mille // 1000)
        self.clock_after(monkeypatch, calls)
        witnesses, exhaustive, stats = enumerate_sharp(6, 5, budget_seconds=1)
        monkeypatch.setattr(search, "_search_block", search_block_by_combinations)
        self.clock_after(monkeypatch, calls)
        want_witnesses, want_exhaustive, want_stats = enumerate_sharp(6, 5, budget_seconds=1)
        assert not exhaustive
        assert (witnesses, exhaustive, stats.examined, stats.pruned) == \
            (want_witnesses, want_exhaustive, want_stats.examined, want_stats.pruned)

    def test_enumeration_leaves_no_cyclic_garbage(self, monkeypatch):
        # cyclic garbage waits for the collector and raises peak memory; a
        # run stopped by its budget unwinds the walk, and an exception
        # caught on the way would leave its traceback's frames in a cycle
        runs = {"complete": lambda: enumerate_sharp(6, 5),
                "budget_stop": lambda: enumerate_sharp(6, 5, budget_seconds=1),
                "certificate": lambda: uniqueness_status(7)}
        for name, run in runs.items():
            if name == "budget_stop":
                self.clock_after(monkeypatch, 120)
            gc.collect()
            gc.disable()
            try:
                result = run()
                assert gc.collect() == 0, name
            finally:
                gc.enable()
            if name == "budget_stop":
                assert not result[1]  # the budget did stop it

    def test_prefix_solve_matches_the_plain_solve(self, monkeypatch):
        # every support the walk solves, solved again without the reduction
        # of its prefix
        checked = []

        def both(mons, d, prefix=None, solve=search.solve_support_system):
            res = solve(mons, d, prefix)
            assert prefix is not None and res == solve(mons, d), mons
            checked.append(mons)
            return res

        monkeypatch.setattr(search, "solve_support_system", both)
        for degree in range(1, 7):
            checked.clear()
            result = uniqueness_status(degree)
            assert len(checked) == result.certificate.stats.examined > 0

    def test_one_reduction_per_solved_prefix(self, monkeypatch):
        # the walk reduces each node at its first child that can complete a
        # support, to read its lead row; every solve is handed the one
        # reduction of its prefix
        built, solved, calls = [], [], []
        extend, descend = search._extend, search._Walk.descend

        def counting(state, column):
            built.append(column)
            return extend(state, column)

        def recording(mons, d, prefix=None, solve=search.solve_support_system):
            solved.append((mons, prefix))
            return solve(mons, d, prefix)

        def visiting(walk, *args):
            calls.append(args[0])
            return descend(walk, *args)

        monkeypatch.setattr(search, "_extend", counting)
        monkeypatch.setattr(search, "solve_support_system", recording)
        monkeypatch.setattr(search._Walk, "descend", visiting)
        uniqueness_status(7)
        prefixes = {mons[:k] for mons, _ in solved for k in range(1, len(mons))}
        assert Counter(map(len, prefixes)) == {1: 7, 2: 67, 3: 459, 4: 1179}
        assert len({id(prefix) for _, prefix in solved}) == \
            len({mons[:-1] for mons, _ in solved})
        # the walk's cost in counts that timing noise cannot move: reductions
        # built, and one frame per visited node with 1 or more slots left.
        # Earlier walks framed only nodes with 2 or more slots left: the
        # graded-lex walk, which built a prefix's reduction when the first
        # support under it was solved, made 13,279 reductions and 4,037
        # frames, and the closed-row walk with a separate last level made
        # 5,103 and 1,500 (6,831 reductions when it reduced the child before
        # the last index as soon as it was drawn).  The one-method walk made
        # 5,082 and 6,831 before the pivot-row rule, which skips a node
        # whose last draw it empties before reducing or framing it.  A
        # change to the walk states its new counts here.
        assert len(built) == 4157
        assert len(calls) == 4941

    def test_frames_at_high_term_counts(self, monkeypatch):
        # a child needs as many eligible indices above it as slots it
        # leaves: without that skip the graded-lex walk visited every short
        # tuple of eligible indices (1,757,057 frames here), and a room table
        # that wraps round in blocks with few eligible indices made 2,271;
        # the graded-lex walk made 1,162, and the closed-row walk 1,126
        # before frames of 1 slot left were counted too
        calls = []
        descend = search._Walk.descend

        def visiting(walk, *args):
            calls.append(args[0])
            return descend(walk, *args)

        monkeypatch.setattr(search._Walk, "descend", visiting)
        # walk cost alone: no system is solved
        monkeypatch.setattr(search, "solve_support_system",
                            lambda mons, d, prefix=None: search._INFEASIBLE)
        _, complete, stats = enumerate_sharp(5, 19)
        assert complete and (stats.examined, stats.pruned) == (111, 99)
        assert len(calls) == 1315


class TestPruningRules:
    """Every pruned support must be infeasible (validated at d <= 5)."""

    def test_no_top_degree_monomial(self):
        for d in (3, 4, 5):
            universe = [m for m in line_columns(d) if m[0] + m[1] < d]
            for combo in combinations(universe, 3):
                res = solve_support_system(combo, d)
                if res.feasible:
                    poly_degree = max(a + b for a, b in combo)
                    assert poly_degree < d  # realizes a lower degree, not d

    def test_missing_pure_term_is_infeasible(self):
        for d in (2, 3, 4, 5):
            universe = list(line_columns(d))
            for combo in combinations(universe, 3):
                has_pure_x = any(b == 0 for _, b in combo)
                has_pure_y = any(a == 0 for a, _ in combo)
                if not (has_pure_x and has_pure_y):
                    assert not solve_support_system(combo, d).feasible, combo

    @pytest.mark.parametrize("degree, terms",
                             [(d, min_term_count(d)) for d in range(1, 8)]
                             + [(d, min_term_count(d) + 1) for d in range(1, 6)])
    def test_lead_rule_skips_only_infeasible_supports(self, monkeypatch, degree, terms):
        # every support that meets (ii), (iv) and swap canonicity in the
        # (a, b) order, but that the walk does not solve, is infeasible: so
        # the lead rule and the pivot-row rule skip only infeasible supports
        solved = set()

        def recording(mons, d, prefix=None, solve=search.solve_support_system):
            solved.add(mons)
            return solve(mons, d, prefix)

        monkeypatch.setattr(search, "solve_support_system", recording)
        enumerate_sharp(degree, terms)
        monkeypatch.undo()
        skipped = 0
        for combo in combinations(sorted(line_columns(degree)), terms):
            top = {b % 2 for a, b in combo if a + b == degree}
            if top != {0, 1} or all(b for _, b in combo) or all(a for a, _ in combo):
                continue
            if sorted((b, a) for a, b in combo) < list(combo) or combo in solved:
                continue
            skipped += 1
            assert not solve_support_system(combo, degree).feasible, combo
        if degree >= 3:  # the rule skips something
            assert skipped > 0

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(
        st.just(d), st.sets(st.integers(0, (d + 1) * (d + 2) // 2 - 1), min_size=1,
                            max_size=min_term_count(d) - 1))))
    @example((7, {0, 2, 9}))  # lead -1: the constant's column solves the system
    def test_pivot_row_lemma(self, case):
        # the reduction's pivot rows are the leading rows of the prefix's
        # span, and a column whose a is not one of them reduces to a vector
        # that starts at row a: a new pivot at a, which leaves the lead as
        # it is unless a is the lead.  So a last column can complete a
        # solution only if its a is a pivot row or the lead row (the
        # pivot-row rule).
        degree, prefix = case
        prefix = sorted(prefix)
        universe, columns, *_ = search._walk_tables(degree)
        state = search._start(columns[0], len(prefix) + 1)
        for i in prefix:
            state = search._extend(state, columns[i])
        pivots, lead = state[0], state[-1]
        assert set(pivots) == leading_rows([columns[i] for i in prefix])
        assert lead == first_unsolvable_row([columns[i] for i in prefix], columns[0])
        for j, (a, _) in enumerate(universe):
            if a in pivots:
                continue
            after = search._extend(state, columns[j])
            assert after[0] == pivots + [a], (prefix, j)
            if a != lead:
                assert after[-1] == lead, (prefix, j)

    def test_top_slice_parity_rule(self):
        for d in (3, 4, 5):
            universe = list(line_columns(d))
            for combo in combinations(universe, 3):
                top = [(a, b) for a, b in combo if a + b == d]
                if top and len({b % 2 for _, b in top}) == 1:
                    res = solve_support_system(combo, d)
                    if res.feasible:
                        realized = max(a + b for (a, b), c in
                                       zip(combo, res.coefficients) if c)
                        assert realized < d


class TestMinimalTerms:
    @staticmethod
    def certified_size(degree):
        result = uniqueness_status(degree)
        assert result.certificate.min_terms == result.min_terms
        assert result.certificate.witnesses
        return result.min_terms

    def test_degree1(self):
        assert self.certified_size(1) == 2

    def test_degree2(self):
        assert self.certified_size(2) == 3

    def test_degree4(self):
        assert self.certified_size(4) == 4

    def test_degree7(self):
        assert self.certified_size(7) == 5

    def test_no_witness_at_the_sharp_size_fails_the_theorem(self, monkeypatch):
        # an exhaustive enumeration at ceil((d+3)/2) terms must find f(d) or
        # even_u; an empty one contradicts the bound's sharpness
        monkeypatch.setattr(search, "enumerate_sharp",
                            lambda *args: ([], True, SearchStats()))
        with pytest.raises(AssertionError, match="degree 5 with N=4"):
            uniqueness_status(5)


class TestUniqueness:
    def test_degree1_unique(self):
        assert uniqueness_status(1).status == UNIQUE

    def test_degree3_unique(self):
        result = uniqueness_status(3)
        assert result.status == UNIQUE
        assert result.distinct_polynomials == (f(3),)

    def test_degree5_up_to_equivalence(self):
        result = uniqueness_status(5)
        assert result.status == UNIQUE_UP_TO_EQUIVALENCE
        assert len(result.distinct_polynomials) == 2
        assert set(result.distinct_polynomials) == {f(5), f(5).swap_xy()}

    def test_degree7_fails_with_three_witnesses(self):
        result = uniqueness_status(7)
        assert result.status == FAILS
        assert result.class_count >= 3
        assert len(result.distinct_polynomials) >= 3

    def test_even_degrees_fail(self):
        assert uniqueness_status(2).status == FAILS
        assert uniqueness_status(4).status == FAILS

    def test_budget_exhaustion_reports_unknown(self):
        result = uniqueness_status(9, budget_seconds=0.05)
        assert result.status == UNKNOWN
        assert result.certificate is None

    def test_budget_checked_before_every_solve(self):
        # only 3,003 candidates, so the deadline must be checked per solve,
        # not per block of candidates; one solve here can take seconds,
        # hence the loose bound
        start = time.monotonic()
        _, exhaustive, _ = enumerate_sharp(4, 10, budget_seconds=0.5)
        assert not exhaustive
        assert time.monotonic() - start < 10

    def test_budget_holds_over_freedom_five_solves(self):
        # the 134th solve is a freedom-5 polytope; without dropping dominated
        # Fourier-Motzkin rows it alone takes over 10 s
        start = time.monotonic()
        _, exhaustive, _ = enumerate_sharp(4, 10, budget_seconds=2)
        assert not exhaustive
        assert time.monotonic() - start < 10

    def test_budget_holds_on_the_pool_path(self, monkeypatch):
        # the shard count is clamped to the core count; keep two workers
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        start = time.monotonic()
        _, exhaustive, _ = enumerate_sharp(4, 10, budget_seconds=0.5, shards=2)
        assert not exhaustive
        assert time.monotonic() - start < 10

    @pytest.mark.parametrize("budget", [math.nan, -1, -0.5])
    def test_negative_or_nan_budget_rejected(self, budget):
        # nan compares false with every deadline, so it would run unbounded
        # and report itself exhaustive
        with pytest.raises(ValueError, match="budget_seconds"):
            enumerate_sharp(3, 3, budget_seconds=budget)
        with pytest.raises(ValueError, match="budget_seconds"):
            uniqueness_status(3, budget_seconds=budget)

    def test_budget_exhaustion_returns_none(self):
        # no size, no classes, no polynomials and no certificate
        assert uniqueness_status(9, budget_seconds=0.05) == \
            UniquenessResult(9, UNKNOWN, None, 0, (), None)

    def test_budget_exhaustion_partial_enumeration(self):
        start = time.monotonic()
        witnesses, exhaustive, stats = enumerate_sharp(9, 6, budget_seconds=0.05)
        assert not exhaustive
        assert stats.examined + stats.pruned > 0
        # a unit taken after the deadline does no work; walking every later
        # unit would take seconds at d = 9
        assert time.monotonic() - start < 3


class TestSecondEngine:
    """The search over the homogenized table (Bernstein basis) gives the same results."""

    @staticmethod
    def both(monkeypatch, run):
        plain = run()
        monkeypatch.setattr(search, "line_columns", homogenized_columns)
        # the walk's tables hold the columns of each degree: an empty cache
        # reads the homogenized ones
        monkeypatch.setattr(search, "_walk_tables",
                            functools.cache(search._walk_tables.__wrapped__))
        return plain, run()

    @staticmethod
    def witnesses(ws):
        return [(w.support, w.freedom, w.polynomial) for w in ws]

    @pytest.mark.parametrize("degree", [*range(1, 8), 9])
    def test_uniqueness_status(self, monkeypatch, degree):
        plain, other = self.both(monkeypatch, lambda: uniqueness_status(degree))
        assert other.status == plain.status
        assert self.witnesses(other.certificate.witnesses) == \
            self.witnesses(plain.certificate.witnesses)
        assert (other.certificate.stats.examined, other.certificate.stats.pruned) == \
            (plain.certificate.stats.examined, plain.certificate.stats.pruned)

    @pytest.mark.parametrize("degree, terms", [(4, 5), (6, 6)])
    def test_enumeration_with_polytopes(self, monkeypatch, degree, terms):
        plain, other = self.both(monkeypatch, lambda: enumerate_sharp(degree, terms))
        assert any(w.freedom > 0 for w in plain[0])
        assert self.witnesses(other[0]) == self.witnesses(plain[0])
        assert other[2].examined == plain[2].examined


@pytest.mark.skipif(not os.environ.get("SHARPMAP_TEST_DEGREE10"),
                    reason="opt-in: the d = 10 and 11 certificates take minutes; "
                           "set SHARPMAP_TEST_DEGREE10=1")
@pytest.mark.parametrize("degree, classes, digest", [
    # about 70 s on 2 shards; the graded-lex walk took 399 s
    (10, 16, "5193239278f544e247662c3143a362b57942b44651817521197e9ee596c83244"),
    # about 130 s on 2 shards: f(11) and h(3)
    (11, 2, "f464644d9e6113f2a611413e0994fbe6a7cc966d4d36afec9b148b8779598cdc"),
])
def test_degree10_and_11_certificates_are_pinned(degree, classes, digest):
    result = uniqueness_status(degree, shards=2)
    assert result.status == FAILS and result.class_count == classes
    assert all(w.freedom == 0 for w in result.certificate.witnesses)
    witnesses = [{"support": [list(m) for m in w.support.monomials], "freedom": w.freedom,
                  "poly": w.polynomial.to_json_dict()} for w in result.certificate.witnesses]
    assert hashlib.sha256(json.dumps(witnesses, sort_keys=True).encode()).hexdigest() == digest

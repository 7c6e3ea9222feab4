"""Pell solvers against brute-force and binomial-expansion oracles."""

from __future__ import annotations

import math

import pytest

from sharpmap import (
    GeneralizedPellSolution,
    PellSolution,
    fundamental_solution,
    generalized_solutions,
    solutions,
)

from .oracles import generalized_pell_by_scan, pell_fundamental_by_scan, pell_power_by_binomial

NONSQUARES_TO_20 = [2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20]


class TestFundamental:
    def test_lambda_12(self):
        s = fundamental_solution(12)
        assert (s.d, s.k) == (7, 2)

    def test_lambda_2(self):
        s = fundamental_solution(2)
        assert (s.d, s.k) == (3, 2)

    def test_lambda_3(self):
        s = fundamental_solution(3)
        assert (s.d, s.k) == (2, 1)

    def test_matches_naive_scan(self):
        for lam in NONSQUARES_TO_20:
            s = fundamental_solution(lam)
            assert (s.d, s.k) == pell_fundamental_by_scan(lam)

    def test_long_period_case(self):
        # lambda = 61 has a famously large fundamental solution
        s = fundamental_solution(61)
        assert (s.d, s.k) == (1766319049, 226153980)

    def test_square_rejected(self):
        with pytest.raises(ValueError):
            fundamental_solution(9)

    def test_small_lambda_rejected(self):
        with pytest.raises(ValueError):
            fundamental_solution(1)


class TestPowerSequence:
    def test_lambda_12_d_values(self):
        assert [s.d for s in solutions(12, 5)] == [7, 97, 1351, 18817, 262087]

    def test_second_k_value(self):
        assert solutions(12, 2)[1].k == 28

    def test_defining_identity(self):
        for lam in [2, 3, 5, 6, 7, 8, 10, 11, 12, 13]:
            for s in solutions(lam, 10):
                assert s.d * s.d - lam * s.k * s.k == 1

    def test_strictly_increasing(self):
        for lam in (2, 12, 19):
            seq = solutions(lam, 8)
            assert all(a.d < b.d and a.k < b.k for a, b in zip(seq, seq[1:]))

    def test_against_binomial_expansion(self):
        for lam in (2, 3, 12, 13):
            base = fundamental_solution(lam)
            for m, s in enumerate(solutions(lam, 10), start=1):
                assert s.index == m
                assert (s.d, s.k) == pell_power_by_binomial(lam, base.d, base.k, m)

    def test_every_lambda12_d_is_odd(self):
        assert all(s.d % 2 == 1 for s in solutions(12, 12))

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            solutions(12, 0)

    def test_invalid_pair_rejected_by_type(self):
        with pytest.raises(ValueError):
            PellSolution(8, 2, 12, 1)


class TestCongruence:
    # d_m mod 4 for lambda = 12: 3 when m is odd, 1 when m is even
    def test_first_indices(self):
        assert [s.d % 4 for s in solutions(12, 3)] == [3, 1, 3]  # d = 7, 97, 1351

    def test_pattern_to_20(self):
        for s in solutions(12, 20):
            assert s.d % 4 == (3 if s.index % 2 else 1)


class TestGeneralized:
    def test_known_b_list_to_64(self):
        sols = generalized_solutions(8, -7, 64)
        assert [s.b for s in sols] == [1, 2, 4, 11, 23, 64]
        assert [s.a for s in sols] == [1, 5, 11, 31, 65, 181]

    def test_prefix(self):
        assert [s.b for s in generalized_solutions(8, -7, 23)] == [1, 2, 4, 11, 23]

    def test_trivial_bound(self):
        sols = generalized_solutions(8, -7, 1)
        assert [(s.a, s.b) for s in sols] == [(1, 1)]

    def test_identity_enforced_by_type(self):
        with pytest.raises(ValueError):
            GeneralizedPellSolution(2, 1, 8, -7)

    def test_class_listing_matches_the_scan_on_a_grid(self):
        # the units of D = 29, 61, 109, ... lie past every bound here: those take the scan
        for D in range(2, 120):
            if math.isqrt(D) ** 2 == D:
                continue
            for N in [n for k in range(1, 41) for n in (k, -k)]:
                scanned = generalized_pell_by_scan(D, N, 200)
                for bound in (1, 2, 3, 5, 8, 13, 40, 200):
                    listed = [(s.a, s.b) for s in generalized_solutions(D, N, bound)]
                    assert listed == [(a, b) for a, b in scanned if b <= bound], (D, N, bound)

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError):
            generalized_solutions(8, 0, 10)

"""The threshold T(n), the term-count operators, witnesses, and signatures."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from sharpmap import (
    Polynomial,
    Signature,
    T,
    V,
    W,
    append_negative,
    decompose_target,
    f,
    gap_witness,
    is_map_polynomial,
    is_one_on_hyperplane,
    monomials_independent_of_constants,
    signature,
    signature_impossible,
    signature_witness,
)

from .oracles import largest_gap_by_scan


def s_poly(n):
    return sum((Polynomial.variable(n, i) for i in range(n)), Polynomial(n))


class TestFrobenius:
    # F(a, b), the Frobenius number, is the largest integer that is no
    # nonnegative combination of a and b; the oracle finds it by a scan
    def test_adjacent_pair(self):
        assert largest_gap_by_scan(4, 3) == 5
        assert largest_gap_by_scan(3, 2) == 1

    def test_one_and_zero(self):
        assert largest_gap_by_scan(1, 0) == -1

    def test_identity_with_threshold(self):
        for n in range(2, 51):
            assert T(n) == 1 + largest_gap_by_scan(n, n - 1) + n

    def test_threshold_values(self):
        assert [T(n) for n in (1, 2, 3, 4)] == [1, 2, 5, 10]


class TestOperators:
    def test_w_on_s(self):
        assert W(s_poly(2)) == Polynomial(2, {(1, 0): 1, (1, 1): 1, (0, 2): 1})

    def test_v_on_s(self):
        expected = Polynomial(2, {(1, 0): 1, (0, 1): Fraction(1, 2),
                                  (1, 1): Fraction(1, 2), (0, 2): Fraction(1, 2)})
        assert V(s_poly(2)) == expected

    def test_w_iterates_term_count(self):
        for n in range(2, 7):
            p = s_poly(n)
            for j in range(1, 11):
                p = W(p)
                assert p.term_count() == (j + 1) * n - j
                assert is_map_polynomial(p)

    def test_v_adds_n_terms(self):
        for n in range(2, 7):
            p = W(s_poly(n))
            before = p.term_count()
            for k in range(1, 5):
                p = V(p)
                assert p.term_count() == before + k * n
                assert is_map_polynomial(p)

    def test_preserve_hyperplane_value(self):
        p = Polynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        for op in (W, V):
            out = op(p)
            assert is_one_on_hyperplane(out)

    def test_requires_pure_term(self):
        with pytest.raises(ValueError):
            W(Polynomial(2, {(1, 1): 1, (1, 0): 1}))


class TestDecomposition:
    def test_examples(self):
        assert decompose_target(4, 10) == (2, 0)
        assert decompose_target(2, 2) == (0, 0)

    def test_gap_below_threshold(self):
        assert decompose_target(4, 9) is None

    def test_minimal_j(self):
        # N - n = 12 for n = 4: j=0, k=3 beats j=4, k=0
        assert decompose_target(4, 16) == (0, 3)

    def test_matches_brute_force(self):
        # the least (j, k) for every value j(n-1) + kn up to 200 - n, N < n included
        for n in range(2, 13):
            least = {}
            for j in range(201):
                for k in range(201):
                    least.setdefault(j * (n - 1) + k * n, (j, k))
            for N in range(-2, 201):
                assert decompose_target(n, N) == least.get(N - n), (n, N)

    def test_everything_above_threshold_is_representable(self):
        for n in range(2, 8):
            for N in range(T(n), T(n) + 3 * n):
                assert decompose_target(n, N) is not None


class TestGapWitness:
    def test_n2_n3(self):
        w = gap_witness(2, 3)
        assert w.poly == Polynomial(2, {(1, 0): 1, (1, 1): 1, (0, 2): 1})

    def test_n3_n5(self):
        w = gap_witness(3, 5)
        assert w.poly.term_count() == 5
        assert is_map_polynomial(w.poly)

    def test_n1(self):
        w = gap_witness(1, 3)
        assert w.poly == Polynomial(1, {(1,): Fraction(1, 3), (2,): Fraction(1, 3),
                                        (3,): Fraction(1, 3)})

    def test_coverage_band(self):
        for n in range(2, 7):
            for N in range(T(n), T(n) + 2 * n + 1):
                w = gap_witness(n, N)
                assert is_map_polynomial(w.poly)
                assert w.poly.term_count() == N

    def test_below_threshold_gap_raises(self):
        with pytest.raises(ValueError):
            gap_witness(4, 9)

    def test_below_threshold_representable_ok(self):
        w = gap_witness(4, 8)  # N - n = 4 = 0*(n-1) + 1*n
        assert w.poly.term_count() == 8

    def test_component_independence(self):
        for n, N in ((2, 3), (3, 5), (4, 10)):
            assert monomials_independent_of_constants(gap_witness(n, N).poly)
        # oracle: rank of the exponent indicator rows plus the constant row
        rng = random.Random(2)
        for n in range(1, 5):
            zero = (0,) * n
            for trial in range(20):
                exps = {tuple(rng.randrange(3) for _ in range(n))
                        for _ in range(rng.randint(1, 6))}
                exps = sorted(exps | {zero} if trial % 2 else exps - {zero})
                p = Polynomial(n, {e: 1 for e in exps})
                basis = sorted(set(exps) | {zero})
                rows = [[int(e == b) for b in basis] for e in exps + [zero]]
                assert monomials_independent_of_constants(p) == \
                    (sympy.Matrix(rows).rank() == len(exps) + 1)

    def test_constant_component_detected(self):
        # 1/2 + x/2 is a map polynomial whose map has a constant component
        p = Polynomial(1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
        assert is_map_polynomial(p)
        assert not monomials_independent_of_constants(p)


class TestSignatureCatalog:
    def test_two_minus_s(self):
        w = signature_witness("two_minus_s", n=2)
        assert w.requested == Signature(1, 2)

    def test_two_s_minus_one(self):
        assert signature_witness("two_s_minus_one", n=2).requested == Signature(2, 1)

    def test_plus_minus_variants(self):
        assert signature_witness("one_plus_x_times", n=2).requested == Signature(2, 2)
        assert signature_witness("one_minus_x_times", n=2).requested == Signature(3, 1)

    def test_f_odd(self):
        for r in range(1, 11):
            w = signature_witness("f_odd", r=r)
            assert w.requested == Signature(r + 2, 0)
            assert w.poly == f(2 * r + 1)

    def test_two_minus_f_odd(self):
        for r in range(1, 11):
            assert signature_witness("two_minus_f_odd", r=r).requested == Signature(1, r + 2)

    def test_append_negative_default(self):
        for n in range(2, 7):
            w = signature_witness("append_negative", n=n)
            assert w.requested == Signature(2, n)

    def test_append_negative_general(self):
        base = f(5)
        out = append_negative(base)
        assert is_one_on_hyperplane(out)
        before = signature(base)
        assert signature(out) == Signature(before.n_plus + 1, before.n_minus + 2)

    def test_all_outputs_on_hyperplane(self):
        for recipe in ("two_minus_s", "two_s_minus_one", "one_plus_x_times",
                       "one_minus_x_times", "f_odd", "two_minus_f_odd",
                       "append_negative"):
            assert is_one_on_hyperplane(signature_witness(recipe).poly)

    def test_unknown_recipe(self):
        with pytest.raises(ValueError):
            signature_witness("nonsense")


class TestImpossibleSignatures:
    def test_1_1_impossible_to_degree_3(self):
        assert signature_impossible(Signature(1, 1), 3)

    def test_0_k_impossible(self):
        for k in range(1, 4):
            assert signature_impossible(Signature(0, k), 3)

    def test_2_2_possible(self):
        # sanity anti-test: (2,2) has a degree-2 witness, so not impossible
        assert not signature_impossible(Signature(2, 2), 2)

    def test_1_2_possible(self):
        assert not signature_impossible(Signature(1, 2), 1)

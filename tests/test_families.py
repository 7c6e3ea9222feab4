"""The recurrence family f(d), its coefficients, and the even-degree splices."""

from __future__ import annotations

from fractions import Fraction

import pytest

from sharpmap import (
    Polynomial,
    coefficient_ratio,
    equivalent,
    even_family,
    even_u,
    f,
    f_coefficient,
    is_map_polynomial,
    is_one_on_hyperplane,
)

from .oracles import family_by_radical_expansion, family_by_recurrence


class TestFamilyValues:
    def test_f1(self):
        assert f(1) == Polynomial(2, {(1, 0): 1, (0, 1): 1})

    def test_f2_has_negative_tail(self):
        assert f(2) == Polynomial(2, {(2, 0): 1, (0, 1): 2, (0, 2): -1})
        assert not is_map_polynomial(f(2))

    def test_f3(self):
        assert f(3) == Polynomial(2, {(3, 0): 1, (1, 1): 3, (0, 3): 1})

    def test_f7(self):
        assert f(7) == Polynomial(2, {(7, 0): 1, (5, 1): 7, (3, 2): 14, (1, 3): 7, (0, 7): 1})

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            f(0)


class TestFamilyProperties:
    def test_odd_members_are_map_polynomials(self):
        for d in range(1, 62, 2):
            p = f(d)
            assert is_map_polynomial(p)
            assert p.degree() == d
            assert p.term_count() == (d + 3) // 2

    def test_all_members_equal_one_on_line(self):
        for d in range(1, 202):
            assert is_one_on_hyperplane(f(d))

    def test_even_member_term_count(self):
        for d in range(2, 41, 2):
            assert f(d).term_count() == d // 2 + 2

    def test_matches_radical_expansion(self):
        for d in range(1, 41):
            assert f(d) == family_by_radical_expansion(d)

    def test_matches_recurrence(self):
        for d in [*range(1, 202), 1351]:
            assert f(d) == family_by_recurrence(d)


class TestCoefficients:
    def test_values(self):
        assert f_coefficient(3, 1) == 7
        assert f_coefficient(3, 2) == 14
        assert f_coefficient(5, 2) == 44
        assert f_coefficient(5, 3) == 77

    def test_matches_family_coefficients(self):
        for r in range(1, 21):
            p = f(2 * r + 1)
            for s in range(1, r + 1):
                assert p.coefficient((2 * r + 1 - 2 * s, s)) == f_coefficient(r, s)

    def test_matches_recurrence(self):
        for r in range(1, 41):
            p = family_by_recurrence(2 * r + 1)
            for s in range(1, r + 1):
                assert f_coefficient(r, s) == p.coefficient((2 * r + 1 - 2 * s, s))

    def test_integrality_across_grid(self):
        for r in range(1, 41):
            for s in range(1, r + 1):
                f_coefficient(r, s)  # raises if non-integral

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            f_coefficient(3, 0)
        with pytest.raises(ValueError):
            f_coefficient(3, 4)


class TestRatios:
    def test_ratio_two_site(self):
        assert coefficient_ratio(3, 1) == 2

    def test_ratio_four_site(self):
        assert coefficient_ratio(5, 1) == 4

    def test_ratio_one_half(self):
        assert coefficient_ratio(3, 2) == Fraction(1, 2)

    def test_range(self):
        with pytest.raises(ValueError):
            coefficient_ratio(3, 3)


class TestEvenDegree:
    def test_u_1(self):
        assert even_u(1, 0) == Polynomial(2, {(1, 1): 3, (0, 3): 1, (4, 0): 1, (3, 1): 1})

    def test_u_2(self):
        assert even_u(0, 1) == Polynomial(2, {(0, 1): 1, (4, 0): 1, (2, 1): 3, (1, 3): 1})

    def test_minimal_case(self):
        assert even_u(0, 0) == Polynomial(2, {(0, 1): 1, (2, 0): 1, (1, 1): 1})

    def test_family_k2_contains_degree4_pair(self):
        members = even_family(2)
        pair = [Polynomial(2, {(4, 0): 1, (3, 1): 1, (1, 1): 3, (0, 3): 1}),
                Polynomial(2, {(4, 0): 1, (2, 1): 3, (1, 3): 1, (0, 1): 1})]
        for expected in pair:
            assert any(p == expected for p in members)

    def test_family_k1(self):
        members = even_family(1)
        assert len(members) == 1
        assert members[0].degree() == 2 and members[0].term_count() == 3

    def test_family_k4_properties(self):
        members = even_family(4)
        assert len(members) == 4
        for p in members:
            assert is_map_polynomial(p)
            assert p.degree() == 8 and p.term_count() == 6

    def test_pairwise_inequivalent_to_k10(self):
        for k in range(1, 11):
            members = even_family(k)
            assert len(members) == k
            for i in range(k):
                for j in range(i + 1, k):
                    assert not equivalent(members[i], members[j])

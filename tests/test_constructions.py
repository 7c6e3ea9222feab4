"""The replacement constructions, the ladder of line identities (one rung per even e) and the
scaled h-coefficients."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from sharpmap import constructions, families
from sharpmap import (
    Polynomial,
    equivalent,
    even_family,
    even_u,
    f,
    f_coefficient,
    generalized_solutions,
    h,
    h_coeff_closed,
    h_coeff_inequality_holds,
    h_coeff_sum,
    h_with_trace,
    is_map_polynomial,
    mod6,
    mod6_with_trace,
    pell_ratio_site,
    q,
    q_with_trace,
    ratio4_construct,
    ratio4_construct_with_trace,
    restrict_to_hyperplane,
    rung_sites,
    rung_with_trace,
    solutions,
    uniqueness_status,
)
from sharpmap.polynomial import min_term_count

from .oracles import compose, ladder_identity_by_squaring, sympy_h_term_count

# the first six lambda = 12 Pell solutions, d = 7, 97, 1351, ...
PELL_12 = solutions(12, 6)

Q7_EXPECTED = Polynomial(2, {(7, 0): 1, (3, 1): 7, (3, 3): 7, (1, 3): 7, (0, 7): 1})
MOD6_1_EXPECTED = Polynomial(2, {(7, 0): 1, (5, 1): Fraction(7, 2), (1, 1): Fraction(7, 2),
                                 (1, 5): Fraction(7, 2), (0, 7): 1})
RATIO4_5_1_EXPECTED = f(11) \
    - Polynomial(2, {(9, 1): 11, (7, 2): 44, (5, 3): 77}) \
    + Polynomial(2, {(5, 1): 11, (5, 3): 55, (5, 5): 11})


class TestRatioTwoSites:
    def test_degree_7(self):
        assert pell_ratio_site(7) == 1

    def test_degree_5_has_none(self):
        assert pell_ratio_site(5) is None

    def test_degree_9_has_none(self):
        assert pell_ratio_site(9) is None

    def test_degree_97(self):
        # s = 48 - k where 97^2 = 12 k^2 + 1, so k = 28
        assert PELL_12[1].k == 28
        assert pell_ratio_site(97) == 20

    def test_sites_exist_exactly_at_pell_degrees(self):
        pell_degrees = {s.d for s in PELL_12[:3]}
        for d in range(3, 1500, 2):
            site = pell_ratio_site(d)
            assert (site is not None) == (d in pell_degrees)

    def test_even_degree_rejected(self):
        with pytest.raises(ValueError):
            pell_ratio_site(8)


class TestQ:
    def test_q7_exact(self):
        assert q(7) == Q7_EXPECTED

    def test_q7_properties(self):
        p = q(7)
        assert p.term_count() == 5
        assert not equivalent(p, f(7))

    def test_q97(self):
        p = q(97)
        assert is_map_polynomial(p)
        assert p.term_count() == 50
        assert not equivalent(p, f(97))

    def test_trace_is_neutral_on_line(self):
        poly, step = q_with_trace(7)
        diff = Polynomial(2, step.consumed) - Polynomial(2, step.produced)
        assert restrict_to_hyperplane(diff).is_zero()

    def test_no_site_error(self):
        with pytest.raises(ValueError):
            q(9)


class TestRewrite:
    @pytest.mark.parametrize("build, args", [
        (q_with_trace, (97,)),
        (h_with_trace, (3,)),
        (mod6_with_trace, (2,)),
        (ratio4_construct_with_trace, (5, 1)),
        (rung_with_trace, (8, 9, 1)),
    ])
    def test_step_carries_its_degree(self, build, args):
        poly, step = build(*args)
        assert step.degree == poly.degree()
        assert step.is_neutral()
        assert "degree" not in step.to_json_dict()

    def test_step_that_is_not_neutral_is_rejected(self):
        _, step = q_with_trace(7)
        broken = dataclasses.replace(step, produced=step.produced[:1])
        assert not broken.is_neutral()
        with pytest.raises(AssertionError, match="not neutral on the line"):
            constructions._rewrite(f(7), broken, "q")

    def test_every_even_splice_goes_through_the_rewrite(self, monkeypatch):
        bases = []
        rewrite = constructions._rewrite

        def recording(base, step, label):
            bases.append(base)
            return rewrite(base, step, label)

        monkeypatch.setattr(constructions, "_rewrite", recording)
        assert len(even_family(4)) == 4
        assert bases == [f(1), f(3), f(5), f(7)]

    def test_step_that_is_not_neutral_is_rejected_from_any_base(self):
        # adds x^3 (2 f(3) - 1), which is x^3, not 0, on the line
        m = Polynomial(2, {(3, 0): 1})
        step = constructions._step_adding(m * f(3) * 2 - m, "none", 6)
        assert not step.is_neutral()
        with pytest.raises(AssertionError, match="not neutral on the line"):
            constructions._rewrite(f(3), step, "x^3 (2 f(3) - 1)")


class TestH:
    def test_h2_coincides_with_q7(self):
        assert h(2) == q(7)

    def test_h3_new_monomials(self):
        p = h(3)
        assert p.coefficient((5, 1)) == 11
        assert p.coefficient((5, 5)) == 11
        assert p.term_count() == 7

    def test_properties_to_m12(self):
        for m in range(2, 13):
            p = h(m)
            assert is_map_polynomial(p)
            assert p.degree() == 4 * m - 1
            assert p.term_count() == 2 * m + 1
            assert not equivalent(p, f(4 * m - 1))
            assert p.coefficient((4 * m - 3, 1)) == 0
            assert p.coefficient((4 * m - 5, 2)) == 0

    def test_term_count_against_sympy_expansion(self):
        for m in (2, 3, 4):
            assert h(m).term_count() == sympy_h_term_count(m) == 2 * m + 1

    def test_trace_vanishes_on_line(self):
        _, step = h_with_trace(4)
        diff = Polynomial(2, step.consumed) - Polynomial(2, step.produced)
        assert restrict_to_hyperplane(diff).is_zero()

    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError):
            h(1)


class TestHCoefficients:
    def test_first_two_vanish(self):
        assert h_coeff_closed(2, 1) == 0
        assert h_coeff_closed(3, 1) == 0
        assert h_coeff_closed(3, 2) == 0
        assert h_coeff_sum(3, 2) == 0

    def test_positive_case_matches_h(self):
        m, s = 5, 3
        value = h_coeff_closed(m, s)
        assert value == h_coeff_sum(m, s)
        assert value > 0
        assert value == 2 ** (4 * m - 1) * h(m).coefficient((4 * m - 1 - 2 * s, s))

    def test_closed_equals_sum_on_grid(self):
        for m in range(2, 15):
            for s in range(1, 2 * m):
                assert h_coeff_closed(m, s) == h_coeff_sum(m, s)

    def test_scaled_values_match_every_h_coefficient(self):
        for m in range(2, 9):
            p = h(m)
            scale = 2 ** (4 * m - 1)
            for s in range(1, 2 * m):
                assert h_coeff_closed(m, s) == scale * p.coefficient((4 * m - 1 - 2 * s, s))

    def test_inequality_window(self):
        for m in range(4, 41):
            for s in range(3, m):
                assert h_coeff_inequality_holds(m, s)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            h_coeff_closed(2, 0)
        with pytest.raises(ValueError):
            h_coeff_sum(2, 4)


class TestMod6:
    def test_k1_exact(self):
        assert mod6(1) == MOD6_1_EXPECTED

    def test_k1_three_distinct_degree7_examples(self):
        assert not equivalent(mod6(1), f(7))
        assert not equivalent(mod6(1), q(7))

    def test_properties_to_k8(self):
        for k in range(1, 9):
            p = mod6(k)
            assert is_map_polynomial(p)
            assert p.degree() == 6 * k + 1
            assert p.term_count() == 3 * k + 2
            assert not equivalent(p, f(6 * k + 1))

    def test_trace_vanishes_on_line(self):
        for k in (1, 2, 5):
            _, step = mod6_with_trace(k)
            diff = Polynomial(2, step.consumed) - Polynomial(2, step.produced)
            assert restrict_to_hyperplane(diff).is_zero()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            mod6(0)

    def test_site_ratios_in_closed_form_to_k40(self):
        # K(r, 2k) = 2 K(r, 2k+1) ties the ratios at i = 1, 2; the first is larger
        for k in range(1, 41):
            r = 3 * k
            assert f_coefficient(r, 2 * k) == 2 * f_coefficient(r, 2 * k + 1)
            assert Fraction(f_coefficient(r, 2 * k - 1), f_coefficient(r, 2 * k)) == \
                Fraction(k * (4 * k + 1), (2 * k + 3) * (k + 1))


class TestRatio4:
    def test_sites_bound_5(self):
        assert rung_sites(4, 5) == [(5, 1)]

    def test_no_sites_below_5(self):
        assert rung_sites(4, 4) == []

    def test_sites_match_direct_ratio_scan(self):
        from sharpmap import coefficient_ratio, f_coefficient
        direct = [(r, s) for r in range(1, 61) for s in range(1, r - 1)
                  if coefficient_ratio(r, s) == 4
                  and f_coefficient(r, s + 2) >= 2 * f_coefficient(r, s)]
        assert rung_sites(4, 60) == direct

    def test_sites_are_the_pell_solutions_up_to_10000(self):
        # degrees 11, 373 and 12,671
        assert rung_sites(4, 10_000) == [(5, 1), (186, 54), (6335, 1855)]

    def test_closed_form_matches_the_coefficients_up_to_10000(self):
        # every site of the Pell listing decided again from the binomials
        # K(r, s) themselves, the ones rung_sites never builds
        from sharpmap import coefficient_ratio
        want = []
        for sol in generalized_solutions(8, -7, 2 * 10_000 + 1):
            r = sol.b // 2
            s = r - (sol.a + 1) // 8
            if sol.b % 2 and 1 <= s <= r - 2 and coefficient_ratio(r, s) == 4 \
                    and f_coefficient(r, s + 2) >= 2 * f_coefficient(r, s):
                want.append((r, s))
        assert rung_sites(4, 10_000) == want

    def test_sites_up_to_a_million(self):
        # K(215220, 63036) has about 73,000 digits; the closed form never builds it
        assert rung_sites(4, 10 ** 6) == [(5, 1), (186, 54), (6335, 1855), (215220, 63036)]

    def test_degree_373_has_three_classes(self):
        p = ratio4_construct(186, 54)
        assert is_map_polynomial(p)
        assert p.degree() == 373 and p.term_count() == 188
        assert not equivalent(p, f(373))
        assert not equivalent(p, mod6(62))

    def test_site_values_match_f11(self):
        from sharpmap import f_coefficient
        assert (f_coefficient(5, 1), f_coefficient(5, 2), f_coefficient(5, 3)) == (11, 44, 77)

    def test_construct_5_1(self):
        p = ratio4_construct(5, 1)
        assert p == RATIO4_5_1_EXPECTED
        assert p.term_count() == 7
        assert not equivalent(p, f(11))
        assert p.coefficient((5, 5)) == 11

    def test_construct_coincides_with_h3(self):
        assert ratio4_construct(5, 1) == h(3)

    def test_trace_vanishes_on_line(self):
        _, step = ratio4_construct_with_trace(5, 1)
        diff = Polynomial(2, step.consumed) - Polynomial(2, step.produced)
        assert restrict_to_hyperplane(diff).is_zero()

    def test_invalid_site_rejected(self):
        with pytest.raises(ValueError):
            ratio4_construct(5, 2)
        with pytest.raises(ValueError):
            ratio4_construct(4, 1)


def _h_by_subtraction(m):
    """f(4m-1) - (4m-1) x^(2m-1) y (f(2m-2) - 1), multiplied out, and its step record."""
    multiplier = Polynomial(2, {(2 * m - 1, 1): 4 * m - 1})
    change = multiplier * (Polynomial.constant(2, 1) - f(2 * m - 2))
    step = constructions._step_adding(change, f"f({2 * m - 2}) = 1 on x+y=1", 4 * m - 1)
    return f(4 * m - 1) + change, step


class TestLadder:
    @pytest.mark.parametrize("j, identity", [
        (1, "x^2 + 2y = 1 + y^2 on x+y=1"),
        (2, "x^4 + 4x^2y + 2y^2 = 1 + y^4 on x+y=1"),
        (3, "x^8 + 8x^6y + 20x^4y^2 + 16x^2y^3 + 2y^4 = 1 + y^8 on x+y=1"),
    ])
    def test_line_identity_is_written_from_p_j(self, j, identity):
        # P_j = g_(2^j), the rung e = 2^j
        _, step = rung_with_trace(2 ** j, 2 ** j + 1, 1)
        assert step.line_identity == identity

    def test_rung_8_at_930_170_is_a_new_sharp_class(self):
        p, _ = rung_with_trace(8, 930, 170)
        assert is_map_polynomial(p)
        assert p.degree() == 1861 and p.term_count() == 932 == min_term_count(1861)
        assert not equivalent(p, f(1861))
        assert not equivalent(p, mod6(310))

    @pytest.mark.parametrize("m", range(2, 51))
    def test_s_1_rungs_are_h(self, m):
        # rung 2m-2 at (2m-1, 1) sits in f(4m - 1); h keeps the record of the
        # subtraction, which is the change the rung makes
        want, want_step = _h_by_subtraction(m)
        assert rung_with_trace(2 * m - 2, 2 * m - 1, 1)[0] == want == h(m)
        assert h_with_trace(m)[1] == want_step

    @pytest.mark.parametrize("e, r, s, degree", [
        (10, 6, 1, 13),     # tied at i = 3 and 4
        (10, 14, 3, 29),    # 29 = 5 mod 12
        (18, 28, 18, 57),   # 57 = 9 mod 12
        (6, 464, 104, 929),  # k = 1 of the e = 6k family at d = 432k^3 + 396k^2 + 96k + 5
    ])
    def test_rungs_off_the_powers_of_two(self, e, r, s, degree):
        # the rewrite asserts membership, the sharp term count and inequivalence to f(d)
        p, step = rung_with_trace(e, r, s)
        assert p.degree() == step.degree == degree
        assert p.term_count() == min_term_count(degree) == (degree + 3) // 2
        assert not equivalent(p, f(degree))

    def test_site_with_one_minimal_ratio_is_refused(self):
        # K(3, 2) = 14 and K(3, 3) / 2 = 7/2: one ratio equals the minimum
        with pytest.raises(ValueError, match="1 of the ratios"):
            rung_with_trace(2, 3, 2)


def _ratio_e_pairs_the_builder_accepts(e, r_bound):
    """The (r, s), r <= r_bound, with K(r, s+1) = e K(r, s) where rung e builds."""
    from sharpmap import coefficient_ratio
    direct = []
    for r in range(1, r_bound + 1):
        for s in range(1, r - e // 2 + 1):
            if coefficient_ratio(r, s) != e:
                continue
            try:
                rung_with_trace(e, r, s)
            except ValueError:
                continue
            direct.append((r, s))
    return direct


def _assert_no_sites_without_room(e):
    # no r <= e/2 has room for s >= 1 below r - e/2
    for r_bound in range(1, e // 2 + 1):
        assert _ratio_e_pairs_the_builder_accepts(e, r_bound) == []
        assert rung_sites(e, r_bound) == []


class TestLadderSites:
    @pytest.mark.parametrize("j, want", [
        (1, [(3, 1), (48, 20)]), (2, [(5, 1)]), (3, [(9, 1)]), (4, [(17, 1)]),
    ])
    def test_sites_match_a_direct_scan_to_r80(self, j, want):
        # the rung e = 2^j
        assert _ratio_e_pairs_the_builder_accepts(2 ** j, 80) == want
        assert rung_sites(2 ** j, 80) == want
        _assert_no_sites_without_room(2 ** j)

    @pytest.mark.parametrize("e", [6, 10, 12, 14])
    def test_sites_off_the_powers_of_two_match_a_direct_scan_to_r80(self, e):
        direct = _ratio_e_pairs_the_builder_accepts(e, 80)
        assert (e + 1, 1) in direct  # the s = 1 site, h(e/2 + 1)
        assert rung_sites(e, 80) == direct
        _assert_no_sites_without_room(e)

    def test_ratio_2_sites_are_the_lambda_12_pell_degrees(self):
        degrees = [s.d for s in PELL_12]
        sites = rung_sites(2, (degrees[-1] - 1) // 2)
        assert [2 * r + 1 for r, _ in sites] == degrees
        assert all(pell_ratio_site(2 * r + 1) == s for r, s in sites)

    def test_sites_up_to_a_million_for_e_4_to_32(self):
        # (464, 104) is k = 1 of the e = 6k family, d = 929
        assert {e: rung_sites(e, 10 ** 6) for e in (4, 6, 8, 16, 32)} == {
            4: [(5, 1), (186, 54), (6335, 1855), (215220, 63036)],
            6: [(7, 1), (464, 104), (28791, 6489)],
            8: [(9, 1), (930, 170), (91179, 16731)],
            16: [(17, 1), (5634, 594)],
            32: [(33, 1), (38658, 2210)],
        }

    def test_bound_below_the_first_site_is_empty(self):
        assert rung_sites(400, 10) == []
        assert rung_sites(8, 4) == []

    @pytest.mark.parametrize("j", range(1, 8))
    def test_waring_coefficients_are_the_squaring_recurrence(self, j):
        # P_j = g_(2^j) = f(2^j) + y^(2^j)
        top = 2 ** j
        p = ladder_identity_by_squaring(j)
        assert p == f(top) + Polynomial(2, {(0, top): 1})
        assert [p.coefficient((top - 2 * i, i)) for i in range(top // 2 + 1)] == \
            [families._waring_coefficient(top, i) for i in range(top // 2 + 1)]


class TestComposition:
    # the certificate's counters: (examined, pruned), and their sum, every
    # candidate C(n, N)
    COUNTERS = {4: (27, 1338), 6: (1032, 97248), 8: (52855, 8092205)}
    CANDIDATES = {4: 1365, 6: 98280, 8: 8145060}

    @pytest.mark.parametrize("degree, count", [(4, 4), (6, 10), (8, 24)])
    def test_even_certificates_are_compositions_of_odd_ones(self, degree, count):
        # A and B from the odd certificates, c·m a top-degree term of A
        odd = {d: uniqueness_status(d).distinct_polynomials for d in range(1, degree, 2)}
        composed = {compose(a, term, b)
                    for d in odd for a in odd[d] for b in odd[degree - d]
                    for term in a.terms.items() if sum(term[0]) == d}
        for p in composed:
            assert is_map_polynomial(p)
            assert p.degree() == degree and p.term_count() == min_term_count(degree)
        result = uniqueness_status(degree)
        assert composed == set(result.distinct_polynomials)
        assert len(composed) == count
        stats = result.certificate.stats
        assert (stats.examined, stats.pruned) == self.COUNTERS[degree]
        assert stats.examined + stats.pruned == self.CANDIDATES[degree]


class TestEvenSplice:
    @pytest.mark.parametrize("j", range(5))
    @pytest.mark.parametrize("l", range(5))
    def test_splice_is_the_composition(self, j, l):
        assert even_u(j, l) == compose(f(2 * j + 1), ((2 * j + 1, 0), 1), f(2 * l + 1))

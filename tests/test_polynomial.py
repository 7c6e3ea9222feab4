"""Core polynomial arithmetic, membership predicates, and the sphere map of a polynomial."""

from __future__ import annotations

import itertools
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sharpmap import (
    Polynomial,
    Signature,
    check_sphere_numeric,
    equivalent,
    f,
    gap_witness,
    is_map_polynomial,
    is_one_on_hyperplane,
    mod6,
    q,
    restrict_to_hyperplane,
    signature,
)
from sharpmap import polynomial
from sharpmap.polynomial import line_columns, terms_to_json

from .oracles import (random_polynomial, restrict_by_terms, simplex_points_by_gauss,
                      sympy_restriction, to_sympy)

X_PLUS_Y = Polynomial(2, {(1, 0): 1, (0, 1): 1})
F3 = Polynomial(2, {(3, 0): 1, (1, 1): 3, (0, 3): 1})
S3 = Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
# (x + y + z - 1) * (...) vanishes on the hyperplane
CANCELS = (S3 - Polynomial.constant(3, 1)) * Polynomial(
    3, {(2, 0, 1): Fraction(2, 3), (0, 1, 0): Fraction(-1, 5), (0, 0, 3): 7})

coefficients = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def polynomials(nvars: int):
    """Up to five terms, each exponent at most 4, denominators 1..4."""
    exponents = st.tuples(*[st.integers(0, 4)] * nvars)
    return st.dictionaries(exponents, coefficients, max_size=5).map(
        lambda terms: Polynomial(nvars, terms))


def restriction_inputs(nvars: int):
    """Up to eight terms; exponents at most 12, those of the last variable at most 40.

    In five and six variables the last exponent stops at 16: the restriction
    of x_6^40 alone has 1,221,759 terms and takes seconds on either route.
    """
    top = 40 if nvars <= 4 else 16
    exponents = st.tuples(*[st.integers(0, 12)] * (nvars - 1), st.integers(0, top))
    return st.dictionaries(exponents, coefficients, max_size=8).map(
        lambda terms: Polynomial(nvars, terms))


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
        assert p.term_count() == 1

    def test_merging_in_constructor(self):
        p = Polynomial(2, [((1, 0), 1), ((1, 0), Fraction(1, 2))])
        assert p.coefficient((1, 0)) == Fraction(3, 2)

    def test_wrong_arity_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1, 0, 0): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(-1, 0): 1})

    def test_zero_polynomial_degree(self):
        assert Polynomial(2).degree() == -1

    def test_canonical_order_is_graded_lex(self):
        p = Polynomial(2, {(2, 0): 1, (0, 1): 1, (1, 1): 1})
        assert [e for e, _ in p.canonical_terms()] == [(0, 1), (1, 1), (2, 0)]

    @pytest.mark.parametrize("p", [
        f(7), Polynomial(2), Polynomial(0, {(): 1}),
        Polynomial(3, {(2, 0, 1): Fraction(2, 3), (0, 1, 0): Fraction(-1, 5), (0, 0, 3): 7}),
    ], ids=["f7", "zero", "constant_in_0_vars", "3_vars_negative"])
    def test_repr_evaluates_back(self, p):
        assert eval(repr(p), {"Polynomial": Polynomial, "Fraction": Fraction}) == p


class TestArithmetic:
    def test_product(self):
        assert X_PLUS_Y * X_PLUS_Y == Polynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_cancellation(self):
        assert (X_PLUS_Y - X_PLUS_Y).is_zero()

    def test_scalar(self):
        assert 2 * X_PLUS_Y == Polynomial(2, {(1, 0): 2, (0, 1): 2})

    def test_non_polynomial_operand(self):
        # each operator returns NotImplemented, so Python raises or compares unequal
        p = f(3)
        for op in (lambda: p + 1, lambda: p - 1, lambda: p * "a"):
            with pytest.raises(TypeError):
                op()
        assert (p == 1) is False


class TestRestriction:
    def test_x_plus_y_restricts_to_one(self):
        assert restrict_to_hyperplane(X_PLUS_Y) == Polynomial.constant(1, 1)

    def test_degree_two_example(self):
        p = Polynomial(2, {(2, 0): 1, (1, 1): 1, (0, 1): 1})  # x^2 + xy + y
        assert restrict_to_hyperplane(p) == Polynomial.constant(1, 1)

    def test_x2_plus_2y_restriction(self):
        # x^2 + 2(1-x) = x^2 - 2x + 2
        p = Polynomial(2, {(2, 0): 1, (0, 1): 2})
        expected = Polynomial(1, {(2,): 1, (1,): -2, (0,): 2})
        assert restrict_to_hyperplane(p) == expected

    def test_against_sympy(self):
        rng = random.Random(7)
        inputs = [random_polynomial(rng, nvars, 4 if nvars <= 2 else 3)
                  for nvars in range(1, 5) for _ in range(25)]
        inputs += [Polynomial(nvars) for nvars in range(1, 5)] + [CANCELS]
        for p in inputs:
            ours = restrict_to_hyperplane(p)
            assert ours.nvars == p.nvars - 1
            assert sympy.expand(to_sympy(ours) - sympy_restriction(p)) == 0
        assert restrict_to_hyperplane(CANCELS).is_zero()

    @settings(derandomize=True, deadline=None)
    @given(st.integers(1, 6).flatmap(restriction_inputs))
    @example(f(201))
    @example(q(97))
    @example(gap_witness(6, 38).poly)
    @example(Polynomial(3))
    @example(CANCELS)
    def test_matches_per_term_expansion(self, p):
        ours = restrict_to_hyperplane(p)
        expected = restrict_by_terms(p)
        assert ours.nvars == expected.nvars
        assert dict(ours.terms) == dict(expected.terms)

    def test_line_column_against_sympy(self):
        x = sympy.Symbol("x")
        for d in range(13):
            for a in range(d + 1):
                for b in range(d + 1 - a):
                    low_first = sympy.Poly(x ** a * (1 - x) ** b, x).all_coeffs()[::-1]
                    expected = [int(c) for c in low_first] + [0] * (d - a - b)
                    assert line_columns(d)[(a, b)] == tuple(expected)

    @pytest.mark.parametrize("degree", [0, 1, 7, 12])
    def test_line_columns_restrict_each_power_of_y_once(self, monkeypatch, degree):
        calls = []

        def counted(p):
            calls.append(p)
            return restrict_to_hyperplane(p)

        monkeypatch.setattr(polynomial, "restrict_to_hyperplane", counted)
        table = line_columns.__wrapped__(degree)  # a fresh build, not the cached one
        assert len(calls) == degree + 1
        assert table == line_columns(degree)

    def test_one_variable_gives_constant(self):
        p = Polynomial(1, {(3,): 1, (0,): 2})
        r = restrict_to_hyperplane(p)
        assert r.nvars == 0 and r == Polynomial.constant(0, 3)

    def test_three_variables(self):
        # x + y + z -> 1 after z := 1 - x - y
        assert restrict_to_hyperplane(S3) == Polynomial.constant(2, 1)

    @settings(derandomize=True, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(polynomials(n), polynomials(n))),
           coefficients)
    def test_linearity(self, pair, c):
        p, r = pair
        assert restrict_to_hyperplane(p + r) == \
            restrict_to_hyperplane(p) + restrict_to_hyperplane(r)
        assert restrict_to_hyperplane(p * c) == restrict_to_hyperplane(p) * c

    def test_kept_verdict_is_never_stale(self):
        # p keeps the verdict true; every value built from it must decide afresh
        p = Polynomial(2, f(7).terms)
        assert is_one_on_hyperplane(p)
        rng = random.Random(5)
        r = random_polynomial(rng, 2, max_terms=6) + Polynomial(2, {(0, 2): Fraction(-1, 5)})
        twice = 2 * p
        assert not is_one_on_hyperplane(twice)  # a kept false verdict, undone below
        values = (twice, -p, p - r, p + r, p * r, p * p, p.swap_xy(),
                  twice * Fraction(1, 2), twice - p)
        for value in values:
            expected = sympy.expand(sympy_restriction(value) - 1) == 0
            assert is_one_on_hyperplane(value) == expected
        assert [is_one_on_hyperplane(v) for v in values] == \
            [False, False, False, False, False, True, True, True, True]
        assert is_one_on_hyperplane(p)

    def test_pickled_witness_restricts_the_same(self, monkeypatch):
        # shard workers send their witnesses back to the parent by pickling
        checked = gap_witness(4, 12)
        assert is_map_polynomial(checked.poly)
        for witness in (checked, gap_witness(3, 9)):
            back = pickle.loads(pickle.dumps(witness))
            assert back.poly == witness.poly
            assert restrict_to_hyperplane(back.poly) == restrict_to_hyperplane(witness.poly)
            assert sympy.expand(to_sympy(restrict_to_hyperplane(back.poly))
                                - sympy_restriction(witness.poly)) == 0
            assert is_map_polynomial(back.poly)
        # the verdict kept by the worker travels with the pickle: no restriction here
        back = pickle.loads(pickle.dumps(checked))
        calls = []
        monkeypatch.setattr(polynomial, "restrict_to_hyperplane", calls.append)
        assert is_one_on_hyperplane(back.poly) and is_map_polynomial(back.poly)
        assert calls == []


class TestMembership:
    def test_two_minus_s_is_on_hyperplane(self):
        p = Polynomial(2, {(0, 0): 2, (1, 0): -1, (0, 1): -1})
        assert is_one_on_hyperplane(p)
        assert not is_map_polynomial(p)

    def test_x_plus_y_plus_one_is_not(self):
        assert not is_one_on_hyperplane(X_PLUS_Y + Polynomial.constant(2, 1))

    def test_f3(self):
        assert is_one_on_hyperplane(F3)
        assert is_map_polynomial(F3)

    def test_two_s_minus_one_not_in_cone(self):
        p = 2 * X_PLUS_Y - Polynomial.constant(2, 1)
        assert is_one_on_hyperplane(p)
        assert not is_map_polynomial(p)

    def test_zero_polynomial(self):
        assert not is_map_polynomial(Polynomial(2))

    def test_verdict_is_kept_and_restriction_is_not(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return restrict_by_terms(p)

        p = Polynomial(2, f(7).terms)
        restrict_to_hyperplane(p)  # pure: keeps nothing on p
        monkeypatch.setattr(polynomial, "restrict_to_hyperplane", counted)
        assert is_one_on_hyperplane(p) and is_one_on_hyperplane(p) and is_map_polynomial(p)
        assert calls == [p]

    def test_membership_restriction_has_single_term(self):
        for p in (F3, X_PLUS_Y, f(9)):
            r = restrict_to_hyperplane(p)
            assert r.term_count() == 1 and r == Polynomial.constant(1, 1)


class TestSignature:
    def test_examples(self):
        s = X_PLUS_Y
        one = Polynomial.constant(2, 1)
        x = Polynomial.variable(2, 0)
        assert signature(2 * one - s) == Signature(1, 2)
        assert signature(one + x * (one - s)) == Signature(2, 2)
        assert signature(one - x * (one - s)) == Signature(3, 1)

    def test_zero(self):
        assert signature(Polynomial(2)) == Signature(0, 0)


class TestEquivalence:
    def test_swap_pair(self):
        f5 = f(5)
        assert equivalent(f5, f5.swap_xy())

    def test_f7_vs_q7(self):
        assert not equivalent(f(7), q(7))

    def test_reflexive(self):
        assert equivalent(F3, F3)

    def test_rejects_other_arities(self):
        p3 = Polynomial(3, {(1, 0, 0): 1})
        with pytest.raises(ValueError, match="only for two-variable polynomials"):
            equivalent(p3, p3)

    def test_equivalence_relation_on_random_inputs(self):
        rng = random.Random(99)
        polys = [random_polynomial(rng) for _ in range(12)]
        for p in polys:
            assert equivalent(p, p)
        for p in polys:
            for r in polys:
                assert equivalent(p, r) == equivalent(r, p)
        for p in polys:
            for r in polys:
                for t in polys:
                    if equivalent(p, r) and equivalent(r, t):
                        assert equivalent(p, t)


class TestMonomialMap:
    """The map z |-> (sqrt(c_a) z^a)_a of a map polynomial sum c_a x^a."""

    def test_identity_like(self):
        assert is_map_polynomial(X_PLUS_Y)
        assert [c for _, c in X_PLUS_Y.canonical_terms()] == [1, 1]

    def test_f3_squared_coefficients(self):
        assert is_map_polynomial(F3)
        assert sorted(F3.terms.values()) == [1, 1, 3]

    def test_f7_squared_coefficients(self):
        assert is_map_polynomial(f(7))
        assert sorted(f(7).terms.values()) == [1, 1, 7, 7, 14]

    def test_requires_cone_membership(self):
        assert not is_map_polynomial(2 * X_PLUS_Y - Polynomial.constant(2, 1))

    def test_component_count_matches_terms(self):
        for p in (X_PLUS_Y, F3, f(9), q(7)):
            components = terms_to_json(p.canonical_terms(), "sq_coeff")
            assert len(components) == p.term_count()
            assert all(sorted(c) == ["exp", "sq_coeff"] for c in components)
            assert {tuple(c["exp"]): Fraction(c["sq_coeff"]) for c in components} == p.terms


def huge_coefficient_member() -> Polynomial:
    """A hyperplane-one member whose coefficients have ~400-digit numerators.

    Its coefficients take the sphere check's mantissa/exponent path.
    """
    big = 10 ** 400
    return Polynomial(2, {(2, 0): 1, (1, 1): 2 - Fraction(1, big),
                          (0, 2): 1 - Fraction(1, big), (0, 1): Fraction(1, big)})


def hex_points(points) -> list[list[str]]:
    """The exact bits of each coordinate, so that 0.0 and -0.0 differ too."""
    return [[v.hex() for v in point] for point in points]


class TestSphereCheck:
    def test_identity_map_residual(self):
        assert check_sphere_numeric(X_PLUS_Y, 100, seed=1) <= 1e-12

    def test_f7_residual(self):
        assert check_sphere_numeric(f(7), 1000, seed=1) <= 1e-10

    def test_perturbed_map_detected(self):
        bad = X_PLUS_Y + Polynomial(2, {(1, 0): Fraction(1, 1000)})
        assert check_sphere_numeric(bad, 100, seed=1) >= 1e-4

    def test_deterministic_in_seed(self):
        p = f(5)
        assert check_sphere_numeric(p, 50, seed=3) == check_sphere_numeric(p, 50, seed=3)

    def test_huge_coefficient_fractions_are_handled(self):
        p = huge_coefficient_member()
        assert is_map_polynomial(p)
        assert check_sphere_numeric(p, 50, seed=2) <= 1e-10

    def test_term_past_the_float_range_is_infinite(self):
        # 2**2000 * x fits no double: the scaled term overflows to inf
        assert check_sphere_numeric(Polynomial(1, {(1,): 2 ** 2000}), 1, 0) == math.inf

    @pytest.mark.parametrize("make, samples, seed, expected", [
        (lambda: f(7), 1000, 1234, "0x1.0000000000000p-50"),
        (lambda: f(121), 300, 1234, "0x1.1a00000000000p-46"),
        (lambda: f(1351), 20, 1234, "0x1.2d80000000000p-43"),  # plain and scaled terms
        (lambda: gap_witness(1, 5).poly, 500, 1234, "0x0.0p+0"),
        (lambda: gap_witness(4, 12).poly, 500, 1234, "0x1.0000000000000p-52"),
        (lambda: mod6(3), 500, 1234, "0x1.6000000000000p-49"),
        # a compensated norm (sum() on CPython 3.12 and later) reads 0x1p-53
        (lambda: gap_witness(3, 3).poly, 200, 2, "0x1.0000000000000p-52"),
        # a compensated norm reads 0x1p-52 for these two
        (lambda: gap_witness(3, 5).poly, 200, 2, "0x1.8000000000000p-52"),
        (lambda: gap_witness(3, 5).poly, 200, 3, "0x1.8000000000000p-52"),
        # scaled terms with a zero exponent, x^0 y^2 and x^0 y
        (huge_coefficient_member, 500, 1234, "0x1.0000000000000p-51"),
    ], ids=["f7", "f121", "f1351", "gap_1_5", "gap_4_12", "mod6_3",
            "gap_3_3_seed2", "gap_3_5_seed2", "gap_3_5_seed3", "huge_fractions"])
    def test_residual_bit_for_bit(self, make, samples, seed, expected):
        # pinned from the per-term loop; the check does not restrict p
        p = make()
        assert check_sphere_numeric(p, samples, seed=seed).hex() == expected

    @pytest.mark.parametrize("zero", [0, 1], ids=["x", "y"])
    def test_zero_coordinate_gives_exact_terms(self, monkeypatch, zero):
        # each coordinate takes an angle draw and a radius draw; a radius
        # draw of 0.0 gives sqrt(-0.0), so that coordinate is 0.0 and every
        # term of f(1351) but the pure power of the other is an exact 0.0,
        # scaled terms included, so p(1, 0) = p(0, 1) = 1 exactly
        draws = itertools.cycle([0.25, 0.0, 0.25, 0.5] if zero == 0 else [0.25, 0.5, 0.25, 0.0])
        monkeypatch.setattr(random.Random, "random", lambda self: next(draws))
        assert check_sphere_numeric(f(1351), 20, seed=1234) == 0.0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_points_match_gauss(self, n):
        for seed in range(5):
            points = polynomial._simplex_points(n, 50, seed)
            assert hex_points(points) == hex_points(simplex_points_by_gauss(n, 50, seed))

    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_norm_attempt_is_redrawn(self, monkeypatch, n):
        # the first attempt's radius draws are all 0.0, so its norm is 0.0
        # and the first point comes from the next 2n draws
        samples = 4
        rng = random.Random(5)
        tail = [rng.random() for _ in range(2 * n * samples)]
        first = [0.3, 0.0] * n
        results = []
        for sampler in (polynomial._simplex_points, simplex_points_by_gauss):
            draws = iter(first + tail)
            monkeypatch.setattr(random.Random, "random", lambda self: next(draws))
            results.append(hex_points(sampler(n, samples, 0)))
            assert next(draws, None) is None  # every draw was used
        assert results[0] == results[1]
        assert len(results[0]) == samples

    def test_samples_validated(self):
        with pytest.raises(ValueError):
            check_sphere_numeric(X_PLUS_Y, 0, seed=1)

    def test_needs_a_variable(self):
        # no point of the sphere of C^0 can be drawn, so the check would not return
        with pytest.raises(ValueError):
            check_sphere_numeric(Polynomial(0, {(): 1}), 5, seed=1)


def to_text(p: Polynomial) -> str:
    return json.dumps(p.to_json_dict())


def from_text(text: str) -> Polynomial:
    return Polynomial.from_json_dict(json.loads(text))


class TestJson:
    @settings(derandomize=True, deadline=None)
    @given(st.integers(0, 4).flatmap(polynomials))
    @example(F3)
    @example(q(7))
    @example(f(10))
    def test_round_trip_identity(self, p):
        assert from_text(to_text(p)) == p

    def test_byte_identical_reserialization(self):
        text = to_text(q(97))
        assert to_text(from_text(text)) == text

    def test_schema_shape(self):
        d = F3.to_json_dict()
        assert d["nvars"] == 2
        assert d["terms"][0] == {"exp": [1, 1], "coeff": "3/1"}

    def test_fraction_coefficients(self):
        from sharpmap import mod6
        p = mod6(1)
        again = from_text(to_text(p))
        assert again.coefficient((5, 1)) == Fraction(7, 2)

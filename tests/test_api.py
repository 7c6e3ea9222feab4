"""The public names of the ``sharpmap`` package, pinned in one list.

Adding, renaming or deleting an export is a deliberate edit to this list.
Submodules are left out: ``sharpmap.cli`` becomes an attribute of the
package only once something imports it.  The input refusals of the public
API that no other test reaches are pinned here too.
"""

from __future__ import annotations

import types

import pytest

import sharpmap
from sharpmap import Polynomial, f

PUBLIC_NAMES = [
    "FeasibilityResult",
    "GapWitness",
    "GeneralizedPellSolution",
    "PellSolution",
    "Polynomial",
    "ReplacementStep",
    "SharpCertificate",
    "SharpWitness",
    "Signature",
    "SignatureWitness",
    "Support",
    "T",
    "UniquenessResult",
    "V",
    "W",
    "append_negative",
    "check_sphere_numeric",
    "coefficient_ratio",
    "decompose_target",
    "enumerate_sharp",
    "equivalent",
    "even_family",
    "even_u",
    "f",
    "f_coefficient",
    "fundamental_solution",
    "gap_witness",
    "generalized_solutions",
    "h",
    "h_coeff_closed",
    "h_coeff_inequality_holds",
    "h_coeff_sum",
    "h_with_trace",
    "is_map_polynomial",
    "is_one_on_hyperplane",
    "mod6",
    "mod6_with_trace",
    "monomials_independent_of_constants",
    "pell_ratio_site",
    "q",
    "q_with_trace",
    "ratio4_construct",
    "ratio4_construct_with_trace",
    "restrict_to_hyperplane",
    "rung_sites",
    "rung_with_trace",
    "signature",
    "signature_impossible",
    "signature_witness",
    "solutions",
    "uniqueness_status",
]


def test_public_names_are_pinned():
    exported = sorted(name for name, value in vars(sharpmap).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES


REFUSALS = {
    "float_coefficient": (lambda: Polynomial(2, {(1, 0): 1.5}), TypeError,
                          "must be an int or Fraction"),
    "pell_b_bound_0": (lambda: sharpmap.generalized_solutions(8, -7, 0), ValueError,
                       "b_bound must be at least 1"),
    "T_0": (lambda: sharpmap.T(0), ValueError, "n must be positive"),
    "h_inequality_range": (lambda: sharpmap.h_coeff_inequality_holds(3, 3), ValueError,
                           "3 <= s <= m-1"),
    "ladder_sites_odd_e": (lambda: sharpmap.rung_sites(3, 5), ValueError, "need even e >= 2"),
    "ladder_sites_bound_0": (lambda: sharpmap.rung_sites(2, 0), ValueError, "r_bound >= 1"),
    "ratio4_s_0": (lambda: sharpmap.ratio4_construct(5, 0), ValueError, "1 <= s <= r-2"),
    "ratio4_not_4": (lambda: sharpmap.ratio4_construct(5, 3), ValueError, "ratio is not 4"),
    "mod6_k_0": (lambda: sharpmap.mod6(0), ValueError, "k must be positive"),
    "ladder_e_0": (lambda: sharpmap.rung_with_trace(0, 5, 1), ValueError, "need even e >= 2"),
    "ladder_odd_e": (lambda: sharpmap.rung_with_trace(3, 5, 1), ValueError, "need even e >= 2"),
    "ladder_s_0": (lambda: sharpmap.rung_with_trace(2, 5, 0), ValueError, "1 <= s <= r - e/2"),
    # s + e/2 = 6 > r
    "ladder_past_r": (lambda: sharpmap.rung_with_trace(8, 5, 2), ValueError,
                      "1 <= s <= r - e/2"),
    # refused from three coefficients, before f(2 * 10^9 + 1) is built
    "ladder_not_a_site": (lambda: sharpmap.rung_with_trace(4, 10 ** 9, 1), ValueError,
                          "not a rung-4 site"),
    "even_u_negative": (lambda: sharpmap.even_u(-1, 0), ValueError, "must be nonnegative"),
    "variable_index": (lambda: Polynomial.variable(2, 2), ValueError, "out of range"),
    "arity_mismatch": (lambda: f(3) + Polynomial(3), ValueError, "arity mismatch"),
    "swap_arity": (lambda: Polynomial(3).swap_xy(), ValueError, "only for two variables"),
    "signature_degree_negative": (lambda: sharpmap.signature_impossible(
        sharpmap.Signature(1, 0), -1), ValueError, "need max_degree >= 0"),
    "signature_count_negative": (lambda: sharpmap.signature_impossible(
        sharpmap.Signature(2, -1), 3), ValueError, "counts >= 0"),
    "restrict_no_variable": (lambda: sharpmap.restrict_to_hyperplane(Polynomial(0)), ValueError,
                             "at least one variable"),
    "enumerate_one_term": (lambda: sharpmap.enumerate_sharp(3, 1), ValueError,
                           "at least 2 terms"),
    "support_empty": (lambda: sharpmap.Support(1, ()), ValueError, "nonempty"),
    "support_negative_exponent": (lambda: sharpmap.Support(1, ((-1, 2), (1, 0))), ValueError,
                                  "nonnegative"),
    "support_no_pure_x_power": (lambda: sharpmap.Support(2, ((1, 1), (0, 2))), ValueError,
                                "y-exponent 0"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_input_is_refused(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error, match=fragment):
        call()

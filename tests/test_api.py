"""The public names of the ``sharpmap`` package, pinned in one list.

Adding, renaming or deleting an export is a deliberate edit to this list.
Submodules are left out: ``sharpmap.cli`` becomes an attribute of the
package only once something imports it.
"""

from __future__ import annotations

import types

import sharpmap

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
    "congruence_class",
    "decompose_target",
    "enumerate_sharp",
    "equivalent",
    "even_family",
    "even_u",
    "f",
    "f_coefficient",
    "frobenius",
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
    "ratio4_sites",
    "restrict_to_hyperplane",
    "signature",
    "signature_impossible",
    "signature_witness",
    "solution_at",
    "solutions",
    "uniqueness_status",
]


def test_public_names_are_pinned():
    exported = sorted(name for name, value in vars(sharpmap).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES

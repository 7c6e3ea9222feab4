"""Exact constructions and searches for proper monomial sphere map polynomials.

The objects of study are polynomials with nonnegative coefficients that take
the constant value 1 on the hyperplane x_1 + ... + x_n = 1; they correspond
one-to-one with proper monomial maps between unit spheres.  Everything is
exact rational arithmetic; floating point appears only in an optional
numeric cross-check of the sphere identity.
"""

from .constructions import (
    ReplacementStep,
    even_family,
    even_u,
    h,
    h_coeff_closed,
    h_coeff_inequality_holds,
    h_coeff_sum,
    h_with_trace,
    mod6,
    mod6_with_trace,
    pell_ratio_site,
    q,
    q_with_trace,
    ratio4_construct,
    ratio4_construct_with_trace,
    rung_sites,
    rung_with_trace,
)
from .families import (
    coefficient_ratio,
    f,
    f_coefficient,
)
from .gaps import (
    GapWitness,
    SignatureWitness,
    T,
    V,
    W,
    append_negative,
    decompose_target,
    gap_witness,
    monomials_independent_of_constants,
    signature_impossible,
    signature_witness,
)
from .pell import (
    GeneralizedPellSolution,
    PellSolution,
    fundamental_solution,
    generalized_solutions,
    solutions,
)
from .polynomial import (
    Polynomial,
    Signature,
    check_sphere_numeric,
    equivalent,
    is_map_polynomial,
    is_one_on_hyperplane,
    restrict_to_hyperplane,
    signature,
)
from .search import (
    FeasibilityResult,
    SharpCertificate,
    SharpWitness,
    Support,
    UniquenessResult,
    enumerate_sharp,
    uniqueness_status,
)

__version__ = "0.1.0"

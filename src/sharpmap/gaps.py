"""Target-dimension coverage: every large enough term count is realized.

Writing s = x_1 + ... + x_n, two operators act on map polynomials that
contain a pure power c x_n^d of top x_n-degree:

    W p = p - c x_n^d + c x_n^d s        (adds n-1 terms)
    V p = p - (c/2) x_n^d + (c/2) x_n^d s   (adds n terms)

Both preserve the value on the hyperplane and coefficient nonnegativity.
Iterating from s itself, V^k W^j s has (j+1)n - j + kn terms, and the
achievable term counts N therefore include every N with
N - n = j(n-1) + kn.  By Sylvester's two-coin theorem the largest integer
not representable by coprime n-1 and n is F(n, n-1) = n^2 - 3n + 1, so
every N >= T(n) = n^2 - 2n + 2 = 1 + F(n, n-1) + n is realized.  Since the
components of the corresponding monomial map are distinct monomials, no
target-ball automorphism can compress it into fewer dimensions (a linear
combination of distinct nonconstant monomials is never constant), so N is
the minimal embedding dimension.

The signature catalog at the bottom produces hyperplane-one polynomials of
arbitrary sign pattern (N_+, N_-) from a handful of recipes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .families import f
from .linprog import max_min_component
from .polynomial import (
    Polynomial,
    Signature,
    assert_term_bound,
    is_map_polynomial,
    is_one_on_hyperplane,
    line_columns,
    signature,
)


def T(n: int) -> int:
    """Threshold n^2 - 2n + 2 = 1 + F(n, n-1) + n beyond which every count occurs."""
    if n < 1:
        raise ValueError("n must be positive")
    return n * n - 2 * n + 2


def _s(n: int) -> Polynomial:
    return Polynomial(n, {tuple(1 if j == i else 0 for j in range(n)): 1
                          for i in range(n)})


def _top_pure_term(p: Polynomial) -> tuple[tuple[int, ...], Fraction]:
    """The pure x_n term of highest degree; error if p has none."""
    n = p.nvars
    best = None
    for exp, c in p.terms.items():
        if any(exp[:-1]):
            continue
        if best is None or exp[-1] > best[0][-1]:
            best = (exp, c)
    if best is None:
        raise ValueError("polynomial has no pure power of the last variable")
    return best


def _split_top(p: Polynomial, share: Fraction) -> Polynomial:
    """Multiply ``share`` of the top pure x_n term of p by x_1 + ... + x_n."""
    exp, c = _top_pure_term(p)
    part = Polynomial(p.nvars, {exp: c * share})
    return p - part + part * _s(p.nvars)


def W(p: Polynomial) -> Polynomial:
    """Replace the top pure x_n term c x_n^d by c x_n^d (x_1 + ... + x_n)."""
    return _split_top(p, Fraction(1))


def V(p: Polynomial) -> Polynomial:
    """Split the top pure x_n term: keep half, multiply half by x_1 + ... + x_n."""
    return _split_top(p, Fraction(1, 2))


def decompose_target(n: int, N: int) -> tuple[int, int] | None:
    """Nonnegative (j, k) with j(n-1) + kn = N - n and j minimal, or None.

    As n-1 = -1 mod n, j = -N mod n is the least j leaving a multiple of n,
    and larger ones leave less; None (no V^k W^j s has N terms) can only
    happen for N < T(n) and does not rule out other N-term map polynomials.
    """
    if n < 2:
        raise ValueError("decomposition needs n >= 2")
    j = -N % n
    rest = N - n - j * (n - 1)
    return (j, rest // n) if rest >= 0 else None


@dataclass(frozen=True)
class GapWitness:
    """A map polynomial realizing exactly N terms for domain dimension n.

    Minimality of the target dimension follows because the components of
    the induced monomial map are distinct nonconstant monomials (checked by
    ``monomials_independent_of_constants``).
    """

    n: int
    N: int
    j: int
    k: int
    poly: Polynomial

    def to_json_dict(self) -> dict:
        return {"n": self.n, "N": self.N, "j": self.j, "k": self.k,
                "poly": self.poly.to_json_dict()}


def gap_witness(n: int, N: int) -> GapWitness:
    """Construct V^k W^j s with exactly N terms (n >= 2), or the n = 1 split.

    For n = 1 any N >= 1 works: sum of (1/N) x^i for i = 1..N.  For n >= 2
    the decomposition exists whenever N >= T(n) and for some N below it;
    elsewhere V^k W^j s does not reach N and ``ValueError`` is raised, which
    says nothing about other N-term map polynomials.
    """
    if n < 1 or N < 1:
        raise ValueError("dimensions must be positive")
    if n == 1:
        poly = Polynomial(1, {(i,): Fraction(1, N) for i in range(1, N + 1)})
        witness = GapWitness(1, N, 0, 0, poly)
    else:
        decomposition = decompose_target(n, N)
        if decomposition is None:
            raise ValueError(
                f"N-n={N - n} is not a nonnegative combination of {n - 1} and {n}, "
                f"so no V^k W^j s has N={N} terms for n={n}")
        j, k = decomposition
        poly = _s(n)
        for _ in range(j):
            poly = W(poly)
        for _ in range(k):
            poly = V(poly)
        witness = GapWitness(n, N, j, k, poly)
    if not is_map_polynomial(witness.poly) or witness.poly.term_count() != N:
        raise AssertionError(f"gap witness construction failed at (n={n}, N={N})")
    assert_term_bound(witness.poly)
    return witness


def monomials_independent_of_constants(p: Polynomial) -> bool:
    """True iff no nontrivial rational combination of the map's components is constant.

    The components of the monomial map of p are its terms.  A ``Polynomial``
    holds each exponent once, and distinct monomials are linearly
    independent, so the terms together with the constant monomial have rank
    term_count + 1 exactly when no term is the constant monomial itself.
    """
    return (0,) * p.nvars not in p.terms


# -- signature catalog -----------------------------------------------------------

SIGNATURE_RECIPES = (
    "two_minus_s",
    "two_s_minus_one",
    "one_plus_x_times",
    "one_minus_x_times",
    "f_odd",
    "two_minus_f_odd",
    "append_negative",
)
# the recipes built from f(2r + 1): the only ones that read r, and two-variable
F_RECIPES = ("f_odd", "two_minus_f_odd")


@dataclass(frozen=True)
class SignatureWitness:
    requested: Signature
    poly: Polynomial
    recipe: str

    def to_json_dict(self) -> dict:
        return {"recipe": self.recipe,
                "signature": self.requested._asdict(),
                "poly": self.poly.to_json_dict()}


def append_negative(p: Polynomial) -> Polynomial:
    """p + x_n^(d+1) (1 - s): adds one positive and n negative terms.

    Takes any hyperplane-one polynomial of degree d to one of signature
    (a+1, b+n); the new terms have degrees d+1 and d+2, so they never merge
    with existing ones.
    """
    n = p.nvars
    d = p.degree()
    exp = tuple(0 if i < n - 1 else d + 1 for i in range(n))
    mono = Polynomial(n, {exp: 1})
    return p + mono * (Polynomial.constant(n, 1) - _s(n))


def signature_witness(recipe: str, n: int = 2, r: int = 1) -> SignatureWitness:
    """Produce a hyperplane-one polynomial with the recipe's advertised signature."""
    if recipe not in SIGNATURE_RECIPES:
        raise ValueError(f"unknown recipe {recipe!r}; choose from {SIGNATURE_RECIPES}")
    if n < 1:
        raise ValueError("n must be positive")
    if recipe in F_RECIPES:
        if n != 2:
            raise ValueError(f"recipe {recipe} builds a polynomial in two variables, "
                             f"so n (--n) must be 2, got {n}")
        if r < 1:
            raise ValueError("r must be positive")
    s = _s(n)
    one = Polynomial.constant(n, 1)
    x1 = Polynomial.variable(n, 0)
    if recipe == "two_minus_s":
        poly, expected = 2 * one - s, Signature(1, n)
    elif recipe == "two_s_minus_one":
        poly, expected = 2 * s - one, Signature(n, 1)
    elif recipe == "one_plus_x_times":
        poly, expected = one + x1 * (one - s), Signature(2, n)
    elif recipe == "one_minus_x_times":
        poly, expected = one - x1 * (one - s), Signature(n + 1, 1)
    elif recipe == "f_odd":
        poly, expected = f(2 * r + 1), Signature(r + 2, 0)
    elif recipe == "two_minus_f_odd":
        poly, expected = 2 * Polynomial.constant(2, 1) - f(2 * r + 1), Signature(1, r + 2)
    else:  # append_negative, applied to the constant 1
        poly, expected = append_negative(one), Signature(2, n)
    if not is_one_on_hyperplane(poly):
        raise AssertionError(f"recipe {recipe}: output is not 1 on the hyperplane")
    actual = signature(poly)
    if actual != expected:
        raise AssertionError(f"recipe {recipe}: signature {actual}, expected {expected}")
    return SignatureWitness(expected, poly, recipe)


def signature_impossible(requested: Signature, max_degree: int) -> bool:
    """Bounded check that no two-variable hyperplane-one polynomial has the signature.

    Enumerates every support of size n_plus + n_minus over monomials of
    total degree <= max_degree (constant included) together with every
    assignment of signs to the support, and decides each case with an exact
    linear program (flip the sign-designated columns of
    ``line_columns(max_degree)``; a witness with that exact sign pattern
    exists iff the max-min optimum is positive).  Sound only as a
    verification up to the stated degree; negative input raises ValueError.
    """
    if max_degree < 0 or min(requested) < 0:
        raise ValueError(f"need max_degree >= 0 and counts >= 0, got {max_degree}, {requested}")
    count = requested.n_plus + requested.n_minus
    if requested.n_plus == 0:
        # all-nonpositive coefficients give a nonpositive value at points of
        # the line with positive coordinates, so the value 1 is unreachable
        return True
    # a monomial of degree below max_degree has zero entries in the upper
    # rows, as has the right-hand side, so one table serves every support
    table = line_columns(max_degree)
    rhs = table[(0, 0)]
    for support in combinations(table, count):
        cols = [table[mon] for mon in support]
        for positives in combinations(range(count), requested.n_plus):
            pos = set(positives)
            signed = [col if i in pos else [-v for v in col]
                      for i, col in enumerate(cols)]
            if max_min_component(signed, rhs)[0] is not None:
                return False
    return True

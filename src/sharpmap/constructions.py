"""Sharp polynomials inequivalent to the f(d) family, each one rewrite of a base.

Every construction adds to a sharp base polynomial a change that vanishes
on the line x + y = 1.  The four odd ones are rungs of one ladder of line
identities, one rung for each even e >= 2: g_e = f(e) + y^e is 1 + y^e on
the line because f(e) is 1 there.  Its coefficients c_i of x^(e-2i) y^i,
i = 0..e/2, are Waring's, so positive (c_0 = 1, c_1 = e).  Rung e at a site
(r, s) of f(2r+1), with a = 2r+1-2s and K = min_i K(r, s+i)/c_i, rewrites
K x^(a-e) y^s g_e as K x^(a-e) y^s (1 + y^e) (``rung_with_trace``); the
result is sharp exactly when two ratios equal K.  ``rung_sites`` lists the
sites where the ratio K(r, s+1)/K(r, s) is e from one Pell equation per
rung, X^2 - D_e b^2 = N_e with b = 2r+1.

  * ``q(d)``      is rung 2 at the ratio-2 site of f(d), which exists
                  precisely when d^2 = 12 k^2 + 1 (a Pell condition).
  * ``mod6(k)``   is rung 4 at the site (3k, 2k-1) of f(6k+1).
  * ``ratio4_construct(r, s)`` is rung 4 at sites where the ratio is
                  exactly 4 (``rung_sites(4, ...)``).
  * ``h(m)``      is rung 2m-2 at (2m-1, 1): it subtracts
                  (4m-1) x^(2m-1) y (f(2m-2) - 1) from f(4m-1) and covers
                  every degree 3 mod 4.

Rungs off the powers of two reach the residues 5 and 9 mod 12 as well:
d = 29 is rung 10 at (14, 3), and d = 57 is rung 18 at (28, 18).

``even_u`` and ``even_family`` give minimal-term examples in even degree by
splicing one odd-degree family member into another.

Every construction is data for one rewrite routine: it records the degree
of the result and the consumed and produced terms in a ``ReplacementStep``,
whose defining invariant (the difference vanishes on the line) is verified
exactly.  The routine applies the step to the base it is given and asserts
membership, degree, the sharp term count and inequivalence to the base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .families import _ratio, _waring_coefficient, f, f_coefficient
from .pell import generalized_solutions
from .polynomial import (
    Polynomial,
    equivalent,
    is_map_polynomial,
    min_term_count,
    restrict_to_hyperplane,
    terms_to_json,
)

TermList = tuple[tuple[tuple[int, int], Fraction], ...]


@dataclass(frozen=True)
class ReplacementStep:
    """Record of one rewrite of a base: terms removed, terms added, identity used.

    ``degree`` is the degree of the result; the JSON record omits it.
    """

    consumed: TermList
    produced: TermList
    line_identity: str
    degree: int

    def is_neutral(self) -> bool:
        """True iff the consumed-minus-produced difference vanishes on the line."""
        diff = Polynomial(2, self.consumed) - Polynomial(2, self.produced)
        return restrict_to_hyperplane(diff).is_zero()

    def to_json_dict(self) -> dict:
        return {
            "line_identity": self.line_identity,
            "consumed": terms_to_json(self.consumed),
            "produced": terms_to_json(self.produced),
        }


def _rewrite(base: Polynomial, step: ReplacementStep, label: str) -> Polynomial:
    """Apply the neutral ``step`` to ``base``; assert a new sharp polynomial of its degree."""
    if not step.is_neutral():
        raise AssertionError(f"{label}: replacement is not neutral on the line: {step}")
    d = step.degree
    p = base - Polynomial(2, step.consumed) + Polynomial(2, step.produced)
    if not is_map_polynomial(p):
        raise AssertionError(f"{label}: output has a negative coefficient or is not 1 on the line")
    if p.degree() != d:
        raise AssertionError(f"{label}: degree {p.degree()}, expected {d}")
    if p.term_count() != min_term_count(d):
        raise AssertionError(f"{label}: {p.term_count()} terms, expected {min_term_count(d)}")
    if equivalent(p, base):
        raise AssertionError(f"{label}: output is equivalent to its base")
    return p


def _step_adding(delta: Polynomial, line_identity: str, degree: int) -> ReplacementStep:
    """The step that adds ``delta``: its negative terms consumed, its positive ones produced."""
    terms = delta.canonical_terms()
    return ReplacementStep(tuple((e, -c) for e, c in terms if c < 0),
                           tuple((e, c) for e, c in terms if c > 0), line_identity, degree)


# -- the ladder of line identities, one rung per even e ------------------------


def _power(name: str, e: int) -> str:
    return "" if e == 0 else name if e == 1 else f"{name}^{e}"


def _rung_minimum(c: list[int], r: int, s: int) -> tuple[Fraction, int]:
    """min_i K(r, s+i) / (c_i K(r, s)) and how many i reach it, from the closed-form ratio."""
    values, k = [], Fraction(1)
    for i, ci in enumerate(c):
        values.append(k / ci)
        k *= _ratio(r, s + i)
    low = min(values)
    return low, values.count(low)


def rung_with_trace(e: int, r: int, s: int) -> tuple[Polynomial, ReplacementStep]:
    """Rung e of the ladder at the site (r, s) of f(2r+1), with its replacement record.

    The step consumes K(r, s+i) x^(a-2i) y^(s+i), i = 0..e/2, and produces
    the two new terms and K(r, s+i) - K c_i where that is positive.  A site
    where other than two ratios equal K is refused before f(2r+1) is built.
    """
    if e < 2 or e % 2 or s < 1 or s + e // 2 > r:
        raise ValueError(f"invalid rung {e} at ({r},{s}): need even e >= 2 and 1 <= s <= r - e/2")
    c = [_waring_coefficient(e, i) for i in range(e // 2 + 1)]
    low, ties = _rung_minimum(c, r, s)
    if ties != 2:
        raise ValueError(f"({r},{s}) is not a rung-{e} site: {ties} of the ratios "
                         f"K(r,s+i)/c_i equal their minimum, not 2")
    ks = [Fraction(f_coefficient(r, s + i)) for i in range(len(c))]
    k = low * ks[0]
    rest = [kk - k * ci for kk, ci in zip(ks, c)]
    a = 2 * r + 1 - 2 * s
    produced = [((a - 2 * i, s + i), left) for i, left in enumerate(rest) if left]
    produced += [((a - e, s), k), ((a - e, s + e), k)]
    identity = " + ".join(f"{'' if ci == 1 else ci}{_power('x', e - 2 * i)}{_power('y', i)}"
                          for i, ci in enumerate(c))
    step = ReplacementStep(tuple(((a - 2 * i, s + i), kk) for i, kk in enumerate(ks)),
                           tuple(sorted(produced, key=lambda t: (-t[0][0], t[0][1]))),
                           f"{identity} = 1 + y^{e} on x+y=1", 2 * r + 1)
    return _rewrite(f(2 * r + 1), step, f"rung {e} at ({r},{s})"), step


def rung_sites(e: int, r_bound: int) -> list[tuple[int, int]]:
    """Every site (r, s), r <= r_bound, where K(r,s+1) = e K(r,s) and rung e applies.

    With t = r - s and b = 2r+1, the ratio condition 2t(2t+1) = e (s+1)(2r-s)
    is X^2 - D_e b^2 = N_e for X = (e+4) t + 1 - e/2, D_e = e^2/4 + e and
    N_e = 1 - 2e (at e = 2, X = 6k gives d^2 - 12k^2 = 1).  D_e lies
    strictly between (e/2)^2 and (e/2 + 1)^2 = D_e + 1, so it is never a
    square.  A solution is a site when b is odd, t is an integer,
    1 <= s <= r - e/2, and it passes the builder's rule (two K(r, s+i)/c_i
    at their minimum), read from the closed-form ratio.
    """
    if e < 2 or e % 2 or r_bound < 1:
        raise ValueError(f"need even e >= 2 and r_bound >= 1, got e={e}, r_bound={r_bound}")
    c = [_waring_coefficient(e, i) for i in range(e // 2 + 1)]
    sites = []
    for sol in generalized_solutions(e * e // 4 + e, 1 - 2 * e, 2 * r_bound + 1):
        t, rem = divmod(e - 2 + 2 * sol.a, 2 * e + 8)
        r = sol.b // 2
        s = r - t
        if sol.b % 2 == 0 or rem or not 1 <= s <= r - e // 2:
            continue
        if _rung_minimum(c, r, s)[1] == 2:
            sites.append((r, s))
    return sites


def pell_ratio_site(d: int) -> int | None:
    """The unique s with K(r, s+1) = 2 K(r, s) in f(d = 2r+1), or None: rung 2's site at r.

    It is s = r - k where d^2 = 12 k^2 + 1: the lambda = 12 Pell degrees 7, 97, 1351, ...
    """
    if d < 1 or d % 2 == 0:
        raise ValueError(f"degree must be a positive odd integer, got {d}")
    r = (d - 1) // 2
    return dict(rung_sites(2, r)).get(r) if r else None


def q_with_trace(d: int) -> tuple[Polynomial, ReplacementStep]:
    """Rung 2 of the ladder at the ratio-2 site of f(d), with its replacement record."""
    s = pell_ratio_site(d)
    if s is None:
        raise ValueError(f"f({d}) has no consecutive-coefficient ratio equal to 2")
    return rung_with_trace(2, (d - 1) // 2, s)


def q(d: int) -> Polynomial:
    return q_with_trace(d)[0]


def mod6_with_trace(k: int) -> tuple[Polynomial, ReplacementStep]:
    """Rung 4 of the ladder at the site (3k, 2k-1) of f(6k+1).

    K(r, 2k) = 2 K(r, 2k+1) makes K = K(r, 2k)/4 at i = 1 and 2, and
    K(r, 2k-1)/K(r, 2k) = k(4k+1) / ((2k+3)(k+1)) > 1/4.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return rung_with_trace(4, 3 * k, 2 * k - 1)


def mod6(k: int) -> Polynomial:
    return mod6_with_trace(k)[0]


def ratio4_construct_with_trace(r: int, s: int) -> tuple[Polynomial, ReplacementStep]:
    """Rung 4 of the ladder at a ratio-4 site of f(2r+1), where K(r,s+2) > 2 K(r,s)."""
    if not 1 <= s <= r - 2:
        raise ValueError(f"invalid site ({r},{s}): need 1 <= s <= r-2")
    if _ratio(r, s) != 4:
        raise ValueError(f"invalid site ({r},{s}): consecutive coefficient ratio is not 4")
    return rung_with_trace(4, r, s)


def ratio4_construct(r: int, s: int) -> Polynomial:
    return ratio4_construct_with_trace(r, s)[0]


def h_with_trace(m: int) -> tuple[Polynomial, ReplacementStep]:
    """Rung 2m-2 at (2m-1, 1): f(4m-1) - (4m-1) x^(2m-1) y (f(2m-2) - 1), degree 4m-1.

    Here K(r, 1)/c_0 = 4m-1, and K(r, 1+i) - (4m-1) c_i = 2^-(4m-1) C_(1+i)
    is h's coefficient of x^(4m-3-2i) y^(1+i) (scaled coefficients below).
    So the ratio K(r, 1+i)/c_i is 4m-1 where C_(1+i) = 0 and larger where
    C_(1+i) > 0: the site passes the two-minima rule because C_1 = C_2 = 0
    and C_s > 0 for s = 3..m (the paper's inequality gives s <= m-1; the
    acceptance suite checks s = m too, for m <= 50).  The record is in h's
    own form: the terms of (4m-1) x^(2m-1) y (1 - f(2m-2)), the rung's change.
    """
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    poly, step = rung_with_trace(2 * m - 2, 2 * m - 1, 1)
    change = Polynomial(2, step.produced) - Polynomial(2, step.consumed)
    return poly, _step_adding(change, f"f({2 * m - 2}) = 1 on x+y=1", 4 * m - 1)


def h(m: int) -> Polynomial:
    return h_with_trace(m)[0]


# -- scaled coefficients of h(m) ------------------------------------------------
#
# Write c_s for the coefficient of x^(4m-1-2s) y^s in h(m) and C_s for the
# integer 2^(4m-1) c_s.  Two independent evaluations:
#   * a closed form in factorials, and
#   * a pair of binomial double sums obtained by expanding both power-sum
#     parts of h(m) and extracting the y^s coefficient.
# C_1 = C_2 = 0 (the two exact cancellations) and C_s > 0 for 3 <= s <= m-1,
# which is what makes h(m) a map polynomial.


def _check_h_index(m: int, s: int) -> None:
    """Refuse an (m, s) outside m >= 2, 1 <= s <= 2m-1, where C_s is defined."""
    if m < 2 or not 1 <= s <= 2 * m - 1:
        raise ValueError(f"need m >= 2 and 1 <= s <= 2m-1, got m={m}, s={s}")


def h_coeff_closed(m: int, s: int) -> int:
    """Closed form for C_s = 2^(4m-1) c_s; valid for 1 <= s <= 2m-1."""
    _check_h_index(m, s)
    first = Fraction(math.factorial(4 * m - s - 2),
                     math.factorial(4 * m - 2 * s - 1) * math.factorial(s))
    if 2 * m - 2 * s >= 0:
        second = 2 * (m - 1) * Fraction(
            math.factorial(2 * m - s - 2),
            math.factorial(2 * m - 2 * s) * math.factorial(s - 1))
    else:
        second = Fraction(0)  # reciprocal factorial of a negative integer
    value = (4 * m - 1) * Fraction(2) ** (4 * m - 1) * (first - second)
    if value.denominator != 1:
        raise AssertionError(f"C({m},{s}) is not an integer: {value}")
    return value.numerator


def h_coeff_sum(m: int, s: int) -> int:
    """Binomial double-sum evaluation of the same C_s; must agree with the closed form."""
    _check_h_index(m, s)
    comb = math.comb
    first = sum(comb(4 * m - 1, 2 * j) * comb(j, s) for j in range(s, 2 * m)) * 4 ** s
    second = sum(comb(2 * m - 2, 2 * l) * comb(l, s - 1)
                 for l in range(s - 1, m)) * 4 ** (s - 1)
    return 2 * first - (4 * m - 1) * 2 ** (2 * m + 2) * second


def h_coeff_inequality_holds(m: int, s: int) -> bool:
    """Exact big-integer check that the positive part of C_s dominates.

    For 3 <= s <= m-1:  (4m-s-2)! / (4m-2s-1)!  >  2 (m-1) s (2m-s-2)! / (2m-2s)!.
    """
    if not (m >= 4 and 3 <= s <= m - 1):
        raise ValueError(f"inequality range is 3 <= s <= m-1 with m >= 4, got ({m},{s})")
    lhs = math.factorial(4 * m - s - 2) * math.factorial(2 * m - 2 * s)
    rhs = 2 * (m - 1) * s * math.factorial(2 * m - s - 2) * math.factorial(4 * m - 2 * s - 1)
    return lhs > rhs


# -- even degrees: one odd family member spliced into another -------------------


def even_u(j: int, l: int) -> Polynomial:
    """Even-degree minimal-term example (f_{2j+1} - m) + m * f_{2l+1}.

    ``m`` is the removed top monomial x^(2j+1).  The result has degree
    2(j+l+1) and exactly j+l+3 terms.
    """
    if j < 0 or l < 0:
        raise ValueError("j and l must be nonnegative")
    m = Polynomial(2, {(2 * j + 1, 0): 1})  # the leading term of f_{2j+1}
    step = _step_adding(m * f(2 * l + 1) - m, f"f({2 * l + 1}) = 1 on x+y=1", 2 * (j + l + 1))
    return _rewrite(f(2 * j + 1), step, f"even_u({j},{l})")


def even_family(k: int) -> list[Polynomial]:
    """k pairwise-inequivalent minimal-term members of degree 2k.

    Varies j = 0..k-1 with l = k-1-j in ``even_u``; each output has k+2
    terms.  Inequivalence holds because the minimal total degree of a
    monomial in the j-th member is j+1, which the variable swap preserves.
    """
    if k < 1:
        raise ValueError("k must be positive")
    out = [even_u(j, k - 1 - j) for j in range(k)]
    for i in range(len(out)):
        for jj in range(i + 1, len(out)):
            if equivalent(out[i], out[jj]):
                raise AssertionError(f"even family members {i} and {jj} are equivalent")
    return out

"""Sharp polynomial families in two variables.

``f(d)`` is the integer-coefficient family built from the power sums of the
roots of t^2 - x t - y: with g_0 = 2, g_1 = x and g_d = x g_{d-1} + y g_{d-2},

    f_d = g_d + (-1)^(d+1) y^d.

The recurrence is the definition; ``f`` builds g_d from Waring's closed
form for the same power sums,

    g_d = sum over 0 <= 2s <= d of  d/(d-s) * C(d-s, s) * x^(d-2s) y^s,

whose coefficients are integers.  For d >= 1 every monomial of g_d has
y-degree s <= d/2 < d, so the tail y^d never merges with a term of g_d.

For every d, f_d equals 1 on the line x + y = 1 and has degree d; for odd
d = 2r + 1 all coefficients are positive and there are (d+3)/2 distinct
monomials, which attains the minimal possible term count for that degree.
The coefficient of x^(2r+1-2s) y^s is Waring's coefficient at d = 2r + 1,

    K(r, s) = (2r+1)/(2r+1-s) * C(2r+1-s, s) = (2r+1)/s * C(2r-s, s-1).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomial import Polynomial


def _waring_coefficient(d: int, s: int) -> int:
    """d/(d-s) * C(d-s, s), the coefficient of x^(d-2s) y^s in g_d; checked integral."""
    value, remainder = divmod(d * math.comb(d - s, s), d - s)
    if remainder:
        raise AssertionError(f"coefficient of x^{d - 2 * s} y^{s} in g_{d} is not an integer")
    return value


def f(d: int) -> Polynomial:
    """The degree-d family member; integer coefficients, exact.

    Positive coefficients (hence a sphere-map polynomial) exactly when d is
    odd; for even d the trailing term is -y^d.
    """
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    terms = {(d - 2 * s, s): _waring_coefficient(d, s) for s in range(d // 2 + 1)}
    terms[(0, d)] = 1 if d % 2 else -1
    return Polynomial(2, terms)


def f_coefficient(r: int, s: int) -> int:
    """Closed form K(r, s) = (2r+1)/s * C(2r-s, s-1) for the odd family f(2r+1).

    Always an integer in the valid range; checked.
    """
    if not 1 <= s <= r:
        raise ValueError(f"s must satisfy 1 <= s <= r, got r={r}, s={s}")
    return _waring_coefficient(2 * r + 1, s)


def _ratio(r: int, s: int) -> Fraction:
    """The closed form (2r-2s+1)(2r-2s) / ((s+1)(2r-s)) of K(r, s+1) / K(r, s), in O(1) work."""
    return Fraction((2 * r - 2 * s + 1) * (2 * r - 2 * s), (s + 1) * (2 * r - s))


def coefficient_ratio(r: int, s: int) -> Fraction:
    """K(r, s+1) / K(r, s) from the binomials; equals the closed form ``_ratio``, asserted."""
    if not 1 <= s <= r - 1:
        raise ValueError(f"s must satisfy 1 <= s <= r-1, got r={r}, s={s}")
    ratio = Fraction(f_coefficient(r, s + 1), f_coefficient(r, s))
    closed = _ratio(r, s)
    if ratio != closed:
        raise AssertionError(f"coefficient ratio mismatch at ({r},{s}): {ratio} vs {closed}")
    return ratio

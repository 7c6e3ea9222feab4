"""Exact solvers for Pell equations d^2 - lambda k^2 = 1 and a^2 - D b^2 = N.

The fundamental solution is found from the continued-fraction expansion of
sqrt(lambda); higher solutions come from the integer power recurrence
(d_1 + sqrt(lambda) k_1)^m = d_m + sqrt(lambda) k_m, i.e.

    d_{m+1} = d_1 d_m + lambda k_1 k_m
    k_{m+1} = d_1 k_m + k_1 d_m.

The lambda = 12 sequence (d = 7, 97, 1351, 18817, 262087, ...) drives the
degree list for which the ratio-2 coefficient replacement applies; see
``constructions``.  Solutions of a^2 - D b^2 = N are listed by class under
the fundamental unit of D.  Everything here is exact big-integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PellSolution:
    """Solution (d, k) of d^2 - lambda k^2 = 1 at index m in the power sequence."""

    d: int
    k: int
    lam: int
    index: int

    def __post_init__(self) -> None:
        if self.d * self.d - self.lam * self.k * self.k != 1:
            raise ValueError(f"({self.d}, {self.k}) does not solve the Pell equation "
                             f"for lambda={self.lam}")

    def to_json_dict(self) -> dict:
        return {"d": str(self.d), "k": str(self.k), "m": self.index}


@dataclass(frozen=True)
class GeneralizedPellSolution:
    """Solution (a, b) of a^2 - D b^2 = N with a, b positive."""

    a: int
    b: int
    D: int
    N: int

    def __post_init__(self) -> None:
        if self.a * self.a - self.D * self.b * self.b != self.N:
            raise ValueError(f"({self.a}, {self.b}) does not solve a^2 - {self.D} b^2 = {self.N}")

    def to_json_dict(self) -> dict:
        return {"a": str(self.a), "b": str(self.b)}


def check_lambda(lam: int, name: str = "lambda") -> None:
    """Refuse a Pell parameter below 2 or a perfect square; errors call it ``name``."""
    if lam < 2:
        raise ValueError(f"{name} must be at least 2, got {lam}")
    r = math.isqrt(lam)
    if r * r == lam:
        raise ValueError(f"{name} must not be a perfect square, got {lam}")


def _convergents(lam: int):
    """The convergents p/q of sqrt(lam), as (p, q) in order, without end."""
    a0 = math.isqrt(lam)
    # continued-fraction state for sqrt(lam): value = (sqrt(lam) + m) / d
    m, d, a = 0, 1, a0
    p_prev, p, q_prev, q = 1, a0, 0, 1
    while True:
        yield p, q
        m = d * a - m
        d = (lam - m * m) // d
        a = (a0 + m) // d
        p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q


def fundamental_solution(lam: int) -> PellSolution:
    """Minimal positive solution of d^2 - lam k^2 = 1: the first convergent that solves it."""
    check_lambda(lam)
    p, q = next((p, q) for p, q in _convergents(lam) if p * p - lam * q * q == 1)
    return PellSolution(p, q, lam, 1)


def solutions(lam: int, count: int) -> list[PellSolution]:
    """The first ``count`` solutions, sharing one recurrence pass."""
    if count < 1:
        raise ValueError("count must be at least 1")
    base = fundamental_solution(lam)
    d1, k1 = base.d, base.k
    out = [base]
    d, k = d1, k1
    for i in range(2, count + 1):
        d, k = d1 * d + lam * k1 * k, d1 * k + k1 * d
        out.append(PellSolution(d, k, lam, i))
    return out


def generalized_solutions(D: int, N: int, b_bound: int) -> list[GeneralizedPellSolution]:
    """All positive solutions of a^2 - D b^2 = N with 1 <= b <= b_bound, sorted by b.

    Listed by class (Nagell): each is a seed a + b sqrt(D) > 0 times a power of
    the unit x1 + y1 sqrt(D), with b^2 <= y1^2 |N| / (2(x1 ± 1)), + when N > 0.
    With u, v >= 0 the seeds are u ± v sqrt(D) when N > 0, ±u + v sqrt(D) when
    N < 0.  A unit past q = b_bound is not sought: every b is then a seed, not walked.
    """
    if b_bound < 1:
        raise ValueError(f"b_bound must be at least 1, got {b_bound}")
    if N == 0:
        raise ValueError("N must be nonzero")
    check_lambda(D, "D")
    x1, y1 = next((p, q) for p, q in _convergents(D) if q > b_bound or p * p - D * q * q == 1)
    unit = x1 * x1 - D * y1 * y1 == 1
    v_max = math.isqrt(y1 * y1 * abs(N) // (2 * (x1 + (1 if N > 0 else -1)))) if unit else b_bound
    found = set()
    for v in range(min(v_max, b_bound) + 1):
        t = N + D * v * v
        u = math.isqrt(max(t, 0))
        if u * u != t:
            continue
        for a, b in ((u, v), (u, -v) if N > 0 else (-u, v)):
            while b <= b_bound:
                if a > 0 and b > 0:
                    found.add((a, b))
                if not unit:
                    break
                a, b = x1 * a + D * y1 * b, y1 * a + x1 * b
    return [GeneralizedPellSolution(a, b, D, N) for a, b in sorted(found, key=lambda s: s[1])]

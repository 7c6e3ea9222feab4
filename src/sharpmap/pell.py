"""Exact solvers for Pell equations d^2 - lambda k^2 = 1 and a^2 - D b^2 = N.

The fundamental solution is found from the continued-fraction expansion of
sqrt(lambda); higher solutions come from the integer power recurrence
(d_1 + sqrt(lambda) k_1)^m = d_m + sqrt(lambda) k_m, i.e.

    d_{m+1} = d_1 d_m + lambda k_1 k_m
    k_{m+1} = d_1 k_m + k_1 d_m.

The lambda = 12 sequence (d = 7, 97, 1351, 18817, 262087, ...) drives the
degree list for which the ratio-2 coefficient replacement applies; see
``constructions``.  Everything here is exact big-integer arithmetic.
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


def fundamental_solution(lam: int) -> PellSolution:
    """Minimal positive solution of d^2 - lam k^2 = 1, via continued fractions.

    Convergents p/q of sqrt(lam) are generated until p^2 - lam q^2 = 1; the
    first hit is the fundamental solution.
    """
    check_lambda(lam)
    a0 = math.isqrt(lam)
    # continued-fraction state for sqrt(lam): value = (sqrt(lam) + m) / d
    m, d, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while p * p - lam * q * q != 1:
        m = d * a - m
        d = (lam - m * m) // d
        a = (a0 + m) // d
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return PellSolution(p, q, lam, 1)


def solution_at(lam: int, m: int) -> PellSolution:
    """The m-th solution (d_m, k_m) in the power sequence of the fundamental one."""
    return solutions(lam, m)[-1]


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


def congruence_class(m: int) -> int:
    """d_m mod 4 for the lambda = 12 sequence: 3 when m is odd, 1 when m is even."""
    if m < 1:
        raise ValueError("index must be at least 1")
    return solution_at(12, m).d % 4


def generalized_solutions(D: int, N: int, b_bound: int) -> list[GeneralizedPellSolution]:
    """All positive solutions of a^2 - D b^2 = N with 1 <= b <= b_bound.

    Bounded exhaustive scan over b with exact square testing of N + D b^2,
    sorted by b.
    """
    if b_bound < 1:
        raise ValueError(f"b_bound must be at least 1, got {b_bound}")
    if N == 0:
        raise ValueError("N must be nonzero")
    check_lambda(D, "D")
    out = []
    for b in range(1, b_bound + 1):
        t = N + D * b * b
        if t <= 0:
            continue
        a = math.isqrt(t)
        if a * a == t and a > 0:
            out.append(GeneralizedPellSolution(a, b, D, N))
    return out

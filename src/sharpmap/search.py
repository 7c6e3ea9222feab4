"""Exhaustive, certificate-producing search for minimal-term map polynomials.

The minimal term count at degree d is the sharp bound
``polynomial.min_term_count(d)`` = ceil((d+3)/2), which families attain in
every degree; a certificate is therefore one enumeration of the supports of
exactly that size, and the uniqueness trichotomy is read from its witnesses.

For a candidate support S = {(a_i, b_i)} of two-variable monomials, a map
polynomial with that support exists iff the linear system

    sum_i c_i x^(a_i) (1-x)^(b_i)  ==  1     (as a polynomial in x)

has a strictly positive rational solution.  Its columns, the restrictions
of the x^(a_i) y^(b_i) to x + y = 1, and its right-hand side, that of the
constant 1, come from ``polynomial.line_columns(d)``, which the same
hyperplane restriction that checks every polynomial builds once per degree.
One exact call, ``linprog.max_min_component``, decides it for every rank:
integer column reduction decides consistency and rank and gives a
particular solution p and one direction v_j per free column, a
coefficient that the equations pin is rejected by its integer sign, and
over the solution set p + span(v_1..v_k) the minimum coefficient t is
maximized over the k parameters; a strictly positive solution exists iff
the optimum satisfies t > 0.  A unique solution (k = 0) is a point, any
other a polytope.  No floating point enters the decision anywhere.

Support enumeration applies four pruning rules, each with a one-line proof:

  (i)   top slice nonempty: a degree-d polynomial contains a monomial of
        total degree d by definition.
  (ii)  pure-power terms: p(1, 0) = 1 and p(0, 1) = 1 because both points
        lie on the line, and every monomial with a positive y- (resp. x-)
        exponent vanishes there; so some term has y-exponent 0 and some
        term has x-exponent 0 (a constant term qualifies for both).
  (iii) swap canonicalization: the x<->y exchange preserves membership,
        degree and term count, so only the lexicographically minimal
        support of each orbit is solved and the mirror is reconstructed.
  (iv)  top-slice sign balance: the x^d coefficient of
        sum c_i x^(a_i)(1-x)^(b_i) - 1 is sum over a_i+b_i=d of
        (-1)^(b_i) c_i and must vanish; with all c_i > 0 the top slice
        must contain monomials with both parities of b.  (Subsumes (i).)

Supports are index tuples into the graded-lex universe, generated depth
first in lexicographic order by ``_Walk``, which carries the bitmask of the
chosen indices, the bitmask of their mirrors and the set of rules (ii) and
(iv) already met, draws each inner index only from the eligible indices
with enough eligible indices above it and the last one only from those
that meet every rule still missing (each skip is proved in its
docstring), and keeps one column reduction per depth, so each solve
reduces only its last column.
The swap test is one bit test: the mirror is smaller iff the lowest set
bit of ``mask ^ mirror`` lies in ``mirror`` (two sorted index lists of
equal length first differ at the least element of their symmetric
difference).  A candidate that is not generated is pruned, so the pruned
count is the number of candidates before the stopping point minus the
solved ones.

The tests check the pruned enumeration against a naive one, with no pruning
and no symmetry reduction, at small degrees, and the walk against a filter
over every combination.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap

from .linprog import _extend, _Reduction, _start, max_min_component
from .polynomial import (Polynomial, assert_term_bound, grlex_key, is_map_polynomial,
                         line_columns, min_term_count)

Monomial = tuple[int, int]


@dataclass(frozen=True)
class Support:
    """A candidate monomial support for a degree-d map polynomial."""

    degree: int
    monomials: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        mons = tuple(sorted(set(self.monomials), key=grlex_key))
        object.__setattr__(self, "monomials", mons)
        if not mons:
            raise ValueError("support must be nonempty")
        if any(a < 0 or b < 0 for a, b in mons):
            raise ValueError("exponents must be nonnegative")
        if max(a + b for a, b in mons) != self.degree:
            raise ValueError("maximal total degree must equal the stated degree")
        if not any(b == 0 for _, b in mons):
            raise ValueError("support lacks a term with y-exponent 0 (forced by p(1,0)=1)")
        if not any(a == 0 for a, _ in mons):
            raise ValueError("support lacks a term with x-exponent 0 (forced by p(0,1)=1)")


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the exact positivity decision for one support."""

    status: str  # "infeasible" | "point" | "polytope"
    coefficients: tuple[Fraction, ...] | None
    freedom: int

    @property
    def feasible(self) -> bool:
        return self.status != "infeasible"


_INFEASIBLE = FeasibilityResult("infeasible", None, 0)


def solve_support_system(monomials, degree: int,
                         prefix: _Reduction | None = None) -> FeasibilityResult:
    """Exact positivity decision for an arbitrary monomial set (no pruning).

    The columns and the right-hand side, the column of the constant 1, are
    read from ``line_columns(degree)``; a monomial of total degree above
    ``degree`` raises ValueError.  ``prefix``, when given, is the reduction
    of all but the last column, passed on to ``max_min_component``.
    """
    table = line_columns(degree)
    try:
        columns = [table[m] for m in monomials]
    except KeyError as exc:
        raise ValueError(f"monomial {exc.args[0]} is not x^a y^b with a + b <= {degree}") from None
    t_star, u, freedom = max_min_component(columns, table[(0, 0)], prefix)
    if t_star is None:
        return _INFEASIBLE
    return FeasibilityResult("point" if freedom == 0 else "polytope", u, freedom)


# -- enumeration ------------------------------------------------------------------


@dataclass(frozen=True)
class SharpWitness:
    """One feasible support with its realized polynomial."""

    support: Support
    polynomial: Polynomial
    freedom: int


@dataclass
class SearchStats:
    examined: int = 0
    pruned: int = 0
    elapsed_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "supports_examined": self.examined,
            "supports_pruned": self.pruned,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


@dataclass(frozen=True)
class SharpCertificate:
    """Result of the exhaustive search at the sharp term count of one degree."""

    degree: int
    min_terms: int
    witnesses: tuple[SharpWitness, ...]
    stats: SearchStats

    @property
    def representatives(self) -> tuple[Polynomial, ...]:
        return tuple(w.polynomial for w in self.witnesses)

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "min_terms": self.min_terms,
            "representatives": [p.to_json_dict() for p in self.representatives],
            "exhaustive": True,
            "search_stats": self.stats.to_json_dict(),
        }


def monomial_universe(degree: int) -> list[Monomial]:
    """All candidate monomials of total degree <= degree, in graded-lex order."""
    return list(line_columns(degree))


def _witness_from_result(mons: tuple[Monomial, ...], degree: int,
                         res: FeasibilityResult) -> SharpWitness:
    poly = Polynomial(2, dict(zip(mons, res.coefficients)))
    if not is_map_polynomial(poly) or poly.degree() != degree:
        raise AssertionError(f"solver returned an invalid witness on {mons}")
    assert_term_bound(poly)
    return SharpWitness(Support(degree, mons), poly, res.freedom)


_ALL_RULES = 0b1111  # top slice with even b, with odd b, pure x-power, pure y-power


def _rule_bits(mon: Monomial, degree: int) -> int:
    """The rules among (ii) and (iv) that the monomial (a, b) meets on its own."""
    a, b = mon
    top = (1 << (b % 2)) if a + b == degree else 0
    return top | (b == 0) << 2 | (a == 0) << 3


class _Walk:
    """The depth-first walk over the supports whose smallest universe index is ``first``.

    It solves each generated support in lexicographic order and keeps one
    column reduction per depth: ``reductions[i]`` is the reduction of the
    first i indices of the current support, built when the first support
    under that node is solved, so that every solve is handed the reduction
    of all but its last column.  Children are drawn from bitmasks of
    eligible indices:

    - an index whose mirror lies below ``first`` is not eligible: it is never
      in a canonical support with smallest index ``first``, as the mirrored
      sorted list would then start below ``first`` (and when the mirror of
      ``first`` lies below it, no index is eligible);
    - ``room[s]``: the eligible indices with at least s - 1 eligible
      indices above them, as a child that leaves s - 1 slots needs that
      many (without it the walk visits every short tuple of eligible
      indices, about 2^n frames when ``terms`` is near n);
    - ``supply[missing]``: the eligible indices that meet every rule in
      ``missing``; with one slot left after a child, the last index must meet
      every missing rule at once, so it is drawn from these alone, and a
      child with none above it is skipped.
    """

    def __init__(self, degree: int, terms: int, first: int, deadline):
        self.degree, self.terms, self.deadline = degree, terms, deadline
        table = line_columns(degree)
        self.universe = universe = list(table)
        self.columns = list(table.values())
        n = len(universe)
        index_of = {mon: i for i, mon in enumerate(universe)}
        mirror = [index_of[(b, a)] for a, b in universe]
        self.swap_bit = [1 << k for k in mirror]
        self.rules = [_rule_bits(mon, degree) for mon in universe]
        eligible = [i for i in range(first + 1, n) if mirror[i] >= first] \
            if mirror[first] >= first else []
        self.supply = [sum(1 << i for i in eligible if self.rules[i] & missing == missing)
                       for missing in range(_ALL_RULES + 1)]
        self.room = [sum(1 << i for i in eligible[:max(len(eligible) + 1 - s, 0)])
                     for s in range(terms + 1)]
        self.reductions = [_start(table[(0, 0)], terms)]
        self.witnesses: list[SharpWitness] = []
        self.examined = 0

    def descend(self, combo: tuple[int, ...], children: int, met: int, mask: int,
                mirror: int) -> tuple[int, ...] | None:
        """Solve, in lexicographic order, the generated supports below ``combo``.

        ``combo`` is a sorted tuple of universe indices, ``met`` the rules it
        meets, ``mask`` and ``mirror`` the bitmasks of its indices and of their
        mirrors; ``self.terms - len(combo)`` (at least 2) more indices are
        appended, the first of them from the bitmask ``children``.  A support
        is generated when it meets (ii) and (iv) and is swap canonical.
        Returns None when every generated support is solved, and the first
        one left unsolved when the deadline has passed.
        """
        depth = len(combo)
        slots = self.terms - depth
        rules, swap_bit, supply, reductions = \
            self.rules, self.swap_bit, self.supply, self.reductions
        degree, deadline, universe = self.degree, self.deadline, self.universe
        while children:
            low = children & -children
            children ^= low
            i = low.bit_length() - 1
            now = met | rules[i]
            if slots > 2:
                del reductions[depth + 1:]
                stop = self.descend(combo + (i,), self.room[slots - 1] >> i + 1 << i + 1, now,
                                    mask | low, mirror | swap_bit[i])
                if stop is not None:
                    return stop
                continue
            allowed = supply[_ALL_RULES & ~now] >> i + 1 << i + 1
            if not allowed:
                continue
            del reductions[depth + 1:]
            node, mask_i, mirror_i = combo + (i,), mask | low, mirror | swap_bit[i]
            prefix = None
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                k = low.bit_length() - 1
                mirrored = mirror_i | swap_bit[k]
                diff = (mask_i | low) ^ mirrored
                if diff & -diff & mirrored:
                    continue
                # before every solve: one solve can take seconds at high freedom
                if deadline is not None and time.monotonic() > deadline:
                    return node + (k,)
                if prefix is None:
                    columns, m = self.columns, len(self.columns[0])
                    for j in node[len(reductions) - 1:]:
                        reductions.append(_extend(reductions[-1], columns[j], m))
                    prefix = reductions[-1]
                    head = tuple(map(universe.__getitem__, node))
                self.examined += 1
                mons = head + (universe[k],)
                res = solve_support_system(mons, degree, prefix)
                if res.feasible:
                    self.witnesses.append(_witness_from_result(mons, degree, res))
        return None


def _lex_rank(combo: tuple[int, ...], n: int) -> int:
    """How many sorted index tuples with the same first index precede ``combo``.

    The k = len(combo) - 1 later indices come from first+1..n-1.  Putting
    v, with combo[p] < v < combo[p+1], in place p+1 after combo[:p+1]
    leaves C(n-1-v, k-1-p) completions, all of them before ``combo``; the
    sum over v telescopes by the hockey-stick identity.
    """
    k = len(combo) - 1
    return sum(math.comb(n - 1 - prev, k - p) - math.comb(n - cur, k - p)
               for p, (prev, cur) in enumerate(zip(combo, combo[1:])))


def _search_block(degree: int, terms: int, first: int, deadline):
    """Enumerate the supports whose smallest universe index is ``first``.

    Only the supports that meet (ii) and (iv) and are swap canonical are
    generated, in lexicographic order; every other candidate is pruned, so
    ``pruned`` is the number of candidates before the stopping point minus
    ``examined``.
    """
    # a task taken after the deadline does no work: enumerating the pruned
    # candidates of one first index alone can take seconds
    if deadline is not None and time.monotonic() > deadline:
        return [], 0, 0, False
    walk = _Walk(degree, terms, first, deadline)
    stop = walk.descend((), 1 << first, 0, 0, 0)
    n = len(walk.universe)
    done = math.comb(n - 1 - first, terms - 1) if stop is None else _lex_rank(stop, n)
    return walk.witnesses, walk.examined, done - walk.examined, stop is None


def enumerate_sharp(degree: int, terms: int, budget_seconds: float | None = None,
                    shards: int = 1) -> tuple[list[SharpWitness], bool, SearchStats]:
    """All feasible size-``terms`` supports at the given degree, up to swap.

    Returns one witness per canonical support, a flag saying whether the
    enumeration ran to completion, and counters.  The unit of work is one
    first universe index: the supports whose smallest index it is.  With
    ``shards`` > 1 each free worker takes the next first index; the results
    go through the same merge as a serial run and are sorted into canonical
    order, so the output does not depend on the number of shards.
    """
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    if terms < 2:
        raise ValueError("a map polynomial of positive degree needs at least 2 terms")
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    if budget_seconds is not None and not budget_seconds >= 0:  # nan too
        raise ValueError(f"budget_seconds must be None or at least 0, got {budget_seconds}")
    start = time.monotonic()
    deadline = start + budget_seconds if budget_seconds is not None else None
    universe = monomial_universe(degree)
    stats = SearchStats()
    witnesses: list[SharpWitness] = []
    exhaustive = True
    if terms <= len(universe):
        tasks = [(degree, terms, first, deadline) for first in range(len(universe))]
        # output does not depend on the shard count, so more workers than
        # first indices or cores would only cost memory and process slots
        shards = min(shards, len(universe), os.cpu_count() or 1)
        if shards <= 1:
            results = starmap(_search_block, tasks)
        else:
            import multiprocessing

            with multiprocessing.get_context("fork").Pool(shards) as pool:
                results = pool.starmap(_search_block, tasks, chunksize=1)
        for wits, examined, pruned, complete in results:
            witnesses.extend(wits)
            stats.examined += examined
            stats.pruned += pruned
            exhaustive = exhaustive and complete
    witnesses.sort(key=lambda w: w.support.monomials)
    stats.elapsed_seconds = time.monotonic() - start
    return witnesses, exhaustive, stats


UNIQUE = "unique"
UNIQUE_UP_TO_EQUIVALENCE = "unique_up_to_equivalence"
FAILS = "fails"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class UniquenessResult:
    """Uniqueness trichotomy for the minimal-term polynomials of one degree."""

    degree: int
    status: str
    min_terms: int | None
    class_count: int
    distinct_polynomials: tuple[Polynomial, ...]
    certificate: SharpCertificate | None

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "status": self.status,
            "min_terms": self.min_terms,
            "class_count": self.class_count,
            "distinct_polynomials": [p.to_json_dict() for p in self.distinct_polynomials],
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(),
        }


def uniqueness_status(degree: int, budget_seconds: float | None = None,
                      shards: int = 1) -> UniquenessResult:
    """Decide whether all minimal-term polynomials of a degree coincide.

    A degree-d map polynomial has at least ``min_term_count(d)`` =
    ceil((d+3)/2) terms (D'Angelo, Kos and Riehl: d <= 2N - 3), and f(d) for
    odd d and ``even_u`` for even d attain that count; so one enumeration at
    that size finds every minimal-term polynomial, and its witnesses form
    the certificate.

    ``unique``: exactly one minimal polynomial; ``unique_up_to_equivalence``:
    exactly two, exchanged by the variable swap; ``fails``: at least two
    swap-inequivalent ones, or a positive-dimensional family; ``unknown``:
    the budget ran out before the search was exhaustive.  An exhaustive
    enumeration that finds no witness raises AssertionError, as the theorem
    then fails.
    """
    n = min_term_count(degree)
    witnesses, exhaustive, stats = enumerate_sharp(degree, n, budget_seconds, shards)
    if not exhaustive:
        return UniquenessResult(degree, UNKNOWN, None, 0, (), None)
    if not witnesses:
        raise AssertionError(f"no map polynomial of degree {degree} with N={n} terms")
    polys: list[Polynomial] = []
    for witness in witnesses:
        polys.append(witness.polynomial)
        mirrored = witness.polynomial.swap_xy()
        if mirrored != witness.polynomial:
            polys.append(mirrored)
    if len(witnesses) >= 2 or any(w.freedom > 0 for w in witnesses):
        status = FAILS
    elif len(polys) == 1:
        status = UNIQUE
    else:
        status = UNIQUE_UP_TO_EQUIVALENCE
    return UniquenessResult(degree, status, n, len(witnesses), tuple(polys),
                            SharpCertificate(degree, n, tuple(witnesses), stats))

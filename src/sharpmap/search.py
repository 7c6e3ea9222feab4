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

The walk adds a fifth rule, the lead rule, on the order it walks in.
Supports are index tuples into the universe sorted by (a, b), generated
depth first in lexicographic order by ``_Walk``, which keeps the column
reduction of each chosen prefix.  Its ``lead`` is the first row where the
residual is nonzero, or -1 when the columns so far solve the system.  The
column of x^a y^b is x^a (1-x)^b, zero in every row below a, and each
basis vector of the reduction is zero below its pivot row; so a later
column, whose a is at least that of the child, stays zero in the rows
below a after reduction, and no later column can clear the residual's lead
row once lead < a.  The walk therefore skips a child when 0 <= lead < a_i,
and while lead >= 0 it draws every later index, the last one included,
only from the indices with a <= lead.  The residual's row 0 is met only by
the d + 1 columns with a = 0, so every generated support starts there; the
constant term clears the residual at once, and its supports hold most of
the solves (69 to 79 % at d = 6 to 8).  The lead rule keeps about a
quarter of the solves of the graded-lex walk it replaced: 4,448 against
16,456 at d = 7 and 123,078 against 426,627 at d = 8.

A sixth rule, the pivot-row rule, bounds the last index x^a y^b: a must
be a pivot row of the reduction before it or its lead.  Proof: reducing
against a basis vector with pivot row r changes only rows >= r, and only
when the row-r entry is nonzero, so a column that is zero below row a and
nonzero at row a, with a not a pivot row, keeps its first nonzero row at
a.  If lead = -1, that column is a new pivot, whose coefficient is 0 in
every solution; if lead = l >= 0, it would have to reduce to a nonzero
multiple of the residual, whose first nonzero row is l; so a is l.  The
rule acts one level up too: a child whose a is neither a pivot row nor
the lead lies below the lead (by the lead rule) or lead = -1, so the
residual is zero at row a and the child is a new pivot that leaves the
residual as it is; its reduction has the pivot rows and a, with the same
lead, and its last draw is known before it is reduced.  A child whose
last draw is then empty is neither reduced nor framed.  The walk's
tables hold ``at_row[r]``, the bitmask of the indices with a = r.  The
rule keeps a third of the solves: 1,624 against 4,448 at d = 7, 52,855
against 123,078 at d = 8 and 90,640 against 271,963 at d = 9.  All but
298 of the 181,323 solves it skips at d = 9 were new pivots on a prefix
that already solved the system.

``_Walk.descend``, the walk's one method, also carries the bitmask of the
chosen indices, the bitmask of their mirrors and the set of rules (ii)
and (iv) already met.  It draws each inner index only from the eligible
indices with enough eligible indices above it and the last one only from
those that meet every rule still missing (each skip is proved in
``_block_masks``).  Every node is reduced lazily, by one rule: its
reduction is built from its parent's at its first admissible child (one
whose own draw is not empty, or at the last level one that is swap
canonical), and its lead then filters that child and every later one;
with one index left after the child, its pivot rows and lead filter the
child's last draw, and at the last level they filter the last index.
So a node with no admissible child reduces nothing, and each solve is
handed the reduction of all but its last column.  The swap test is one
bit test: the mirror is smaller iff the lowest set bit of ``mask ^ mirror``
lies in ``mirror`` (two sorted index lists of equal length first differ
at the least element of their symmetric difference).  A candidate that
is not generated is pruned, so the pruned count is the number of
candidates before the stopping point minus the solved ones.

The unit of work is a depth-2 prefix (first, second).  Which member of
a swap orbit is canonical depends on the index order, and which point of
a polytope is returned on the column order, so each feasible support is
mapped to the graded-lex-smaller member of its orbit and solved once more
in graded-lex column order (``_grlex_witness``): every witness is the one
a graded-lex walk would return.

The tests check the pruned enumeration against a naive one, with no pruning
and no symmetry reduction, at small degrees, the walk against a filter
over every combination, every support the lead and pivot-row rules skip
at d <= 7 against the solver, and the pivot rows against the leading rows
of each prefix's span.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
    of all but the last column, passed on to ``max_min_component``, and
    only the last monomial's column is read.
    """
    table = line_columns(degree)
    try:
        columns = [table[m] for m in (monomials if prefix is None else monomials[-1:])]
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


_ALL_RULES = 0b1111  # top slice with even b, with odd b, pure x-power, pure y-power


def _rule_bits(mon: Monomial, degree: int) -> int:
    """The rules among (ii) and (iv) that the monomial (a, b) meets on its own."""
    a, b = mon
    top = (1 << (b % 2)) if a + b == degree else 0
    return top | (b == 0) << 2 | (a == 0) << 3


@functools.cache
def _walk_tables(degree: int):
    """The walk's tables of one degree, shared by all its units.

    Returns the universe sorted by (a, b), the column of each index (the
    first, the constant's, is the right-hand side), the bit of each index's
    mirror, the rules each index meets, ``at_row``: at_row[r] is the bitmask
    of the indices with a = r, and ``upto``, its running OR: upto[r] is the
    bitmask of the indices with a <= r.  Both run to r = degree + 1, where
    no index lies, so at_row[-1] is empty and upto[-1] holds every index,
    the row masks of a zero residual (``lead`` = -1).
    """
    universe = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    index_of = {mon: i for i, mon in enumerate(universe)}
    columns = list(map(line_columns(degree).__getitem__, universe))
    swap_bit = [1 << index_of[(b, a)] for a, b in universe]
    rules = [_rule_bits(mon, degree) for mon in universe]
    at_row = [sum(1 << i for i, (a, _) in enumerate(universe) if a == r)
              for r in range(degree + 2)]
    upto = list(itertools.accumulate(at_row, operator.or_))
    return universe, columns, swap_bit, rules, at_row, upto


@functools.cache
def _block_masks(degree: int, terms: int, first: int):
    """The draw table of the units whose first index is ``first``.

    ``draws[s][met]`` is the bitmask an index is drawn from when s indices,
    itself included, remain and the indices before it meet the rules ``met``:

    - an index whose mirror lies below ``first`` is not eligible: it is never
      in a canonical support with smallest index ``first``, as the mirrored
      sorted list would then start below ``first``.  A ``first`` whose own
      mirror lies below it has a > 0, as (0, b) mirrors to (b, 0), after
      every index with a = 0, and the lead rule empties its units;
    - for s > 1, the eligible indices with at least s - 1 eligible indices
      above them, as a child that leaves s - 1 slots needs that many
      (without it the walk visits every short tuple of eligible indices,
      about 2^n frames when ``terms`` is near n);
    - for s = 1, the eligible indices that meet every rule missing from
      ``met``, as the last index must meet them all at once.
    """
    _, _, swap_bit, rules, _, _ = _walk_tables(degree)
    below = (1 << first) - 1
    eligible = [i for i in range(first + 1, len(rules)) if not swap_bit[i] & below]
    draws = [[sum(1 << i for i in eligible[:max(len(eligible) + 1 - s, 0)])] * (_ALL_RULES + 1)
             for s in range(terms)]
    draws[1] = [sum(1 << i for i in eligible if rules[i] | met == _ALL_RULES)
                for met in range(_ALL_RULES + 1)]
    return draws


def _grlex_witness(mons: tuple[Monomial, ...], degree: int) -> SharpWitness:
    """The witness of the swap orbit of a feasible support, in graded-lex terms.

    Which member of an orbit is swap canonical depends on the index order,
    and which point of a polytope is returned depends on the column order.
    So the support is mapped to the member of its orbit whose graded-lex
    sorted monomials come first, and solved again with its columns in that
    order: every witness, polytope vertices included, is the one of a
    graded-lex walk, whatever the order of the walk that found it.
    """
    direct = sorted(mons, key=grlex_key)
    mirrored = sorted(((b, a) for a, b in mons), key=grlex_key)
    chosen = tuple(min(direct, mirrored, key=lambda s: list(map(grlex_key, s))))
    table = line_columns(degree)
    t_star, u, freedom = max_min_component([table[m] for m in chosen], table[(0, 0)])
    poly = None if t_star is None else Polynomial(2, dict(zip(chosen, u)))
    if poly is None or not is_map_polynomial(poly) or poly.degree() != degree:
        raise AssertionError(f"solver returned an invalid witness on {chosen}")
    assert_term_bound(poly)
    return SharpWitness(Support(degree, chosen), poly, freedom)


class _Walk:
    """The depth-first walk over the supports that start with the indices (first, second).

    Indices point into the universe sorted by (a, b).  ``descend`` solves the
    generated supports in lexicographic order, drawing children from the
    bitmasks of ``_block_masks`` and from ``upto[lead]`` of the reduction
    before them, and the last index also from the ``at_row`` masks of that
    reduction's pivot rows and lead; it reduces each node at its first
    admissible child, so a node with none reduces nothing.
    """

    def __init__(self, degree: int, terms: int, first: int, deadline):
        self.degree, self.terms, self.deadline = degree, terms, deadline
        (self.universe, self.columns, self.swap_bit, self.rules, self.at_row,
         self.upto) = _walk_tables(degree)
        self.draws = _block_masks(degree, terms, first)
        self.witnesses: list[SharpWitness] = []
        self.examined = 0

    def descend(self, node: tuple[int, ...], parent: _Reduction, children: int, met: int,
                mask: int, mirror: int) -> tuple[int, ...] | None:
        """Solve, in lexicographic order, the generated supports below ``node``.

        ``node`` is a sorted tuple of universe indices, ``parent`` the
        reduction of ``node[:-1]``, ``met`` the rules ``node`` meets, ``mask``
        and ``mirror`` the bitmasks of its indices and of their mirrors;
        ``self.terms - len(node)`` (at least 1) more indices are appended, the
        first of them from the bitmask ``children``.  The reduction of
        ``node`` is built at its first admissible child, one whose own draw
        is not empty or, at the last level, one that is swap canonical; its
        lead then filters that child and every later one, and, with one
        index left after the child, its pivot rows filter the child's draw.
        A support is generated when it meets (ii) and (iv), is swap
        canonical, each index has a <= ``lead`` of the reduction before it
        when that lead is not -1, and the last index has a among the pivot
        rows and the lead of the reduction before it.  Returns None when
        every generated support is solved, and the first one left unsolved
        when the deadline has passed.
        """
        left = self.terms - len(node) - 1  # indices after the child
        rules, swap_bit, at_row, universe = self.rules, self.swap_bit, self.at_row, self.universe
        state = None
        while children:
            low = children & -children
            children ^= low
            i = low.bit_length() - 1
            if left:
                now = met | rules[i]
                draw = self.draws[left][now] >> i + 1 << i + 1
                if not draw:
                    continue
            else:
                mirrored = mirror | swap_bit[i]
                diff = (mask | low) ^ mirrored
                if diff & -diff & mirrored:
                    continue
            if state is None:
                state = _extend(parent, self.columns[node[-1]], len(self.columns[0]))
                lead = state[-1]
                allowed = self.upto[lead]
                if left < 2:  # the rows a last index may start on: pivots and the lead
                    last = sum(map(at_row.__getitem__, state[0]), at_row[lead]) & allowed
                    if not left:
                        allowed = last
                        head = tuple(map(universe.__getitem__, node))
                children &= allowed
                if not low & allowed:
                    continue
            if left == 1:
                row = at_row[universe[i][0]]
                if not row & last:  # a new pivot below the lead: the child's rows are known
                    draw &= last | row
                    if not draw:
                        continue
            if left:
                stop = self.descend(node + (i,), state, draw, now, mask | low,
                                    mirror | swap_bit[i])
                if stop is not None:
                    return stop
                continue
            # before every solve: one solve can take seconds at high freedom
            if self.deadline is not None and time.monotonic() > self.deadline:
                return node + (i,)
            self.examined += 1
            mons = head + (universe[i],)
            if solve_support_system(mons, self.degree, state).feasible:
                self.witnesses.append(_grlex_witness(mons, self.degree))
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


def _search_block(degree: int, terms: int, first: int, second: int, deadline):
    """Enumerate the supports whose two smallest indices are ``first`` and ``second``.

    Only the generated supports are solved, in lexicographic order; every
    other candidate is pruned, so ``pruned`` is the number of candidates
    before the stopping point minus ``examined``.  The candidates of a unit
    share their first two indices, so the rank of a stop among them is the
    ``_lex_rank`` of its tail from ``second`` on.
    """
    # a unit taken after the deadline does no work
    if deadline is not None and time.monotonic() > deadline:
        return [], 0, 0, False
    walk = _Walk(degree, terms, first, deadline)
    # a first with a > 0 leaves the lead at row 0 when it is reduced, at its
    # first child, and upto[0] holds no later index: its units solve nothing
    met = walk.rules[first]
    stop = walk.descend((first,), _start(walk.columns[0], terms),
                        1 << second & walk.draws[terms - 1][met], met, 1 << first,
                        walk.swap_bit[first])
    n = len(walk.universe)
    done = math.comb(n - 1 - second, terms - 2) if stop is None else _lex_rank(stop[1:], n)
    return walk.witnesses, walk.examined, done - walk.examined, stop is None


def enumerate_sharp(degree: int, terms: int, budget_seconds: float | None = None,
                    shards: int = 1) -> tuple[list[SharpWitness], bool, SearchStats]:
    """All feasible size-``terms`` supports at the given degree, up to swap.

    Returns one witness per canonical support, a flag saying whether the
    enumeration ran to completion, and counters.  The unit of work is a
    depth-2 prefix: the supports whose two smallest indices are (first,
    second).  Only the units whose first index has a = 0 can start a
    support, so only they are dispatched, and the candidates of the rest
    count as pruned when the run is exhaustive.  The constant term's units
    hold most of the work, so first-index units would leave two workers
    unbalanced.  With ``shards`` > 1 each free worker takes the next unit;
    the results go through the same merge as a serial run and are sorted
    into canonical order, so the output does not depend on the number of
    shards.  ``budget_seconds`` is read before each unit and each solve, and
    one solve has no bound: it grows with the freedom (see ``linprog``).
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
    n = len(monomial_universe(degree))
    stats = SearchStats()
    witnesses: list[SharpWitness] = []
    exhaustive = True
    # a second index above n - terms + 1 leaves too few after it: none at all when terms > n
    tasks = [(degree, terms, first, second, deadline)
             for first in range(degree + 1) for second in range(first + 1, n + 2 - terms)]
    # output does not depend on the shard count, so more workers than
    # units or cores would only cost memory and process slots
    shards = min(shards, len(tasks), os.cpu_count() or 1)
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
    if exhaustive:  # the candidates of the units not dispatched, all after the others
        stats.pruned += math.comb(n - degree - 1, terms)
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

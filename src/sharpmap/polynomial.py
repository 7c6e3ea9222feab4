"""Exact sparse multivariate polynomials over the rationals.

A polynomial in n variables is stored as a mapping from exponent tuples
(one nonnegative int per variable) to nonzero Fraction coefficients.  Zero
coefficients are never stored, so the number of stored terms equals the
number of distinct monomials.  All arithmetic is exact; the only floating
point in this module is the numeric sphere cross-check at the bottom.

The central predicates:

  * ``is_one_on_hyperplane(p)``  -- p(x) = 1 whenever x1 + ... + xn = 1
    (membership in the all-sign class of such polynomials);
  * ``is_map_polynomial(p)``     -- additionally every coefficient is
    positive.  Such a polynomial corresponds to a proper monomial map
    between unit spheres: z |-> (sqrt(c_a) z^a)_a satisfies
    ||f(z)||^2 = p(|z_1|^2, ..., |z_n|^2), so ||f(z)||^2 = 1 on the sphere.

Both rest on ``restrict_to_hyperplane``, the one substitution
x_n = 1 - x_1 - ... - x_{n-1} for every arity, run by Horner's rule in x_n.
The search reads its linear systems from ``line_columns(d)``, the
restrictions of every x^a y^b with a + b <= d, built once per degree from
the d + 1 restrictions of the powers of y.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction
from itertools import chain, repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

Exponents = tuple[int, ...]

RationalLike = int | Fraction


def grlex_key(exp: Exponents) -> tuple[int, Exponents]:
    """Graded lexicographic sort key: total degree first, then the tuple itself."""
    return (sum(exp), exp)


def _coerce_coeff(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficient must be an int or Fraction, got {type(value).__name__}")


def _add_terms(out: dict[Exponents, Fraction],
               items: Iterable[tuple[Exponents, Fraction]]) -> dict[Exponents, Fraction]:
    """Add each (exponent, coefficient) into ``out``, dropping the terms that cancel."""
    for exp, c in items:
        c += out.get(exp, 0)
        if c:
            out[exp] = c
        else:
            out.pop(exp, None)
    return out


def terms_to_json(terms: Iterable[tuple[Exponents, Fraction]],
                  key: str = "coeff") -> list[dict]:
    """The JSON form of (exponent, coefficient) pairs: exponent lists, "num/den" strings.

    ``key`` names the coefficient field: "coeff" for polynomials and
    replacement records, "sq_coeff" for the squared coefficients of a map.
    """
    return [{"exp": list(exp), key: f"{c.numerator}/{c.denominator}"} for exp, c in terms]


def _parse_coeff(raw: object) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise ValueError(f"coefficient {raw!r} must be an int or a string such as \"7/2\"")
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {raw!r} has a zero denominator") from None


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    ``nvars`` may be 0, in which case the polynomial is a constant with the
    empty exponent tuple; this arises as the hyperplane restriction of a
    one-variable polynomial.

    The slot ``_one_on_hyperplane`` holds the verdict of
    ``is_one_on_hyperplane`` once it has been computed; every constructor,
    arithmetic and ``swap_xy`` included, leaves it ``None``.
    """

    __slots__ = ("_nvars", "_terms", "_one_on_hyperplane")

    def __init__(self, nvars: int,
                 terms: Mapping[Exponents, RationalLike]
                 | Iterable[tuple[Exponents, RationalLike]] = ()):
        if type(nvars) is not int or nvars < 0:  # bool is an int subclass
            raise ValueError(f"nvars {nvars!r} must be a nonnegative integer")
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = []
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has length {len(exp)}, expected {nvars}")
            if any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"exponent {exp} must consist of nonnegative integers")
            checked.append((exp, _coerce_coeff(coeff)))
        self._nvars = nvars
        self._terms = _add_terms({}, checked)
        self._one_on_hyperplane = None

    @classmethod
    def constant(cls, nvars: int, value: RationalLike) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The monomial x_index (0-based) in nvars variables."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1})

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """Read-only view of the stored (exponent -> coefficient) mapping."""
        return MappingProxyType(self._terms)

    def coefficient(self, exp: Exponents) -> Fraction:
        return self._terms.get(tuple(exp), Fraction(0))

    def term_count(self) -> int:
        """Number of distinct monomials with nonzero coefficient."""
        return len(self._terms)

    def degree(self) -> int:
        """Maximal total degree of a stored term; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def canonical_terms(self) -> tuple[tuple[Exponents, Fraction], ...]:
        """Terms sorted in graded lexicographic order (the canonical order)."""
        return tuple(sorted(self._terms.items(), key=lambda t: grlex_key(t[0])))

    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic ---------------------------------------------------------

    def _check_same_arity(self, other: "Polynomial") -> None:
        if self._nvars != other._nvars:
            raise ValueError(f"arity mismatch: {self._nvars} vs {other._nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_arity(other)
        return Polynomial._raw(self._nvars, _add_terms(dict(self._terms), other._terms.items()))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self._nvars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _coerce_coeff(other)
            if not c:
                return Polynomial._raw(self._nvars, {})
            return Polynomial._raw(self._nvars, {e: v * c for e, v in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_arity(other)
        products = ((tuple(map(operator.add, ea, eb)), ca * cb)
                    for ea, ca in self._terms.items() for eb, cb in other._terms.items())
        return Polynomial._raw(self._nvars, _add_terms({}, products))

    __rmul__ = __mul__

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Internal constructor skipping validation; terms must be canonical.

        ``terms`` must be a fresh dict that no other polynomial holds.
        """
        p = object.__new__(cls)
        p._nvars = nvars
        p._terms = terms
        p._one_on_hyperplane = None
        return p

    # -- structure ----------------------------------------------------------

    def swap_xy(self) -> "Polynomial":
        """Exchange the two variables; defined only for nvars == 2."""
        if self._nvars != 2:
            raise ValueError("variable swap is defined only for two variables")
        return Polynomial._raw(2, {(b, a): c for (a, b), c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._nvars == other._nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._nvars, self.canonical_terms()))

    def __repr__(self) -> str:
        return f"Polynomial({self._nvars}, {dict(self.canonical_terms())!r})"

    # -- JSON ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical JSON form: terms in graded-lex order, coefficients as "num/den"."""
        return {"nvars": self._nvars, "terms": terms_to_json(self.canonical_terms())}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polynomial":
        """Inverse of ``to_json_dict``; malformed input raises ValueError.

        A coefficient must be an int or an exact string such as "7/2"; a JSON
        float is refused, so floating point never enters an exact decision.
        """
        if not isinstance(data, dict):
            raise ValueError(f"polynomial JSON must be an object, got {type(data).__name__}")
        try:
            terms = [(tuple(entry["exp"]), _parse_coeff(entry["coeff"]))
                     for entry in data["terms"]]
            return cls(data["nvars"], terms)
        except KeyError as exc:
            raise ValueError(f"polynomial JSON lacks the key {exc}") from None
        except TypeError as exc:  # a value of the wrong JSON type
            raise ValueError(f"malformed polynomial JSON: {exc}") from None


class Signature(NamedTuple):
    """Counts of monomials with positive and negative coefficients."""

    n_plus: int
    n_minus: int


# -- hyperplane restriction ---------------------------------------------------


def _times_one_minus_sum(rows: dict[Exponents, list[int]]) -> dict[Exponents, list[int]]:
    """R * (1 - x_1 - ... - x_m) for R held dense in x_m (m >= 1).

    ``rows`` maps the exponents of x_1..x_{m-1} to the integer coefficients
    of R in x_m.  Multiplying by 1 - x_m is the list difference L - shift(L);
    each -x_j with j < m subtracts L at the key with x_j raised by one.
    """
    out = {k: list(map(operator.sub, row + [0], [0] + row)) for k, row in rows.items()}
    for k, row in rows.items():
        for j in range(len(k)):
            target = out.setdefault(k[:j] + (k[j] + 1,) + k[j + 1:], [])
            if len(target) < len(row):
                target.extend(repeat(0, len(row) - len(target)))
            target[:len(row)] = map(operator.sub, target, row)
    return out


def restrict_to_hyperplane(p: Polynomial) -> Polynomial:
    """Exact substitution of the last variable by 1 - (sum of the others).

    Returns the (n-1)-variable polynomial p(x_1, ..., x_{n-1}, 1 - sum x_j);
    for n = 1 the result is a constant (a 0-variable polynomial).  The sums
    are kept in integers over the common denominator of the coefficients,
    and zero terms are dropped once, at the end.

    By Horner's rule in the substituted variable: with m = n - 1,
    s = x_1 + ... + x_m and p = sum_e x_n^e P_e(x_1, ..., x_m), the result is
    R_0, where R_E = P_E for the top exponent E of x_n and
    R_e = R_{e+1} (1 - s) + P_e.  R is held dense in x_m.  The cost is E
    times the size of R, so a polynomial with a few terms of very high degree
    in x_n (say x^N + y^N) pays for every exponent of x_n below its top one.
    """
    n = p.nvars
    if n < 1:
        raise ValueError("restriction needs at least one variable")
    m = n - 1
    den = math.lcm(*(c.denominator for c in p._terms.values()))
    slices: dict[int, list[tuple[Exponents, int]]] = {}
    for exp, c in p._terms.items():
        slices.setdefault(exp[m], []).append((exp[:m], c.numerator * (den // c.denominator)))
    if m == 0:  # one variable: x_1 = 1
        total = sum(v for terms in slices.values() for _, v in terms)
        return Polynomial._raw(0, {(): Fraction(total, den)} if total else {})
    rows: dict[Exponents, list[int]] = {}
    for e in range(max(slices, default=0), -1, -1):
        rows = _times_one_minus_sum(rows)
        for head, v in slices.get(e, ()):
            row = rows.setdefault(head[:-1], [])
            if len(row) <= head[-1]:
                row.extend(repeat(0, head[-1] + 1 - len(row)))
            row[head[-1]] += v
    return Polynomial._raw(m, {k + (i,): Fraction(v, den)
                               for k, row in rows.items() for i, v in enumerate(row) if v})


@functools.cache
def line_columns(degree: int) -> Mapping[tuple[int, int], tuple[int, ...]]:
    """Read-only table of x^a y^b restricted to the line x + y = 1, a + b <= degree.

    Keys are the monomials (a, b) in graded-lex order.  The value of (a, b)
    holds the integer coefficients of ``restrict_to_hyperplane(x^a y^b)``,
    that is of x^a (1-x)^b, in the basis 1, x, ..., x^degree; the value of
    (0, 0) is the restriction of the constant 1.  Built once per degree and
    shared by every caller, hence read-only.

    x is not substituted, so the restriction of x^a y^b is x^a times that of
    y^b: the table costs the d + 1 restrictions of y^b, each shifted by a.
    """
    powers = []
    for b in range(degree + 1):
        col = [0] * (degree + 1)
        for (k,), c in restrict_to_hyperplane(Polynomial(2, {(0, b): 1})).terms.items():
            col[k] = c.numerator
        powers.append(col)
    return MappingProxyType({(a, t - a): tuple([0] * a + powers[t - a][:degree + 1 - a])
                             for t in range(degree + 1) for a in range(t + 1)})


def is_one_on_hyperplane(p: Polynomial) -> bool:
    """True iff p restricts to the constant 1 on x_1 + ... + x_n = 1.

    The verdict is kept on ``p``, which is immutable, so later calls (from
    ``is_map_polynomial`` too) do not restrict again; a pickle carries it.
    """
    if p._one_on_hyperplane is None:
        r = restrict_to_hyperplane(p)
        p._one_on_hyperplane = r == Polynomial.constant(r.nvars, 1)
    return p._one_on_hyperplane


def is_map_polynomial(p: Polynomial) -> bool:
    """True iff p is 1 on the hyperplane and every coefficient is positive.

    These are exactly the polynomials induced by proper monomial maps
    between unit spheres via |z_j|^2 -> x_j.
    """
    return all(c > 0 for c in p.terms.values()) and is_one_on_hyperplane(p)


def signature(p: Polynomial) -> Signature:
    plus = sum(1 for c in p.terms.values() if c > 0)
    return Signature(plus, p.term_count() - plus)  # no zero coefficient is stored


def equivalent(p: Polynomial, q: Polynomial) -> bool:
    """Equality up to exchanging the two variables; only arity 2 is supported."""
    if p.nvars != 2 or q.nvars != 2:
        raise ValueError("equivalence is defined only for two-variable polynomials")
    return p == q or p == q.swap_xy()


def min_term_count(degree: int) -> int:
    """ceil((d+3)/2), the least N with d <= 2N - 3.

    The sharp two-variable bound (D'Angelo, Kos and Riehl): a map polynomial
    of degree d >= 1 has at least this many terms, and f(d) for odd d and
    ``even_u`` for even d attain it.
    """
    return (degree + 4) // 2


def assert_term_bound(p: Polynomial) -> None:
    """Sharp two-variable degree bound: at least ``min_term_count(d)`` terms.

    Checked as a global postcondition on every generated two-variable map
    polynomial of positive degree; the caller is responsible for having
    verified cone membership already.
    """
    if p.nvars == 2 and p.degree() >= 1:
        n, d = p.term_count(), p.degree()
        if n < min_term_count(d):
            raise AssertionError(f"term bound violated: degree {d} with {n} terms")


# -- floating-point sphere cross-check ----------------------------------------
#
# Exact identities are the source of truth everywhere else; this check only
# guards against structural blunders by sampling the unit sphere of C^n.
# Coefficients can be astronomically large (hundreds of digits), so term
# values are computed with explicit mantissa/exponent bookkeeping instead of
# raw float conversion, keeping relative error near machine epsilon per term.


def _frexp_fraction(value: Fraction) -> tuple[float, int]:
    """Return (m, e) with value = m * 2**e and 0.5 <= m < 1, to float precision."""
    num, den = value.numerator, value.denominator
    shift = 64 - (num.bit_length() - den.bit_length())
    if shift >= 0:
        q = (num << shift) // den
    else:
        q = num // (den << -shift)
    m, e = math.frexp(q)
    return m, e - shift

def _pow_scaled(mant: float, exp2: int, power: int) -> tuple[float, int]:
    """(mant * 2**exp2) ** power by square-and-multiply with renormalization."""
    rm, re = 1.0, 0
    bm, be = mant, exp2
    e = power
    while e:
        if e & 1:
            rm *= bm
            re += be
            rm, d = math.frexp(rm)
            re += d
        e >>= 1
        if e:
            bm *= bm
            be *= 2
            bm, d = math.frexp(bm)
            be += d
    return rm, re


_TWO_PI = 2.0 * math.pi


def _simplex_points(n: int, samples: int, seed: int) -> Iterator[list[float]]:
    """Yield ``samples`` points x with x_j >= 0 and sum x_j = 1, drawn from ``seed``.

    Each x_j is |z_j|^2 / ||z||^2 for a standard complex Gaussian z_j, and
    each Gaussian pair comes from two draws of ``random()`` by Box-Muller:
    angle u0 * 2 pi, radius sqrt(-2 log(1 - u1)).  This is the recipe of
    ``random.Random.gauss`` (whose two calls per coordinate share one pair of
    draws) without its Python-level call per Gaussian, so the points are
    those of two ``gauss(0.0, 1.0)`` calls per coordinate.  The squares
    stay ``** 2``, as the platform ``pow(t, 2.0)`` need not equal ``t * t``.
    The norm is a left-to-right sum, as ``sum`` of floats was before CPython
    3.12 made it compensated, so the points do not depend on the
    interpreter.  An attempt whose norm is 0.0 is redrawn from the next
    draws.
    """
    rand = random.Random(seed).random
    cos, sin, sqrt, log = math.cos, math.sin, math.sqrt, math.log
    for _ in range(samples):
        while True:
            sq_moduli = []
            norm = 0.0
            for _ in range(n):
                angle = rand() * _TWO_PI
                radius = sqrt(-2.0 * log(1.0 - rand()))
                sq = (cos(angle) * radius) ** 2 + (sin(angle) * radius) ** 2
                sq_moduli.append(sq)
                norm += sq
            if norm > 0.0:
                break
        yield [v / norm for v in sq_moduli]


def _scaled_term(exp: Exponents, mant: float, e2: int, xs: list[float]) -> float:
    """c * x_1^e_1 * ... * x_n^e_n for c = mant * 2**e2, renormalized per factor."""
    tm, te = mant, e2
    for e, x in zip(exp, xs):
        # e = 0 gives the factor (1.0, 0), which keeps the term's bits; x = 0.0
        # with e > 0 gives a zero mantissa, so the term is an exact 0.0,
        # which leaves the exactly rounded fsum unchanged
        xm, xe = math.frexp(x)
        pm, pe = _pow_scaled(xm, xe, e)
        tm *= pm
        te += pe
        tm, d = math.frexp(tm)
        te += d
    try:
        return math.ldexp(tm, te)
    except OverflowError:
        return math.inf


def check_sphere_numeric(p: Polynomial, samples: int, seed: int) -> float:
    """Maximum |  ||f(z)||^2 - 1 | over pseudo-random points on the unit sphere.

    f is the monomial map z |-> (sqrt(c_a) z^a)_a of p = sum c_a x^a, so
    ||f(z)||^2 = p(|z_1|^2, ..., |z_n|^2).  p needs at least one variable
    and is not otherwise checked.  Points are drawn deterministically from
    ``seed`` by ``_simplex_points``: since only the moduli |z_j|^2 enter,
    each sample reduces to a point (x_1, ..., x_n) with x_j >= 0 and
    sum x_j = 1, obtained by normalizing squared Gaussians.

    The float-safe terms c * x_1^e_1 * ... * x_n^e_n of a sample form one
    lazy chain of C-level maps, one link per variable, that ``math.fsum``
    consumes with no list in between.  The result is bit for bit that of
    multiplying each term in a Python loop as ``c * x_1 ** e_1 * ...``:

      * for finite x >= 0 and an integer e, ``math.pow(x, float(e))`` and
        ``x ** e`` call the platform ``pow`` on the same two doubles (both
        give 1.0 for e = 0, and ``t * 1.0 == t``);
      * every product keeps the order c, x_1^e_1, ..., x_n^e_n;
      * ``math.fsum`` is exactly rounded, so the order of the terms in the
        sum does not matter;
      * the sampler reproduces two ``random.Random.gauss(0.0, 1.0)`` calls
        per coordinate, and its left-to-right norm is the ``sum`` of
        CPython 3.10 and 3.11, so the result is the same on 3.10 to 3.13.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    n = p.nvars
    if n < 1:  # no point of the sphere would ever be drawn
        raise ValueError("the sphere check needs at least one variable")

    # split the terms into float-safe ones and scaled big-coefficient ones
    plain: list[tuple[Exponents, float]] = []
    scaled: list[tuple[Exponents, float, int]] = []
    for exp, sq in p.canonical_terms():
        if sq.numerator.bit_length() < 512 and sq.denominator.bit_length() < 512:
            plain.append((exp, sq.numerator / sq.denominator))
        else:
            mant, e2 = _frexp_fraction(sq)
            scaled.append((exp, mant, e2))
    plain_coeffs = [c for _, c in plain]
    # one tuple of float exponents per variable, the second argument of math.pow
    plain_exps = [tuple(float(exp[j]) for exp, _ in plain) for j in range(n)]

    worst = 0.0
    for xs in _simplex_points(n, samples, seed):
        parts: Iterable[float] = plain_coeffs
        for x, exps in zip(xs, plain_exps):
            parts = map(operator.mul, parts, map(math.pow, repeat(x), exps))
        if scaled:
            parts = chain(parts, [_scaled_term(exp, mant, e2, xs)
                                  for exp, mant, e2 in scaled])
        residual = abs(math.fsum(parts) - 1.0)
        if residual > worst:
            worst = residual
    return worst

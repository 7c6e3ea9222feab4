"""Command-line interface emitting JSON reports with embedded assertions.

Every subcommand prints one JSON report to stdout:

    {"command": ..., "inputs": {...}, "outputs": {...},
     "assertions": [{"claim": ..., "passed": true}, ...],
     "timing_seconds": ...}

Exit codes: 0 all assertions passed; 1 an assertion failed (for the search
subcommand this code also signals the conclusive outcome that uniqueness
fails); 2 usage error; 3 budget exhausted before the search was exhaustive.
Reports are byte-identical across runs with the same argv apart from the
timing fields.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time

from . import constructions, families, gaps, pell, search
from .polynomial import (
    Polynomial,
    check_sphere_numeric,
    equivalent,
    is_map_polynomial,
    is_one_on_hyperplane,
    min_term_count,
    signature,
    terms_to_json,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class Report:
    """Accumulates outputs and named assertion results for one command."""

    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.outputs: dict = {}
        self.assertions: list[dict] = []
        self._start = time.monotonic()

    def check(self, claim: str, passed: bool) -> bool:
        self.assertions.append({"claim": claim, "passed": bool(passed)})
        return passed

    def emit(self) -> int:
        body = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "assertions": self.assertions,
            "timing_seconds": round(time.monotonic() - self._start, 3),
        }
        try:
            print(json.dumps(body, indent=2), flush=True)
        except BrokenPipeError:  # the reader left early; the flush at exit goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK if all(a["passed"] for a in self.assertions) else EXIT_ASSERTION


def _finite_nonnegative(name: str, value: float) -> None:
    """Refuse ``value`` unless it is finite and at least 0.

    A negative time or tolerance means nothing; nan and infinities are
    refused too, as JSON has neither.  A refusal is a ValueError that names
    ``name``.
    """
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number of at least 0, got {value!r}")


def _read_polynomial(path: str) -> Polynomial:
    """The polynomial serialized in the JSON file at ``path``.

    Malformed content raises ValueError, JSON nested too deeply to parse
    included, so every bad file is a usage error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} nests its JSON too deeply to read") from None
    return Polynomial.from_json_dict(data)


# -- subcommand handlers -------------------------------------------------------


def _cmd_family(args) -> int:
    if args.kind == "f":
        report = Report("family f", {"degree": args.degree})
        p = families.f(args.degree)
        report.outputs["poly"] = p.to_json_dict()
        report.check("value is 1 on the line x+y=1", is_one_on_hyperplane(p))
        report.check(f"degree is {args.degree}", p.degree() == args.degree)
        if args.degree % 2:
            report.check("all coefficients positive (map polynomial)",
                         is_map_polynomial(p))
            expected = min_term_count(args.degree)
            report.check(f"term count is (d+3)/2 = {expected}",
                         p.term_count() == expected)
        return report.emit()
    report = Report("family even", {"k": args.k})
    members = constructions.even_family(args.k)
    report.outputs["polys"] = [p.to_json_dict() for p in members]
    report.check(f"{args.k} members produced", len(members) == args.k)
    report.check("every member is a map polynomial of degree 2k",
                 all(is_map_polynomial(p) and p.degree() == 2 * args.k
                     for p in members))
    report.check(f"every member has k+2 = {args.k + 2} terms",
                 all(p.term_count() == args.k + 2 for p in members))
    report.check("members pairwise inequivalent",
                 all(not equivalent(members[i], members[j])
                     for i in range(len(members)) for j in range(i + 1, len(members))))
    return report.emit()


# kind -> (its builder's name in ``constructions``, its int flags in argument order, help);
# the name is looked up at each call, so a builder patched on the module is the one called
_CONSTRUCT_KINDS = {
    "q": ("q_with_trace", ("degree",), "ratio-2 rewrite at a Pell degree"),
    "h": ("h_with_trace", ("m",), "degree 4m-1 subtraction construction"),
    "mod6": ("mod6_with_trace", ("k",), "degree 6k+1 quartic rewrite"),
    "ratio4": ("ratio4_construct_with_trace", ("r", "s"), "quartic rewrite at a ratio-4 site"),
}


def _cmd_construct(args) -> int:
    builder, flags, _ = _CONSTRUCT_KINDS[args.kind]
    inputs = {flag: getattr(args, flag) for flag in flags}
    report = Report(f"construct {args.kind}", inputs)
    poly, step = getattr(constructions, builder)(*inputs.values())
    d = step.degree
    report.outputs["poly"] = poly.to_json_dict()
    report.outputs["replacement"] = step.to_json_dict()
    report.check("output is a map polynomial", is_map_polynomial(poly))
    report.check(f"degree is {d}", poly.degree() == d)
    report.check("replacement is neutral on the line x+y=1", step.is_neutral())
    report.check(f"inequivalent to the degree-{d} family member",
                 not equivalent(poly, families.f(d)))
    return report.emit()


def _cmd_pell(args) -> int:
    general = args.general_d is not None
    # a flag of the other mode is refused, not silently ignored; an unset one takes its default
    for flag, dest, default, read in (("--lambda", "lam", 12, not general),
                                      ("--count", "count", 5, not general),
                                      ("--b-bound", "b_bound", 64, general)):
        value = getattr(args, dest)
        if value is not None and not read:
            raise ValueError(f"{flag} {'is not read with' if general else 'needs'} --general-d")
        setattr(args, dest, default if value is None else value)
    if general:
        # name the options given, not the library's parameters
        if args.b_bound < 1:
            raise ValueError(f"--b-bound must be at least 1, got {args.b_bound}")
        if args.general_n == 0:
            raise ValueError("--general-n (N) must be nonzero")
        pell.check_lambda(args.general_d, "--general-d (D)")
        inputs = {"D": args.general_d, "N": args.general_n, "b_bound": args.b_bound}
        report = Report("pell general", inputs)
        sols = pell.generalized_solutions(args.general_d, args.general_n, args.b_bound)
        report.outputs["solutions"] = [s.to_json_dict() for s in sols]
        report.check("every pair satisfies a^2 - D b^2 = N exactly",
                     all(s.a ** 2 - args.general_d * s.b ** 2 == args.general_n
                         for s in sols))
        return report.emit()
    pell.check_lambda(args.lam, "--lambda")
    report = Report("pell", {"lambda": args.lam, "count": args.count})
    sols = pell.solutions(args.lam, args.count)
    report.outputs["solutions"] = [s.to_json_dict() for s in sols]
    report.check("every pair satisfies d^2 - lambda k^2 = 1 exactly",
                 all(s.d ** 2 - args.lam * s.k ** 2 == 1 for s in sols))
    report.check("d-values strictly increasing",
                 all(a.d < b.d for a, b in zip(sols, sols[1:])))
    if args.lam == 12:
        report.check("d mod 4 is 3 for odd index, 1 for even index",
                     all(s.d % 4 == (3 if s.index % 2 else 1) for s in sols))
    return report.emit()


def _cmd_search(args) -> int:
    budget = args.budget_seconds
    if budget is not None:
        _finite_nonnegative("--budget-seconds", budget)
    report = Report("search", {"degree": args.degree, "terms": args.terms,
                               "budget_seconds": budget, "shards": args.shards})
    if args.terms is not None:
        witnesses, exhaustive, stats = search.enumerate_sharp(
            args.degree, args.terms, budget, args.shards)
        report.outputs["witnesses"] = [w.polynomial.to_json_dict() for w in witnesses]
        report.outputs["freedoms"] = [w.freedom for w in witnesses]
        report.outputs["exhaustive"] = exhaustive
        report.outputs["search_stats"] = stats.to_json_dict()
        report.check("every witness is a map polynomial of the requested degree and size",
                     all(is_map_polynomial(w.polynomial)
                         and w.polynomial.degree() == args.degree
                         and w.polynomial.term_count() == args.terms
                         for w in witnesses))
        code = report.emit()
        return EXIT_BUDGET if not exhaustive else code
    result = search.uniqueness_status(args.degree, budget, args.shards)
    report.outputs["result"] = result.to_json_dict()
    if result.status == search.UNKNOWN:
        report.check("search exhausted its budget", True)
        report.emit()
        return EXIT_BUDGET
    report.check("every minimal witness is a map polynomial",
                 all(is_map_polynomial(p) for p in result.distinct_polynomials))
    report.check("status is conclusive", result.status != search.UNKNOWN)
    code = report.emit()
    if code == EXIT_OK and result.status == search.FAILS:
        return EXIT_ASSERTION  # conclusive, but uniqueness fails
    return code


def _cmd_gaps(args) -> int:
    if args.kind == "witness":
        report = Report("gaps witness", {"n": args.n, "N": args.N})
        witness = gaps.gap_witness(args.n, args.N)
        report.outputs["witness"] = witness.to_json_dict()
        report.check("polynomial is a map polynomial",
                     is_map_polynomial(witness.poly))
        report.check(f"term count equals N = {args.N}",
                     witness.poly.term_count() == args.N)
        if args.n >= 2:
            report.check("component monomials admit no constant combination",
                         gaps.monomials_independent_of_constants(witness.poly))
        return report.emit()
    if args.to < args.n:
        raise ValueError(f"--to must be at least --n = {args.n}, got {args.to}")
    report = Report("gaps table", {"n": args.n, "to": args.to})
    rows = []
    for N in range(args.n, args.to + 1):
        decomposition = gaps.decompose_target(args.n, N)
        rows.append({"N": N,
                     "representable": decomposition is not None,
                     "j": None if decomposition is None else decomposition[0],
                     "k": None if decomposition is None else decomposition[1]})
    report.outputs["threshold"] = gaps.T(args.n)
    report.outputs["rows"] = rows
    report.check("every N at or above the threshold is representable",
                 all(r["representable"] for r in rows if r["N"] >= gaps.T(args.n)))
    return report.emit()


def _cmd_signature(args) -> int:
    if args.r is not None and args.recipe not in gaps.F_RECIPES:
        raise ValueError(f"recipe {args.recipe} does not read --r, got {args.r}; "
                         f"only {' and '.join(gaps.F_RECIPES)} do")
    r = 1 if args.r is None else args.r
    report = Report("signature", {"recipe": args.recipe, "n": args.n, "r": r})
    witness = gaps.signature_witness(args.recipe, n=args.n, r=r)
    report.outputs["witness"] = witness.to_json_dict()
    report.check("polynomial is 1 on the hyperplane",
                 is_one_on_hyperplane(witness.poly))
    report.check("signature matches the recipe's advertised value",
                 signature(witness.poly) == witness.requested)
    return report.emit()


def _cmd_verify(args) -> int:
    report = Report("verify", {"file": args.file,
                               "expect_degree": args.expect_degree,
                               "expect_terms": args.expect_terms})
    p = _read_polynomial(args.file)
    report.outputs["poly"] = p.to_json_dict()
    report.check("file round-trips to canonical form",
                 p.to_json_dict() == Polynomial.from_json_dict(p.to_json_dict()).to_json_dict())
    report.check("value is 1 on the hyperplane", is_one_on_hyperplane(p))
    report.outputs["is_map_polynomial"] = is_map_polynomial(p)
    report.outputs["signature"] = signature(p)._asdict()
    if args.expect_degree is not None:
        report.check(f"degree is {args.expect_degree}", p.degree() == args.expect_degree)
    if args.expect_terms is not None:
        report.check(f"term count is {args.expect_terms}",
                     p.term_count() == args.expect_terms)
    return report.emit()


def _cmd_map(args) -> int:
    _finite_nonnegative("--tolerance", args.tolerance)
    report = Report("map", {"file": args.file, "samples": args.samples,
                            "seed": args.seed, "tolerance": args.tolerance})
    p = _read_polynomial(args.file)
    if not is_map_polynomial(p):
        raise ValueError("polynomial is not in the nonnegative hyperplane-one cone")
    # the map z |-> (sqrt(c_a) z^a)_a is written as its squared coefficients
    components = terms_to_json(p.canonical_terms(), "sq_coeff")
    report.outputs["map"] = {"nvars": p.nvars, "components": components}
    residual = check_sphere_numeric(p, args.samples, args.seed)
    report.outputs["max_residual"] = residual
    report.check("component count equals the term count",
                 len(components) == p.term_count())
    report.check(f"sphere residual at {args.samples} samples within {args.tolerance}",
                 residual <= args.tolerance)
    return report.emit()


# -- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one ``sharpmap`` parser of this process, built at its first call.

    ``parse_args`` leaves the parser unchanged, so every ``main`` call shares
    it; building it at import time would cost every import of this module.
    """
    parser = argparse.ArgumentParser(
        prog="sharpmap",
        description="Exact constructions and searches for proper monomial "
                    "sphere map polynomials (JSON reports on stdout).")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    family = sub.add_parser("family", help="generate a family member")
    family_sub = family.add_subparsers(dest="kind", required=True)
    family_f = family_sub.add_parser("f", help="odd/even recurrence family")
    family_f.add_argument("--degree", type=int, required=True)
    family_even = family_sub.add_parser("even", help="even-degree splice family")
    family_even.add_argument("--k", type=int, required=True)
    family.set_defaults(handler=_cmd_family)

    construct = sub.add_parser("construct", help="run a replacement construction")
    construct_sub = construct.add_subparsers(dest="kind", required=True)
    for kind, (_, flags, help_text) in _CONSTRUCT_KINDS.items():
        kind_parser = construct_sub.add_parser(kind, help=help_text)
        for flag in flags:
            kind_parser.add_argument(f"--{flag}", type=int, required=True)
    construct.set_defaults(handler=_cmd_construct)

    pell_cmd = sub.add_parser("pell", help="Pell equation solutions")
    pell_cmd.add_argument("--lambda", dest="lam", type=int, default=None)
    pell_cmd.add_argument("--count", type=int, default=None)
    pell_cmd.add_argument("--general-d", dest="general_d", type=int, default=None,
                          help="D for the generalized equation a^2 - D b^2 = N")
    pell_cmd.add_argument("--general-n", dest="general_n", type=int, default=None)
    pell_cmd.add_argument("--b-bound", dest="b_bound", type=int, default=None)
    pell_cmd.set_defaults(handler=_cmd_pell)

    search_cmd = sub.add_parser("search", help="exhaustive minimal-term search")
    search_cmd.add_argument("--degree", type=int, required=True)
    search_cmd.add_argument("--terms", type=int, default=None,
                            help="fix the support size instead of deciding uniqueness")
    search_cmd.add_argument("--budget-seconds", type=float, default=None)
    search_cmd.add_argument("--shards", type=int, default=1,
                            help="parallel worker count (deterministic output)")
    search_cmd.set_defaults(handler=_cmd_search)

    gaps_cmd = sub.add_parser("gaps", help="target-dimension witnesses")
    gaps_sub = gaps_cmd.add_subparsers(dest="kind", required=True)
    g_w = gaps_sub.add_parser("witness", help="construct a witness with N terms")
    g_w.add_argument("--n", type=int, required=True)
    g_w.add_argument("--N", dest="N", type=int, required=True)
    g_t = gaps_sub.add_parser("table", help="which N the V and W operators reach from s")
    g_t.add_argument("--n", type=int, required=True)
    g_t.add_argument("--to", type=int, required=True)
    gaps_cmd.set_defaults(handler=_cmd_gaps)

    signature_cmd = sub.add_parser("signature", help="signature catalog recipes")
    signature_cmd.add_argument("--recipe", required=True,
                               choices=sorted(gaps.SIGNATURE_RECIPES))
    signature_cmd.add_argument("--n", type=int, default=2)
    signature_cmd.add_argument("--r", type=int, default=None,
                               help="r of f(2r+1) for the f-based recipes (default 1)")
    signature_cmd.set_defaults(handler=_cmd_signature)

    verify = sub.add_parser("verify", help="re-check a serialized polynomial")
    verify.add_argument("--file", required=True)
    verify.add_argument("--expect-degree", type=int, default=None)
    verify.add_argument("--expect-terms", type=int, default=None)
    verify.set_defaults(handler=_cmd_verify)

    map_cmd = sub.add_parser("map", help="convert to a sphere map and cross-check")
    map_cmd.add_argument("--file", required=True)
    map_cmd.add_argument("--samples", type=int, default=1000)
    map_cmd.add_argument("--seed", type=int, default=0)
    map_cmd.add_argument("--tolerance", type=float, default=1e-10)
    map_cmd.set_defaults(handler=_cmd_map)

    return parser


@contextlib.contextmanager
def _any_size_int_strings():
    """Lift CPython's cap on int/str conversion digits, then restore it.

    Reports carry exact decimal strings of any size, such as the Pell
    solutions; an interpreter without the cap needs nothing done.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def main(argv: list[str] | None = None) -> int:
    with _any_size_int_strings():
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.subcommand == "pell" and (args.general_d is None) != (args.general_n is None):
            parser.error("--general-d and --general-n must be given together")
        try:
            return args.handler(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

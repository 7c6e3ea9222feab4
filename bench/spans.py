"""In-memory span tracer for the public entry points of the sharpmap modules.

A span records a name, a start, an end and the index of its parent span.
Spans live in flat arrays for the whole traced pass and are reduced to
per-layer metrics when the pass ends.  A span's self time is its duration
minus its children's durations; spans are opened and closed in one thread,
so children never overlap and always lie inside their parent.

Tracing patches module attributes: ``from .x import y`` copies ``y`` into
the importing module, so every attribute of every loaded ``sharpmap``
module that holds a traced function is replaced, not only the defining one.
Forked shard workers would lose their spans, so only one-shard passes are
traced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

# Layer -> public entry points wrapped in spans.  The layer is the module
# that defines the function; a missing module or function is skipped, so
# a commit that deletes one (for example linprog) still traces the rest.
ENTRY_POINTS = {
    "search": ("uniqueness_status", "minimal_terms", "enumerate_sharp",
               "solve_support_system"),
    "linprog": ("max_min_component",),
    "polynomial": ("restrict_to_hyperplane", "is_map_polynomial",
                   "check_sphere_numeric"),
    "families": ("f", "even_family"),
    "constructions": ("q_with_trace", "h_with_trace", "mod6_with_trace",
                      "ratio4_construct_with_trace"),
    "gaps": ("gap_witness", "decompose_target",
             "monomials_independent_of_constants", "signature_witness",
             "signature_impossible"),
    "cli": ("main",),
}


class Tracer:
    """Collects nested spans of one thread; index order is start order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.lp_parents: set[int] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        if self._stack.pop() != i:
            raise RuntimeError("spans closed out of order")

    def wrap(self, fn, name: str, hook=None):
        """Return ``fn`` wrapped in a span; ``hook(tracer, i, args, result)``
        runs after the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if hook is not None:
                hook(self, i, args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its children."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        self_t = list(own)
        for i in range(n):
            if self.parent[i] >= 0:
                self_t[self.parent[i]] -= own[i]
        return self_t


# -- hooks: counts recorded at the same boundaries as the spans ---------------


def _hook_enumerate(tr: Tracer, i, args, result) -> None:
    stats = result[2]
    tr.counts["search.examined"] += stats.examined
    tr.counts["search.pruned"] += stats.pruned


def _hook_solve(tr: Tracer, i, args, result) -> None:
    if result.status == "infeasible":
        key = "lp_infeasible" if i in tr.lp_parents else "infeasible_direct"
    else:
        key = result.status
        freedom = result.freedom
        tr.counts["search.freedom." + (str(freedom) if freedom < 2 else "2plus")] += 1
    tr.counts["search.out." + key] += 1


def _hook_linprog(tr: Tracer, i, args, result) -> None:
    tr.lp_parents.add(tr.parent[i])
    t_star = result[0]
    if t_star is not None and t_star > 0:  # a strictly positive point exists
        tr.counts["linprog.feasible"] += 1


def _hook_restrict(tr: Tracer, i, args, result) -> None:
    tr.counts["polynomial.restrict_terms"] += len(args[0].terms)


HOOKS = {
    "search.enumerate_sharp": _hook_enumerate,
    "search.solve_support_system": _hook_solve,
    "linprog.max_min_component": _hook_linprog,
    "polynomial.restrict_to_hyperplane": _hook_restrict,
}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every entry point and patch every attribute holding one.

    Returns (module, attribute, original) triples for ``uninstall``.
    """
    originals = {}
    for layer, functions in ENTRY_POINTS.items():
        try:
            module = importlib.import_module(f"sharpmap.{layer}")
        except ModuleNotFoundError:
            continue
        for fname in functions:
            fn = getattr(module, fname, None)
            if callable(fn):
                name = f"{layer}.{fname}"
                originals[id(fn)] = (fn, tracer.wrap(fn, name, HOOKS.get(name)))
    patched = []
    for mname, module in list(sys.modules.items()):
        if mname != "sharpmap" and not mname.startswith("sharpmap."):
            continue
        for attr, value in list(vars(module).items()):
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    return patched


def uninstall(patched) -> None:
    for module, attr, original in patched:
        setattr(module, attr, original)


# -- reduction to per-layer metrics -------------------------------------------


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    ``wall`` is the pass's wall time, measured by the pass itself around
    the traced calls.  ``trace.remainder_s`` is the part of it that no span
    covers (the harness and untraced code), so the layer self times plus the
    remainder equal ``wall`` by construction.  Raises AssertionError if a
    span lies outside the pass (a negative remainder), or if the outcome
    counts disagree with the search's own counters.
    """
    self_t = tracer.self_times()
    names = tracer.names
    count: Counter = Counter()
    self_s: Counter = Counter()
    layer_self: Counter = Counter()
    witness_checks = 0
    witness_s = 0.0
    top_level = 0.0
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        count[name] += 1
        self_s[name] += self_t[i]
        layer_self[name.split(".", 1)[0]] += self_t[i]
        p = tracer.parent[i]
        if p < 0:
            top_level += tracer.end[i] - tracer.start[i]
        elif name == "polynomial.is_map_polynomial" and \
                names[tracer.name[p]].startswith("search."):
            witness_checks += 1
            witness_s += tracer.end[i] - tracer.start[i]

    remainder = wall - top_level
    if remainder < 0:
        raise AssertionError(f"spans cover {top_level} s of a {wall} s pass")

    c = tracer.counts
    outcomes = {k: c[f"search.out.{k}"] for k in
                ("infeasible_direct", "lp_infeasible", "point", "polytope")}
    solve_calls = count["search.solve_support_system"]
    solved = sum(outcomes.values())
    if not solved == solve_calls == c["search.examined"]:
        raise AssertionError(
            f"outcomes sum to {solved}, {solve_calls} solve calls, "
            f"SearchStats.examined = {c['search.examined']}")
    candidates = c["search.examined"] + c["search.pruned"]
    enum_self = sum(self_s[f"search.{n}"] for n in
                    ("uniqueness_status", "minimal_terms", "enumerate_sharp"))
    elim_self = self_s["search.solve_support_system"]
    lp_calls = count["linprog.max_min_component"]
    lp_self = layer_self["linprog"]

    m = {
        "search.candidates": candidates,
        "search.pruned": c["search.pruned"],
        "search.solved": solved,
        "search.prune_ratio": c["search.pruned"] / candidates if candidates else 0.0,
        "search.enum_self_s": enum_self,
        "search.solve_calls": solve_calls,
        "search.elim_self_s": elim_self,
        "search.elim_us_per_solve": 1e6 * elim_self / solve_calls if solve_calls else 0.0,
    }
    for k, v in outcomes.items():
        m[f"search.out.{k}"] = v
    for k in ("0", "1", "2plus"):
        m[f"search.freedom.{k}"] = c[f"search.freedom.{k}"]
    m.update({
        "search.witness_checks": witness_checks,
        "search.witness_check_s": witness_s,
        "linprog.calls": lp_calls,
        "linprog.self_s": lp_self,
        "linprog.ms_per_call": 1e3 * lp_self / lp_calls if lp_calls else 0.0,
        "linprog.feasible_ratio": c["linprog.feasible"] / lp_calls if lp_calls else 0.0,
        "polynomial.restrict_calls": count["polynomial.restrict_to_hyperplane"],
        "polynomial.restrict_terms": c["polynomial.restrict_terms"],
        "polynomial.restrict_s": self_s["polynomial.restrict_to_hyperplane"],
        "polynomial.numeric_calls": count["polynomial.check_sphere_numeric"],
        "polynomial.numeric_s": self_s["polynomial.check_sphere_numeric"],
        "polynomial.self_s": layer_self["polynomial"],
        "families.f_calls": count["families.f"],
        "families.f_s": self_s["families.f"],
        "families.self_s": layer_self["families"],
        "constructions.calls": sum(v for k, v in count.items()
                                   if k.startswith("constructions.")),
        "constructions.self_s": layer_self["constructions"],
        "gaps.calls": sum(v for k, v in count.items() if k.startswith("gaps.")),
        "gaps.self_s": layer_self["gaps"],
        "cli.commands": count["cli.main"],
        "cli.self_s": layer_self["cli"],
        "trace.wall_s": wall,
        "trace.remainder_s": remainder,
    })
    return m

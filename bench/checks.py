"""Output checks against the recorded reference (``reference.json``).

Each operation of a pass is one attempted check.  It fails when its output
differs from the reference or is missing.  Polytope witnesses of the
enumerate workload are not pinned, because a different exact LP may return
a different vertex; they are re-verified here with an independent exact
test instead of sharpmap's own.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def is_sharp_2var(poly: dict, degree: int, terms: int) -> bool:
    """Independent check: positive coefficients, p(x, 1-x) == 1, given size.

    Expands sum c x^a (1-x)^b with exact Fractions; shares no code with
    sharpmap.
    """
    if poly.get("nvars") != 2 or len(poly["terms"]) != terms:
        return False
    parsed = [(tuple(t["exp"]), Fraction(t["coeff"])) for t in poly["terms"]]
    if any(c <= 0 for _, c in parsed):
        return False
    if max(a + b for (a, b), _ in parsed) != degree:
        return False
    line = [Fraction(0)] * (degree + 1)
    for (a, b), c in parsed:
        for j in range(b + 1):
            line[a + j] += (-1) ** j * math.comb(b, j) * c
    return line[0] == 1 and not any(line[1:])


def _key(support) -> tuple:
    return tuple(tuple(m) for m in support)


def _enumerate_ok(out: dict, ref: dict, degree: int, terms: int) -> bool:
    if not out.get("exhaustive"):
        return False
    expected = {(_key(w["support"]), w["freedom"]): w["poly"] for w in ref["witnesses"]}
    got = {(_key(w["support"]), w["freedom"]): w["poly"] for w in out["witnesses"]}
    if len(got) != len(out["witnesses"]) or got.keys() != expected.keys():
        return False
    for (support, freedom), poly in got.items():
        if freedom == 0:
            if poly != expected[(support, freedom)]:
                return False
        elif not (is_sharp_2var(poly, degree, terms)
                  and _key(t["exp"] for t in poly["terms"]) == support):
            return False
    return True


def _op_ok(workload: str, out: dict, ref: dict) -> bool:
    if workload == "certify":
        return all(out.get(k) == ref[k] for k in
                   ("status", "min_terms", "class_count", "witnesses"))
    if workload == "enumerate":
        degree, terms = map(int, out["op"].split()[1:])
        return _enumerate_ok(out, ref, degree, terms)
    return all(out.get(k) == v for k, v in ref.items())


def check_pass(workload: str, expected_ops: list[str], outputs: list[dict],
               reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for one pass's outputs.

    Every expected op must appear exactly once and match its reference; an
    output for an op that was not expected also counts as a failure.
    """
    refs = reference[workload]
    by_op: dict[str, list[dict]] = {}
    for out in outputs:
        by_op.setdefault(out["op"], []).append(out)
    failed, messages = 0, []
    for op in expected_ops:
        got = by_op.pop(op, [])
        if len(got) != 1 or not _op_ok(workload, got[0], refs[op]):
            failed += 1
            messages.append(f"{workload}: output of '{op}' does not match the reference")
    for op in by_op:
        failed += 1
        messages.append(f"{workload}: unexpected output for '{op}'")
    return len(expected_ops), failed, messages

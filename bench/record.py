"""Record ``reference.json`` from the program at the current commit.

    python3 bench/record.py [certify|enumerate|construct ...] [--degrees D ...]

Runs one plain pass per named workload (all three by default) and stores
its outputs as the reference.  Before anything is written, the certify
results are compared with the paper's uniqueness table and every witness
is re-verified with the independent exact test in ``checks.py``.  Only
re-record when an output change is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from checks import REFERENCE, is_sharp_2var
from run import Runner

# d -> (status, min_terms, class_count)
UNIQUENESS_TABLE = {
    1: ("unique", 2, 1),
    2: ("fails", 3, 2),
    3: ("unique", 3, 1),
    4: ("fails", 4, 2),
    5: ("unique_up_to_equivalence", 4, 1),
    6: ("fails", 5, 5),
    7: ("fails", 5, 3),
    8: ("fails", 6, 12),
    9: ("unique_up_to_equivalence", 6, 1),
}


def _certify(out: dict) -> dict:
    d = int(out["op"].split()[1])
    row = (out["status"], out["min_terms"], out["class_count"])
    if row != UNIQUENESS_TABLE[d]:
        raise AssertionError(f"certify {d}: {row} != {UNIQUENESS_TABLE[d]}")
    if not all(is_sharp_2var(p, d, out["min_terms"]) for p in out["witnesses"]):
        raise AssertionError(f"certify {d}: a witness fails the independent check")
    return {k: out[k] for k in ("status", "min_terms", "class_count", "witnesses")}


def _enumerate(out: dict) -> dict:
    degree, terms = map(int, out["op"].split()[1:])
    if not out["exhaustive"]:
        raise AssertionError(f"{out['op']}: not exhaustive")
    witnesses = []
    for w in out["witnesses"]:
        if not is_sharp_2var(w["poly"], degree, terms):
            raise AssertionError(f"{out['op']}: witness {w['support']} fails")
        # polytope witnesses are checked, not pinned
        witnesses.append(dict(w, poly=w["poly"] if w["freedom"] == 0 else None))
    return {"witnesses": witnesses}


def _construct(out: dict) -> dict:
    if out.get("exit", 0) != 0 or out.get("value") is False:
        raise AssertionError(f"{out['op']}: failed")
    return {k: v for k, v in out.items() if k in ("exit", "sha256", "value")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=["certify", "enumerate", "construct"])
    parser.add_argument("--degrees", type=int, nargs="+", default=None)
    args = parser.parse_args(argv)
    reference = {}
    if REFERENCE.exists():
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    runner = Runner(deadline=time.monotonic() + 3600)
    convert = {"certify": _certify, "enumerate": _enumerate, "construct": _construct}
    for workload in args.workloads:
        res, _ = runner.worker(workload, 0, "plain", args.degrees)
        # certify degrees are recorded one run at a time and kept
        entries = reference.get(workload, {}) if workload == "certify" else {}
        for out in res["outputs"]:
            entries[out["op"]] = convert[workload](out)
        reference[workload] = dict(sorted(entries.items()))
        print(f"{workload}: {len(res['outputs'])} outputs recorded", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

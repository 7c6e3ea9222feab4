"""Opt-in, one-off traced run of uniqueness_status(d); not a benchmark workload.

    python3 bench/baseline.py [--degree 9]

Runs one traced one-shard certify pass at a single degree (about four
minutes for d = 9 on one core), checks its output against the reference,
and prints the per-layer split next to the ROADMAP baseline, which was
measured by stubbing layers out by hand.  For d = 9 it fails unless the
search solves 1,175,466 supports and makes 8,141 LP calls, as the ROADMAP
records.
"""

from __future__ import annotations

import argparse
import sys
import time

from checks import check_pass, load_reference
from run import PER_LAYER, Runner, fmt

# ROADMAP "Baseline" for d = 9: seconds per stage with later stages stubbed
ROADMAP_D9 = {"search.enum_self_s": 18.0, "search.elim_self_s": 54.0,
              "linprog.self_s": 106.0}
ROADMAP_D9_COUNTS = {"search.solved": 1_175_466, "linprog.calls": 8_141}
STAGES = [("enumeration and pruning", "search.enum_self_s"),
          ("integer elimination", "search.elim_self_s"),
          ("rational simplex", "linprog.self_s"),
          ("witness checks", "search.witness_check_s"),
          ("untraced remainder", "trace.remainder_s")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degree", type=int, default=9)
    args = parser.parse_args(argv)
    d = args.degree
    res, _ = Runner(time.monotonic() + 3600).worker("certify", 0, "traced", [d])
    _, failed, messages = check_pass("certify", [f"certify {d}"],
                                     res.pop("outputs"), load_reference())
    if "trace_error" in res:
        messages.append(res["trace_error"])
    layers = res.get("layers", {})
    units = {n: u for n, u, _ in PER_LAYER}
    for name in units:
        if name in layers:
            print(f"certify({d}) {name} = {fmt(layers[name])} {units[name]}")
    wall = layers.get("trace.wall_s", float("nan"))
    print(f"\nstage split of the traced d = {d} pass ({wall:.1f} s):")
    for label, key in STAGES:
        value = layers.get(key, float("nan"))
        roadmap = f"{ROADMAP_D9[key]:7.1f} s" if d == 9 and key in ROADMAP_D9 else "      -"
        print(f"  {label:26s} {value:7.1f} s  {100 * value / wall:5.1f} %   ROADMAP {roadmap}")
    if d == 9:
        for key, expected in ROADMAP_D9_COUNTS.items():
            if layers.get(key) != expected:
                messages.append(f"{key} = {layers.get(key)}, ROADMAP records {expected}")
    for msg in messages:
        print(f"CHECK FAILED: {msg}")
    return 1 if failed or messages else 0


if __name__ == "__main__":
    sys.exit(main())

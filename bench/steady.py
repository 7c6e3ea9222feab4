"""Steadiness check: repeated runs of the same code must agree.

    python3 bench/steady.py [--workloads certify ...] [--runs 10] [--sets 2]

For each workload, runs ``--sets`` sets of ``--runs`` untraced runs, each
with another seed, plus one traced run per set.  For every end-to-end
metric it prints the spread of each set (distance between the first and
third quartile, as a share of the median) and how far the last set's median
moved from the first's.  It fails if a spread or a move exceeds the
metric's bound, or if a per-layer count differs between the traced runs.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import END_TO_END, PER_LAYER, WORKLOADS, run, spec


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    args = parser.parse_args(argv)
    counts = [n for n, u, _ in PER_LAYER if u == "count"]
    ok = True
    for workload in args.workloads:
        sets, traced = [], []
        for s in range(args.sets):
            results = [run(workload, 1000 * s + i, args.seconds, False)
                       for i in range(args.runs)]
            traced.append(run(workload, 1000 * s + args.runs, args.seconds, True))
            ok = ok and all(r["correct"] for r in results + traced[-1:])
            sets.append({n: [r["metrics"][n]["value"] for r in results]
                         for n, *_ in END_TO_END})
        for name, _, better, bound in END_TO_END:
            spreads = [spread(vals[name]) for vals in sets]
            medians = [statistics.median(vals[name]) for vals in sets]
            move = (medians[-1] - medians[0]) / medians[0]
            worse = move if better == "lower" else -move
            bad = worse > bound or max(spreads) > bound
            ok = ok and not bad
            print(f"{workload:9s} {name:14s} median {medians[0]:<10.5g} spreads "
                  + " ".join(f"{x:6.2%}" for x in spreads)
                  + f"  move {move:+6.2%}  bound {bound:.0%}"
                  + ("  FAIL" if bad else "  (spread < bound/3)"
                     if max(spreads) < bound / 3 else ""))
        for name in counts:
            values = {t["metrics"][name]["value"] for t in traced}
            if len(values) > 1:
                ok = False
                print(f"{workload:9s} count {name} differs between traced runs: {values}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

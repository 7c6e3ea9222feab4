"""sharpmap benchmark: certify / enumerate / construct, measured from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 bench/run.py --all [--seed N] [--seconds S]

Every pass runs in a fresh interpreter (``worker.py``), the way a CLI call
does, so module caches start cold.  A run repeats rounds until the next
round would end after ``--seconds``; at least one round always runs.  A
round is one one-shard pass; with ``--trace 1`` it also holds a traced
one-shard pass and, on the search workloads, a two-shard pass.  With
``--trace 0`` the run also times set-up-only interpreters between passes.
Every output is checked against ``reference.json``.  The last line of
stdout is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  ``--all`` runs every workload both ways, prints
every metric and rewrites ``BENCHMARK.json`` from the definitions below.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_pass, load_reference
from worker import certify_degrees

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = {
    "certify": "uniqueness certificates for d=1..7 on 1 and 2 shards: enumeration, "
               "elimination and simplex are all large; no LP call finds a positive point",
    "enumerate": "enumerate_sharp(6,6) on 1 and 2 shards: about 90% of the time is LP, "
                 "10 LP calls find polytopes, and 139 witnesses are checked",
    "construct": "445 CLI reports over the paper's constructions, q(1351) included: "
                 "big-integer restriction and float sphere checks, no search",
}

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better)
PER_LAYER = [
    ("search.candidates", "count", "lower"),
    ("search.pruned", "count", "lower"),
    ("search.solved", "count", "lower"),
    ("search.prune_ratio", "ratio", "lower"),
    ("search.enum_self_s", "s", "lower"),
    ("search.solve_calls", "count", "lower"),
    ("search.elim_self_s", "s", "lower"),
    ("search.elim_us_per_solve", "us", "lower"),
    ("search.out.infeasible_direct", "count", "lower"),
    ("search.out.lp_infeasible", "count", "lower"),
    ("search.out.point", "count", "higher"),
    ("search.out.polytope", "count", "higher"),
    ("search.freedom.0", "count", "higher"),
    ("search.freedom.1", "count", "higher"),
    ("search.freedom.2plus", "count", "higher"),
    ("search.witness_checks", "count", "lower"),
    ("search.witness_check_s", "s", "lower"),
    ("search.shard_efficiency", "ratio", "higher"),
    ("wall_2shard_s", "s", "lower"),
    ("linprog.calls", "count", "lower"),
    ("linprog.self_s", "s", "lower"),
    ("linprog.ms_per_call", "ms", "lower"),
    ("linprog.feasible_ratio", "ratio", "higher"),
    ("polynomial.restrict_calls", "count", "lower"),
    ("polynomial.restrict_terms", "count", "lower"),
    ("polynomial.restrict_s", "s", "lower"),
    ("polynomial.numeric_calls", "count", "lower"),
    ("polynomial.numeric_s", "s", "lower"),
    ("polynomial.self_s", "s", "lower"),
    ("families.f_calls", "count", "lower"),
    ("families.f_s", "s", "lower"),
    ("families.self_s", "s", "lower"),
    ("constructions.calls", "count", "lower"),
    ("constructions.self_s", "s", "lower"),
    ("gaps.calls", "count", "lower"),
    ("gaps.self_s", "s", "lower"),
    ("cli.commands", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]

# Set-up probes are spread evenly over the run, between passes: the
# machine's speed drifts over tens of seconds, and probes taken back to back
# sample a single moment of that drift.
SETUP_PROBES = 12
RUN_LIMIT_S = 170.0  # a pass still running then is killed: runs end within 180 s


class BenchError(RuntimeError):
    pass


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 40,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Runner:
    """Starts worker interpreters against the checkout's ``src``."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        path = str(ROOT / "src")
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")

    def worker(self, workload: str, seed: int, mode: str,
               degrees=None) -> tuple[dict, float]:
        argv = [sys.executable, str(BENCH / "worker.py"), workload,
                "--seed", str(seed), "--mode", mode]
        if degrees:
            argv += ["--degrees", *map(str, degrees)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload} {mode} pass did not finish in time")
        finally:
            # shard pools are children of the worker; none may outlive it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"{workload} {mode} pass exited {proc.returncode}: "
                             f"{err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1]), elapsed


def expected_ops(workload: str, reference: dict) -> list[str]:
    if workload == "certify":  # the reference also holds d = 8 and 9
        return [f"certify {d}" for d in certify_degrees()]
    return list(reference[workload])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and human-readable notes."""
    reference = load_reference()
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    setups: list[float] = []
    probes = 0 if trace else SETUP_PROBES

    def probe_setup(elapsed: float) -> None:
        due = min(probes, 1 + int(elapsed * probes / seconds))
        while len(setups) < due:
            setups.append(runner.worker(workload, seed, "setup")[1])

    modes = ["plain"]
    if trace:  # construct runs no search, so it has no two-shard pass
        modes += ["traced"] if workload == "construct" else ["shard2", "traced"]
    passes: dict[str, list[dict]] = {m: [] for m in modes}
    attempted = failed = 0
    messages: list[str] = []
    ops = expected_ops(workload, reference)
    start = time.perf_counter()
    probe_setup(0)
    while True:
        round_start = time.perf_counter()
        for mode in modes:
            res, _ = runner.worker(workload, seed, mode)
            probe_setup(time.perf_counter() - start)
            a, f, msgs = check_pass(workload, ops, res.pop("outputs"), reference)
            attempted, failed = attempted + a, failed + f
            messages += msgs
            if "trace_error" in res:
                messages.append(f"{workload}: {res['trace_error']}")
            passes[mode].append(res)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    probe_setup(seconds)

    plain_wall = statistics.median(p["wall_s"] for p in passes["plain"])
    notes = [f"{len(passes['plain'])} round(s), {len(setups)} set-up probes"]
    if not trace:
        metrics = {
            "wall_s": plain_wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes["plain"]),
        }
        units = {n: u for n, u, _, _ in END_TO_END}
    else:
        layers = [p["layers"] for p in passes["traced"] if "layers" in p]
        units = {n: u for n, u, _ in PER_LAYER}
        metrics = {}
        for name, unit, _ in PER_LAYER:
            values = [lay[name] for lay in layers if name in lay]
            if not values:
                continue
            if unit == "count" and len(set(values)) > 1:
                messages.append(f"{workload}: count {name} differs between "
                                f"traced passes: {values}")
            metrics[name] = statistics.median(values)
        if "shard2" in passes:
            shard2_wall = statistics.median(p["wall_s"] for p in passes["shard2"])
            metrics["wall_2shard_s"] = shard2_wall
            metrics["search.shard_efficiency"] = plain_wall / (2 * shard2_wall)
        traced_wall = statistics.median(p["wall_s"] for p in passes["traced"])
        metrics["trace_overhead_frac"] = traced_wall / plain_wall - 1
        op_ms = [t for p in passes["plain"] for t in p["op_ms"]]
        metrics["op_p50_ms"] = percentile(op_ms, 0.50)
        metrics["op_p95_ms"] = percentile(op_ms, 0.95)
        notes.append(f"op latencies: {len(op_ms)} samples from one-shard passes")
        notes.append(f"{len(layers)} traced pass(es); counts compared for equality")
        metrics = {n: metrics.get(n, 0) for n, _, _ in PER_LAYER}
    return {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "notes": notes,
        "messages": messages,
    }


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(workload: str, result: dict) -> None:
    for note in result["notes"]:
        print(f"# {workload}: {note}")
    for msg in result["messages"]:
        print(f"# {workload}: CHECK FAILED: {msg}")
    frac = result["failed"] / result["attempted"]
    print(f"{workload} failed_frac = {frac:.6g} ({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} = {fmt(m['value'])} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload traced and untraced, "
                             "then rewrite BENCHMARK.json")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not (ROOT / "src" / "sharpmap" / "__init__.py").is_file():
        print(f"error: no sharpmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if not args.all:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
            report(args.workload, result)
            print(json.dumps({k: result[k] for k in
                              ("correct", "attempted", "failed", "metrics")}))
            return 0
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run(workload, args.seed, args.seconds, trace)
                report(workload, result)
                ok = ok and result["correct"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
        json.dump(spec(), fh, indent=2)
        fh.write("\n")
    print("wrote BENCHMARK.json")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

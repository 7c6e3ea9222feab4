"""One pass of one workload, run in a fresh interpreter by ``run.py``.

    python3 bench/worker.py WORKLOAD --seed N --mode {setup,plain,shard2,traced}

``setup`` imports sharpmap, builds the inputs and exits.  The other modes
run the workload once (one shard, two shards, or one shard under the span
tracer) and print one JSON line with the pass wall time, per-operation
latencies, peak RSS and the outputs ``checks.py`` compares with the
reference.  ``--degrees`` replaces the certify degree list.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Every construction output except q(1351) is re-verified and mapped, and so
# are the family members up to degree 121.  Verifying and mapping the rest
# as well would add about 15 s to each construct pass, and a traced run of
# about 45 s holds an untraced and a traced pass.
VERIFY_MAX_DEGREE = 121
MAP_ARGS = ["--samples", "1000", "--seed", "1234"]
SIGNATURE_IMPOSSIBLE_ARGS = (1, 1, 4)  # 210 sign-flipped LP calls
_TIMING = re.compile(r',\n  "timing_seconds": [^\n]*')


def certify_degrees() -> list[int]:
    return list(range(1, 8))


def construct_chains() -> list[tuple[tuple[str, ...], int]]:
    """(generating argv, degree of the polynomial to verify and map, or 0)."""
    from sharpmap import gaps

    chains: list[tuple[tuple[str, ...], int]] = []
    chains += [(("construct", "q", "--degree", str(d)), d) for d in (97, 1351)]
    chains += [(("construct", "h", "--m", str(m)), 4 * m - 1) for m in range(2, 31)]
    chains += [(("construct", "mod6", "--k", str(k)), 6 * k + 1) for k in range(1, 21)]
    chains += [(("construct", "ratio4", "--r", "5", "--s", "1"), 11)]
    chains += [(("family", "f", "--degree", str(d)), d) for d in range(1, 202, 2)]
    chains += [(("family", "even", "--k", str(k)), 0) for k in range(1, 11)]
    chains += [(("pell", "--count", "20"), 0)]
    for n in range(2, 7):
        t = gaps.T(n)
        chains += [(("gaps", "witness", "--n", str(n), "--N", str(big_n)), 0)
                   for big_n in range(t, t + 2 * n + 1)]
        chains += [(("gaps", "table", "--n", str(n), "--to", str(t + 2 * n)), 0)]
    chains += [(("signature", "--recipe", r), 0) for r in gaps.SIGNATURE_RECIPES]
    chains += [(("signature_impossible",), 0)]
    return [(argv, d if d <= VERIFY_MAX_DEGREE else 0) for argv, d in chains]


def build_inputs(workload: str, seed: int, degrees=None) -> list:
    rng = random.Random(seed)
    if workload == "certify":
        ops = list(degrees or certify_degrees())
    elif workload == "enumerate":
        ops = [(6, 6)]
    elif workload == "construct":
        ops = construct_chains()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


# -- operations ------------------------------------------------------------------


def _certify(d: int, shards: int, record) -> None:
    from sharpmap import search

    t0 = time.perf_counter()
    r = search.uniqueness_status(d, shards=shards)
    record(time.perf_counter() - t0, {
        "op": f"certify {d}", "status": r.status, "min_terms": r.min_terms,
        "class_count": r.class_count,
        "witnesses": [p.to_json_dict() for p in r.certificate.representatives],
    })


def _enumerate(op, shards: int, record) -> None:
    from sharpmap import search

    degree, terms = op
    t0 = time.perf_counter()
    witnesses, exhaustive, _ = search.enumerate_sharp(degree, terms, shards=shards)
    record(time.perf_counter() - t0, {
        "op": f"enumerate {degree} {terms}", "exhaustive": exhaustive,
        "witnesses": [{"support": [list(m) for m in w.support.monomials],
                       "freedom": w.freedom,
                       "poly": w.polynomial.to_json_dict()} for w in witnesses],
    })


def _cli(argv: list[str], record) -> str:
    from sharpmap import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    text = out.getvalue()
    stripped = _TIMING.sub("", text, count=1)
    record(elapsed, {"op": " ".join(argv), "exit": code,
                     "sha256": hashlib.sha256(stripped.encode()).hexdigest(),
                     "bytes": len(text.encode())})
    return text


def _chain(chain, record) -> None:
    argv, degree = chain
    if argv == ("signature_impossible",):
        from sharpmap import gaps
        from sharpmap.polynomial import Signature

        plus, minus, max_degree = SIGNATURE_IMPOSSIBLE_ARGS
        t0 = time.perf_counter()
        value = gaps.signature_impossible(Signature(plus, minus), max_degree)
        record(time.perf_counter() - t0,
               {"op": f"signature_impossible {plus} {minus} {max_degree}",
                "value": value})
        return
    text = _cli(list(argv), record)
    if degree:
        name = "-".join(a.lstrip("-") for a in argv) + ".json"
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(json.loads(text)["outputs"]["poly"], fh)
        _cli(["verify", "--file", name], record)
        _cli(["map", "--file", name] + MAP_ARGS, record)


def run_pass(workload: str, ops: list, mode: str, tracer=None) -> dict:
    """Run every op once; returns wall time, op latencies and outputs."""
    latencies: list[float] = []
    outputs: list[dict] = []

    def record(seconds: float, output: dict) -> None:
        latencies.append(seconds)
        outputs.append(output)

    shards = 2 if mode == "shard2" else 1
    t0 = time.perf_counter()
    for op in ops:
        if workload == "certify":
            _certify(op, shards, record)
        elif workload == "enumerate":
            _enumerate(op, shards, record)
        else:
            _chain(op, record)
    wall = time.perf_counter() - t0
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"wall_s": wall, "op_ms": [1e3 * s for s in latencies],
              "rss_mb": rss_kb / 1024, "outputs": outputs}
    if tracer:
        from spans import layer_metrics

        try:
            layers = layer_metrics(tracer, wall)
        except AssertionError as exc:
            result["trace_error"] = str(exc)
        else:
            layers["cli.stdout_bytes"] = sum(o.get("bytes", 0) for o in outputs)
            result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("certify", "enumerate", "construct"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "plain", "shard2", "traced"))
    parser.add_argument("--degrees", type=int, nargs="+", default=None)
    args = parser.parse_args(argv)
    if args.mode == "shard2" and args.workload == "construct":
        parser.error("construct runs no search, so it has no two-shard pass")

    import sharpmap
    import sharpmap.cli  # noqa: F401  (setup covers every module a pass imports)

    src = (ROOT / "src").resolve()
    if src not in Path(sharpmap.__file__).resolve().parents:
        print(f"error: sharpmap imported from {sharpmap.__file__}, not {src}",
              file=sys.stderr)
        return 2
    ops = build_inputs(args.workload, args.seed, args.degrees)
    if args.mode == "setup":
        print(json.dumps({"ops": len(ops)}))
        return 0

    tracer = None
    if args.mode == "traced":
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        os.chdir(tmp)
        try:
            result = run_pass(args.workload, ops, args.mode, tracer)
        finally:
            os.chdir(ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

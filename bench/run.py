"""Benchmark for weylval: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload query --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, timed with tracing off; with
``--trace 1`` they are the per-layer numbers of a separate traced run.
Every time is in reference units (see yardstick.py).  A copy of the result,
with the raw wall-clock figures, is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_RUNS = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Set-up is what a user's process does before its first operation: import the
# package and load the descriptors.  Each child measures it once, then runs
# the reference loop so that the figure can be scaled like every other time.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import weylval
for data in {fixtures!r}:
    weylval.OmegaDescriptor.from_json(data)
elapsed = time.perf_counter() - start
sys.path.insert(0, {here!r})
import yardstick
loops = sorted(yardstick.loop_seconds() for _ in range(5))
print(elapsed, 4 * yardstick.NOMINAL_PASS_S / loops[2])
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("query", "tower", "convert"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(fixtures) -> tuple:
    """Median set-up time over SETUP_RUNS fresh interpreters: (ref s, raw s)."""
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), fixtures=list(fixtures.values()))
    ref, raw = [], []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-I", "-c", code],
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout.split()
        raw.append(float(out[0]))
        ref.append(float(out[0]) * float(out[1]))
    return statistics.median(ref), statistics.median(raw)


def timed_pass(workload, ops, descs, tracer=None):
    """Run every op once under the yardstick.

    Returns the outputs (None for an op that raised), the per-op latencies in
    reference seconds and in raw seconds, and the number of failed ops.
    """
    from yardstick import Yardstick

    state: dict = {}
    outputs, ref_lat, raw_lat = [], [], []
    failed = 0
    perf = time.perf_counter
    with Yardstick(tracer.pause if tracer is not None else None) as stick:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op()
            start = perf()
            try:
                out = workload.run(op, descs, state)
            except Exception as exc:  # an op that fails counts in `failed`
                print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                out = None
                failed += 1
            work, scale = stick.measure(start, perf())
            if tracer is not None:
                tracer.fold(scale)
            outputs.append(out)
            raw_lat.append(work)
            ref_lat.append(work * scale)
    return outputs, ref_lat, raw_lat, failed


def tail(latencies):
    """Highest ladder percentile with at least ten operations beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            rank = max(1, -(-n * p // 100))  # nearest rank
            return p, ordered[int(rank) - 1]
    return None, ordered[-1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "weylval" / "__init__.py").is_file():
        print(f"bench: no weylval package at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import weylval
    if Path(weylval.__file__).resolve().parent != (SRC / "weylval").resolve():
        print(f"bench: weylval imported from {weylval.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from checks import CHECKS
    from workloads import FIXTURES, WORKLOADS, load_descriptors, round_inputs

    workload = WORKLOADS[args.workload]
    setup_ref, setup_raw = measure_setup(FIXTURES)
    descs = load_descriptors()
    rounds = max(1, round(args.seconds / workload.round_ref_s))
    ops = [op for r in range(rounds) for op in round_inputs(workload, str(args.seed), r, descs)]
    warm = round_inputs(workload, str(args.seed), -1, descs)[: workload.warmup_ops]
    warm_state: dict = {}
    for op in warm:
        try:
            workload.run(op, descs, warm_state)
        except Exception:  # the timed pass counts and reports failures
            pass

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    wall_start = time.perf_counter()
    outputs, ref_lat, raw_lat, failed = timed_pass(workload, ops, descs, tracer)
    wall = time.perf_counter() - wall_start
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    done = [(op, out) for op, out in zip(ops, outputs) if out is not None]
    failures = CHECKS[args.workload]([o for o, _ in done], [x for _, x in done], descs)
    for message in failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    tail_p, tail_ref = tail(ref_lat)
    _, tail_raw = tail(raw_lat)
    ops_per_s = len(ops) / sum(ref_lat)
    end_to_end = {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ref_lat) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": tail_ref * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_ref, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "samples": len(ops),
        "tail_percentile": tail_p,
        "wall_s": wall,
        "raw": {
            "ops_per_s": len(ops) / sum(raw_lat),
            "op_p50_ms": statistics.median(raw_lat) * 1e3,
            "op_tail_ms": tail_raw * 1e3,
            "setup_s": setup_raw,
        },
    }
    if tracer is not None:
        metrics = layer_metrics(tracer, len(ops))
        info["traced_ops_per_s"] = ops_per_s
    else:
        metrics = end_to_end
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps({"info": info, **result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, attempted: int) -> dict:
    def count(value):
        return {"value": value, "unit": "count"}

    def ms(name):
        return {"value": tracer.self_ref_s[name] * 1e3, "unit": "ms"}

    calls = tracer.calls
    m = {}
    for name in (
        "evaluate.leading_data",
        "orderings.sign",
        "valuegroup.cmp",
        "expr.parse_expr",
        "weyl.mul",
        "weyl.pow",
        "descriptor.omega_element",
        "extension.resolve_gammas",
        "extension.omega_to_z",
        "series.z_eval",
        "series.shift_variable",
        "series.ore_mul",
        "series.puiseux_make",
    ):
        m[f"{name}.calls"] = count(calls[name])
        m[f"{name}.self_ms"] = ms(name)
    m["evaluate.leading_data.calls_per_element"] = {
        "value": calls["evaluate.leading_data"] / attempted,
        "unit": "calls/op",
    }
    m["weyl.mul.terms_out"] = count(tracer.terms_out)
    m["descriptor.omega_element.rebuilds"] = count(tracer.rebuilds)
    m["extension.omega_to_z.entries_out"] = count(tracer.entries_out)
    m["series.embed.self_ms"] = ms("series.embed")
    m["coeff.nth_root.calls"] = count(calls["coeff.nth_root"])
    return m


if __name__ == "__main__":
    sys.exit(main())

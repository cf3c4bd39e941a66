"""Steadiness check: two sets of runs of the same commit, compared.

    python3 bench/steady.py --runs 10 [--workloads query,tower] [--seconds N]

Run it from the root of a checkout.  For each workload it makes `--runs`
untraced runs with seeds 1..N (set A), then `--runs` more with seeds
N+1..2N (set B), one at a time.  For each end-to-end metric it prints both
medians, the quartiles, the spread (quartile distance over the median) and
whether it holds: the spread within the metric's bound (setup_s excepted),
set B's median no worse than set A's by more than the bound, and the same
share of failed operations in both sets.  Exit code 0 when everything holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(command, workload, seed, seconds) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="two sets of runs, compared")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    report = {}
    for workload in args.workloads.split(","):
        sets = []
        for first in (1, args.runs + 1):
            runs = []
            for seed in range(first, first + args.runs):
                result = one_run(spec["command"], workload, seed, args.seconds)
                print(workload, seed, json.dumps(result["metrics"]), file=sys.stderr)
                runs.append(result)
            sets.append(runs)
        report[workload] = sets
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        print(f"\n{workload}: correct={correct} failed share A={shares[0]:.6f} B={shares[1]:.6f}")
        ok &= correct and shares[0] == shares[1]
        print(f"{'metric':<13}{'median A':>12}{'q1 A':>12}{'q3 A':>12}{'spread A':>10}"
              f"{'median B':>12}{'spread B':>10}{'B vs A':>9}{'bound':>7}  holds")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r["metrics"][name]["value"] for r in s] for s in sets)
            ma, q1a, q3a, sa = summary(a)
            mb, _, _, sb = summary(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            holds = worse <= bound and (name == "setup_s" or max(sa, sb) <= bound)
            ok &= holds
            print(f"{name:<13}{ma:>12.5g}{q1a:>12.5g}{q3a:>12.5g}{sa:>10.3f}"
                  f"{mb:>12.5g}{sb:>10.3f}{worse:>+9.3f}{bound:>7.2f}  {'yes' if holds else 'NO'}")
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

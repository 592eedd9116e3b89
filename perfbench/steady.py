#!/usr/bin/env python3
"""Steadiness check: run every workload in two separate sets and compare.

    python3 perfbench/steady.py [--runs N] [--traced K]

Run from the root of a checkout. Each set runs every workload of
BENCHMARK.json N times (default 10) at its run_seconds, each run with its
own seed; set one uses seeds 1..N, set two N+1..2N. For every workload and
end-to-end metric it prints both sets' median and quartiles
(statistics.quantiles, n=4), the quartile spread as a share of the median,
and the shift of set two's median against set one's, both against the
metric's bound from BENCHMARK.json. A spread over the
bound or a shift worse than the bound is marked FAIL, as is a share of
failed operations that differs between the sets.

With --traced K it then makes K traced runs per workload and prints the
tracing overhead: the median of the traced end-to-end figures against set
one's medians.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"steady: {workload} seed {seed} produced wrong output")
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse(metric, a, b):
    """How much worse b is than a, as a share of a (negative: better)."""
    if metric["better"] == "higher":
        return (a - b) / a
    return (b - a) / a


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(2):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            sets.append([run(w, seed, seconds, False) for seed in seeds])
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in sets]
        print(f"\n{w}: {args.runs} runs per set, {seconds} s each, "
              f"failed share {shares[0]:.4f} / {shares[1]:.4f}")
        if shares[0] != shares[1]:
            ok = False
            print("  FAIL: failed shares differ")
        print(f"  {'metric':22} {'set':>3} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6} {'shift':>7}")
        medians = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for i, rs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in rs]
                q1, med, q3 = quartiles(vals)
                meds.append(med)
                spread = (q3 - q1) / med
                shift = worse(m, meds[0], med) if i == 1 else 0.0
                flag = ""
                if spread > bound:
                    flag = " FAIL spread"
                if shift > bound:
                    flag += " FAIL shift"
                ok = ok and not flag
                print(f"  {name:22} {i + 1:>3} {q1:12.5g} {med:12.5g} "
                      f"{q3:12.5g} {spread:7.2%} {bound:6.0%} {shift:+7.2%}"
                      f"{flag}")
            medians[name] = meds[0]
        traced = [run(w, 1000 + k, seconds, True) for k in range(args.traced)]
        for name in ("extract_events_per_s", "verify_events_per_s",
                     "ops_per_s"):
            if not traced:
                break
            med = statistics.median(
                r["metrics"]["traced." + name]["value"] for r in traced)
            print(f"  traced ({len(traced)} runs): {name} median {med:.5g} "
                  f"vs untraced {medians[name]:.5g} "
                  f"({med / medians[name] - 1:+.2%})")
    print("\nsteady: OK" if ok else "\nsteady: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code, made at
different times, compared metric by metric against BENCHMARK.json.

    python3 bench/steady.py

Run it from the root of an fdek checkout.  Each set makes RUNS runs of
every workload, each with another seed; the second set starts GAP_S
seconds after the first ends.  For each workload and end-to-end metric it
prints each set's median and quartiles, the spread (interquartile distance
over the median), and whether the two sets agree: every spread is within
the metric's bound, the two medians differ by no more than the bound in
either direction, and the share of failed operations is the same in both
sets.  The raw results are written to ``bench_out/``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

RUNS = 10
GAP_S = 120


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, started=started,
                  wall_s=time.time() - started)
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(bench: dict, sets: list[list[dict]]) -> bool:
    ok = True
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for w in [w["name"] for w in bench["workloads"]]:
        runs = [[r for r in s if r["workload"] == w] for s in sets]
        shares = [{r["failed"] / r["attempted"] for r in s} for s in runs]
        correct = all(r["correct"] for s in runs for r in s)
        print(f"\n{w}: {' + '.join(str(len(s)) for s in runs)} runs, all correct: {correct}, "
              f"failed share {' / '.join(sorted(f'{x:.6f}' for x in set().union(*shares)))}")
        ok &= correct and len(set().union(*shares)) == 1
        for name, spec in bounds.items():
            line = f"  {name:16s}"
            medians = []
            for s in runs:
                values = [r["metrics"][name]["value"] for r in s if name in r["metrics"]]
                if len(values) < 2:
                    line += "  (too few runs)"
                    continue
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2
                medians.append(q2)
                within = spread <= spec["bound"]
                ok &= within
                line += f"  median {q2:10.4f} [{q1:10.4f}, {q3:10.4f}] spread {spread:6.3f}" \
                        f"{'' if within else ' > bound'}"
            if len(medians) == 2:
                change = medians[1] / medians[0] - 1
                agree = abs(change) <= spec["bound"]
                ok &= agree
                line += f"  change {change:+.3f} (bound {spec['bound']}) {'agree' if agree else 'DISAGREE'}"
            print(line)
    print("\nsteady" if ok else "\nNOT steady")
    return ok


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    sets = []
    for k in range(2):
        if k:
            print(f"waiting {GAP_S} s before the second set", flush=True)
            time.sleep(GAP_S)
        results = []
        for w in names:
            for i in range(RUNS):
                seed = 1000 * (k + 1) + i
                results.append(run_once(bench, w, seed))
                r = results[-1]
                print(f"set {k + 1} {w} seed {seed}: {r['wall_s']:.1f} s, " + ", ".join(
                    f"{m} {v['value']:.4f}" for m, v in r["metrics"].items()), flush=True)
        sets.append(results)
    os.makedirs("bench_out", exist_ok=True)
    path = os.path.join("bench_out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sets, fh)
    print(f"raw results in {path}")
    return 0 if report(bench, sets) else 1


if __name__ == "__main__":
    sys.exit(main())

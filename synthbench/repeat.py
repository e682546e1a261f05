#!/usr/bin/env python3
"""Repeatability check of the synthesis benchmark.

    python3 synthbench/repeat.py [--runs 10] [--first-seed 1]
                                 [--workload W ...] [--trace 0|1]

Runs synthbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
for each workload, one run at a time, and prints for every metric the median
and the spread: the distance between the first and third quartile as a share
of the median, computed with statistics.quantiles(values, n=4) -- the rule
the benchmark's bounds in BENCHMARK.json are checked against. A spread
above the metric's bound marks the benchmark as unsteady on this host. It
also checks that every scenario that recurs across runs -- same family,
shape and refactoring details, at any jobs setting -- keeps one prog_hash.
The summary is written to .synthbench_out/repeat-<workload>-trace<t>.json;
the exit code is 0 when every run passed, every spread is within its bound
and no prog_hash differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    steady = True
    hashes = {}  # scenario -> (prog_hash, where it was first seen)

    for w in workloads:
        values, failures, elapsed = {}, [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            start = time.monotonic()
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed.append(time.monotonic() - start)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            if p.returncode != 0 or not res.get("correct"):
                failures.append(seed)
                sys.stderr.write(p.stderr[-2000:])
            for name, m in res.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
            report = ROOT / ".synthbench_out" / \
                f"report-{w}-seed{seed}-trace{args.trace}.json"
            if report.is_file():
                check_hashes(w, seed, json.loads(report.read_text()), hashes)
        print(f"{w}: {args.runs} runs, failed seeds {failures or 'none'}, "
              f"run.py took {min(elapsed):.1f}-{max(elapsed):.1f} s per run")
        summary = {"workload": w, "seeds": [args.first_seed, args.runs],
                   "failed_seeds": failures, "elapsed_s": elapsed,
                   "metrics": {}}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else (vals[0], None, vals[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name) if not args.trace else None
            verdict = ""
            if bound is not None:
                ok = spread <= bound
                steady &= ok
                verdict = (f"bound {bound:.2f}: "
                           f"{'ok' if spread <= bound / 3 else 'ok (> bound/3)' if ok else 'UNSTEADY'}")
            print(f"  {name:32s} median {med:<12.6g} spread {spread:7.3f}  {verdict}")
            summary["metrics"][name] = {"values": vals, "median": med,
                                        "spread": spread}
        steady &= not failures
        out = ROOT / ".synthbench_out" / f"repeat-{w}-trace{args.trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(summary, indent=1) + "\n")
    mismatches = [m for v in hashes.values() for m in v[2]]
    for m in mismatches:
        print(f"PROG_HASH MISMATCH: {m}")
    print(f"prog_hash: {len(hashes)} distinct scenarios, "
          f"{len(mismatches)} mismatches across runs and jobs")
    sys.exit(0 if steady and not mismatches else 1)


def check_hashes(workload, seed, report, hashes):
    """A scenario (same family, shape and refactoring details) must yield
    the same prog_hash in every run, at every jobs setting."""
    family = workload.removesuffix("-j4")
    for sc in report["result"].get("scenarios", []):
        key = (family, sc["name"], sc["attrs"], sc["renamed_attrs"],
               sc["added_attrs"])
        where = f"{workload} seed {seed} {sc['name']}"
        first = hashes.setdefault(key, (sc["prog_hash"], where, []))
        for h in (sc["prog_hash"], sc.get("jobs1_prog_hash", sc["prog_hash"])):
            if h != first[0]:
                first[2].append(f"{where}: {h} vs {first[0]} ({first[1]})")


if __name__ == "__main__":
    main()

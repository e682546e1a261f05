#!/usr/bin/env python3
"""Entry point of the synthesis benchmark.

    python3 synthbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the driver from source (CMake, into
$CARGO_TARGET_DIR/synthbench, default .bench_build/synthbench), runs one
workload in a fresh driver process, records provenance, and prints as its
last stdout line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1. The full report (provenance, per-scenario
results, checks) and, for traced runs, the span file are written under
.synthbench_out/. Exit code 0 only when every correctness check passed.
See synthbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["split-verify", "move-search", "split-verify-j4", "move-search-j4"]

# The whole run, build excluded, must end well inside 180 seconds.
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log(f"synthbench: {msg}")
    sys.exit(code)


def build_driver():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src").is_dir() or not (HERE / "CMakeLists.txt").is_file():
        die("library sources not found: run from a full checkout "
            "(src/ next to synthbench/)")
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    bdir = build_root / "synthbench"
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = [cmake, "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("cmake configure failed", 1)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = [cmake, "--build", str(bdir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed", 1)
    return bdir / "synthbench_driver"


def git(*args):
    p = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)
    return p.stdout if p.returncode == 0 else None


def tree_sha256():
    """Hash of every file the benchmark builds from or reads."""
    h = hashlib.sha256()
    files = [ROOT / "BENCHMARK.json"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes() + b"\0")
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(driver, args, jobs):
    """Where a report came from. A dirty tree is flagged and its tracked-file
    diff hashed, so a report never passes for the commit it names."""
    p = {"workload": args.workload, "seed": args.seed, "jobs": jobs,
         "seconds": args.seconds, "trace": args.trace}
    # Only the checkout's own repository counts, never an enclosing one.
    in_git = (ROOT / ".git").exists() and shutil.which("git")
    sha = git("rev-parse", "HEAD") if in_git else None
    if sha is not None:
        status = git("status", "--porcelain", "--untracked-files=no") or b""
        diff = git("diff", "HEAD", "--binary") or b""
        p["git_sha"] = sha.decode().strip()
        p["dirty"] = bool(status.strip())
        p["diff_sha256"] = hashlib.sha256(diff).hexdigest() if p["dirty"] else None
    else:
        p["git_sha"] = None
        p["dirty"] = None
        p["diff_sha256"] = None
    p["tree_sha256"] = tree_sha256()
    version = subprocess.run([str(driver), "--version"], capture_output=True,
                             text=True)
    p.update(json.loads(version.stdout.strip().splitlines()[-1]))
    p["nproc"] = os.cpu_count()
    p["affinity"] = sorted(os.sched_getaffinity(0))
    p["cpu_model"] = cpu_model()
    p["platform"] = platform.platform()
    p["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return p


def main():
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        die("BENCHMARK.json not found at the repository root")
    bench = json.loads(bench_file.read_text())

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="measured seconds (default: run_seconds of "
                         "BENCHMARK.json, which the bounds were set for)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    section = "per_layer" if args.trace else "end_to_end"
    declared = [m["name"] for m in bench[section]]

    driver = build_driver()
    out_dir = ROOT / ".synthbench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"driver did not finish within {DRIVER_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die(f"driver failed (exit {proc.returncode})", 1)
    res = json.loads(lines[-1])

    missing = [n for n in declared if n not in res["metrics"]]
    metrics = {n: res["metrics"][n] for n in declared if n in res["metrics"]}
    checks = list(res["checks"]) + [f"metric {n} not reported" for n in missing]
    correct = bool(res["correct"]) and not missing

    report = {"provenance": provenance(driver, args, res["jobs"]),
              "correct": correct, "checks": checks, "result": res}
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1) + "\n")

    prov = report["provenance"]
    state = ("not a git checkout" if prov["git_sha"] is None else
             f"{prov['git_sha'][:12]}{' DIRTY ' + prov['diff_sha256'][:12] if prov['dirty'] else ''}")
    print(f"synthbench {args.workload} seed={args.seed} jobs={res['jobs']} "
          f"trace={args.trace} | {state} | tree {prov['tree_sha256'][:12]} | "
          f"{prov['compiler']} | nproc {prov['nproc']} | {prov['cpu_model']}")
    for n, m in metrics.items():
        print(f"  {n:32s} {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac {res['failed']}/{res['attempted']} = "
          f"{res['failed_frac']:.3g}")
    if args.trace:
        print(f"  tracing overhead {100 * res['metrics']['trace.overhead_frac']['value']:+.1f}% "
              f"(re-driven pipeline vs untraced synthesize(), jobs=1)")
    for c in checks:
        print(f"  CHECK FAILED: {c}")
    print(f"  report: {(out_dir / name).relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

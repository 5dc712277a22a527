#!/usr/bin/env python3
"""End-to-end benchmark runner for the GDI-RMA reproduction.

Usage (from the repository root):

    python3 gdibench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 gdibench/run.py --workload all --seed N --seconds S [--trace 0|1]

Builds gdibench/ (with the library sources under src/) into .bench_build/
(or $CARGO_TARGET_DIR), then runs each workload in its own process. With
--trace 0 the last stdout line is one JSON object carrying every end-to-end
metric of BENCHMARK.json; with --trace 1 the workload runs twice, untraced
and traced, and the line carries every per-layer metric, including
trace.overhead.<metric> = traced / untraced for each end-to-end metric.
With one workload the exit code is 0 whenever that line is printed (a failed
check or a crashed run reads "correct": false) and non-zero when the build
fails. `--workload all` runs every workload and prints each one's metrics
under its own name with unit and clock; it exits non-zero if any check
failed or any run crashed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["oltp_linkbench", "olap_traverse", "wire_serve", "oltp_read_intensive"]
RUN_TIMEOUT_S = 170


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "gdibench")


def build():
    """Configure once, then an incremental build. Returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr,
                       stderr=sys.stderr)
    exe = os.path.join(out, "gdibench")
    return exe if r.returncode == 0 and os.path.exists(exe) else None


def run_once(exe, workload, seed, seconds, trace):
    """One workload process. Returns (parsed result or None, exit code,
    requests it planned to attempt)."""
    tmp = os.path.join(HERE, ".tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [exe, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--tmp", tmp]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, -1, 1
    result, planned = None, 1
    for line in p.stdout.splitlines():
        if line.startswith("GDIBENCH_RESULT "):
            result = json.loads(line[len("GDIBENCH_RESULT "):])
        elif line.startswith("GDIBENCH_PLAN "):
            planned = int(line.split()[1])
        else:
            print(line, flush=True)
    if p.returncode < 0:
        log(f"{workload}: killed by signal {-p.returncode}")
    return result, p.returncode, planned


def measure(exe, workload, seed, seconds, trace, spec):
    """Run one workload (untraced, then traced if asked). Returns the
    result object, whether every run was whole and correct, and the
    untraced run's parsed result (None if it crashed)."""
    runs = [run_once(exe, workload, seed, seconds, False)]
    if trace:
        runs.append(run_once(exe, workload, seed, seconds, True))
    results = [r for r, _, _ in runs]
    if any(r is None for r in results):
        # A crashed run counts every request it planned as failed; it is
        # never retried, re-seeded or shortened.
        attempted = sum(n if r is None else r["attempted"] for r, _, n in runs)
        return {"correct": False, "attempted": attempted, "failed": attempted,
                "metrics": {}}, False, results[0]
    base, last = results[0], results[-1]
    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            e = base["e2e"][m["name"]]
            metrics[m["name"]] = {"value": e["value"], "unit": m["unit"]}
    else:
        layer = dict(last["layer"])
        for m in spec["end_to_end"]:
            u, t = base["e2e"][m["name"]]["value"], last["e2e"][m["name"]]["value"]
            layer["trace.overhead." + m["name"]] = {"value": t / u if u else 0.0}
        for m in spec["per_layer"]:
            # A layer this workload does not exercise reads 0.
            v = layer.get(m["name"], {}).get("value", 0.0)
            metrics[m["name"]] = {"value": v if v is not None else 0.0, "unit": m["unit"]}
    ok = all(r["correct"] for r in results) and all(c == 0 for _, c, _ in runs)
    return {"correct": ok,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}, ok, base


def run_all(exe, seed, seconds, trace, spec):
    """Every workload in its own process; each metric by its own name."""
    all_ok = True
    rows = []
    for w in WORKLOADS:
        _, ok, base = measure(exe, w, seed, seconds, trace, spec)
        all_ok = all_ok and ok
        if base is None:
            rows.append((w, "(crashed)", "-", "-", "-", 0))
            continue
        for e in base["e2e"].values():
            v = "null" if e["shown"] is None else f"{e['shown']:.6g}"
            rows.append((w, e["name"], v, e["shown_unit"], e["clock"], e["samples"]))
    print("\n== summary (value, unit, clock, samples)")
    for w, name, v, unit, clock, n in rows:
        print(f"{w:20s} {name:38s} {v:>12s} {unit:6s} {clock:5s} n={n}")
    print("all checks passed" if all_ok else "SOME CHECK OR RUN FAILED")
    return 0 if all_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    a = ap.parse_args()
    if a.workload != "all" and a.workload not in WORKLOADS:
        log(f"unknown workload {a.workload}; one of {WORKLOADS} or all")
        return 2
    exe = build()
    if exe is None:
        log("build failed")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload == "all":
        return run_all(exe, a.seed, a.seconds, a.trace == 1, spec)
    out, _, _ = measure(exe, a.workload, a.seed, a.seconds, a.trace == 1, spec)
    # The verdict is the result's "correct"; a non-zero exit means no result.
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Host-wall benchmark of the solver stack: one command, every metric.

Run from the repository root:

    python3 perfbench/run.py --workload factor_grid2d --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the solver libraries it links, from ../src) into
.bench_build/perfbench on first use, runs one workload, checks its outputs
and prints a table of every metric with its unit and sample count. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with tracing
off; with --trace 1 they are the per-layer ones from a separate traced
loop. The full record (environment, every metric, raw sample counts) is
also written to .bench_out/<workload>-seed<N>-trace<T>.json, next to the
Chrome trace of the traced loop. The exit code is 0 only when every check
passed.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "th_perfbench")
WORKLOADS = ("factor_grid2d", "suite_sweep", "serve_mixed")
RUN_TIMEOUT_S = 170

with open(os.path.join(HERE, "metrics.json")) as f:
    SPEC = json.load(f)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ---- build ------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"solver sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-20000:])
            fail(f"build step failed: {' '.join(cmd)}", 3)


# ---- environment ------------------------------------------------------------

def source_digest():
    """sha256 over the solver and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return p.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(raw, args):
    env = dict(raw["env"])
    env.update({
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    })
    return env


# ---- reduction --------------------------------------------------------------

def pctl(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(round(q / 100.0 * len(s) + 0.5)) - 1))
    return s[k]


def reduce_metric(raw, spec, traced):
    """(value, sample count) of one metric from the raw run record."""
    samples, values = raw["samples"], raw["values"]
    src = spec.get("from", spec["name"])
    how = spec.get("reduce", "median")
    if src == "peak_rss_mib":
        return raw["peak_rss_mib"], 1
    if src == "error_rate":
        return raw["failed"] / max(1, raw["attempted"]), raw["attempted"]
    if src == "trace_overhead":
        return trace_overhead(raw), 2
    for key in ([f"traced:{src}"] if traced else []) + [src]:
        if samples.get(key):
            v = samples[key]
            if how == "median":
                return statistics.median(v), len(v)
            return pctl(v, float(how[1:])), len(v)
        if key in values:
            return values[key], int(values.get(f"n:{key}", 1))
    return 0.0, 0


# Operations each loop counts, for the traced-vs-untraced wall comparison.
OP_COUNT_KEY = {"factor_grid2d": "factor_s", "suite_sweep": "replay.tasks",
                "serve_mixed": "completed"}


def trace_overhead(raw):
    s, v = raw["samples"], raw["values"]
    key = OP_COUNT_KEY[raw["workload"]]
    n_off, n_on = len(s.get(key, [])), len(s.get(f"traced:{key}", []))
    if not (n_off and n_on and v.get("traced:loop_wall_s")):
        return 0.0
    return (v["traced:loop_wall_s"] / n_on) / (v["loop_wall_s"] / n_off)


# ---- main -------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "smoke"),
                    help="smoke: tiny inputs for the benchmark's own tests")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", OUT_DIR]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"th_perfbench exited {p.returncode}", 4)
    raw = json.loads(lines[-1])
    env = environment(raw, args)

    traced = bool(args.trace)
    checks = list(raw["errors"])

    gate = SPEC["per_layer" if traced else "end_to_end"]
    metrics, rows = {}, []
    for spec in gate:
        v, n = reduce_metric(raw, spec, traced)
        if v is None:  # the program printed a non-finite value
            checks.append(f"metric {spec['name']} is not finite")
            v = 0.0
        metrics[spec["name"]] = {"value": v, "unit": spec["unit"]}
        rows.append((spec["name"], v, spec["unit"], n))
    if not traced:
        for spec in gate:
            if not metrics[spec["name"]]["value"] > 0:
                checks.append(f"end-to-end metric {spec['name']} is not positive")
    report = []
    for spec in SPEC["report"].get(args.workload, []):
        v, n = reduce_metric(raw, spec, traced)
        report.append((spec["name"], 0.0 if v is None else v, spec["unit"], n))

    # ---- human-readable table -------------------------------------------
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size}")
    print("env: " + ", ".join(f"{k}={env[k]}" for k in (
        "git_rev", "source_sha256", "nproc", "cpu_model", "compiler",
        "build_type", "optimized")))
    if not env["optimized"]:
        banner = "WARNING: the measured build is NOT optimised; timings are meaningless"
        print(banner)
        print(banner, file=sys.stderr)
    print(f"{'metric':34s} {'value':>16s} {'unit':10s} samples")
    for title, table in (("workload metrics (tracing off)" if not traced else
                          "workload metrics (traced loop)", report),
                         ("gated metrics", rows)):
        print(f"-- {title}")
        for name, v, unit, n in table:
            print(f"{name:34s} {v:16.6g} {unit:10s} {n}")
    if traced:
        print("-- layer self times over the traced loop (s)")
        for k, v in sorted(raw["values"].items()):
            if k.startswith("self."):
                print(f"{k:34s} {v:16.6g}")
    print(f"attempted={raw['attempted']} failed={raw['failed']} "
          f"error_rate={raw['failed'] / max(1, raw['attempted']):.3g}")
    for c in checks[:20]:
        print(f"CHECK FAILED: {c}")

    record = {"env": env, "attempted": raw["attempted"], "failed": raw["failed"],
              "checks_failed": checks, "metrics": metrics,
              "report": {n: {"value": v, "unit": u, "samples": c}
                         for n, v, u, c in report},
              "values": raw["values"], "samples": raw["samples"]}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    correct = not checks
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

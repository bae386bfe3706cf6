#!/usr/bin/env python3
"""Repository benchmark for agsim: builds perfbench and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload report --seed 20151205 --seconds 25 --trace 0

Workloads are report, serve and observe (see DESIGN.md). With --trace 0 the
last stdout line is one JSON object holding every end-to-end metric listed in
BENCHMARK.json; with --trace 1 it holds every per-layer metric, from a traced
run (spans plus a CPU profile) that follows an untraced one. A diagnostics line
before it keeps the host figures of the run (CPU steal, GC count, set-up
samples, digest), so an outlier can be explained.

The exit code is 0 when every op succeeded and the outputs pass their checks,
1 otherwise: a failed op, a failed invariant, or a digest that differs from
perfbench/golden.json. The golden is compared when the run's seed and seconds
match it, or for any seed with --golden always (a second seed checked against
the default seed's golden must fail). --update-golden records the run's digest
as the workload's golden.

Everything is built and written under .bench_build/ in the repository root.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("report", "serve", "observe")
# Set-up samples per run: spawn-to-READY of this many set-up-only processes
# plus the measured run's own. Report's set-up is a few milliseconds of
# process start, so it takes more samples for a steady median.
SETUP_PROBES = {"report": 14, "serve": 4, "observe": 4}
# Every process this script starts must end within the run's budget.
DEADLINE_S = 170
BUILD_TIMEOUT_S = 850

# Packages folded into cpu_share.<pkg> from the CPU profile.
PROFILE_PKGS = (
    "chip", "power", "cpm", "dpll", "didt", "pdn", "vrm", "vf", "firmware",
    "workload", "server", "cluster", "core", "fleet", "traffic", "obs", "tsdb",
    "health", "amester", "arena", "parallel",
)
# Runtime functions whose flat samples are garbage-collector work: background
# and assist marking, scanning and sweeping.
GC_PREFIXES = (
    "runtime.gc", "runtime.scan", "runtime.markroot", "runtime.greyobject",
    "runtime.findObject", "runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.(*mspan)",
    "runtime.(*sweepLocked)", "runtime.bgsweep", "runtime.sweepone", "runtime.wbBuf",
    "runtime.bulkBarrier", "runtime.typePointers", "runtime.(*typePointers)",
    "runtime.spanOf", "runtime.heapBits",
)
AGSIM_FUNC = re.compile(r"^agsim/internal/([a-z0-9_]+)[.(/]")


def go_env():
    """Keeps the Go toolchain's caches and config inside the checkout."""
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    tmp = os.path.join(BUILD, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        PPROF_TMPDIR=tmp,
    )
    return env


def run_tool(args, cwd, timeout):
    """Runs a toolchain command to completion, failing the benchmark if it fails."""
    try:
        p = subprocess.run(args, cwd=cwd, env=go_env(), capture_output=True, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: {' '.join(args[:3])}: {e}")
    if p.returncode != 0:
        sys.exit(f"perfbench: {' '.join(args[:3])} failed:\n{p.stderr.strip()}")
    return p.stdout


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        sys.exit("perfbench: run from the root of an agsim checkout (go.mod and internal/ not found)")
    os.makedirs(BUILD, exist_ok=True)
    run_tool(["go", "build", "-o", BIN, "."], BENCH_DIR, BUILD_TIMEOUT_S)


class Child:
    """One perfbench process, timed from spawn to its READY line."""

    def __init__(self, args, deadline):
        self.deadline = deadline
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen([BIN] + args, stdout=subprocess.PIPE, text=True)
        self.setup_s = None
        self.lines = []

    def finish(self):
        """Reads the process's output to its end; returns its last line."""
        watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()), self.p.kill)
        watchdog.start()
        try:
            for line in self.p.stdout:
                if self.setup_s is None and line.strip() == "READY":
                    self.setup_s = time.perf_counter() - self.t0
                self.lines.append(line)
            self.p.wait()
        finally:
            watchdog.cancel()
            if self.p.poll() is None:
                self.p.kill()
                self.p.wait()
            self.p.stdout.close()
        if self.p.returncode != 0 or self.setup_s is None:
            sys.exit(f"perfbench: {' '.join(self.p.args[1:])} exited with {self.p.returncode}")
        if time.monotonic() > self.deadline:
            sys.exit("perfbench: run exceeded its time budget")
        return self.lines[-1] if self.lines else ""


def cpu_times():
    """Aggregate /proc/stat CPU times: (total, steal) in ticks."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7]


def steal_pct(before, after):
    if before is None or after is None or after[0] == before[0]:
        return 0.0
    return 100.0 * (after[1] - before[1]) / (after[0] - before[0])


def measured_run(args, extra, deadline):
    """Runs the workload once; returns (result, setup_s, steal_pct)."""
    s0 = cpu_times()
    c = Child(["-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds)] + extra, deadline)
    last = c.finish()
    s1 = cpu_times()
    try:
        res = json.loads(last)
    except json.JSONDecodeError:
        sys.exit(f"perfbench: no result line from the workload process: {last!r}")
    return res, c.setup_s, steal_pct(s0, s1)


def fold_profile(profile):
    """Folds a CPU profile's flat samples into cpu_share.<pkg> percentages."""
    out = run_tool(
        ["go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", BIN, profile],
        ROOT, 120,
    )
    scale = {"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0, "mins": 60.0, "hrs": 3600.0}
    folded = {}
    total = 0.0
    for line in out.splitlines():
        m = re.match(r"^\s*([\d.]+)(ns|us|µs|ms|s|mins|hrs)\s+[\d.]+%\s+[\d.]+%\s+[\d.]+\w+\s+[\d.]+%\s+(.+)$", line)
        if not m:
            continue
        flat = float(m.group(1)) * scale[m.group(2)]
        func = m.group(3).strip()
        total += flat
        key = None
        pkg = AGSIM_FUNC.match(func)
        if pkg and pkg.group(1) in PROFILE_PKGS:
            key = pkg.group(1)
        elif func == "runtime.duffcopy":
            key = "runtime_duffcopy"
        elif func.startswith(GC_PREFIXES):
            key = "runtime_gc"
        if key:
            folded[key] = folded.get(key, 0.0) + flat
    keys = PROFILE_PKGS + ("runtime_gc", "runtime_duffcopy")
    return {f"cpu_share.{k}": (100.0 * folded.get(k, 0.0) / total if total else 0.0) for k in keys}


def check_golden(args, digest, errors):
    try:
        with open(GOLDEN) as f:
            golden = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"golden file: {e}")
        return
    g = golden.get(args.workload)
    if args.update_golden:
        golden[args.workload] = {"seed": args.seed, "seconds": args.seconds, "digest": digest}
        with open(GOLDEN, "w") as f:
            json.dump(golden, f, indent=2, sort_keys=True)
            f.write("\n")
        return
    if g is None:
        errors.append(f"no golden digest for {args.workload}")
        return
    if args.golden == "always" or (g["seed"] == args.seed and g["seconds"] == args.seconds):
        if digest != g["digest"]:
            errors.append(f"digest {digest} != golden {g['digest']} (seed {g['seed']}, seconds {g['seconds']})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20151205)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", choices=("auto", "always"), default="auto")
    ap.add_argument("--update-golden", action="store_true")
    args = ap.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    build()
    deadline = time.monotonic() + DEADLINE_S

    res, setup_s, steal = measured_run(args, [], deadline)
    errors = list(res["errors"] or [])
    setups = [setup_s]
    diag = {"workload": args.workload, "seed": args.seed, "digest": res["digest"]}
    if args.trace:
        os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
        stem = os.path.join(BUILD, "trace", f"{args.workload}-{args.seed}")
        untraced_wall = res["metrics"]["wall_s"]
        res, _, steal = measured_run(
            args, ["-trace-out", stem + ".spans.json", "-cpuprofile", stem + ".cpu.pprof"], deadline)
        values = dict(res["metrics"])
        values.update(fold_profile(stem + ".cpu.pprof"))
        values["host.steal_pct"] = steal
        values["trace.overhead_pct"] = 100.0 * (values["wall_s"] / untraced_wall - 1)
        errors += res["errors"] or []
        metrics = spec["per_layer"]
        diag["spans"] = stem + ".spans.json"
    else:
        for _ in range(SETUP_PROBES[args.workload]):
            c = Child(["-workload", args.workload, "-seed", str(args.seed), "-setup-only"], deadline)
            c.finish()
            setups.append(c.setup_s)
        values = dict(res["metrics"])
        values["setup_s"] = statistics.median(setups)
        metrics = spec["end_to_end"]
        diag["setup_s_samples"] = setups
    diag["host.steal_pct"] = steal
    diag["unit_wall_s"] = res["unit_wall_s"]
    diag["unit_cpu_s"] = res["unit_cpu_s"]
    diag["runtime.gc_count"] = res["metrics"]["runtime.gc_count"]

    check_golden(args, res["digest"], errors)
    out = {}
    for m in metrics:
        v = values.get(m["name"], 0.0)
        out[m["name"]] = {"value": v, "unit": m["unit"]}
        if args.trace == 0 and not v > 0:
            errors.append(f"{m['name']} is {v}, not positive")
    correct = not errors and res["failed"] == 0
    diag["errors"] = errors
    print("diagnostics " + json.dumps(diag))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

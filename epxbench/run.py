#!/usr/bin/env python3
"""Build and run the epxbench benchmark (see README.md in this directory).

One run (what BENCHMARK.json's command does):
    python3 epxbench/run.py --workload flat8 --seed 7 --seconds 30 --trace 0

The simulator is compiled from the checkout's src/ into .bench_build/epxbench
(Release) before every run; an up-to-date build is a no-op. Build output goes
to stderr, so the last stdout line is the benchmark's JSON result. The exit
code is the benchmark's: 0 on success, 3 when a correctness check failed.

Other modes:
    python3 epxbench/run.py --self-test
        builds and runs normalise_test (the host-normalisation test).
    python3 epxbench/run.py --steadiness [--runs 5] [--seconds S]
        runs every workload --runs times in fresh processes, alternating the
        workload order, with a new seed each time; prints each end-to-end
        metric's median, quartiles and spread against BENCHMARK.json's bound,
        with the host's core count.

--seconds defaults to BENCHMARK.json's run_seconds, the length the bounds
were set for.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "epxbench")
WORKLOADS = ["flat8", "geo_fanin", "kv_split"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; False when it cannot."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("epxbench: no simulator sources (src/) next to this directory")
        return False
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            log("epxbench: build step failed: " + " ".join(cmd))
            return False
    return True


def run_binary(args, capture):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    cmd = [os.path.join(BUILD, "epxbench")] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("epxbench: run timed out after %d s" % RUN_TIMEOUT_S)
        return 124, None
    return done.returncode, done.stdout


def one_run(ns):
    args = ["--workload", ns.workload, "--seed", str(ns.seed), "--seconds", str(ns.seconds),
            "--trace", str(ns.trace)]
    if ns.trace == 1:
        args += ["--trace-out", os.path.join(BUILD, "trace-%s-%d.json" % (ns.workload, ns.seed))]
    code, _ = run_binary(args, capture=False)
    return code


def spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def bounds():
    return {m["name"]: m.get("bound") for m in spec().get("end_to_end", [])}


def steadiness(ns):
    values = {w: {} for w in WORKLOADS}
    for rep in range(ns.runs):
        order = WORKLOADS if rep % 2 == 0 else list(reversed(WORKLOADS))
        for w in order:
            seed = 1000 + rep
            code, out = run_binary(["--workload", w, "--seed", str(seed), "--seconds",
                                    str(ns.seconds), "--trace", "0"], capture=True)
            if code != 0:
                log("epxbench: %s seed %d failed with exit code %d" % (w, seed, code))
                return code
            result = json.loads(out.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            log("rep %d %s seed %d done" % (rep, w, seed))
    limit = bounds()
    report = {"host_cores": os.cpu_count(), "runs": ns.runs, "seconds": ns.seconds,
              "workloads": {}}
    print("host cores: %s   runs per workload: %d   seconds per run: %s"
          % (os.cpu_count(), ns.runs, ns.seconds))
    for w in WORKLOADS:
        print("== %s" % w)
        print("  %-18s %14s %14s %14s %8s %7s" % ("metric", "q1", "median", "q3", "spread",
                                                  "bound"))
        report["workloads"][w] = {}
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = limit.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            print("  %-18s %14.6g %14.6g %14.6g %7.2f%% %7s%s"
                  % (name, q1, med, q3, spread * 100,
                     "-" if bound is None else "%g%%" % (bound * 100), flag))
            report["workloads"][w][name] = {"values": vals, "q1": q1, "median": med, "q3": q3,
                                            "spread": spread, "bound": bound}
    with open(os.path.join(BUILD, "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=spec().get("run_seconds", 30))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=5)
    ns = p.parse_args()
    if not ns.self_test and not ns.steadiness and (ns.workload is None or ns.seed is None):
        p.error("--workload and --seed are required")
    if not build():
        return 2
    if ns.self_test:
        return subprocess.run([os.path.join(BUILD, "normalise_test")], check=False).returncode
    if ns.steadiness:
        return steadiness(ns)
    return one_run(ns)


if __name__ == "__main__":
    sys.exit(main())

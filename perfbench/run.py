#!/usr/bin/env python3
"""Benchmark of the NoC-DVFS simulator.

Builds the benchmark driver (driver.cpp linked against ../src) and runs one
named workload:

    python3 perfbench/run.py --workload sat_mesh16 --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (a traced run: prof=on iterations interleaved with
untraced ones). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

Other modes:

    --steady N          run the workload N times (seeds seed..seed+N-1, or
                        the same seed with --same-seed) and print each
                        metric's median, quartiles and spreads
    --record-digests S  record the output digests of seeds 0..S-1 of every
                        workload into digests.json (after an intended
                        change of the simulated behaviour)

See README.md for the workloads, the metrics and what each one measures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS_PATH = os.path.join(HERE, "digests.json")

# Fresh processes started per run to time set-up; setup_s is their median.
SETUP_PROCESSES = 15
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def load_digests():
    if not os.path.exists(DIGESTS_PATH):
        return {}
    with open(DIGESTS_PATH) as f:
        return json.load(f)["digests"]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure and build the driver; returns its path."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def driver_json(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("driver failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def setup_times(binary, workload, seed):
    times = []
    for _ in range(SETUP_PROCESSES):
        t0 = time.monotonic_ns()
        out = driver_json([binary, "setup", workload, str(seed), str(t0)], 60)
        times.append(out["setup_s"])
    return times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Inter-quartile range as a share of the median."""
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def measure(binary, workload, seed, seconds, trace):
    """One benchmark run. Returns (result, samples, info): result is the
    object printed as the last line, samples maps each timed metric to the
    values it is the median of, and info holds the digest, the failed
    checks and the exact counters of a traced run."""
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    setups = [] if trace else setup_times(binary, workload, seed)
    raw = driver_json([binary, "run", workload, str(seed), repr(float(seconds)),
                       "1" if trace else "0"], RUN_TIMEOUT_S)

    timed = [s for s in raw["samples"] if not s["warmup"]]
    untraced = [s for s in timed if not s["traced"]]
    traced = [s for s in timed if s["traced"]]
    attempted = sum(s["runs"] for s in raw["samples"])
    failed = sum(s["failed"] for s in raw["samples"])
    errors = [s["error"] for s in raw["samples"] if s["error"]]
    expected = load_digests().get(workload, {}).get(str(seed))
    if failed == 0 and expected is not None and raw["digest"] != expected:
        failed = attempted
        errors.append("digest %s != recorded %s for seed %d" % (raw["digest"], expected, seed))

    samples = {}
    if trace:
        for s in traced:
            for name, v in s["timed"].items():
                samples.setdefault(name, []).append(v)
        exact = traced[0]["exact"]
        walls_t = [s["wall_s"] for s in traced]
        walls_u = [s["wall_s"] for s in untraced]
        overhead = statistics.median(walls_t) / statistics.median(walls_u) - 1.0
        values = {}
        for m in wanted:
            name = m["name"]
            if name in samples:
                values[name] = statistics.median(samples[name])
            elif name == "obs.trace_overhead":
                values[name] = overhead
            else:
                values[name] = exact.get(name, 0.0)
    else:
        samples = {
            "setup_s": setups,
            "wall_s": [s["wall_s"] for s in untraced],
            "cpu_s": [s["cpu_s"] for s in untraced],
            "node_cycles_per_s": [s["node_cycles"] / s["wall_s"] for s in untraced],
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["peak_rss_mb"] = raw["peak_rss_mb"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    info = {"digest": raw["digest"], "errors": errors,
            "iterations": len(raw["samples"]), "exact": traced[0]["exact"] if traced else {}}
    return result, samples, info


def print_report(workload, seed, trace, result, samples, info):
    print("workload %s  seed %d  trace %d  iterations %d  digest %s" %
          (workload, seed, trace, info["iterations"], info["digest"]))
    print("%-26s %18s  %-6s %8s %4s" % ("metric", "median", "unit", "IQR/med", "n"))
    for name, m in result["metrics"].items():
        vals = samples.get(name, [])
        sp = "%7.2f%%" % (100 * spread(vals)) if len(vals) > 1 else "-"
        print("%-26s %18.9g  %-6s %8s %4d" % (name, m["value"], m["unit"], sp, len(vals)))
    attempted, failed = result["attempted"], result["failed"]
    print("runs %d, failed %d (failed_frac %.4f)" % (attempted, failed, failed / attempted))
    for e in info["errors"]:
        print("  FAILED: " + e)


def steady(binary, args):
    """Repeat the run and print, per metric, the median, quartiles, IQR share
    and max relative spread across runs."""
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    ok = True
    for i in range(args.steady):
        seed = args.seed if args.same_seed else args.seed + i
        result, _, info = measure(binary, args.workload, seed, args.seconds, args.trace)
        ok = ok and result["correct"]
        runs.append((result, info))
        print("run %d seed %d correct %s" % (i, seed, result["correct"]), file=sys.stderr)
    seeds = ("same seed" if args.same_seed else
             "seeds %d..%d" % (args.seed, args.seed + args.steady - 1))
    print("steadiness: workload %s, %d runs, trace %d, seconds %g, %s" %
          (args.workload, args.steady, args.trace, args.seconds, seeds))
    print("%-26s %14s %14s %14s %8s %8s %s" %
          ("metric", "median", "q1", "q3", "IQR/med", "max/med", "bound/3"))
    for name in runs[0][0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r, _ in runs]
        med = statistics.median(vals)
        q1, q3 = quartiles(vals)
        iqr = (q3 - q1) / med if med else 0.0
        mx = (max(vals) - min(vals)) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or args.trace else ("ok" if iqr < bound / 3 else "WIDE")
        print("%-26s %14.6g %14.6g %14.6g %7.2f%% %7.2f%% %s" %
              (name, med, q1, q3, 100 * iqr, 100 * mx, flag))
    if args.same_seed and args.trace:
        exact = [info["exact"] for _, info in runs]
        same = all(e == exact[0] for e in exact)
        print("exact counters identical across runs: %s" % same)
        ok = ok and same
    return 0 if ok else 1


def record_digests(binary, seeds):
    digests = {}
    for w in load_spec()["workloads"]:
        name = w["name"]
        digests[name] = {}
        for seed in range(seeds):
            raw = driver_json([binary, "run", name, str(seed), "0", "0"], RUN_TIMEOUT_S)
            bad = [s["error"] for s in raw["samples"] if s["failed"]]
            if bad:
                raise BenchError("%s seed %d fails its checks: %s" % (name, seed, bad[0]))
            digests[name][str(seed)] = raw["digest"]
            print("%s seed %d %s" % (name, seed, raw["digest"]), file=sys.stderr)
    with open(DIGESTS_PATH, "w") as f:
        json.dump({"default_seed": 1, "digests": digests}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--record-digests", type=int, default=0)
    args = ap.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.record_digests:
            return record_digests(build(), args.record_digests)
        if args.workload not in names:
            raise BenchError("--workload must be one of " + ", ".join(names))
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        binary = build()
        if args.steady:
            return steady(binary, args)
        result, samples, info = measure(binary, args.workload, args.seed, args.seconds,
                                        args.trace)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print_report(args.workload, args.seed, args.trace, result, samples, info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

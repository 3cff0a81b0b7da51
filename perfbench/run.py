#!/usr/bin/env python3
"""End-to-end benchmark of the C4 simulator.

Builds an optimized binary (perfbench/c4perfbench.cc, linked against the
repository's src/ libraries) in .bench_build/perfbench, then runs one
workload in a process of its own and prints its metrics, each with its
unit; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (the traced run). Usage:

    python3 perfbench/run.py --workload fig3_ladder --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --report [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest

--report runs every workload untraced and traced, each in its own
process, and prints the end-to-end table, the per-layer table and the
tracing overhead. --selftest runs a short version of each workload
twice on one seed and checks that heap_allocs and every per-layer count
repeat exactly, that the benchmark's own trial set-up computes what the
program's spec interpreter computes, and that another seed changes the
generated input. Both exit non-zero on any failed check.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "c4perfbench"

WORKLOADS = ("fig3_ladder", "churn_pod32", "failover_replay")

# c4perfbench gets this long beyond --seconds: a warm-up pass, the last
# pass, which may start just before the deadline, and teardown.
RUN_SLACK_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build c4perfbench; False on error."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no src/CMakeLists.txt next to perfbench/; "
            "the benchmark builds the program from source")
        return False
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and str(HERE) not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    steps = []
    if not cache.is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "c4perfbench", "--parallel", "2"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def run_binary(workload, seed, seconds, trace, extra=()):
    """Run one workload in its own process; its JSON line, or None."""
    cmd = [str(BINARY), workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def select_metrics(result, wanted):
    """The listed metrics, in order, or None if one is missing."""
    out = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("perfbench: metric %s missing from c4perfbench" % m["name"])
            return None
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def print_table(title, metrics):
    print(title)
    width = max((len(k) for k in metrics), default=0)
    for name, m in metrics.items():
        print("  %-*s %16.6g %s" % (width, name, m["value"], m["unit"]))


def print_outcome(result):
    print("  attempted %d, failed %d, passes %d, input %s"
          % (result["attempted"], result["failed"], result["passes"],
             result["input_hash"]))
    for err in result["errors"]:
        print("  FAILED: " + err)
    # Per-trial outputs are "<variant>.<trial>.<name>"; the first
    # trial's stand for the rest here, and the JSON carries them all.
    for name, value in result["outputs"].items():
        parts = name.split(".")
        if len(parts) == 3 and parts[1].isdigit() and parts[1] != "0":
            continue
        if not name.endswith("end_ns"):
            print("  output %s = %.6g" % (name, value))


def one_workload(args):
    bench = load_spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log("perfbench: unknown workload %r (have %s)"
            % (args.workload, ", ".join(names)))
        return 2
    if not build():
        return 1
    trace = 1 if args.trace == "1" else 0
    spans = BUILD / ("spans_%s_%d.jsonl" % (args.workload, args.seed))
    result = run_binary(args.workload, args.seed, args.seconds, trace,
                        ["--spans", str(spans)] if trace else [])
    if result is None:
        return 1
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = select_metrics(result, wanted)
    if metrics is None:
        return 1
    print("workload %s seed %d trace %d" % (args.workload, args.seed,
                                            trace))
    print_outcome(result)
    print_table("metrics:", metrics)
    print(json.dumps({"correct": result["failed"] == 0
                      and result["attempted"] > 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def report(args):
    bench = load_spec()
    if not build():
        return 1
    bad = False
    for workload in WORKLOADS:
        plain = run_binary(workload, args.seed, args.seconds, 0)
        traced = run_binary(workload, args.seed, args.seconds, 1)
        if plain is None or traced is None:
            bad = True
            continue
        print("== %s (seed %d, %g s per run)" % (workload, args.seed,
                                                  args.seconds))
        print_outcome(plain)
        end_to_end = select_metrics(plain, bench["end_to_end"])
        per_layer = select_metrics(traced, bench["per_layer"])
        print_table("end to end:", end_to_end or {})
        print_table("per layer (traced run):", per_layer or {})
        bad |= end_to_end is None or per_layer is None
        bad |= plain["failed"] > 0 or traced["failed"] > 0
        bad |= traced["attempted"] == 0 or plain["attempted"] == 0
    return 1 if bad else 0


def selftest(args):
    if not build():
        return 1
    ok = True

    def check(cond, what):
        nonlocal ok
        print(("ok    " if cond else "FAIL  ") + what)
        ok &= bool(cond)

    for workload in WORKLOADS:
        runs = [run_binary(workload, args.seed, 0, 1,
                           ["--short", "--crosscheck"]) for _ in range(2)]
        other = run_binary(workload, args.seed + 1, 0, 0, ["--short"])
        if None in runs or other is None:
            check(False, "%s: c4perfbench ran" % workload)
            continue
        a, b = runs
        check(a["failed"] == 0 and b["failed"] == 0,
              "%s: output checks pass, and trials match "
              "scenario::runSpecTrial where the workload is spec-driven %s"
              % (workload, a["errors"] + b["errors"]))
        counted = [k for k, m in a["metrics"].items()
                   if m["unit"] in ("count", "bytes", "ratio")]
        counted.append("heap_allocs")
        diff = [k for k in counted
                if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        check(not diff, "%s: heap_allocs and %d per-layer counts repeat "
              "exactly across processes %s" % (workload, len(counted) - 1,
                                               diff))
        check(a["outputs"] == b["outputs"],
              "%s: simulated outputs repeat exactly" % workload)
        check(a["input_hash"] != other["input_hash"],
              "%s: another seed changes the generated input" % workload)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.selftest:
        return selftest(args)
    if args.report:
        return report(args)
    if not args.workload:
        ap.error("--workload is required (or --report / --selftest)")
    return one_workload(args)


if __name__ == "__main__":
    sys.exit(main())

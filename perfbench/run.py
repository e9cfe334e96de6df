#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tune-gp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve-fleet --seed 1 --repeat 5
    python3 perfbench/run.py --self-test

One run builds the `perfbench` package next to this file and the
`mtm-serve` daemon from the workspace (release, offline, into
`$CARGO_TARGET_DIR`, default `.bench_build`), runs one workload and prints
a metadata line and then the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. The exit code is 0 only when every output check
passed. `--repeat K` runs the workload K times on seeds seed..seed+K-1 and
prints each metric's median, quartiles, quartile spread and max/min
ratio. `--self-test` runs the benchmark's own tests.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# A run must finish within 180 s; the build check comes first.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        ["cargo"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    return done.returncode == 0


def build():
    """Build the benchmark and the daemon; return their paths or None."""
    target = target_dir()
    steps = [
        ["build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "mtm-serve", "--bin", "mtm-serve"],
    ]
    for step in steps:
        try:
            if not cargo(step, target):
                log("build failed:", " ".join(step))
                return None
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build failed:", e)
            return None
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "mtm-serve")


def probe(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def declared(mode):
    with open(SPEC) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if mode else "end_to_end"]]


def validate(result, trace):
    """Problems with a result line, as a list of messages."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    names = list(result["metrics"])
    for name in names:
        if not NAME.match(name):
            problems.append("malformed metric name %r" % name)
    if sorted(names) != sorted(declared(trace)):
        problems.append("printed metrics differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        if sorted(metric) != ["unit", "value"]:
            problems.append("metric %s has keys %s" % (name, sorted(metric)))
    return problems


def run_once(binaries, workload, seed, seconds, trace, rustc, commit):
    """Run one workload; return (meta, result, ok) or None."""
    bench, serve = binaries
    work = os.path.join(HERE, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [
        bench, "--workload", workload, "--seed", str(seed % 2**64),
        "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work,
        "--serve-bin", serve, "--rustc", rustc, "--commit", commit,
    ]
    # Its own process group, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("run timed out")
        return None
    finally:
        try:
            os.rmdir(work)
        except OSError:
            pass
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        log("benchmark exited with", proc.returncode)
        return None
    try:
        meta = json.loads(lines[-2])["meta"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as e:
        log("unreadable result:", e)
        return None
    problems = validate(result, trace)
    for p in problems:
        log(p)
    ok = proc.returncode == 0 and not problems and result["correct"]
    result["correct"] = bool(result.get("correct")) and not problems
    return meta, result, ok


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(binaries, args, rustc, commit):
    runs = []
    for k in range(args.repeat):
        seed = args.seed + k
        done = run_once(binaries, args.workload, seed, args.seconds, args.trace, rustc, commit)
        if done is None or not done[2]:
            log("run on seed", seed, "failed")
            return 1
        runs.append(done[1]["metrics"])
        log("seed", seed, json.dumps({n: m["value"] for n, m in done[1]["metrics"].items()}))
    summary = {}
    print("%-34s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "iqr/med", "max/min"))
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("nan")
        lo, hi = min(values), max(values)
        ratio = hi / lo if lo else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "max_min": ratio}
        print("%-34s %12.6g %12.6g %12.6g %8.4f %8.3f" % (name, med, q1, q3, spread, ratio))
    print(json.dumps({"workload": args.workload, "runs": len(runs), "summary": summary}))
    return 0


def self_test():
    target = target_dir()
    ok = cargo(["test", "--release", "--offline", "--quiet",
                "--manifest-path", os.path.join(HERE, "Cargo.toml")], target)
    with open(SPEC) as f:
        spec = json.load(f)
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            if not NAME.match(metric["name"]):
                log("malformed name in BENCHMARK.json:", metric["name"])
                ok = False
    good = {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {n: {"value": 1.0, "unit": "s"} for n in declared(0)}}
    stray = dict(good, metrics=dict(good["metrics"], **{"bogus": {"value": 1.0, "unit": "s"}}))
    if validate(good, 0) or not validate(stray, 0):
        log("result validation misbehaves")
        ok = False
    log("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    binaries = build()
    if binaries is None:
        return 1
    rustc = probe(["rustc", "--version"])
    commit = probe(["git", "rev-parse", "HEAD"]) if os.path.exists(os.path.join(ROOT, ".git")) else "unknown"
    if args.repeat:
        return repeat(binaries, args, rustc, commit)
    done = run_once(binaries, args.workload, args.seed, args.seconds, args.trace, rustc, commit)
    if done is None:
        return 1
    meta, result, ok = done
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

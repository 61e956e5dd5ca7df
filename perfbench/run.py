#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark (see BENCHMARK.md here).

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run; the last stdout line is the result object.
  python3 perfbench/run.py --all [--seconds S] [--seed N]
      Every workload once: prints each end-to-end metric by name with its
      unit; exits 1 when any output check fails.
  python3 perfbench/run.py --steady K [--sets 2] [--workloads a,b]
      Steadiness: K runs per workload and set, each on its own seed (by
      default the workloads BENCHMARK.json gates). For
      every metric prints the median, quartiles and (q3 - q1) / median
      next to the bound in BENCHMARK.json, and with two sets whether the
      second median is within the bound of the first.
  python3 perfbench/run.py --selftest [--seconds S]
      Tamper self-test: corrupts each output check once and expects the
      run to report exactly one failed operation and exit non-zero.

The program is built from ../src with CMake into .bench_build/ at the
checkout root (Release).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
# Set-ups per untraced run, each in its own process; setup_s is their
# median. The last one is the measured run's own.
SETUPS = 5


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def workload_checks():
    """{workload: [tamper check, ...]} in the binary's order."""
    out = subprocess.run([str(BINARY), "--list"], capture_output=True,
                         text=True, check=True, timeout=10)
    rows = [json.loads(line) for line in out.stdout.splitlines()]
    return {row["workload"]: row["tampers"] for row in rows}


def commit_id():
    """HEAD of the checkout when it is a git work tree of its own, else
    $PERFBENCH_COMMIT, else "unknown"."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        pass
    return os.environ.get("PERFBENCH_COMMIT", "unknown")


def last_json(lines):
    """The result object on the last line, or None."""
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def setup_samples(workload, seed):
    """Set-up times of SETUPS - 1 set-up-only processes, comma-joined."""
    samples = []
    for _ in range(SETUPS - 1):
        proc = subprocess.run(
            [str(BINARY), "--workload", workload, "--seed", str(seed),
             "--setup-only", "1", "--out-dir", str(BUILD)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        result = last_json(proc.stdout.splitlines())
        if proc.returncode != 0 or result is None:
            raise RuntimeError(f"set-up of {workload} failed "
                               f"(exit {proc.returncode}):\n{proc.stderr}")
        samples.append(repr(result["metrics"]["setup_s"]["value"]))
    return ",".join(samples)


def run_once(workload, seed, seconds, trace, tamper=None, echo=False):
    """Runs the binary; returns (exit code, stdout lines, result or None,
    stderr)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(BUILD), "--commit", commit_id()]
    if tamper:
        cmd += ["--tamper", tamper]
    if not trace:
        cmd += ["--setup-samples", setup_samples(workload, seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, last_json(lines), proc.stderr


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def cmd_single(args):
    code, lines, result, _ = run_once(args.workload, args.seed, args.seconds,
                                      args.trace, args.tamper, echo=True)
    for line in lines:
        print(line)
    if result is None and code == 0:
        return 1
    return code


def cmd_all(args):
    bad = False
    for workload in workload_checks():
        code, _, result, err = run_once(workload, args.seed, args.seconds, 0)
        if result is None:
            print(f"{workload}: no result (exit {code})\n{err}")
            bad = True
            continue
        bad = bad or code != 0 or not result["correct"]
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:14s} {m['value']:14.6g} {m['unit']}")
    return 1 if bad else 0


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_steady(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    # values[set][workload][metric] -> list over runs
    values = []
    for s in range(args.sets):
        per_workload = {w: {} for w in workloads}
        for k in range(args.steady):
            seed = args.seed + s * args.steady + k
            for w in workloads:  # round-robin, so host drift hits all alike
                code, _, result, err = run_once(w, seed, seconds, 0)
                if code != 0 or result is None or not result["correct"]:
                    print(f"run failed: {w} seed {seed} exit {code}\n{err}")
                    return 1
                for name, m in result["metrics"].items():
                    per_workload[w].setdefault(name, []).append(m["value"])
                print(f"# set {s + 1} run {k + 1}/{args.steady} {w} seed {seed} "
                      + " ".join(f"{n}={m['value']:.6g}"
                                 for n, m in result["metrics"].items()),
                      flush=True)
        values.append(per_workload)
    worst = 0.0
    print(f"{'workload':13s} {'metric':28s} {'set':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s} {'ok':>4s}")
    for w in workloads:
        for name in values[0][w]:
            bound = bounds[name]
            medians = []
            for s in range(args.sets):
                q1, med, q3 = quartiles(values[s][w][name])
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                ok = ("yes" if spread <= bound / 3 else
                      "<b" if spread <= bound else "NO")
                worst = max(worst, spread / bound)
                print(f"{w:13s} {name:28s} {s + 1:3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {bound:>6} {ok:>4s}")
            if args.sets > 1:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if better[name] == "lower" else -change
                verdict = "ok" if worse <= bound else "WORSE"
                print(f"{'':13s} {name:28s} set 2 vs 1: {change:+.3f} "
                      f"({verdict}, bound {bound})")
    print(f"# largest spread / bound: {worst:.3f}")
    return 0


def cmd_selftest(args):
    bad = False
    for workload, tampers in workload_checks().items():
        for tamper in tampers:
            code, _, result, err = run_once(workload, args.seed, args.seconds,
                                            0, tamper)
            ok = (code != 0 and result is not None and not result["correct"]
                  and result["failed"] == 1)
            bad = bad or not ok
            detail = (f"exit {code}, failed {result['failed']}"
                      if result else f"exit {code}, no result")
            print(f"{workload:13s} tamper {tamper:15s} "
                  f"{'caught' if ok else 'NOT CAUGHT'} ({detail})")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tamper")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--steady", type=int, default=0)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.all or args.steady or args.selftest or args.workload):
        parser.error("give --workload, --all, --steady or --selftest")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        if args.steady:
            return cmd_steady(args)
        if args.seconds is None:
            args.seconds = 2.0 if args.selftest else load_spec()["run_seconds"]
        if args.all:
            return cmd_all(args)
        if args.selftest:
            return cmd_selftest(args)
        return cmd_single(args)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The end-to-end benchmark's one command (see bench/e2e/README.md).

Run from the repository root:

  python3 bench/e2e/run.py                  build, run every workload, print every metric
  python3 bench/e2e/run.py --smoke          every workload for ~2 s with the same checks
  python3 bench/e2e/run.py --workload W --seed S --seconds N --trace 0|1
                                            one workload; the last stdout line is its result
  python3 bench/e2e/run.py --out DIR ...    also save each result as DIR/<workload>.s<seed>.t<trace>.json

It builds the mcfuser library and bench_e2e into .bench_build/ (the
repository's own CMake configuration), runs each workload in a fresh
process, checks the metric names and units against BENCHMARK.json and
exits non-zero when any output check fails.  A traced run (--trace 1)
reports the per-layer metrics, 0 for a layer that did no such work on the
workload, and writes its Chrome trace to .bench_build/traces/.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench_e2e"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs]]
    if not (BUILD / "Makefile").exists():
        steps.insert(0, ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=bench_env()).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def bench_env():
    """Compiler temporaries (the jit's too) stay inside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def run_binary(args):
    """Runs bench_e2e in its own process group; kills the group on timeout."""
    proc = subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE,
                            env=bench_env(), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"bench_e2e {' '.join(args)} timed out")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"bench_e2e {' '.join(args)} printed no result "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1]), proc.returncode


def result_line(spec, raw, trace):
    """The result line: exactly the declared metric set for this mode."""
    declared = spec["per_layer" if trace else "end_to_end"]
    got = raw["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in declared})
    if unknown:
        raise BenchError("metrics not declared in BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for m in declared:
        name = m["name"]
        if name not in got:
            if not trace:
                raise BenchError(f"{raw['workload']}: end-to-end metric {name} missing")
            metrics[name] = {"value": 0, "unit": m["unit"]}
            continue
        value, unit = got[name]["value"], got[name]["unit"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"{raw['workload']}: {name} is not a finite number")
        if unit != m["unit"]:
            raise BenchError(f"{name}: unit {unit} != declared {m['unit']}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def run_workload(spec, workload, seed, seconds, trace, setup_reps, out_dir):
    scratch = BUILD / "run" / f"{workload}-{os.getpid()}"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--setup-reps", str(setup_reps),
            "--scratch", str(scratch)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-file", str(traces / f"{workload}-s{seed}.json")]
    try:
        raw, code = run_binary(args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = result_line(spec, raw, trace)
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        saved = dict(result, workload=workload, seed=seed, trace=trace,
                     finished_at=time.time())
        with open(Path(out_dir) / f"{workload}.s{seed}.t{trace}.json", "w") as f:
            json.dump(saved, f)
    ok = code == 0 and result["correct"] and result["failed"] == 0
    return result, ok


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="~2 s per workload and one set-up repetition")
    ap.add_argument("--out", help="directory to save each result JSON in")
    args = ap.parse_args()
    seconds = 2 if args.smoke else args.seconds
    setup_reps = 1 if args.smoke else 3

    try:
        build()
        if args.workload:
            result, ok = run_workload(spec, args.workload, args.seed, seconds,
                                      args.trace, setup_reps, args.out)
            print(json.dumps(result), flush=True)
            return 0 if ok else 1
        all_ok = True
        rows = []
        for w in names:
            result, ok = run_workload(spec, w, args.seed, seconds, args.trace,
                                      setup_reps, args.out)
            all_ok = all_ok and ok
            rows.append((w, "failed/attempted",
                         f"{result['failed']}/{result['attempted']}", ""))
            for name, m in result["metrics"].items():
                rows.append((w, name, f"{m['value']:.6g}", m["unit"]))
        for row in rows:
            print(f"{row[0]:<14} {row[1]:<32} {row[2]:>14} {row[3]}")
        print("all output checks passed" if all_ok else "OUTPUT CHECKS FAILED")
        return 0 if all_ok else 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

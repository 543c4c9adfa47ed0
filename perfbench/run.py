#!/usr/bin/env python3
"""Build and run the DPSS benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve_queries --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The Rust package in this directory is built in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`). With `--trace 0` the untraced
binary runs for the given seconds and the end-to-end metrics are printed.
With `--trace 1` the untraced and the traced binary each run for half the
seconds on the same seed, and the per-layer metrics are printed together with
the tracing overhead: how much faster the untraced run was. Every metric, its
unit, the host facts and the output checks are printed first, one per line;
the last line is one JSON object with the keys correct, attempted, failed and
metrics. `--workload all` runs every workload in turn, each ending with its
own JSON line, and exits with code 1 if any output check failed. See
GLOSSARY.md for the metrics.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml"), "--bins"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    return pathlib.Path(env["CARGO_TARGET_DIR"]) / "release"


def rustc_version(env):
    try:
        r = subprocess.run(["rustc", "--version"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=60)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_binary(binary, workload, args, seconds, extra, env):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(seconds)] + extra
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{binary.name} failed: {e}")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{binary.name} exited with code {r.returncode}")
    return json.loads(lines[-1])


def show(tag, result):
    """Prints every metric, fact and check of one binary run, one per line."""
    print(f"# {tag}: workload={result['workload']} seed={result['seed']}")
    for k, v in result["facts"].items():
        print(f"#   fact {k} = {v}")
    print(f"#   checks attempted={result['attempted']} failed={result['failed']}")
    for note in result["notes"]:
        print(f"#   check failed: {note}")
    for k, m in result["metrics"].items():
        print(f"#   {k} = {m['value']} {m['unit']}")
    if result["trace"]:
        for k, m in result["per_layer"].items():
            print(f"#   layer {k} = {m['value']} {m['unit']}")


def pick(source, names):
    """The named metrics from `source`, failing on any missing or non-finite."""
    out = {}
    for name in names:
        m = source.get(name)
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            fail(f"metric {name} missing or not finite: {m}")
        out[name] = {"value": m["value"], "unit": m["unit"]}
    return out


def run_workload(workload, args, spec, release, rustc, env):
    """Runs one workload, prints its report and result line; True iff correct."""
    if args.trace == 0:
        res = run_binary(release / "perfbench", workload, args, args.seconds, rustc, env)
        show("untraced", res)
        attempted, failed = res["attempted"], res["failed"]
        metrics = pick(res["metrics"], [m["name"] for m in spec["end_to_end"]])
    else:
        half = args.seconds / 2
        plain = run_binary(release / "perfbench", workload, args, half, rustc, env)
        out = pathlib.Path(env["CARGO_TARGET_DIR"]) / "perfbench-traces" / \
            f"{workload}-seed{args.seed}.tsv"
        traced = run_binary(release / "perfbench_traced", workload, args, half,
                            rustc + ["--trace-out", str(out)], env)
        show("untraced", plain)
        show("traced", traced)
        print(f"# spans written to {out}")
        layers = dict(traced["per_layer"])
        ratio = plain["metrics"]["ops_per_s"]["value"] / traced["metrics"]["ops_per_s"]["value"]
        layers["trace.overhead_ops_per_s"] = {"value": ratio - 1.0, "unit": "ratio"}
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        metrics = pick(layers, [m["name"] for m in spec["per_layer"]])
    for k, m in metrics.items():
        print(f"{workload} {k} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}), flush=True)
    return failed == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}")
    if not 0 < args.seconds <= 600:
        fail("--seconds must be in (0, 600]")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    env["CARGO_TARGET_DIR"] = str((ROOT / env["CARGO_TARGET_DIR"]).resolve())
    release = build(env)
    rustc = ["--rustc", rustc_version(env)]
    workloads = names if args.workload == "all" else [args.workload]
    ok = [run_workload(w, args, spec, release, rustc, env) for w in workloads]
    if args.workload == "all" and not all(ok):
        sys.exit(1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <rme_scale|scan_direct|htap_txn> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the benchmark package in
perfbench/ (release profile, offline) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; prints the toolchain and the enabled
features of every crate of the measured library; runs the workload; checks
that the result names every metric BENCHMARK.json lists for the mode, with
its unit; and prints the result as the last line of standard output. A
traced run also writes its spans to .bench_out/. Any other arguments are
passed to the benchmark binary (--tiny, --break-check).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "Cargo.toml"
# The benchmark itself must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo(args, env):
    return subprocess.run(
        ["cargo", *args, "--offline", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def print_build_info(env):
    """Prints the rustc version and each library crate's enabled features,
    so a removed feature is not mistaken for a speed-up."""
    rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True)
    print(f"# {rustc.stdout.strip()}")
    meta = cargo(["metadata", "--format-version", "1"], env)
    if meta.returncode != 0:
        fail("cargo metadata failed")
    data = json.loads(meta.stdout)
    names = {p["id"]: p["name"] for p in data["packages"]}
    for node in sorted(data["resolve"]["nodes"], key=lambda n: names[n["id"]]):
        features = ",".join(node["features"]) or "-"
        print(f"# features {names[node['id']]}: {features}")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"result is not JSON ({e}): {line!r}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected_metrics(trace)))}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args, extra = parser.parse_known_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    build = cargo(["build", "--release", "--quiet"], env)
    if build.returncode != 0:
        fail("building the benchmark failed")
    print_build_info(env)

    binary = Path(env["CARGO_TARGET_DIR"])
    if not binary.is_absolute():
        binary = ROOT / binary
    binary = binary / "release" / "relmem-perfbench"
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        *extra,
    ]
    if args.trace == "1":
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"
        cmd += ["--spans-out", str(spans)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark ran past {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"the benchmark exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("the benchmark printed no result")
    check_result(lines[-1], args.trace == "1")
    print(lines[-1])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root. For every workload and both modes it checks
that the result parses, that every metric BENCHMARK.json names is printed
with its unit and a finite value, and that every output check passes; that
a deliberately broken check is counted as failed; that a traced run writes
spans at every layer boundary, each with a valid parent; and that the
benchmark refuses an unknown workload and a directory that holds only
BENCHMARK.json and perfbench/. It also runs the package's unit tests.
Exits non-zero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON_SPANS = {
    "setup",
    "pass",
    "storage.fill",
    "probes",
    "probe.cache",
    "probe.dram.occupancy",
    "probe.dram.cycle_accurate",
    "probe.rme",
}
SPANS = {
    "rme_scale": {
        "storage.columnar",
        "core.register",
        "core.scan.row",
        "core.scan.columnar",
        "core.scan.rme_cold",
    },
    "scan_direct": {"storage.columnar", "core.scan.row", "core.scan.columnar"},
    "htap_txn": {"core.register", "core.run_workload", "core.run_open_loop"},
}


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [
        sys.executable,
        str(cwd / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", "0",
        "--trace", str(trace),
        *extra,
    ]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def result(workload, trace, *extra):
    run = bench(workload, trace, "--tiny", *extra)
    if run.returncode != 0:
        fail(f"{workload} trace={trace} exited {run.returncode}:\n{run.stderr}")
    return json.loads(run.stdout.strip().splitlines()[-1])


def check_metrics(workload, trace, res):
    want = SPEC["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    for m in want:
        entry = got.get(m["name"])
        if entry is None:
            fail(f"{workload} trace={trace}: metric {m['name']} missing")
        if entry.get("unit") != m["unit"]:
            fail(f"{workload}: {m['name']} has unit {entry.get('unit')}, want {m['unit']}")
        if not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            fail(f"{workload}: {m['name']} has a non-numeric value {entry.get('value')!r}")
    if len(got) != len(want):
        fail(f"{workload} trace={trace}: {len(got)} metrics printed, {len(want)} listed")
    if not trace:
        for name in ("setup_s", "run_s", "peak_rss_mb"):
            if got[name]["value"] <= 0:
                fail(f"{workload}: end-to-end metric {name} is not positive")


def check_spans(workload):
    path = ROOT / ".bench_out" / f"spans-{workload}-{SEED}.json"
    spans = json.loads(path.read_text())
    names = {s["name"] for s in spans}
    missing = (COMMON_SPANS | SPANS[workload]) - names
    if missing:
        fail(f"{workload}: no spans named {sorted(missing)}")
    for i, s in enumerate(spans):
        if s["id"] != i or s["end_ns"] < s["start_ns"]:
            fail(f"{workload}: malformed span {s}")
        parent = s["parent"]
        if parent is not None:
            p = spans[parent]
            if not (parent < i and p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"]):
                fail(f"{workload}: span {s} does not nest in its parent {p}")


def main():
    os.environ.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    unit = subprocess.run(
        ["cargo", "test", "--release", "--offline", "-q", "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT,
    )
    if unit.returncode != 0:
        fail("unit tests failed")

    for workload in SPANS:
        for trace in (0, 1):
            res = result(workload, trace)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(res)}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] > 0):
                fail(f"{workload} trace={trace}: output checks failed: {res}")
            check_metrics(workload, trace, res)
        check_spans(workload)
        broken = result(workload, 0, "--break-check")
        if broken["correct"] or broken["failed"] < 1:
            fail(f"{workload}: a broken check was not counted as failed: {broken}")
        print(f"selftest: {workload} ok ({res['attempted']} checks)")

    if bench("no_such_workload", 0).returncode == 0:
        fail("an unknown workload was accepted")

    # Without the rest of the repository there is nothing to build.
    lone = ROOT / ".bench_out" / "lone"
    shutil.rmtree(lone, ignore_errors=True)
    lone.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", lone)
    shutil.copytree(HERE, lone / "perfbench", ignore=shutil.ignore_patterns("target"))
    env_target = os.environ.pop("CARGO_TARGET_DIR")
    run = bench("rme_scale", 0, cwd=lone)
    os.environ["CARGO_TARGET_DIR"] = env_target
    shutil.rmtree(lone)
    if run.returncode == 0 or run.stdout.strip():
        fail("the benchmark ran without the repository")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()

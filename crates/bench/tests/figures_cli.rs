//! End-to-end checks of the `figures` binary's file output: an unwritable
//! `--out` or `--trace` path is a clean error, and `--out DIR --csv` writes
//! one text and one CSV file per experiment.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

/// A fresh directory under the target's scratch area, holding a regular
/// file `blocker`: any path below `blocker` can be neither created nor
/// written.
fn scratch(name: &str) -> (PathBuf, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    let blocker = dir.join("blocker");
    fs::write(&blocker, "").expect("create blocker file");
    (dir, blocker)
}

fn assert_clean_failure(out: &Output, path: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "expected failure, got {:?}",
        out.status
    );
    assert!(
        stderr.contains(path),
        "stderr does not name {path}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "figures panicked: {stderr}");
}

#[test]
fn unwritable_out_dir_is_a_clean_error() {
    let (_dir, blocker) = scratch("figures_cli_bad_out");
    let out_dir = blocker.join("figs");
    let out_dir = out_dir.to_str().expect("utf-8 path");
    let out = figures(&["--quick", "--out", out_dir, "table1"]);
    assert_clean_failure(&out, out_dir);
}

#[test]
fn unwritable_trace_path_is_a_clean_error() {
    let (_dir, blocker) = scratch("figures_cli_bad_trace");
    let trace = blocker.join("trace.json");
    let trace = trace.to_str().expect("utf-8 path");
    let out = figures(&["--quick", "--trace", trace, "fig_txn"]);
    assert_clean_failure(&out, trace);
}

#[test]
fn out_dir_with_csv_writes_text_and_csv() {
    let (dir, _blocker) = scratch("figures_cli_out");
    let out_dir = dir.join("figs");
    let out = figures(&[
        "--quick",
        "--out",
        out_dir.to_str().expect("utf-8 path"),
        "--csv",
        "table1",
    ]);
    assert!(out.status.success(), "figures failed: {out:?}");
    for file in ["table1.txt", "table1.csv"] {
        let body = fs::read_to_string(out_dir.join(file)).expect(file);
        assert!(!body.trim().is_empty(), "{file} is empty");
    }
}

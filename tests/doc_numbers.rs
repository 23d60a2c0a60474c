//! The figures README.md, docs/ARCHITECTURE.md and docs/FIGURES.md quote
//! from the committed `BENCH_scan_throughput*.json`, `BENCH_fig13.json`,
//! `BENCH_columnar_ff.json`, `BENCH_htap_memory_path.json`,
//! `BENCH_hash_queries.json`, `BENCH_setup.json`, `BENCH_rme_fetch.json`,
//! `BENCH_direct_step.json` and `BENCH_parallel_setup.json` records must
//! match those records.
//!
//! Each check names the record field, the document, and the text that
//! follows the quoted number there. A quoted figure passes when it is
//! within one unit of its last quoted digit of the recorded value (after
//! dividing out a quoted power of ten). Re-running a bench and committing
//! its record without updating the prose fails here.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A file of the repository with every whitespace run collapsed to one
/// space, so quoted phrases may wrap across lines.
fn read_flat(rel: &str) -> String {
    let path = root().join(rel);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The numeric value of top-level field `key` in a flat JSON record.
fn record_field(record: &Path, key: &str) -> f64 {
    let text = std::fs::read_to_string(record)
        .unwrap_or_else(|e| panic!("read {}: {e}", record.display()));
    let pattern = format!("\"{key}\":");
    let at = text
        .find(&pattern)
        .unwrap_or_else(|| panic!("{} has no field {key}", record.display()));
    let rest = text[at + pattern.len()..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{key} in {} is not a number: {e}", record.display()))
}

/// The number quoted in `doc` immediately before `follows`, as
/// `(value, one unit of its last digit)`.
fn quoted_before(doc: &str, follows: &str) -> (f64, f64) {
    let text = read_flat(doc);
    let mut matches = text.match_indices(follows);
    let (at, _) = matches
        .next()
        .unwrap_or_else(|| panic!("{doc} no longer contains {follows:?}"));
    assert!(
        matches.next().is_none(),
        "{follows:?} is ambiguous in {doc}"
    );
    let head = &text[..at];
    let start = head
        .trim_end_matches(|c: char| c.is_ascii_digit() || c == '.')
        .len();
    let digits = &head[start..];
    let value: f64 = digits
        .parse()
        .unwrap_or_else(|e| panic!("no number before {follows:?} in {doc}: {digits:?} ({e})"));
    let decimals = digits.split_once('.').map_or(0, |(_, frac)| frac.len());
    (value, 10f64.powi(-(decimals as i32)))
}

/// Asserts the figure quoted before `follows` in `doc` matches `key` of
/// `record` scaled down by `scale`.
fn check(doc: &str, follows: &str, record: &str, key: &str, scale: f64) {
    let (quoted, unit) = quoted_before(doc, follows);
    let recorded = record_field(&root().join(record), key) / scale;
    assert!(
        (quoted - recorded).abs() <= unit * (1.0 + 1e-9),
        "{doc} quotes {quoted} before {follows:?}, but {record} records {key} = {recorded} \
         (allowed ±{unit})"
    );
}

#[test]
fn readme_quotes_the_scan_throughput_record() {
    let record = "BENCH_scan_throughput.json";
    check(
        "README.md",
        "×10⁷ simulated field-accesses/s optimized",
        record,
        "optimized_fields_per_sec",
        1e7,
    );
    check(
        "README.md",
        "×10⁷ for the reference stepping",
        record,
        "reference_fields_per_sec",
        1e7,
    );
    check(
        "README.md",
        "×), with all simulated outputs",
        record,
        "speedup_vs_reference",
        1.0,
    );
}

#[test]
fn readme_quotes_the_fig13_record() {
    let record = "BENCH_fig13.json";
    check(
        "README.md",
        " s of wall time before the fast-forward",
        record,
        "parent_median_s",
        1.0,
    );
    check(
        "README.md",
        " s after it (medians of 7",
        record,
        "change_median_s",
        1.0,
    );
}

#[test]
fn readme_quotes_the_rme_fetch_record() {
    for (follows, key) in [
        (
            " ns to about 22 ns",
            "traced_rme_host_ns_per_descriptor_parent_median",
        ),
        (
            " ns, and `rme_scale` `run_s` from",
            "traced_rme_host_ns_per_descriptor_change_median",
        ),
        (" s to 0.148 s", "rme_scale_run_s_parent_median"),
        (
            " s (`BENCH_rme_fetch.json`, same VM)",
            "rme_scale_run_s_change_median",
        ),
    ] {
        check("README.md", follows, "BENCH_rme_fetch.json", key, 1.0);
    }
}

#[test]
fn readme_quotes_the_multicore_record() {
    check(
        "README.md",
        "× aggregate simulated throughput",
        "BENCH_scan_throughput.cores4.json",
        "aggregate_sim_throughput_scaling",
        1.0,
    );
}

#[test]
fn architecture_quotes_the_dram_model_record() {
    check(
        "docs/ARCHITECTURE.md",
        "× in the committed `BENCH_scan_throughput.ca.json`",
        "BENCH_scan_throughput.ca.json",
        "fidelity_wall_slowdown",
        1.0,
    );
}

#[test]
fn architecture_quotes_the_fig13_record() {
    let record = "BENCH_fig13.json";
    check(
        "docs/ARCHITECTURE.md",
        " s at the parent commit and",
        record,
        "parent_median_s",
        1.0,
    );
    check(
        "docs/ARCHITECTURE.md",
        " s with the fast-forward (medians",
        record,
        "change_median_s",
        1.0,
    );
}

#[test]
fn architecture_quotes_the_setup_record() {
    for (follows, key) in [
        (" s of set-up at the parent commit", "setup_s_parent_median"),
        (" s with the direct row kernel", "setup_s_change_median"),
        (" ns per row before", "traced_fill_ns_per_row_parent_median"),
        (" ns per row after", "traced_fill_ns_per_row_change_median"),
        (" s of host time before", "traced_columnar_s_parent_median"),
        (" s of host time after", "traced_columnar_s_change_median"),
        (" s on the parent and", "fig13_parent_median_s"),
        (" s on the change (medians", "fig13_change_median_s"),
    ] {
        check(
            "docs/ARCHITECTURE.md",
            follows,
            "BENCH_setup.json",
            key,
            1.0,
        );
    }
}

#[test]
fn architecture_quotes_the_parallel_setup_record() {
    for (follows, key) in [
        (
            " s with one set-up thread to",
            "rme_scale_setup_s_parent_median",
        ),
        (
            " s on the shared queue, winning",
            "rme_scale_setup_s_change_median",
        ),
        (" of the 10 pairs", "rme_scale_setup_s_change_wins"),
        (
            " s for the pinned parent",
            "pinned_rme_scale_setup_s_parent_median",
        ),
        (
            " s for the pinned change",
            "pinned_rme_scale_setup_s_change_median",
        ),
        (
            " s for the busy parent",
            "busy_rme_scale_setup_s_parent_median",
        ),
        (
            " s for the busy change",
            "busy_rme_scale_setup_s_change_median",
        ),
        (" s of fill time before", "traced_fill_s_parent_median"),
        (" s of fill time after", "traced_fill_s_change_median"),
        (" s of copy time before", "traced_columnar_s_parent_median"),
        (" s of copy time after", "traced_columnar_s_change_median"),
        (" s with one thread and", "fig13_parent_median_s"),
        (" s with the queue (medians", "fig13_change_median_s"),
    ] {
        check(
            "docs/ARCHITECTURE.md",
            follows,
            "BENCH_parallel_setup.json",
            key,
            1.0,
        );
    }
}

#[test]
fn readme_quotes_the_parallel_setup_record() {
    for (follows, key) in [
        (
            " s with one set-up thread to",
            "rme_scale_setup_s_parent_median",
        ),
        (
            " s with the queue (seed 4242",
            "rme_scale_setup_s_change_median",
        ),
        (" alternating 30 s pairs", "rme_scale_reps"),
    ] {
        check("README.md", follows, "BENCH_parallel_setup.json", key, 1.0);
    }
}

#[test]
fn architecture_quotes_the_columnar_fast_forward_record() {
    let record = "BENCH_columnar_ff.json";
    for (follows, key) in [
        (
            " s at the parent commit to",
            "run_s_seed4242_parent_median_s",
        ),
        (
            " s (seed 4242, 10 alternating",
            "run_s_seed4242_change_median_s",
        ),
        (" s to 0.058 s", "scan_columnar_s_seed4242_parent_median_s"),
        (
            " s (5 pairs; `BENCH_columnar_ff.json`)",
            "scan_columnar_s_seed4242_change_median_s",
        ),
    ] {
        check("docs/ARCHITECTURE.md", follows, record, key, 1.0);
    }
}

#[test]
fn figures_quotes_the_htap_memory_path_record() {
    let record = "BENCH_htap_memory_path.json";
    for (follows, key) in [
        (" µs at the default size and", "default_sync_max_us"),
        (" µs with `--quick`, against", "quick_sync_max_us"),
        (" µs on the current path", "default_event_max_us"),
        (" µs on the current path", "quick_event_max_us"),
        (" µs on both (", "default_sync_p50_us"),
        (" µs on both (", "default_event_p50_us"),
    ] {
        check("docs/FIGURES.md", follows, record, key, 1.0);
    }
}

#[test]
fn architecture_quotes_the_htap_memory_path_record() {
    let record = "BENCH_htap_memory_path.json";
    check(
        "docs/ARCHITECTURE.md",
        " µs, against 0.0910 µs here",
        record,
        "default_sync_max_us",
        1.0,
    );
    check(
        "docs/ARCHITECTURE.md",
        " µs here (`BENCH_htap_memory_path.json`)",
        record,
        "default_event_max_us",
        1.0,
    );
}

#[test]
fn architecture_quotes_the_hash_queries_record() {
    let record = "BENCH_hash_queries.json";
    for (follows, key) in [
        (" s (parent commit) to 0.893 s", "run_s_parent_median"),
        (" s, and peak RSS from", "run_s_change_median"),
        (" MB to 175.4 MB", "peak_rss_mb_parent_median"),
        (
            " MB, with every simulated counter",
            "peak_rss_mb_change_median",
        ),
    ] {
        check("docs/ARCHITECTURE.md", follows, record, key, 1.0);
    }
}

#[test]
fn architecture_quotes_the_rme_fetch_record() {
    for (follows, key) in [
        (
            " s at the parent commit of run booking",
            "rme_scale_run_s_parent_median",
        ),
        (
            " s with it, and the change won",
            "rme_scale_run_s_change_median",
        ),
        (" of 10 pairs", "rme_scale_run_s_change_wins"),
        (
            " ns per descriptor before",
            "traced_rme_host_ns_per_descriptor_parent_median",
        ),
        (
            " ns per descriptor after",
            "traced_rme_host_ns_per_descriptor_change_median",
        ),
        (
            " s of RME-cold scan before",
            "traced_core_scan_rme_cold_s_parent_median",
        ),
        (
            " s of RME-cold scan after",
            "traced_core_scan_rme_cold_s_change_median",
        ),
        (
            " s of `figures fig13` on the parent",
            "fig13_wall_s_parent_median",
        ),
        (
            " s of `figures fig13` on the change",
            "fig13_wall_s_change_median",
        ),
    ] {
        check(
            "docs/ARCHITECTURE.md",
            follows,
            "BENCH_rme_fetch.json",
            key,
            1.0,
        );
    }
}

#[test]
fn readme_quotes_the_direct_step_record() {
    for (follows, key) in [
        (
            " s to 0.369 s (seed 4242",
            "scan_direct_run_s_parent_median",
        ),
        (
            " s (seed 4242, 10 alternating pairs on a shared 2-vCPU VM, `BENCH_direct_step.json`)",
            "scan_direct_run_s_change_median",
        ),
    ] {
        check("README.md", follows, "BENCH_direct_step.json", key, 1.0);
    }
}

#[test]
fn architecture_quotes_the_direct_step_record() {
    for (follows, key) in [
        (
            " s at the parent commit of line blocks",
            "scan_direct_run_s_parent_median",
        ),
        (
            " s with them, and the change won",
            "scan_direct_run_s_change_median",
        ),
        (" pairs out of 10", "scan_direct_run_s_change_wins"),
        (
            " s of columnar scan before",
            "traced_core_scan_columnar_s_parent_median",
        ),
        (
            " s of columnar scan after",
            "traced_core_scan_columnar_s_change_median",
        ),
        (
            " ns per columnar field before",
            "traced_core_host_ns_per_field_columnar_parent_median",
        ),
        (
            " ns per columnar field after",
            "traced_core_host_ns_per_field_columnar_change_median",
        ),
        (
            " ms before and 27.9 ms",
            "traced_span_fastest_ms_q4_columnar_parent",
        ),
        (
            " ms after, and the Q5 row scan",
            "traced_span_fastest_ms_q4_columnar_change",
        ),
        (
            " ms before and 37.6 ms",
            "traced_span_fastest_ms_q5_row_parent",
        ),
        (
            " ms after; the Q0–Q4 row scans",
            "traced_span_fastest_ms_q5_row_change",
        ),
    ] {
        check(
            "docs/ARCHITECTURE.md",
            follows,
            "BENCH_direct_step.json",
            key,
            1.0,
        );
    }
}

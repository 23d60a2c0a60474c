//! Time-bucketed metrics derived from traces.
//!
//! The figure harnesses turn a recorded [`Trace`] into per-bucket
//! time-series ([`series_from_trace`]) — queue depth, in-flight ops,
//! abort rate, DRAM bank occupancy — rendered through the existing
//! [`crate::report::Series`]/[`crate::report::Table`] machinery
//! (`--timeseries`).

use std::collections::BTreeSet;

use crate::report::Series;
use crate::time::SimTime;
use crate::trace::{SpanStyle, Trace, TraceEventKind, Track};

/// Picks a bucket width giving roughly `target_buckets` buckets over the
/// trace, at least 1 ns.
pub fn default_bucket(trace: &Trace, target_buckets: u64) -> SimTime {
    let end = trace.end().as_picos().max(1);
    SimTime::from_picos((end / target_buckets.max(1)).max(1_000))
}

/// Derives per-bucket time-series from a recorded trace:
///
/// * `queue_depth_max` — deepest admission queue observed in the bucket
///   (from `OpAdmitted` payloads),
/// * `inflight_ops` — ops whose service span overlaps the bucket,
/// * `completed_ops` — op spans ending in the bucket,
/// * `shed_ops` — queue-full plus deadline sheds in the bucket,
/// * `abort_rate` — txn aborts over txn outcomes in the bucket (0 when no
///   txn finished),
/// * `bank_occupancy` — fraction of bucket × active-DRAM-banks covered by
///   read/write bursts.
///
/// X labels are the bucket start times in microseconds. Series whose
/// source events never occur are omitted, so figure tables stay compact.
pub fn series_from_trace(trace: &Trace, bucket: SimTime) -> Vec<Series> {
    let bucket_ps = bucket.as_picos().max(1);
    let end_ps = trace.end().as_picos();
    let n = (end_ps / bucket_ps + 1) as usize;
    let mut queue_depth = vec![0u64; n];
    let mut inflight = vec![0u64; n];
    let mut completed = vec![0u64; n];
    let mut shed = vec![0u64; n];
    let mut aborts = vec![0u64; n];
    let mut txn_outcomes = vec![0u64; n];
    let mut busy_ps = vec![0u64; n];
    let mut saw_admit = false;
    let mut saw_span = false;
    let mut saw_shed = false;
    let mut saw_txn = false;
    let mut dram_banks: BTreeSet<u32> = BTreeSet::new();

    for e in &trace.events {
        let b = (e.at.as_picos() / bucket_ps) as usize;
        match e.kind {
            TraceEventKind::OpAdmitted => {
                saw_admit = true;
                queue_depth[b] = queue_depth[b].max(e.arg1);
            }
            TraceEventKind::OpSpan => {
                saw_span = true;
                let last = (e.end().as_picos() / bucket_ps) as usize;
                for slot in &mut inflight[b..=last.min(n - 1)] {
                    *slot += 1;
                }
                completed[last.min(n - 1)] += 1;
            }
            TraceEventKind::OpShedQueueFull | TraceEventKind::OpShedDeadline => {
                saw_shed = true;
                shed[b] += 1;
            }
            TraceEventKind::TxnCommit => {
                saw_txn = true;
                txn_outcomes[b] += 1;
            }
            TraceEventKind::TxnAbort => {
                saw_txn = true;
                txn_outcomes[b] += 1;
                aborts[b] += 1;
            }
            TraceEventKind::DramRead | TraceEventKind::DramWrite => {
                debug_assert_eq!(e.kind.style(), SpanStyle::Async);
                if let Track::DramBank(bank) = e.track {
                    dram_banks.insert(bank);
                }
                // Spread the burst's busy time across the buckets it covers.
                let (start, end) = (e.at.as_picos(), e.end().as_picos());
                let last = (end / bucket_ps) as usize;
                for (i, slot) in busy_ps
                    .iter_mut()
                    .enumerate()
                    .take(last.min(n - 1) + 1)
                    .skip(b)
                {
                    let lo = (i as u64) * bucket_ps;
                    let hi = lo + bucket_ps;
                    *slot += end.min(hi).saturating_sub(start.max(lo));
                }
            }
            _ => {}
        }
    }

    let label = |i: usize| {
        let ps = (i as u64) * bucket_ps;
        format!("{}.{:03}", ps / 1_000_000, ps % 1_000_000 / 1_000)
    };
    let make = |name: &str, ys: &dyn Fn(usize) -> f64| {
        let mut s = Series::new(name);
        for i in 0..n {
            s.push(label(i), ys(i));
        }
        s
    };

    let mut out = Vec::new();
    if saw_admit {
        out.push(make("queue_depth_max", &|i| queue_depth[i] as f64));
    }
    if saw_span {
        out.push(make("inflight_ops", &|i| inflight[i] as f64));
        out.push(make("completed_ops", &|i| completed[i] as f64));
    }
    if saw_shed {
        out.push(make("shed_ops", &|i| shed[i] as f64));
    }
    if saw_txn {
        out.push(make("abort_rate", &|i| {
            if txn_outcomes[i] == 0 {
                0.0
            } else {
                aborts[i] as f64 / txn_outcomes[i] as f64
            }
        }));
    }
    if !dram_banks.is_empty() {
        let denom = (bucket_ps * dram_banks.len() as u64) as f64;
        out.push(make("bank_occupancy", &|i| {
            (busy_ps[i] as f64 / denom).min(1.0)
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    #[test]
    fn series_bucket_queue_depth_and_occupancy() {
        let us = SimTime::from_micros;
        let trace = Trace::merge(vec![vec![
            TraceEvent::instant(Track::Core(0), TraceEventKind::OpAdmitted, us(1), 0, 3),
            TraceEvent::instant(Track::Core(0), TraceEventKind::OpAdmitted, us(12), 0, 5),
            TraceEvent::span(Track::Core(0), TraceEventKind::OpSpan, us(1), us(15), 0, 8),
            TraceEvent::span(
                Track::DramBank(0),
                TraceEventKind::DramRead,
                us(0),
                us(5),
                0,
                1,
            ),
            TraceEvent::instant(Track::Core(0), TraceEventKind::TxnAbort, us(2), 1, 0),
            TraceEvent::instant(Track::Core(0), TraceEventKind::TxnCommit, us(3), 2, 1),
        ]]);
        let series = series_from_trace(&trace, us(10));
        let by_name = |n: &str| series.iter().find(|s| s.name == n).expect(n);
        assert_eq!(by_name("queue_depth_max").ys(), vec![3.0, 5.0]);
        assert_eq!(by_name("inflight_ops").ys(), vec![1.0, 1.0]);
        assert_eq!(by_name("completed_ops").ys(), vec![0.0, 1.0]);
        // 5 µs of burst in a 10 µs bucket on one bank → 0.5 occupancy.
        assert_eq!(by_name("bank_occupancy").ys(), vec![0.5, 0.0]);
        // One abort + one commit in bucket 0.
        assert_eq!(by_name("abort_rate").ys(), vec![0.5, 0.0]);
        // No sheds → no series.
        assert!(series.iter().all(|s| s.name != "shed_ops"));
        // X labels are µs with ms precision.
        assert_eq!(by_name("queue_depth_max").points[1].0, "10.000");
    }

    #[test]
    fn default_bucket_is_positive() {
        assert!(default_bucket(&Trace::default(), 40).as_picos() >= 1_000);
    }
}

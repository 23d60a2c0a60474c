//! The shared work queue of the bulk builders.
//!
//! Row generation ([`DataGen`](crate::DataGen)) and the columnar transpose
//! ([`ColumnarTable`](crate::ColumnarTable)) cut their output into chunks of
//! [`CHUNK_ROWS`] rows with disjoint bytes, and [`drain`] hands the chunks to
//! the calling thread and a few scoped helpers. A shared queue rather than
//! a fixed split keeps every thread busy when the host slows one of them.
//! The threads only write table bytes before any query runs; simulated
//! time never sees them.

use std::sync::Mutex;
use std::thread;

/// Rows per chunk: a multiple of the transpose's tile, and large enough
/// that tables of a few chunks' rows or fewer stay on the calling thread.
pub(crate) const CHUNK_ROWS: usize = 1 << 16;

/// Helper threads a bulk build may add to the calling thread: one fewer
/// than the parallelism the process may use.
pub(crate) fn helpers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get()) - 1
}

/// Runs `work` on every item of `items`. The calling thread and up to
/// `helpers` scoped threads pull items from one queue, in order, so no
/// thread idles while items remain; never more threads than items, and
/// none spawned for one item.
pub(crate) fn drain<I>(items: I, helpers: usize, work: impl Fn(I::Item) + Sync)
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
{
    let spawned = helpers.min(items.len().saturating_sub(1));
    let queue = Mutex::new(items);
    let next = || {
        queue
            .lock()
            .expect("no builder thread panics while it holds the queue")
            .next()
    };
    let run = || {
        while let Some(item) = next() {
            work(item);
        }
    };
    thread::scope(|scope| {
        for _ in 0..spawned {
            scope.spawn(run);
        }
        run();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_runs_once_on_any_helper_count() {
        for helpers in 0..4 {
            for items in [0usize, 1, 2, 7] {
                let mut done = vec![0u8; items];
                drain(done.iter_mut(), helpers, |slot| *slot += 1);
                assert!(done.iter().all(|&n| n == 1), "{helpers} helpers");
            }
        }
    }
}

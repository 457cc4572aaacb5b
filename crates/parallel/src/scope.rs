//! Scoped fork-join helpers over borrowed data, built on
//! `std::thread::scope` so the body may borrow from the caller's stack.
//!
//! [`parallel_map`] is the one fork-join primitive, the moral equivalent
//! of an OpenMP `#pragma omp parallel for schedule(dynamic, 1)`: threads
//! claim one item at a time, the caller among them, as the encountering
//! thread joins an OpenMP team. [`parallel_map_chunks`] is the
//! `schedule(static)` form on top of it: the index space is split into
//! one contiguous chunk per thread.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Split `n` items into at most `parts` contiguous ranges of near-equal
/// size (difference at most one). Empty ranges are not produced: fewer
/// ranges are returned when `n < parts`.
pub fn split_evenly(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0, "parts must be > 0");
    let parts = parts.min(n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Map each chunk of `0..n` (at most `threads` near-equal contiguous
/// ranges, see [`split_evenly`]) to a value and collect the per-chunk
/// results in chunk order: a fork-join `parallel for` with a
/// reduction-friendly result vector, run by [`parallel_map`] with one
/// chunk per thread. `body` receives `(chunk_index, range)`; a panic in
/// it is re-raised once every chunk has run.
pub fn parallel_map_chunks<R, F>(n: usize, threads: usize, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
{
    assert!(threads > 0, "threads must be > 0");
    let chunks: Vec<_> = split_evenly(n, threads).into_iter().enumerate().collect();
    parallel_map(&chunks, threads, |(tid, range)| body(*tid, range.clone()))
        .unwrap_or_else(|payload| resume_unwind(payload))
}

/// Map every item through `f` on up to `threads` threads, the calling
/// thread included, and return the results in item order.
///
/// Threads claim items one at a time through an atomic cursor, so one
/// costly item (an A1 co-run series costs about ten A2 points) does not
/// hold back a statically assigned share. With `threads == 1`, or at
/// most one item, everything runs on the calling thread and nothing is
/// spawned. A panicking item does not stop the others: once every item
/// has run, the payload of the first panicking item (in item order) is
/// returned instead of the results.
pub fn parallel_map<T, R, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> Result<Vec<R>, Box<dyn Any + Send>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(threads > 0, "threads must be > 0");
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices; results reach
            // the caller through the joins.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                break done;
            };
            done.push((i, catch_unwind(AssertUnwindSafe(|| f(item)))));
        }
    };
    let helpers = threads.min(items.len()).saturating_sub(1);
    let mut done = if helpers == 0 {
        claim()
    } else {
        std::thread::scope(|s| {
            let spawned: Vec<_> = (0..helpers).map(|_| s.spawn(claim)).collect();
            let mut done = claim();
            for helper in spawned {
                done.extend(helper.join().expect("items catch their own panics"));
            }
            done
        })
    };
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_evenly_balances() {
        let r = split_evenly(10, 3);
        assert_eq!(r, vec![0..4, 4..7, 7..10]);
        let lens: Vec<usize> = r.iter().map(|x| x.len()).collect();
        assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
    }

    #[test]
    fn split_evenly_edge_cases() {
        assert!(split_evenly(0, 4).is_empty());
        assert_eq!(split_evenly(3, 8), vec![0..1, 1..2, 2..3]);
        assert_eq!(split_evenly(5, 1), vec![0..5]);
    }

    #[test]
    #[should_panic(expected = "parts must be > 0")]
    fn split_evenly_rejects_zero_parts() {
        let _ = split_evenly(10, 0);
    }

    #[test]
    fn parallel_map_chunks_preserves_order() {
        let out = parallel_map_chunks(100, 7, |_tid, range| range.start);
        let starts: Vec<usize> = split_evenly(100, 7).iter().map(|r| r.start).collect();
        assert_eq!(out, starts);
    }

    #[test]
    fn parallel_map_chunks_empty() {
        let out: Vec<usize> = parallel_map_chunks(0, 4, |_, _| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_preserves_order() {
        // Borrows `hits` from this frame, as the engine borrows its caches.
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        let idx: Vec<usize> = (0..hits.len()).collect();
        let out = parallel_map(&idx, 8, |&i| i + hits[i].fetch_add(1, Ordering::Relaxed)).unwrap();
        assert_eq!(out, idx, "in item order, each item mapped once");
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_map_empty_slice() {
        let out: Vec<u64> = parallel_map(&[], 4, |_: &u64| unreachable!()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_with_one_thread_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = parallel_map(&[0u8; 16], 1, |_| std::thread::current().id()).unwrap();
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn parallel_map_uses_no_more_threads_than_items() {
        let ids = parallel_map(&[0u8; 3], 8, |_| std::thread::current().id()).unwrap();
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() <= 3, "{distinct:?}");
        let single = parallel_map(&[7u8], 8, |_| std::thread::current().id()).unwrap();
        assert_eq!(single, vec![std::thread::current().id()]);
    }

    #[test]
    fn parallel_map_returns_the_first_panic_after_every_other_item_runs() {
        for threads in [1, 2, 8] {
            let finished = AtomicUsize::new(0);
            let items: Vec<u64> = (0..16).collect();
            let payload = parallel_map(&items, threads, |&x| {
                if x == 7 || x == 11 {
                    panic!("poisoned item {x}");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            })
            .expect_err("a panicking item must surface as Err");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "poisoned item 7", "threads={threads}");
            assert_eq!(finished.load(Ordering::Relaxed), 14, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "threads must be > 0")]
    fn parallel_map_rejects_zero_threads() {
        let _ = parallel_map(&[1u8], 0, |&x| x);
    }
}

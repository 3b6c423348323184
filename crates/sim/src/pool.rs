//! A dependency-free, work-stealing, scoped-thread worker pool.
//!
//! The experiment grids (scheme × workload × size) are embarrassingly
//! parallel: every cell is a pure function of its coordinates.  This
//! module fans such index spaces out over `std::thread::scope` workers
//! and reassembles the results in canonical (index) order, so a parallel
//! run is **byte-identical** to a serial one.
//!
//! Scheduling is work-stealing over per-worker deques: indices are dealt
//! round-robin up front (cheap cells interleave with expensive ones), a
//! worker pops its own queue from the front, and when it runs dry it
//! steals from the *back* of the most-loaded victim.  That keeps all
//! cores busy even though grid cells differ in cost by an order of
//! magnitude (NoGap cells simulate far more work than bbb cells).
//!
//! No `unsafe`, no channels: workers return their `(index, result)`
//! batches through scoped-join handles, and [`run_indexed`] re-slots them
//! into a dense `Vec`.  The service plane uses the same fan-out with one
//! index per shard: each shard runs start to finish inside one call.
//!
//! # Example
//!
//! ```
//! use secpb_sim::pool;
//!
//! let squares = pool::run_indexed(8, 4, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Same answer on one thread: ordering is canonical, not arrival order.
//! assert_eq!(squares, pool::run_indexed(8, 1, |i| i * i));
//! ```

use std::collections::VecDeque;
use std::sync::Mutex;

/// The number of worker threads to use when the caller does not specify
/// one: the machine's available parallelism (1 if it cannot be probed).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(0..count)` across `jobs` worker threads and returns the
/// results in index order.
///
/// * `jobs <= 1` (or a single-item space) runs inline on the caller's
///   thread — no threads are spawned, so `--jobs 1` is *exactly* the
///   serial engine, not a one-worker pool.
/// * `jobs` is clamped to `count`: spawning idle workers is pointless.
/// * A panic in `f` propagates to the caller (scoped threads forward
///   worker panics on join).
///
/// Determinism: `f` must be a pure function of its index (the experiment
/// cells derive per-cell seeds for exactly this reason).  Under that
/// contract the output is independent of `jobs`, scheduling, and steal
/// order.
pub fn run_indexed<T, F>(count: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let workers = jobs.min(count);

    // Deal indices round-robin: queue w gets w, w+workers, w+2*workers, …
    // Grid layouts put all of one benchmark's schemes consecutively, so
    // striding decorrelates cost better than contiguous chunks.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..count).step_by(workers).collect()))
        .collect();

    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);

    std::thread::scope(|s| {
        let queues = &queues;
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        let idx = pop_own(queues, w).or_else(|| steal(queues, w));
                        match idx {
                            Some(i) => out.push((i, f(i))),
                            None => break,
                        }
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("worker panicked") {
                slots[i] = Some(value);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every index produced exactly once"))
        .collect()
}

/// Pops the next index from worker `w`'s own queue (front: FIFO over its
/// own deal order).
fn pop_own(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    queues[w].lock().expect("queue poisoned").pop_front()
}

/// Steals one index from the back of the most-loaded other queue.
fn steal(queues: &[Mutex<VecDeque<usize>>], thief: usize) -> Option<usize> {
    // Snapshot lengths first so we lock only one victim.
    let victim = queues
        .iter()
        .enumerate()
        .filter(|&(w, _)| w != thief)
        .map(|(w, q)| (w, q.lock().expect("queue poisoned").len()))
        .max_by_key(|&(_, len)| len)
        .filter(|&(_, len)| len > 0)?
        .0;
    queues[victim].lock().expect("queue poisoned").pop_back()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_arrive_in_index_order() {
        let out = run_indexed(100, 4, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        // A mildly expensive, index-pure function.
        let cost = |i: usize| -> u64 {
            let mut acc = i as u64;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let serial = run_indexed(64, 1, cost);
        for jobs in [2, 3, 4, 8] {
            assert_eq!(serial, run_indexed(64, jobs, cost), "jobs={jobs}");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(50, 6, |i| hits[i].fetch_add(1, Ordering::SeqCst));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "index {i}");
        }
    }

    #[test]
    fn degenerate_spaces() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 1), vec![1]);
        assert_eq!(run_indexed(3, 100, |i| i), vec![0, 1, 2], "jobs > count");
    }

    #[test]
    fn more_workers_than_cores_still_complete() {
        let out = run_indexed(200, 32, |i| i as u64);
        assert_eq!(out.len(), 200);
        assert_eq!(out[199], 199);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        run_indexed(8, 2, |i| {
            assert!(i != 5, "boom");
            i
        });
    }
}

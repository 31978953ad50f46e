//! Deterministic fork/join helper for the replay-heavy evaluators.
//!
//! The option/workload replays in [`crate::options`] and
//! [`crate::generation`] are embarrassingly parallel: every replay builds
//! its own `Soc` from a cloned configuration and shares nothing mutable.
//! This helper fans an indexed job list out over `std::thread::scope`
//! workers and collects results **by index**, so the output — and
//! therefore every report rendered from it — is identical regardless of
//! how the OS schedules the workers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on worker threads: the machine's available parallelism.
#[must_use]
pub fn max_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `count` jobs (`run(0)..run(count-1)`) on up to `workers` scoped
/// threads and returns the results in index order.
///
/// Work is handed out through a shared atomic cursor, so an expensive job
/// never blocks cheap ones behind it; results land in per-index slots, so
/// completion order cannot leak into the output. Falls back to a plain
/// sequential loop when `count < 2` or `workers <= 1`, so single-job
/// callers pay no threading cost.
pub fn par_map_indexed<T, F>(count: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(count);
    if workers <= 1 {
        return (0..count).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let out = run(i);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed and stored")
        })
        .collect()
}

/// Maps `run` over `items` on up to [`max_workers`] threads, preserving
/// order.
pub fn par_map<T, U, F>(items: &[T], run: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), max_workers(), |i| run(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = par_map_indexed(64, 8, |i| {
            // Stagger finish times so out-of-order completion is likely.
            std::thread::sleep(std::time::Duration::from_micros(((i * 7) % 13) as u64));
            i * 10
        });
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 4, |i| i + 5), vec![5]);
    }

    #[test]
    fn par_map_preserves_order_over_slice() {
        let items: Vec<u64> = (0..40).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn errors_surface_per_index() {
        let out = par_map_indexed(10, 3, |i| if i % 3 == 0 { Err(i) } else { Ok(i) });
        assert_eq!(out[0], Err(0));
        assert_eq!(out[1], Ok(1));
        assert_eq!(out[9], Err(9));
    }
}

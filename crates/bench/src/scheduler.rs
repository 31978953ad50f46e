//! Parallel, deterministic experiment execution.
//!
//! Experiments E1–E15 are self-contained: each builds its own SoC /
//! Emulation Device from an explicit configuration and seeds its own
//! pseudo-random inputs, so they can run concurrently without observing
//! each other. This module schedules them over a capped pool of
//! `std::thread::scope` workers, times each one, and returns the results
//! **in submission order** — the rendered report stream is byte-identical
//! to a sequential (`--jobs 1`) run regardless of how the OS interleaves
//! the workers (see `crates/bench/tests/parallel_determinism.rs`).
//!
//! # Scheduler instrumentation
//!
//! The scheduler reports on itself on two strictly separated channels:
//!
//! * **Wall-clock stats** — every [`TimedJob`] carries its run duration
//!   and its *queue wait* (time between scheduler start and the job being
//!   claimed by a worker), and [`wall_summary`] reduces a finished run to
//!   utilisation and wait percentiles. These are host measurements:
//!   nondeterministic by nature, surfaced on stderr and in `BENCH_*.json`
//!   perf artifacts, and **never** placed in an [`audo_obs::Registry`].
//! * **The virtual replay timeline** — [`export_schedule_obs`] renders a
//!   finished schedule into a registry using only *simulated* cycle costs
//!   in submission order: job `i`'s span starts where job `i-1`'s ended,
//!   and its queue wait is the simulated cycles of everything submitted
//!   before it (the single-link replay model: one tool link drains units
//!   in fleet order). This view depends only on the jobs' simulated
//!   costs, so it is byte-identical for any `--jobs` and any host.

use std::time::{Duration, Instant};

/// Default worker-pool size: the machine's available parallelism.
pub use audo_profiler::par::max_workers as default_jobs;

/// One finished job: the closure's output plus its wall-clock timings.
#[derive(Debug, Clone)]
pub struct TimedJob<T> {
    /// What the job returned.
    pub output: T,
    /// Wall-clock time the job spent running (excludes queue wait).
    pub duration: Duration,
    /// Wall-clock time between scheduler start and this job being claimed
    /// by a worker — how long it sat in the queue behind earlier work.
    pub queue_wait: Duration,
}

/// Wall-clock reduction of a finished scheduler run ([`wall_summary`]).
///
/// Host measurements only — print to stderr or a perf artifact, never
/// into a deterministic export.
#[derive(Debug, Clone, Copy)]
pub struct WallSummary {
    /// Jobs completed.
    pub jobs: usize,
    /// Sum of job run durations (busy time across all workers).
    pub busy: Duration,
    /// Longest time any job waited in the queue.
    pub max_queue_wait: Duration,
    /// Worker utilisation: busy time over `workers × makespan`
    /// (1.0 = every worker ran flat out). 0 when the run is empty.
    pub utilization: f64,
}

/// Reduces a finished run to wall-clock scheduler statistics.
///
/// `total` is the scheduler's makespan (measure it around the
/// [`run_jobs`] call); `workers` the worker count actually used.
#[must_use]
pub fn wall_summary<T>(jobs: &[TimedJob<T>], total: Duration, workers: usize) -> WallSummary {
    let busy: Duration = jobs.iter().map(|j| j.duration).sum();
    let max_queue_wait = jobs
        .iter()
        .map(|j| j.queue_wait)
        .max()
        .unwrap_or(Duration::ZERO);
    let capacity = total.as_secs_f64() * workers.max(1) as f64;
    WallSummary {
        jobs: jobs.len(),
        busy,
        max_queue_wait,
        utilization: if capacity > 0.0 && !jobs.is_empty() {
            (busy.as_secs_f64() / capacity).min(1.0)
        } else {
            0.0
        },
    }
}

/// Exports the deterministic virtual replay timeline of a finished
/// schedule into a registry.
///
/// `costs` is each job's *simulated* cycle cost in submission order. The
/// jobs are laid end to end on one virtual track (the single-link replay
/// model), producing for each job a `{prefix}.job` span `[t, t+cost)`
/// with its index as a span argument, plus:
///
/// * counter `{prefix}.jobs` — job count,
/// * counter `{prefix}.virtual_cycles` — total simulated cycles,
/// * histogram `{prefix}.job_cycles` — per-job simulated cost,
/// * histogram `{prefix}.queue_wait_cycles` — per-job virtual queue wait
///   (the simulated cycles of everything submitted before it).
///
/// Everything here is a pure function of `costs`, so the export is
/// byte-identical for any `--jobs` and any host — it satisfies the
/// [`audo_obs`] determinism rule by construction.
pub fn export_schedule_obs(reg: &mut audo_obs::Registry, prefix: &str, track: u32, costs: &[u64]) {
    if !reg.is_enabled() {
        return;
    }
    reg.set_track(track);
    reg.add(&format!("{prefix}.jobs"), costs.len() as u64);
    let mut now = 0u64;
    for (i, &cost) in costs.iter().enumerate() {
        reg.observe(&format!("{prefix}.queue_wait_cycles"), now);
        reg.observe(&format!("{prefix}.job_cycles"), cost);
        let end = now.saturating_add(cost);
        reg.span_with_args(
            &format!("{prefix}.job"),
            now,
            end,
            vec![("index".to_string(), i.to_string())],
        );
        now = end;
    }
    reg.add(&format!("{prefix}.virtual_cycles"), now);
}

/// Runs `count` indexed jobs on up to `jobs` worker threads and returns
/// the timed results in index order: a timing wrapper over
/// [`audo_profiler::par::par_map_indexed`], whose atomic work cursor and
/// per-index result slots keep completion order out of the output. With
/// `jobs <= 1` (or a single job) everything runs inline on the caller's
/// thread.
pub fn run_jobs<T, F>(count: usize, jobs: usize, run: F) -> Vec<TimedJob<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let t0 = Instant::now();
    audo_profiler::par::par_map_indexed(count, jobs, |i| {
        let queue_wait = t0.elapsed();
        let start = Instant::now();
        let output = run(i);
        TimedJob {
            output,
            duration: start.elapsed(),
            queue_wait,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_submission_order() {
        // Jobs finish deliberately out of order; outputs must not.
        let out = run_jobs(32, 8, |i| {
            std::thread::sleep(Duration::from_micros(((i * 11) % 7) as u64 * 50));
            i * 3
        });
        let values: Vec<usize> = out.iter().map(|j| j.output).collect();
        assert_eq!(values, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7);
        let seq: Vec<u64> = run_jobs(50, 1, f).into_iter().map(|j| j.output).collect();
        let par: Vec<u64> = run_jobs(50, 6, f).into_iter().map(|j| j.output).collect();
        assert_eq!(seq, par);
    }

    #[test]
    fn jobs_cap_is_respected() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        run_jobs(24, 3, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "more than 3 jobs ran at once"
        );
    }

    #[test]
    fn empty_and_single() {
        assert!(run_jobs(0, 4, |i| i).is_empty());
        let one = run_jobs(1, 4, |i| i + 9);
        assert_eq!(one[0].output, 9);
    }

    #[test]
    fn durations_are_recorded() {
        let out = run_jobs(2, 2, |_| std::thread::sleep(Duration::from_millis(5)));
        assert!(out.iter().all(|j| j.duration >= Duration::from_millis(4)));
    }

    #[test]
    fn queue_waits_are_recorded_and_ordered_inline() {
        // Inline (jobs=1) execution claims jobs in index order, so queue
        // waits are monotonically non-decreasing.
        let out = run_jobs(4, 1, |_| std::thread::sleep(Duration::from_millis(2)));
        for pair in out.windows(2) {
            assert!(pair[0].queue_wait <= pair[1].queue_wait);
        }
        assert!(out[3].queue_wait >= Duration::from_millis(5));
    }

    #[test]
    fn wall_summary_reduces_a_run() {
        let out = run_jobs(6, 2, |_| std::thread::sleep(Duration::from_millis(3)));
        let s = wall_summary(&out, Duration::from_millis(12), 2);
        assert_eq!(s.jobs, 6);
        assert!(s.busy >= Duration::from_millis(15));
        assert!(s.utilization > 0.0 && s.utilization <= 1.0);
        assert!(s.max_queue_wait >= out[5].queue_wait.min(out[0].queue_wait));
        // Empty run: all zeros, no division blowups.
        let empty: Vec<TimedJob<()>> = Vec::new();
        let z = wall_summary(&empty, Duration::ZERO, 4);
        assert_eq!(z.jobs, 0);
        assert_eq!(z.utilization, 0.0);
    }

    #[test]
    fn virtual_schedule_export_is_deterministic_and_jobs_free() {
        // The export is a pure function of the simulated costs: the
        // worker count that produced them cannot appear anywhere.
        let costs = [500u64, 200, 800, 100];
        let render = || {
            let mut reg = audo_obs::Registry::new();
            export_schedule_obs(&mut reg, "fleet.shard", 3, &costs);
            audo_obs::metrics_text::render(&reg, "audo_")
        };
        assert_eq!(render(), render());
        let mut reg = audo_obs::Registry::new();
        export_schedule_obs(&mut reg, "fleet.shard", 3, &costs);
        assert_eq!(reg.counter("fleet.shard.jobs"), 4);
        assert_eq!(reg.counter("fleet.shard.virtual_cycles"), 1600);
        // Spans are laid end to end in submission order.
        let spans = reg.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].start, spans[0].end), (0, 500));
        assert_eq!((spans[2].start, spans[2].end), (700, 1500));
        assert_eq!(spans[3].args, [("index".to_string(), "3".to_string())]);
        // Queue-wait histogram saw the cumulative prefix costs.
        let (_, qw) = reg
            .histograms()
            .find(|(n, _)| n.ends_with("queue_wait_cycles"))
            .expect("queue-wait histogram");
        assert_eq!(qw.count(), 4);
        assert_eq!(qw.sum(), 500 + 700 + 1500);
        // A disabled registry records nothing.
        let mut off = audo_obs::Registry::disabled();
        export_schedule_obs(&mut off, "fleet.shard", 3, &costs);
        assert!(off.is_empty());
    }
}

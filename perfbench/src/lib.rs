//! End-to-end and per-layer host-time benchmark of the audo stack.
//!
//! Three workloads ([`Workload`]) stress different layers: `fleet`
//! (many short rate-only sessions: SoC fabric and per-session set-up),
//! `trace` (a few long sessions with program flow trace: MCDS encoding,
//! EMEM, DAP drain and host decode) and `fuzz` (thousands of tiny
//! programs through every execution tier: ISS, pipeline, assembler,
//! analyzer). Each is a closed loop with one client per worker: the next
//! session starts when the previous one completed, on a fresh SoC.
//!
//! An untraced run measures the end-to-end metrics. A traced run
//! additionally replays every session through spans around the public
//! calls into each layer ([`span`], [`replay`]) and reports per-layer
//! self times, the tracing overhead and the time no span covers.

pub mod fleet;
pub mod fuzz;
pub mod host;
pub mod replay;
pub mod span;
pub mod stats;
pub mod trace;

use std::time::Instant;

use audo_bench::{run_jobs, TimedJob};

use crate::span::{Layer, Spans};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Short rate-only fleet sessions.
    Fleet,
    /// Long profiling sessions with program flow trace.
    Trace,
    /// Differential fuzz sessions over every execution tier.
    Fuzz,
}

impl Workload {
    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet" => Some(Workload::Fleet),
            "trace" => Some(Workload::Trace),
            "fuzz" => Some(Workload::Fuzz),
            _ => None,
        }
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measured time of the closed loop (the loop always completes the
    /// workload's reference set, however long that takes). `fuzz` turns
    /// it into a fixed session count ([`fuzz::session_count`]).
    pub seconds: f64,
    /// Replay every item with spans and report per-layer metrics.
    pub traced: bool,
    /// Worker threads (closed-loop clients).
    pub jobs: usize,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// The benchmark's own checks passed: the reference set folded into
    /// its report, and every traced replay reproduced the untraced run.
    /// Operations that failed are counted in `failed`, not here.
    pub correct: bool,
    /// Operations attempted (sessions for `fleet`/`trace`, programs for
    /// `fuzz`).
    pub attempted: u64,
    /// Operations that failed (see each workload for what fails).
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result: the digest, sample
    /// counts, the input mix.
    pub notes: Vec<String>,
    /// Digest of the reference set's deterministic outputs.
    pub sim_digest: u64,
}

impl RunReport {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Failed over attempted operations.
    #[must_use]
    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Set-up timings of a run: each repetition's wall time and the
/// calibration kernel run after it.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// Wall time of each repetition.
    pub times: Vec<f64>,
    /// Kernel time after each repetition.
    pub kernels: Vec<f64>,
}

impl Setup {
    /// Median host-normalised set-up time.
    #[must_use]
    pub fn median_s(&self) -> f64 {
        stats::median(&host::normalise(&self.times, &self.kernels))
    }
}

/// Runs `f` `reps` times and returns the last result with the timings.
pub fn repeat_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Setup) {
    let mut setup = Setup::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        setup.times.push(t.elapsed().as_secs_f64());
        setup.kernels.push(host::kernel_s(0.0));
    }
    (last.expect("at least one repetition"), setup)
}

/// A finished closed loop: every item in index order, with its timing.
pub struct LoopRun<T> {
    /// Items in index order.
    pub items: Vec<TimedJob<T>>,
    /// Wall time from the first item's start to the last item's end.
    pub wall_s: f64,
    /// Summed `run_jobs` queue wait (zero with one worker).
    pub queue_wait_s: f64,
}

/// Runs items `0, 1, 2, …` in batches of `jobs` over the shared job
/// scheduler until `seconds` have passed and at least `min_items` ran.
/// With `seconds` 0 exactly `min_items` run, at any worker count.
pub fn closed_loop<T: Send>(
    jobs: usize,
    min_items: usize,
    seconds: f64,
    item: impl Fn(usize) -> T + Sync,
) -> LoopRun<T> {
    let jobs = jobs.max(1);
    let start = Instant::now();
    let mut items = Vec::new();
    let mut queue_wait_s = 0.0;
    while items.len() < min_items || start.elapsed().as_secs_f64() < seconds {
        let base = items.len();
        let n = if base < min_items {
            jobs.min(min_items - base)
        } else {
            jobs
        };
        let batch = run_jobs(n, jobs, |i| item(base + i));
        if jobs > 1 {
            queue_wait_s += batch
                .iter()
                .map(|j| j.queue_wait.as_secs_f64())
                .sum::<f64>();
        }
        items.extend(batch);
    }
    LoopRun {
        items,
        wall_s: start.elapsed().as_secs_f64(),
        queue_wait_s,
    }
}

/// Summed time of `times` with each replaced by the median of its class.
///
/// Sessions of a fleet cohort repeat the same simulated work, so their
/// spread is noise; the median keeps a stalled session from moving the
/// rates. `trace` and `fuzz` have one class.
fn class_median_total(times: &[f64], classes: &[usize]) -> f64 {
    let n = classes.iter().map(|c| c + 1).max().unwrap_or(0);
    let medians: Vec<f64> = (0..n)
        .map(|c| {
            let t: Vec<f64> = times
                .iter()
                .zip(classes)
                .filter(|(_, &k)| k == c)
                .map(|(t, _)| *t)
                .collect();
            stats::median(&t)
        })
        .collect();
    classes.iter().map(|&c| medians[c]).sum()
}

/// The tail percentile of `n` sessions: p95, or the highest percentile
/// below it that still has ten sessions beyond it (a percentile with fewer
/// samples beyond it is one stalled session away from moving).
#[must_use]
pub fn tail_quantile(n: usize) -> f64 {
    if n < 12 {
        return 0.5;
    }
    ((n - 11) as f64 / (n - 1) as f64).min(0.95)
}

/// Inputs of the end-to-end metrics every workload reports.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Set-up timings.
    pub setup: Setup,
    /// Wall time and class of each completed session. Sessions of one
    /// class do the same simulated work (a fleet cohort); `trace` and
    /// `fuzz` have one class.
    pub sessions: Vec<(f64, usize)>,
    /// Calibration kernel time after each session, in session order.
    pub kernels: Vec<f64>,
    /// Wall time of the closed loop.
    pub wall_s: f64,
    /// Programs run to completion.
    pub programs: u64,
    /// Simulated (retired) instructions.
    pub instructions: u64,
}

impl EndToEnd {
    /// Adds the end-to-end metrics and their sample counts. Times are
    /// host-normalised ([`host`]); the notes give the raw wall times.
    pub fn report(&self, r: &mut RunReport) {
        let n = self.sessions.len();
        let raw: Vec<f64> = self.sessions.iter().map(|s| s.0).collect();
        let classes: Vec<usize> = self.sessions.iter().map(|s| s.1).collect();
        let times = host::normalise(&raw, &self.kernels);
        let total = class_median_total(&times, &classes).max(1e-12);
        r.metric("setup_s", self.setup.median_s(), "s");
        r.metric("sessions_per_s", n as f64 / total, "1/s");
        r.metric("session_ms_p50", stats::percentile(&times, 0.5) * 1e3, "ms");
        let q = tail_quantile(n);
        r.metric("session_ms_tail", stats::percentile(&times, q) * 1e3, "ms");
        r.metric(
            "sim_minstr_per_s",
            self.instructions as f64 / total / 1e6,
            "Minstr/s",
        );
        r.metric("programs_per_s", self.programs as f64 / total, "1/s");
        r.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        let raw_total = class_median_total(&raw, &classes).max(1e-12);
        r.notes.push(format!(
            "samples: setup_s over {} set-ups; session_ms_* over {n} sessions, \
             session_ms_tail = p{:.1} with {} sessions beyond it; rates over {:.3} s of \
             per-class median session time ({:.3} s loop wall time), {} programs, {} \
             instructions; fail_rate {}",
            self.setup.times.len(),
            q * 100.0,
            n.saturating_sub(1 + (q * n.saturating_sub(1) as f64).floor() as usize),
            total,
            self.wall_s,
            self.programs,
            self.instructions,
            r.fail_rate(),
        ));
        r.notes.push(format!(
            "host: median calibration kernel {:.3} ms (nominal {:.3} ms); raw wall time: \
             sessions_per_s {:.4}, session_ms_p50 {:.3}, session_ms_tail {:.3}, setup_s {:.6}",
            stats::median(&self.kernels) * 1e3,
            host::NOMINAL_KERNEL_S * 1e3,
            n as f64 / raw_total,
            stats::percentile(&raw, 0.5) * 1e3,
            stats::percentile(&raw, q) * 1e3,
            stats::median(&self.setup.times),
        ));
    }
}

/// Exact counts of a workload's reference set, recorded on every traced
/// run; a change that only speeds up the simulator leaves them identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExactCounts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired TriCore instructions.
    pub instructions: u64,
    /// MCDS trace bytes produced.
    pub trace_bytes: u64,
    /// Trace bytes lost to EMEM overflow.
    pub lost_bytes: u64,
    /// Decoded trace messages.
    pub messages: u64,
    /// Tool-link retransmissions.
    pub retries: u64,
    /// Tool-link response timeouts.
    pub timeouts: u64,
    /// Pumps that granted the link to the trace drain.
    pub drain_grants: u64,
    /// Drain grants that returned bytes.
    pub drain_useful: u64,
    /// Pipeline predecode hits.
    pub predecode_hits: u64,
    /// Pipeline predecode misses.
    pub predecode_misses: u64,
    /// Fuzz programs checked.
    pub fuzz_cases: u64,
    /// Fuzz divergences.
    pub fuzz_divergences: u64,
    /// Fuzz programs on which every tier agreed on a fault.
    pub fuzz_agreed_faults: u64,
    /// Opcode slots the fuzz programs covered.
    pub fuzz_slots_covered: u64,
}

impl ExactCounts {
    /// Adds another item's counts (coverage is the caller's union).
    pub fn add(&mut self, o: &ExactCounts) {
        self.cycles += o.cycles;
        self.instructions += o.instructions;
        self.trace_bytes += o.trace_bytes;
        self.lost_bytes += o.lost_bytes;
        self.messages += o.messages;
        self.retries += o.retries;
        self.timeouts += o.timeouts;
        self.drain_grants += o.drain_grants;
        self.drain_useful += o.drain_useful;
        self.predecode_hits += o.predecode_hits;
        self.predecode_misses += o.predecode_misses;
        self.fuzz_cases += o.fuzz_cases;
        self.fuzz_divergences += o.fuzz_divergences;
        self.fuzz_agreed_faults += o.fuzz_agreed_faults;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Host-time measurements of a traced run.
#[derive(Debug, Clone, Default)]
pub struct TracedTimes {
    /// Spans of every traced item.
    pub spans: Spans,
    /// Summed wall time of the traced replays.
    pub traced_s: f64,
    /// Summed wall time of the same items run untraced.
    pub untraced_s: f64,
    /// Items replayed.
    pub items: u64,
    /// Median host-normalised fleet plan build (`fleet` only).
    pub plan_s: f64,
    /// Summed `run_jobs` queue wait.
    pub queue_wait_s: f64,
}

/// Adds every per-layer metric of a traced run. Times are multiplied by
/// `scale`, the run's host normalisation ([`host::run_scale`]).
pub fn per_layer_report(r: &mut RunReport, t: &TracedTimes, exact: &ExactCounts, scale: f64) {
    for layer in Layer::ALL {
        r.metric(
            &format!("{}.s", layer.name()),
            t.spans.seconds(layer) * scale,
            "s",
        );
        r.metric(
            &format!("{}.calls", layer.name()),
            t.spans.call_count(layer) as f64,
            "count",
        );
    }
    let steps = t.spans.call_count(Layer::SocStep);
    r.metric(
        "bench.sampled_cycles",
        t.spans.sample_count(Layer::SocStep) as f64,
        "count",
    );
    r.metric(
        "platform.soc_step.ns_per_call",
        if steps == 0 {
            0.0
        } else {
            t.spans.seconds(Layer::SocStep) * scale * 1e9 / steps as f64
        },
        "ns",
    );
    r.metric(
        "tricore.predecode_hit_ratio",
        ratio(
            exact.predecode_hits,
            exact.predecode_hits + exact.predecode_misses,
        ),
        "ratio",
    );
    r.metric("mcds.observe.bytes", exact.trace_bytes as f64, "bytes");
    r.metric("ed.trace.lost_bytes", exact.lost_bytes as f64, "bytes");
    r.metric("dap.retries", exact.retries as f64, "count");
    r.metric("dap.timeouts", exact.timeouts as f64, "count");
    r.metric(
        "dap.drain_useful_ratio",
        ratio(exact.drain_useful, exact.drain_grants),
        "ratio",
    );
    r.metric("mcds.decode.messages", exact.messages as f64, "count");
    r.metric("fleet.plan.s", t.plan_s, "s");
    r.metric("bench.queue_wait_s", t.queue_wait_s * scale, "s");
    r.metric("sim.cycles", exact.cycles as f64, "count");
    r.metric("sim.instructions", exact.instructions as f64, "count");
    r.metric("sim.ipc", ratio(exact.instructions, exact.cycles), "ratio");
    r.metric("fuzz.cases", exact.fuzz_cases as f64, "count");
    r.metric("fuzz.divergences", exact.fuzz_divergences as f64, "count");
    r.metric(
        "fuzz.agreed_faults",
        exact.fuzz_agreed_faults as f64,
        "count",
    );
    r.metric(
        "fuzz.opcode_slots_covered",
        exact.fuzz_slots_covered as f64,
        "count",
    );
    r.metric("bench.traced_items", t.items as f64, "count");
    r.metric(
        "bench.trace_overhead",
        t.traced_s / t.untraced_s.max(1e-12) - 1.0,
        "ratio",
    );
    r.metric(
        "other.s",
        (t.traced_s - t.spans.total_seconds()) * scale,
        "s",
    );
    r.notes.push(format!(
        "traced: {} items, {:.3} s traced vs {:.3} s untraced wall time; per-cycle layers \
         timed on {} of {} cycles; other per-layer timings are every call; times scaled \
         by {scale:.4} to the nominal host",
        t.items,
        t.traced_s,
        t.untraced_s,
        t.spans.sample_count(Layer::SocStep),
        steps,
    ));
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Returns a message when the workload cannot be set up (a missing
/// corpus, a program that does not build).
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let mut report = match cfg.workload {
        Workload::Fleet => fleet::run(cfg),
        Workload::Trace => trace::run(cfg),
        Workload::Fuzz => fuzz::run(cfg),
    }?;
    report.notes.push(format!(
        "sim_digest {:#018x} (workload {:?}, seed {}, reference set)",
        report.sim_digest, cfg.workload, cfg.seed
    ));
    report.notes.push(format!(
        "host: {} worker(s), nproc {}, {}",
        cfg.jobs,
        audo_bench::default_jobs(),
        env!("PERFBENCH_RUSTC_VERSION")
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_keeps_ten_sessions_beyond_it() {
        assert_eq!(tail_quantile(1_000), 0.95);
        for n in 12..400 {
            let q = tail_quantile(n);
            let beyond = n - 1 - (q * (n - 1) as f64).floor() as usize;
            assert!(beyond >= 10, "n {n}: {beyond} beyond p{q}");
        }
    }
}

//! `trace`: a few long profiling sessions of the full-length engine
//! workload (about 1.5M cycles each) with parallel rate probes plus
//! ungated program flow trace, drained over the framed DAP session at a
//! fixed low fault rate, decoded into a `Timeline`, and reconstructed
//! into a function-level flat profile.
//!
//! The same layers as `fleet`, but byte-heavy: about 860 KB of trace per
//! session, so MCDS encoding, EMEM ring writes, the DAP drain and host
//! decode do real work. The stream is sized to drain losslessly: the
//! whole 512 KiB EMEM is the trace region and the tool link is an 8-pin
//! wide DAP, which together absorb the stream with room to spare. A
//! session fails when it does not halt, the drain truncates, the stream
//! does not decode or reconstruct, or drained bytes differ from produced
//! bytes.

use std::time::Instant;

use audo_common::SimError;
use audo_dap::{DapConfig, FaultConfig};
use audo_ed::{EdConfig, EmulationDevice, TraceMode};
use audo_platform::config::SocConfig;
use audo_profiler::reconstruct::{flat_profile, reconstruct_flow};
use audo_profiler::session::{
    profile, DrainPolicy, SessionOptions, SessionOutcome, ToolLinkOptions,
};
use audo_profiler::spec::ProfileSpec;
use audo_profiler::Metric as ProfMetric;
use audo_workloads::engine::{engine_control, EngineParams};
use audo_workloads::Workload as Program;

use crate::host;
use crate::replay::profile_traced;
use crate::span::{Layer, Spans};
use crate::stats::Digest;
use crate::{
    closed_loop, per_layer_report, repeat_setup, EndToEnd, ExactCounts, RunConfig, RunReport,
    TracedTimes,
};

/// Sessions of the reference set (digest, exact counts).
pub const REFERENCE_SESSIONS: usize = 2;
/// Per-mechanism tool-link fault probability.
pub const FAULT_RATE: f64 = 0.001;
/// Trace region: the whole EMEM of the default derivative.
pub const TRACE_BYTES: u32 = 512 * 1024;
/// Payload pins of the wide DAP.
pub const DAP_PINS: u8 = 8;
/// Rate-probe window (cycles).
pub const WINDOW: u32 = 2_000;
/// Set-ups behind the `setup_s` median.
pub const SETUP_REPS: usize = 31;

/// What the sessions share: the assembled engine program and the
/// profiling specification.
pub struct TraceSetup {
    /// The full-length engine workload.
    pub program: Program,
    /// Rate probes plus program flow trace.
    pub spec: ProfileSpec,
}

/// Builds the session inputs.
#[must_use]
pub fn setup() -> TraceSetup {
    TraceSetup {
        program: engine_control(&EngineParams::default()),
        spec: ProfileSpec::new()
            .metric(ProfMetric::Ipc, WINDOW)
            .metric(ProfMetric::IcacheHitRatio, WINDOW)
            .metric(ProfMetric::DcacheHitRatio, WINDOW)
            .metric(ProfMetric::InterruptsPerKilocycle, WINDOW)
            .with_program_trace(),
    }
}

/// Session options of session `k` of a run with `seed`: only the link
/// fault stream differs between sessions.
#[must_use]
pub fn session_options(s: &TraceSetup, seed: u64, k: u64) -> SessionOptions {
    SessionOptions {
        max_cycles: s.program.max_cycles,
        drain: DrainPolicy::Session(ToolLinkOptions {
            dap: DapConfig {
                data_pins: DAP_PINS,
                ..DapConfig::default()
            },
            faults: FaultConfig::uniform(FAULT_RATE, audo_fleet::derive::derive_stream(seed, k)),
            ..ToolLinkOptions::default()
        }),
        run_to_halt: true,
        observe: false,
    }
}

fn new_device(s: &TraceSetup) -> Result<EmulationDevice, SimError> {
    let mut ed = EmulationDevice::new(
        SocConfig::default(),
        EdConfig {
            trace_bytes: TRACE_BYTES,
            trace_mode: TraceMode::Ring,
        },
    );
    s.program.install_ed(&mut ed)?;
    Ok(ed)
}

/// The deterministic result of one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired TriCore instructions.
    pub instructions: u64,
    /// Trace bytes produced.
    pub produced: u64,
    /// Trace bytes drained to the host.
    pub downloaded: u64,
    /// Trace bytes lost to EMEM overflow.
    pub lost: u64,
    /// Decoded messages.
    pub messages: u64,
    /// Rate samples in the timeline.
    pub timeline_samples: u64,
    /// The target halted.
    pub halted: bool,
    /// The drain recovered the whole stream without truncation.
    pub complete: bool,
    /// Tool-link retransmissions.
    pub retries: u64,
    /// Tool-link response timeouts.
    pub timeouts: u64,
    /// First decode error.
    pub decode_error: Option<String>,
    /// Function-level flat profile `(symbol, instructions)`, or the
    /// reconstruction error.
    pub flat: Result<Vec<(String, u64)>, String>,
}

impl SessionResult {
    /// The session passed every check.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.halted
            && self.complete
            && self.decode_error.is_none()
            && self.lost == 0
            && self.downloaded == self.produced
            && self.flat.is_ok()
    }

    fn digest(&self, d: &mut Digest) {
        d.u64(self.cycles);
        d.u64(self.produced);
        d.u64(self.messages);
        d.u64(self.retries);
        d.u64(self.timeouts);
        if let Ok(flat) = &self.flat {
            for (name, n) in flat {
                d.str(name);
                d.u64(*n);
            }
        }
    }
}

fn result_of(
    out: &SessionOutcome,
    ed: &EmulationDevice,
    flat: Result<Vec<(String, u64)>, String>,
) -> SessionResult {
    let tool = out.tool.expect("the framed session reports its link");
    SessionResult {
        cycles: out.cycles,
        instructions: ed.soc.tricore.retired_total(),
        produced: out.produced_bytes,
        downloaded: out.downloaded_bytes,
        lost: out.lost_bytes,
        messages: out.messages.len() as u64,
        timeline_samples: out
            .timeline
            .metrics()
            .into_iter()
            .map(|m| out.timeline.series(m).len() as u64)
            .sum(),
        halted: out.halted,
        complete: tool.complete && !tool.stats.trace_truncated,
        retries: tool.stats.retries,
        timeouts: tool.stats.timeouts,
        decode_error: out.decode_error.as_ref().map(ToString::to_string),
        flat,
    }
}

fn flat_of(program: &Program, out: &SessionOutcome) -> Result<Vec<(String, u64)>, String> {
    reconstruct_flow(&program.image, &out.messages)
        .map(|rec| {
            flat_profile(&rec)
                .into_iter()
                .map(|(name, n, _)| (name, n))
                .collect()
        })
        .map_err(|e| e.to_string())
}

/// Runs session `k` through the library's `profile`.
///
/// # Errors
///
/// Propagates install and simulation errors.
pub fn run_session(s: &TraceSetup, seed: u64, k: u64) -> Result<SessionResult, SimError> {
    let mut ed = new_device(s)?;
    let out = profile(&mut ed, &s.spec, &session_options(s, seed, k))?;
    let flat = flat_of(&s.program, &out);
    Ok(result_of(&out, &ed, flat))
}

/// Runs session `k` through the traced rebuild.
///
/// # Errors
///
/// Propagates install and simulation errors.
pub fn run_session_traced(
    s: &TraceSetup,
    seed: u64,
    k: u64,
    spans: &mut Spans,
    exact: &mut ExactCounts,
) -> Result<SessionResult, SimError> {
    let mut ed = spans.time(Layer::EdInstall, || new_device(s))?;
    let (out, grants) = profile_traced(&mut ed, &s.spec, &session_options(s, seed, k), spans)?;
    let flat = spans.time(Layer::CoreReconstruct, || flat_of(&s.program, &out));
    let result = result_of(&out, &ed, flat);
    let predecode = &ed.soc.tricore.stats().predecode;
    exact.add(&ExactCounts {
        cycles: result.cycles,
        instructions: result.instructions,
        trace_bytes: result.produced,
        lost_bytes: result.lost,
        messages: result.messages,
        retries: result.retries,
        timeouts: result.timeouts,
        drain_grants: grants.grants,
        drain_useful: grants.useful,
        predecode_hits: predecode.hits,
        predecode_misses: predecode.misses,
        ..ExactCounts::default()
    });
    Ok(result)
}

/// One closed-loop item.
#[derive(Debug, Clone)]
pub struct Item {
    /// The untraced session's result.
    pub result: Result<SessionResult, String>,
    /// Its wall time.
    pub secs: f64,
    /// Calibration kernel time after it.
    pub kernel_s: f64,
    /// Traced replay: spans, exact counts, and whether it matched.
    pub traced: Option<(TracedTimes, ExactCounts, bool)>,
}

/// Runs session `k`, and with `traced` its replay.
#[must_use]
pub fn run_item(s: &TraceSetup, seed: u64, k: u64, traced: bool) -> Item {
    let untraced = || {
        let clock = Instant::now();
        let result = run_session(s, seed, k).map_err(|e| e.to_string());
        let secs = clock.elapsed().as_secs_f64();
        (result, secs, host::kernel_s(secs))
    };
    if !traced {
        let (result, secs, kernel_s) = untraced();
        return Item {
            result,
            secs,
            kernel_s,
            traced: None,
        };
    }
    let replay = || {
        let mut times = TracedTimes::default();
        let mut exact = ExactCounts::default();
        let t = Instant::now();
        let replay =
            run_session_traced(s, seed, k, &mut times.spans, &mut exact).map_err(|e| e.to_string());
        times.traced_s = t.elapsed().as_secs_f64();
        times.items = 1;
        (replay, times, exact)
    };
    // Alternate which side runs first, so neither always finds the host's
    // caches warmed by the other.
    let ((result, secs, kernel_s), (replay, mut times, exact)) = if k.is_multiple_of(2) {
        let a = untraced();
        (a, replay())
    } else {
        let b = replay();
        (untraced(), b)
    };
    times.untraced_s = secs;
    Item {
        traced: Some((times, exact, replay == result)),
        result,
        secs,
        kernel_s,
    }
}

/// Runs the `trace` workload.
///
/// # Errors
///
/// Never fails to set up; session failures are counted.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let (inputs, setup) = repeat_setup(SETUP_REPS, setup);
    let lp = closed_loop(cfg.jobs, REFERENCE_SESSIONS, cfg.seconds, |k| {
        run_item(&inputs, cfg.seed, k as u64, cfg.traced)
    });

    let mut r = RunReport {
        correct: true,
        ..RunReport::default()
    };
    let mut e2e = EndToEnd {
        setup,
        wall_s: lp.wall_s,
        ..EndToEnd::default()
    };
    let mut digest = Digest::default();
    for (k, job) in lp.items.iter().enumerate() {
        let item = &job.output;
        e2e.sessions.push((item.secs, 0));
        e2e.kernels.push(item.kernel_s);
        match &item.result {
            Ok(res) => {
                e2e.instructions += res.instructions;
                r.failed += u64::from(!res.ok());
                if k < REFERENCE_SESSIONS {
                    res.digest(&mut digest);
                }
            }
            Err(e) => {
                r.failed += 1;
                r.notes.push(format!("session {k} failed: {e}"));
            }
        }
    }
    e2e.programs = e2e.sessions.len() as u64;
    r.attempted = e2e.programs;
    r.sim_digest = digest.value();
    if let Some(Ok(res)) = lp.items.first().map(|j| &j.output.result) {
        r.notes.push(format!(
            "trace: {} sessions of {} cycles, {} trace bytes, {} messages, {} retries \
             on session 0",
            e2e.programs, res.cycles, res.produced, res.messages, res.retries
        ));
    }

    if cfg.traced {
        let mut times = TracedTimes {
            queue_wait_s: lp.queue_wait_s,
            ..TracedTimes::default()
        };
        let mut exact = ExactCounts::default();
        for (k, job) in lp.items.iter().enumerate() {
            let (t, e, matched) = job.output.traced.as_ref().expect("traced run");
            times.spans.merge(&t.spans);
            times.traced_s += t.traced_s;
            times.untraced_s += t.untraced_s;
            times.items += t.items;
            if k < REFERENCE_SESSIONS {
                exact.add(e);
            }
            if !matched {
                r.correct = false;
                r.notes.push(format!("replay mismatch on session {k}"));
            }
        }
        per_layer_report(&mut r, &times, &exact, host::run_scale(&e2e.kernels));
    } else {
        e2e.report(&mut r);
    }
    Ok(r)
}

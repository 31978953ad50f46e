//! `fleet`: many short rate-only `audo_fleet` sessions over the 7-cohort
//! mix, with a 2% tool-link fault rate and planted miscalibrated units.
//!
//! Host time goes to `Soc::step` plus the per-cycle `HostTool::pump`;
//! the trace is rate messages only, so MCDS encoding, EMEM writes and
//! host decode do almost no work. A session fails when it errors, when
//! the veto flags a unit that was not planted, or when it misses one
//! that was.

use std::time::Instant;

use audo_common::SimError;
use audo_dap::FaultConfig;
use audo_ed::{EdConfig, EmulationDevice};
use audo_fleet::aggregate::CohortAggregate;
use audo_fleet::cohort::{CohortArtifacts, COHORTS};
use audo_fleet::derive::{is_miscalibrated, VehicleSpec};
use audo_fleet::session::{run_session, veto_code, SessionSample, VetoRow, HOT_BLOCKS_PER_SESSION};
use audo_fleet::{fold, FleetOptions, FleetPlan, ShardOutcome, VetoRecord};
use audo_profiler::session::{DrainPolicy, SessionOptions, ToolLinkOptions};
use audo_profiler::spec::ProfileSpec;
use audo_profiler::Metric as ProfMetric;

use crate::host;
use crate::replay::profile_traced;
use crate::span::{Layer, Spans};
use crate::stats::Digest;
use crate::{
    closed_loop, per_layer_report, repeat_setup, EndToEnd, ExactCounts, RunConfig, RunReport,
    TracedTimes,
};

/// Sessions of the reference set (the first shards): the digest and the
/// exact counts cover them.
pub const REFERENCE_SESSIONS: u64 = 64;
/// Sessions per shard (the fleet's own default); one closed-loop item.
pub const SHARD_SIZE: u64 = 32;
/// Base tool-link fault rate.
pub const FAULT_RATE: f64 = 0.02;
/// One planted miscalibrated unit per this many vehicles.
pub const PLANT_EVERY: u64 = 16;
/// Plan builds behind the `setup_s` median.
pub const SETUP_REPS: usize = 31;

/// The fleet options of a run with `seed`.
#[must_use]
pub fn options(seed: u64) -> FleetOptions {
    FleetOptions {
        sessions: REFERENCE_SESSIONS,
        seed,
        fault_rate: FAULT_RATE,
        miscalibrate: Some(PLANT_EVERY),
        shard_size: SHARD_SIZE,
        ..FleetOptions::default()
    }
}

/// Whether session `spec` passed: it completed, and the veto flagged it
/// exactly when the expected plant rate `claimed_plants` planted it.
#[must_use]
pub fn session_ok(
    spec: &VehicleSpec,
    sample: &Result<SessionSample, SimError>,
    claimed_plants: Option<u64>,
) -> bool {
    let planted = claimed_plants.is_some_and(|n| is_miscalibrated(spec.seed, n));
    matches!(sample, Ok(s) if s.vetoed == planted)
}

/// The traced rebuild of `audo_fleet::session::run_session`.
///
/// # Errors
///
/// Exactly the errors `run_session` returns.
pub fn run_session_traced(
    art: &CohortArtifacts,
    rogue: &audo_workloads::Workload,
    spec: &VehicleSpec,
    opts: &FleetOptions,
    spans: &mut Spans,
    exact: &mut ExactCounts,
) -> Result<SessionSample, SimError> {
    let workload = if spec.miscalibrated {
        rogue
    } else {
        &art.workload
    };
    let mut ed = spans.time(Layer::EdInstall, || -> Result<EmulationDevice, SimError> {
        let mut ed = EmulationDevice::new(art.config.clone(), EdConfig::default());
        workload.install_ed(&mut ed)?;
        ed.soc.tricore.set_profile_observation(true);
        Ok(ed)
    })?;
    let profile_spec = ProfileSpec::new()
        .metric(ProfMetric::Ipc, opts.metric_window)
        .with_timestamp_shift(4);
    let faults = if spec.fault_rate > 0.0 {
        FaultConfig::uniform(spec.fault_rate, spec.seed)
    } else {
        FaultConfig::lossless()
    };
    let (outcome, grants) = profile_traced(
        &mut ed,
        &profile_spec,
        &SessionOptions {
            max_cycles: art.budget.max(rogue.max_cycles),
            drain: DrainPolicy::Session(ToolLinkOptions {
                faults,
                ..ToolLinkOptions::default()
            }),
            run_to_halt: true,
            observe: true,
        },
        spans,
    )?;

    let (veto_rows, hot_blocks) = spans.time(Layer::AnalyzeVeto, || {
        let mut snapshot = std::collections::BTreeMap::new();
        for (name, v) in outcome.obs.counters() {
            snapshot.insert(audo_obs::metrics_text::sanitize(name), v as f64);
        }
        for (name, v) in outcome.obs.gauges() {
            snapshot.insert(audo_obs::metrics_text::sanitize(name), v);
        }
        let rows = audo_analyze::predict::check(&art.envelope, &snapshot);
        let mut veto_rows: Vec<VetoRow> = rows
            .iter()
            .filter(|r| !r.ok())
            .map(|r| VetoRow {
                rate: r.name,
                code: veto_code(r.name),
                measured: r.measured.unwrap_or(f64::NAN),
                lo: r.lo,
                hi: r.hi,
            })
            .collect();
        let hot_blocks = ed.soc.tricore.block_profile().map_or_else(Vec::new, |p| {
            p.top_blocks(HOT_BLOCKS_PER_SESSION)
                .into_iter()
                .map(|(k, c)| (*k, *c))
                .collect::<Vec<_>>()
        });
        if art.envelope.block_cycles_ub > 0 {
            let irqs = ed.soc.irqs_taken;
            for (_, c) in &hot_blocks {
                let entries = c.executions + 1 + irqs;
                let per_entry = c.cycles() as f64 / entries as f64;
                let ub = art.envelope.block_cycles_ub as f64;
                if per_entry > ub {
                    veto_rows.push(VetoRow {
                        rate: "wcet_block_cycles",
                        code: veto_code("wcet_block_cycles"),
                        measured: per_entry,
                        lo: 0.0,
                        hi: ub,
                    });
                    break;
                }
            }
        }
        (veto_rows, hot_blocks)
    });

    let find_hist = |suffix: &str| {
        outcome
            .obs
            .histograms()
            .find(|(n, _)| n.ends_with(suffix))
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    };
    let (link_retries, link_timeouts, link_truncated) = outcome.tool.map_or((0, 0, false), |t| {
        (t.stats.retries, t.stats.timeouts, t.stats.trace_truncated)
    });
    let predecode = &ed.soc.tricore.stats().predecode;
    exact.add(&ExactCounts {
        cycles: outcome.cycles,
        instructions: outcome.obs.counter("soc.tricore.instructions_retired"),
        trace_bytes: outcome.produced_bytes,
        lost_bytes: outcome.lost_bytes,
        messages: outcome.messages.len() as u64,
        retries: link_retries,
        timeouts: link_timeouts,
        drain_grants: grants.grants,
        drain_useful: grants.useful,
        predecode_hits: predecode.hits,
        predecode_misses: predecode.misses,
        ..ExactCounts::default()
    });
    Ok(SessionSample {
        cycles: outcome.cycles,
        instructions: outcome.obs.counter("soc.tricore.instructions_retired"),
        trace_produced: outcome.produced_bytes,
        trace_lost: outcome.lost_bytes,
        link_retries,
        link_timeouts,
        link_truncated,
        dap_transaction_cycles: find_hist("dap.transaction_cycles"),
        mcds_message_bytes: find_hist("mcds.message_bytes"),
        vetoed: !veto_rows.is_empty(),
        veto_rows,
        hot_blocks,
    })
}

/// The traced half of a shard: spans, timings, the replay's own shard
/// fold and its exact counts.
#[derive(Debug, Clone)]
pub struct TracedShard {
    /// Span times of the replays.
    pub times: TracedTimes,
    /// Exact counts of the replays.
    pub exact: ExactCounts,
    /// The replays' shard fold (must equal the untraced one).
    pub outcome: ShardOutcome,
    /// Sessions whose replay differed from the untraced run.
    pub mismatches: u64,
}

/// One closed-loop item: a shard of [`SHARD_SIZE`] sessions.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// The shard fold, exactly as `FleetPlan::run_shard` builds it.
    pub outcome: ShardOutcome,
    /// Wall time of each session (run plus fold).
    pub session_s: Vec<f64>,
    /// Calibration kernel time after each session.
    pub kernel_s: Vec<f64>,
    /// Cohort of each session, in session order.
    pub cohorts_of: Vec<usize>,
    /// Planted units among the sessions.
    pub planted: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Failed sessions.
    pub failed: u64,
    /// The traced replay (traced runs only).
    pub traced: Option<TracedShard>,
}

fn empty_outcome(cohorts: usize) -> ShardOutcome {
    ShardOutcome {
        cohorts: vec![CohortAggregate::default(); cohorts],
        vetoes: Vec::new(),
        cycles: 0,
        error: None,
    }
}

/// Folds one session into a shard outcome the way `run_shard` does.
fn fold_into(out: &mut ShardOutcome, spec: &VehicleSpec, sample: &Result<SessionSample, SimError>) {
    match sample {
        Ok(sample) => {
            out.cycles += sample.cycles;
            if sample.vetoed {
                out.vetoes.push(VetoRecord {
                    index: spec.index,
                    seed: spec.seed,
                    cohort: spec.cohort,
                    rows: sample.veto_rows.clone(),
                });
            }
            out.cohorts[spec.cohort].fold_session(sample);
        }
        Err(e) => {
            if out.error.is_none() {
                out.error = Some((spec.index, spec.seed, e.to_string()));
            }
        }
    }
}

/// The vehicles of shard `shard`: a cohort-stratified sample of the
/// seed-derived fleet. Each half of a shard holds exactly the cohort mix
/// of the weight table (one slot per unit of weight), filled with the
/// next fleet vehicles of that cohort in index order. The mix is the
/// fleet's own, but fixed, so a run's composition does not depend on
/// the seed or the run length; the seed picks the vehicles (fault
/// streams, planted units).
#[must_use]
pub fn shard_vehicles(plan: &FleetPlan, shard: u64) -> Vec<u64> {
    let weights: Vec<u64> = COHORTS.iter().map(|c| c.weight).collect();
    let round: u64 = weights.iter().sum();
    assert_eq!(
        SHARD_SIZE % round,
        0,
        "a shard holds whole rounds of the mix"
    );
    let rounds = SHARD_SIZE / round;
    let need: Vec<u64> = weights.iter().map(|w| (shard + 1) * rounds * w).collect();
    let mut found: Vec<Vec<u64>> = vec![Vec::new(); weights.len()];
    let mut index = 0u64;
    while found.iter().zip(&need).any(|(f, &n)| (f.len() as u64) < n) {
        let cohort = plan.vehicle(index).cohort;
        found[cohort].push(index);
        index += 1;
    }
    let mut out = Vec::with_capacity(SHARD_SIZE as usize);
    for r in 0..rounds {
        for (c, &w) in weights.iter().enumerate() {
            let first = ((shard * rounds + r) * w) as usize;
            out.extend_from_slice(&found[c][first..first + w as usize]);
        }
    }
    out
}

/// Runs the given fleet vehicles, each through the library's
/// `run_session`; with `traced`, each also through
/// [`run_session_traced`].
#[must_use]
pub fn run_vehicles(
    plan: &FleetPlan,
    vehicles: &[u64],
    traced: bool,
    claimed_plants: Option<u64>,
) -> ShardRun {
    let mut run = ShardRun {
        outcome: empty_outcome(plan.cohorts.len()),
        session_s: Vec::new(),
        kernel_s: Vec::new(),
        cohorts_of: Vec::new(),
        planted: 0,
        instructions: 0,
        failed: 0,
        traced: None,
    };
    let mut tr = traced.then(|| TracedShard {
        times: TracedTimes::default(),
        exact: ExactCounts::default(),
        outcome: empty_outcome(plan.cohorts.len()),
        mismatches: 0,
    });
    for (n, &index) in vehicles.iter().enumerate() {
        let spec = plan.vehicle(index);
        let art = &plan.cohorts[spec.cohort];
        run.cohorts_of.push(spec.cohort);
        run.planted += u64::from(spec.miscalibrated);
        let untraced = |run: &mut ShardRun| {
            let clock = Instant::now();
            let sample = run_session(art, &plan.rogue, &spec, &plan.opts);
            fold_into(&mut run.outcome, &spec, &sample);
            let secs = clock.elapsed().as_secs_f64();
            run.session_s.push(secs);
            if let Ok(s) = &sample {
                run.instructions += s.instructions;
            }
            run.failed += u64::from(!session_ok(&spec, &sample, claimed_plants));
            run.kernel_s.push(host::kernel_s(secs));
            (sample, secs)
        };
        let Some(tr) = &mut tr else {
            let _counted = untraced(&mut run);
            continue;
        };
        let replay = |tr: &mut TracedShard| {
            let t = Instant::now();
            let spans = &mut tr.times.spans;
            let replay =
                run_session_traced(art, &plan.rogue, &spec, &plan.opts, spans, &mut tr.exact);
            let out = &mut tr.outcome;
            spans.time(Layer::FleetFold, || fold_into(out, &spec, &replay));
            tr.times.traced_s += t.elapsed().as_secs_f64();
            tr.times.items += 1;
            replay
        };
        // Alternate which side runs first, so neither always finds the
        // host's caches warmed by the other.
        let ((sample, secs), replayed) = if n % 2 == 0 {
            let a = untraced(&mut run);
            (a, replay(tr))
        } else {
            let b = replay(tr);
            (untraced(&mut run), b)
        };
        tr.times.untraced_s += secs;
        if format!("{sample:?}") != format!("{replayed:?}") {
            tr.mismatches += 1;
        }
    }
    run.traced = tr;
    run
}

/// Folds shard outcomes into the fleet report, as `audo_fleet::fold`
/// does, with `planted` counted over the sampled vehicles.
///
/// # Errors
///
/// The first session failure, with the unit's index and seed.
pub fn report_json(
    plan: &FleetPlan,
    shards: &[ShardOutcome],
    planted: u64,
) -> Result<String, String> {
    let mut report = fold(plan, shards)?;
    report.planted = planted;
    Ok(report.to_json())
}

/// Runs the `fleet` workload.
///
/// # Errors
///
/// Never fails to set up; session failures are counted, not returned.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    run_with_claim(cfg, Some(PLANT_EVERY))
}

/// Runs the `fleet` workload, checking the veto against the plant rate
/// `claimed` (one unit in `n`) rather than the one the fleet plants.
///
/// # Errors
///
/// Never fails to set up; session failures are counted, not returned.
pub fn run_with_claim(cfg: &RunConfig, claimed: Option<u64>) -> Result<RunReport, String> {
    let opts = options(cfg.seed);
    let (plan, setup) = repeat_setup(SETUP_REPS, || audo_fleet::plan(opts.clone()));
    let reference = (REFERENCE_SESSIONS / SHARD_SIZE) as usize;
    let lp = closed_loop(cfg.jobs, reference, cfg.seconds, |s| {
        run_vehicles(&plan, &shard_vehicles(&plan, s as u64), cfg.traced, claimed)
    });

    let mut r = RunReport {
        correct: true,
        ..RunReport::default()
    };
    let mut e2e = EndToEnd {
        setup: setup.clone(),
        wall_s: lp.wall_s,
        ..EndToEnd::default()
    };
    let mut cohort_s: Vec<Vec<f64>> = vec![Vec::new(); COHORTS.len()];
    for job in &lp.items {
        let s = &job.output;
        for (t, &c) in s.session_s.iter().zip(&s.cohorts_of) {
            cohort_s[c].push(*t);
            e2e.sessions.push((*t, c));
        }
        e2e.instructions += s.instructions;
        e2e.kernels.extend(&s.kernel_s);
        r.failed += s.failed;
    }
    e2e.programs = e2e.sessions.len() as u64;
    r.attempted = e2e.programs;

    let planted: u64 = lp.items[..reference].iter().map(|j| j.output.planted).sum();
    let outcomes: Vec<ShardOutcome> = lp.items[..reference]
        .iter()
        .map(|j| j.output.outcome.clone())
        .collect();
    let json = report_json(&plan, &outcomes, planted).unwrap_or_else(|e| {
        r.correct = false;
        r.notes.push(format!("reference fleet failed: {e}"));
        String::new()
    });
    let mut digest = Digest::default();
    digest.str(&json);
    r.sim_digest = digest.value();
    r.notes.push(format!(
        "fleet: seed {}, {} sessions in {} shards of {SHARD_SIZE}, fault rate {FAULT_RATE}, \
         plant 1/{PLANT_EVERY}; sessions per cohort (median ms): {}",
        cfg.seed,
        e2e.programs,
        lp.items.len(),
        COHORTS
            .iter()
            .zip(&cohort_s)
            .map(|(c, t)| format!(
                "{}={} ({:.1})",
                c.name,
                t.len(),
                crate::stats::median(t) * 1e3
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    if cfg.traced {
        let mut times = TracedTimes {
            spans: Spans::new(),
            plan_s: setup.median_s(),
            queue_wait_s: lp.queue_wait_s,
            ..TracedTimes::default()
        };
        let mut exact = ExactCounts::default();
        let mut replayed = Vec::new();
        let mut mismatches = 0;
        for (i, job) in lp.items.iter().enumerate() {
            let tr = job.output.traced.as_ref().expect("traced run");
            times.spans.merge(&tr.times.spans);
            times.traced_s += tr.times.traced_s;
            times.untraced_s += tr.times.untraced_s;
            times.items += tr.times.items;
            mismatches += tr.mismatches;
            if i < reference {
                exact.add(&tr.exact);
                replayed.push(tr.outcome.clone());
            }
        }
        let t = Instant::now();
        let replay_json = times
            .spans
            .time(Layer::FleetFold, || report_json(&plan, &replayed, planted));
        times.traced_s += t.elapsed().as_secs_f64();
        if mismatches > 0 || replay_json.as_deref() != Ok(json.as_str()) {
            r.correct = false;
            r.notes.push(format!(
                "replay mismatch: {mismatches} session(s) differ from the untraced run"
            ));
        }
        per_layer_report(&mut r, &times, &exact, host::run_scale(&e2e.kernels));
    } else {
        e2e.report(&mut r);
    }
    Ok(r)
}

//! Experiment harness regenerating every figure/claim of the paper.
//!
//! The paper (a methodology paper) has no numbered result tables; its five
//! figures are architecture and methodology diagrams and §5 carries worked
//! numeric examples and quantitative claims. DESIGN.md maps each onto the
//! experiments E1–E16 implemented here. Each experiment returns a
//! [`report::Report`] with rendered results and machine-checkable claims,
//! shared between the `experiments` binary (prints everything for
//! EXPERIMENTS.md) and the integration tests.

use std::sync::OnceLock;

pub mod cli;
pub mod experiments;
pub mod harness;
pub mod json;
pub mod report;
pub mod scheduler;
pub mod tiers;

pub use experiments::*;
pub use report::{Check, Report};
pub use scheduler::{
    default_jobs, export_schedule_obs, run_jobs, wall_summary, TimedJob, WallSummary,
};

static DAP_FAULT_RATE: OnceLock<f64> = OnceLock::new();
static OBS: OnceLock<bool> = OnceLock::new();

/// Turns on experiment observability: reports created after this call carry
/// an enabled [`audo_obs::Registry`] that the experiments populate (the
/// `--trace-out`/`--metrics-out`/`--flame-out` CLI flags). Off by default —
/// with observability off the experiments do no instrumentation work and
/// their JSON summary is byte-identical to previous releases. First call
/// wins; later calls are ignored.
pub fn set_obs(enabled: bool) {
    let _ = OBS.set(enabled);
}

/// Whether experiment observability was switched on.
#[must_use]
pub fn obs_enabled() -> bool {
    OBS.get().copied().unwrap_or(false)
}

/// Overrides the fault-rate sweep of the tool-link experiment (E16): with
/// a rate set, E16 runs only that rate (the `--dap-fault-rate` CLI flag).
/// First call wins; later calls are ignored.
pub fn set_dap_fault_rate(rate: f64) {
    let _ = DAP_FAULT_RATE.set(rate);
}

/// The `--dap-fault-rate` override, if one was set.
#[must_use]
pub fn dap_fault_rate_override() -> Option<f64> {
    DAP_FAULT_RATE.get().copied()
}

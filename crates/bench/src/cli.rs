//! Command-line plumbing shared by the `analyze`, `profile`, `fleet`,
//! `fuzz` and `tier_bench` binaries.

use audo_platform::config::SocConfig;
use audo_workloads::engine::{engine_control, EngineParams};
use audo_workloads::{variants, Workload};

/// Builds the workload named by `spec`, `NAME[:flag,flag..]`: NAME is
/// engine | transmission | chassis; the engine flags are dspr-tables,
/// pspr-isrs, pcp-can and dspr-bg.
///
/// # Errors
///
/// Returns an error for an unknown name or flag.
pub fn build_workload(spec: &str) -> Result<Workload, String> {
    let (name, flags) = match spec.split_once(':') {
        Some((n, f)) => (n, f),
        None => (spec, ""),
    };
    match name {
        "engine" => {
            let mut p = EngineParams::default();
            for flag in flags.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                match flag {
                    "dspr-tables" => p.tables_in_dspr = true,
                    "pspr-isrs" => p.isrs_in_pspr = true,
                    "pcp-can" => p.can_on_pcp = true,
                    "dspr-bg" => {
                        p.bg_in_dspr = true;
                        p.tables_in_dspr = true; // required by the knob
                    }
                    other => return Err(format!("unknown engine flag {other:?}")),
                }
            }
            Ok(engine_control(&p))
        }
        "transmission" => Ok(variants::transmission_control(10)),
        "chassis" => Ok(variants::chassis_monitor(40, 2_000)),
        other => Err(format!(
            "unknown workload {other:?} (engine, transmission, chassis)"
        )),
    }
}

/// The platform derivative named `name`: tc1797 or tc1767.
///
/// # Errors
///
/// Returns an error for an unknown derivative.
pub fn build_config(name: &str) -> Result<SocConfig, String> {
    match name {
        "tc1797" => Ok(SocConfig::tc1797()),
        "tc1767" => Ok(SocConfig::tc1767()),
        other => Err(format!("unknown config {other:?} (tc1797, tc1767)")),
    }
}

/// Parses a decimal or `0x`-hex integer.
///
/// # Errors
///
/// Returns an error naming the text when it is not a number.
pub fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("not a number: {s:?}"))
}

/// Runs a binary's `run`, exiting with the status it returns, or printing
/// `tool: error` to stderr and exiting with `error_status` on an error.
pub fn main_with(tool: &str, error_status: i32, run: impl FnOnce() -> Result<i32, String>) -> ! {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("{tool}: {e}");
            std::process::exit(error_status);
        }
    }
}

//! Fleet-scale calibration service CLI: runs thousands of derived
//! per-vehicle profiling sessions, folds them into streaming per-cohort
//! aggregates, and vetoes any unit whose measured rates diverge from its
//! cohort's static envelope.
//!
//! ```text
//! cargo run --release -p audo-bench --bin fleet -- [options]
//!
//!   --sessions N        vehicles to profile (default 256)
//!   --seed S            fleet master seed, decimal or 0x-hex
//!   --fault-rate F      base tool-link fault rate (each unit derives a
//!                       jitter in [0.5, 1.5) on top)
//!   --miscalibrate 1/N  plant a miscalibrated unit per N vehicles
//!   --jobs N            worker threads (default: available parallelism)
//!   --shard-size N      sessions per shard (default 32); fixed
//!                       independently of --jobs so the report shape
//!                       never depends on the worker count
//!   --json              print the JSON report instead of the text one
//!   --trace PATH        write the deterministic virtual schedule as a
//!                       Chrome trace (chrome://tracing / Perfetto)
//!   --bench-json PATH   write wall-clock throughput (sessions/sec) as a
//!                       BENCH_fleet.json perf artifact
//! ```
//!
//! stdout carries only the deterministic report — byte-identical for any
//! `--jobs`. Wall-clock throughput goes to stderr and `--bench-json`.
//!
//! Exit status: 0 clean, 1 error, 2 at least one unit was vetoed.

use std::time::Duration;

use audo_bench::cli::{self, parse_u64};
use audo_bench::harness::{time, BenchDoc};
use audo_bench::{default_jobs, export_schedule_obs, run_jobs, wall_summary};
use audo_fleet::{fold, plan, FleetOptions};

struct Args {
    opts: FleetOptions,
    jobs: usize,
    json: bool,
    trace: Option<String>,
    bench_json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        opts: FleetOptions::default(),
        jobs: default_jobs(),
        json: false,
        trace: None,
        bench_json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--sessions" => args.opts.sessions = parse_u64(&value()?)?,
            "--seed" => args.opts.seed = parse_u64(&value()?)?,
            "--fault-rate" => {
                let v = value()?;
                args.opts.fault_rate = v.parse().map_err(|_| format!("not a rate: {v:?}"))?;
                if !(0.0..=1.0).contains(&args.opts.fault_rate) {
                    return Err(format!("--fault-rate {v} outside [0, 1]"));
                }
            }
            "--miscalibrate" => {
                let v = value()?;
                let n = v
                    .strip_prefix("1/")
                    .ok_or(format!("--miscalibrate wants 1/N, got {v:?}"))
                    .and_then(parse_u64)?;
                if n == 0 {
                    return Err("--miscalibrate 1/0 is not a rate".to_string());
                }
                args.opts.miscalibrate = Some(n);
            }
            "--jobs" => {
                args.jobs = parse_u64(&value()?)?
                    .try_into()
                    .map_err(|_| "--jobs out of range".to_string())?;
            }
            "--shard-size" => {
                args.opts.shard_size = parse_u64(&value()?)?.max(1);
            }
            "--json" => args.json = true,
            "--trace" => args.trace = Some(value()?),
            "--bench-json" => args.bench_json = Some(value()?),
            "--help" | "-h" => {
                println!(
                    "usage: fleet [--sessions N] [--seed S] [--fault-rate F] \
                     [--miscalibrate 1/N] [--jobs N] [--shard-size N] [--json] \
                     [--trace PATH] [--bench-json PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }
    Ok(args)
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;

    let (plan_ns, plan) = time(|| plan(args.opts.clone()));
    let plan_secs = Duration::from_nanos(plan_ns).as_secs_f64();

    let (run_ns, timed) = time(|| run_jobs(plan.shard_count(), args.jobs, |s| plan.run_shard(s)));
    let run_elapsed = Duration::from_nanos(run_ns);
    let run_secs = run_elapsed.as_secs_f64();

    let outcomes: Vec<_> = timed.iter().map(|j| j.output.clone()).collect();
    let report = fold(&plan, &outcomes)?;

    if args.json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }

    if let Some(path) = &args.trace {
        let mut reg = audo_obs::Registry::new();
        export_schedule_obs(&mut reg, "fleet.schedule", 1, &report.shard_cycles);
        let body = audo_obs::chrome::trace_json(
            &reg,
            "audo-fleet",
            &[(1, "fleet schedule (virtual replay)".to_string())],
        );
        std::fs::write(path, body).map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    // Wall-clock channel: stderr + perf artifact only, never stdout.
    let wall = wall_summary(&timed, run_elapsed, args.jobs);
    #[allow(clippy::cast_precision_loss)] // reason: stderr perf stats, not a deterministic export
    {
        eprintln!(
            "fleet: {} sessions in {:.2}s ({:.1} sessions/sec, {} jobs, \
             utilization {:.0}%, plan build {:.2}s)",
            report.total_sessions(),
            run_secs,
            report.total_sessions() as f64 / run_secs.max(1e-9),
            args.jobs,
            wall.utilization * 100.0,
            plan_secs,
        );
    }
    if let Some(path) = &args.bench_json {
        let mut doc = BenchDoc::new("fleet_sessions", args.jobs, 1);
        doc.row(
            "fleet",
            "run",
            report.total_sessions(),
            "session",
            &[run_ns],
        );
        doc.row("fleet", "run", report.total_cycles(), "cycle", &[run_ns]);
        doc.write(path)?;
        eprintln!("wrote {path}");
    }

    Ok(if report.is_clean() { 0 } else { 2 })
}

fn main() {
    cli::main_with("fleet", 1, run);
}

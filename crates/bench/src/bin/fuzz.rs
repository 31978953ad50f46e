//! Coverage-guided differential fuzzer CLI: random-but-valid TC-R
//! programs through all execution tiers, with corpus mutation, opcode
//! coverage feedback and shrink-and-pin on divergence.
//!
//! ```text
//! cargo run --release -p audo-bench --bin fuzz -- [options]
//!
//!   --seed S            session seed, decimal or 0x-hex (default 0)
//!   --iterations N      fuzz cases to run (default 200)
//!   --jobs N            worker threads (default: available parallelism)
//!   --round N           cases per coverage-feedback round (default 128);
//!                       fixed independently of --jobs so generation
//!                       never depends on the worker count
//!   --max-instrs N      retired-instruction budget per program
//!   --corpus DIR        literate corpus directory (default: the repo's
//!                       workloads/corpus)
//!   --no-corpus         generation-only session (skip the corpus
//!                       baseline and mutation)
//!   --pin-dir DIR       write minimized reproducers here on divergence
//!   --inject-fault M    test-only: corrupt the fast-path result of any
//!                       program that retires mnemonic M (exercises the
//!                       whole shrink/pin loop without a real bug)
//!   --check-wcet        additionally hold every agreeing program to the
//!                       static WCET/CSA bounds from audo-analyze: a
//!                       measured count above a static bound is reported,
//!                       shrunk and pinned like a tier divergence
//!   --json              print the JSON report instead of the text one
//!   --bench-json PATH   write wall-clock throughput (programs/sec) as a
//!                       BENCH_fuzz.json perf artifact
//!   --metrics-out PATH  export the session's coverage counters (decoder
//!                       slots hit, stall causes observed) in the audo-obs
//!                       text exposition format
//! ```
//!
//! stdout carries only the deterministic report — byte-identical for any
//! `--jobs`. Wall-clock throughput goes to stderr and `--bench-json`.
//!
//! Exit status: 0 clean, 1 error, 2 at least one divergence.

use audo_bench::cli::{self, parse_u64};
use audo_bench::harness::{time, BenchDoc};
use audo_bench::{default_jobs, run_jobs};
use audo_fuzz::{run_fuzz, CaseResult, FuzzOptions, FuzzReport};
use audo_obs::chrome::json_escape;
use audo_tricore::opcodes::opcode_by_name;

struct Args {
    opts: FuzzOptions,
    jobs: usize,
    json: bool,
    bench_json: Option<String>,
    metrics_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        opts: FuzzOptions {
            iterations: 200,
            corpus_dir: Some(audo_asm::default_corpus_dir()),
            ..FuzzOptions::default()
        },
        jobs: default_jobs(),
        json: false,
        bench_json: None,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => args.opts.seed = parse_u64(&value()?)?,
            "--iterations" => args.opts.iterations = parse_u64(&value()?)?,
            "--max-instrs" => args.opts.max_instrs = parse_u64(&value()?)?.max(1),
            "--round" => args.opts.round = parse_u64(&value()?)?.max(1),
            "--jobs" => {
                args.jobs = parse_u64(&value()?)?
                    .try_into()
                    .map_err(|_| "--jobs out of range".to_string())?;
            }
            "--corpus" => args.opts.corpus_dir = Some(value()?.into()),
            "--no-corpus" => args.opts.corpus_dir = None,
            "--pin-dir" => args.opts.pin_dir = Some(value()?.into()),
            "--inject-fault" => {
                let m = value()?;
                args.opts.fault = Some(
                    opcode_by_name(&m).ok_or(format!("--inject-fault: unknown mnemonic {m:?}"))?,
                );
            }
            "--check-wcet" => args.opts.check_wcet = true,
            "--json" => args.json = true,
            "--bench-json" => args.bench_json = Some(value()?),
            "--metrics-out" => args.metrics_out = Some(value()?),
            "--help" | "-h" => {
                println!(
                    "usage: fuzz [--seed S] [--iterations N] [--jobs N] [--round N] \
                     [--max-instrs N] [--corpus DIR | --no-corpus] [--pin-dir DIR] \
                     [--inject-fault MNEMONIC] [--check-wcet] [--json] \
                     [--bench-json PATH] [--metrics-out PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }
    Ok(args)
}

/// Deterministic JSON rendering of the session report.
fn report_json(r: &FuzzReport) -> String {
    let (covered, sampleable, uncovered) = r.coverage_counts();
    let uncovered: Vec<String> = uncovered.iter().map(|n| format!("\"{n}\"")).collect();
    let divergences: Vec<String> = r
        .divergences
        .iter()
        .map(|d| {
            let case = d
                .index
                .map_or_else(|| "null".to_string(), |i| i.to_string());
            let pinned = d
                .pinned
                .as_ref()
                .map_or_else(|| "null".to_string(), |p| format!("\"{}\"", json_escape(p)));
            format!(
                "    {{\"case\": {case}, \"kind\": \"{}\", \"message\": \"{}\", \
                 \"pinned\": {pinned}}}",
                json_escape(&d.kind),
                json_escape(&d.message)
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": \"{:#x}\",\n  \"iterations\": {},\n  \
         \"corpus_programs\": {},\n  \"agreed_fault_programs\": {},\n  \
         \"retired_total\": {},\n  \"coverage_covered\": {covered},\n  \
         \"coverage_sampleable\": {sampleable},\n  \"uncovered\": [{}],\n  \
         \"divergences\": [\n{}\n  ],\n  \"clean\": {}\n}}\n",
        r.seed,
        r.iterations,
        r.corpus_programs,
        r.errored,
        r.retired_total,
        uncovered.join(", "),
        divergences.join(",\n"),
        r.divergences.is_empty(),
    )
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let jobs = args.jobs.max(1);

    let (run_ns, report) = time(|| {
        run_fuzz(&args.opts, |count, case| {
            run_jobs(count, jobs, case)
                .into_iter()
                .map(|t| t.output)
                .collect::<Vec<CaseResult>>()
        })
    });
    let report = report.map_err(|e| e.to_string())?;
    let run_secs = std::time::Duration::from_nanos(run_ns).as_secs_f64();

    if args.json {
        print!("{}", report_json(&report));
    } else {
        print!("{}", report.render());
    }

    if let Some(path) = &args.metrics_out {
        let mut reg = audo_obs::Registry::new();
        report.export_obs(&mut reg);
        let body = audo_obs::metrics_text::render(&reg, "audo_");
        std::fs::write(path, body).map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    // Wall-clock channel: stderr + perf artifact only, never stdout.
    let programs = report.iterations + report.corpus_programs as u64;
    #[allow(clippy::cast_precision_loss)] // reason: stderr perf stats, not a deterministic export
    {
        eprintln!(
            "fuzz: {programs} programs in {run_secs:.2}s ({:.1} programs/sec, {jobs} jobs)",
            programs as f64 / run_secs.max(1e-9),
        );
    }
    if let Some(path) = &args.bench_json {
        let mut doc = BenchDoc::new("fuzz_programs", jobs, 1);
        doc.row("fuzz", "run", programs, "program", &[run_ns]);
        doc.row("fuzz", "run", report.retired_total, "instr", &[run_ns]);
        doc.write(path)?;
        eprintln!("wrote {path}");
    }

    Ok(if report.divergences.is_empty() { 0 } else { 2 })
}

fn main() {
    cli::main_with("fuzz", 1, run);
}

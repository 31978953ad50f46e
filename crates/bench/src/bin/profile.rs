//! Block-level sampling profiler CLI: runs a workload on the functional
//! ISS or the cycle-level pipeline with block profiling on, symbolizes
//! the hot blocks against the recovered CFG, and renders hot-spot
//! reports, folded-stack flamegraphs, annotated disassembly, and
//! machine-readable profile documents.
//!
//! ```text
//! cargo run --release -p audo-bench --bin profile -- [options]
//!
//!   --workload SPEC[,SPEC..]  workloads to profile (default: engine).
//!                             SPEC is NAME[:flags] as accepted by the
//!                             analyze CLI (engine flags: dspr-tables,
//!                             pspr-isrs, pcp-can, dspr-bg)
//!   --config NAME             platform derivative: tc1797 (default) or
//!                             tc1767
//!   --tier iss|pipeline       execution tier (default: pipeline). The
//!                             pipeline tier attributes cycles and stall
//!                             causes; the ISS tier counts executions and
//!                             retired instructions only
//!   --top N                   rows in the hot-block table (default: 10)
//!   --annotate                add per-instruction disassembly under each
//!                             hot block
//!   --json PATH               write the profile document (single
//!                             workload only)
//!   --flame-out PATH          write folded stacks (flamegraph input);
//!                             multiple workloads merge under their names
//!   --jobs N                  worker threads for multi-workload runs
//!                             (default: available parallelism)
//!
//!   --compare A.json B.json   differential mode: print the per-block
//!                             delta table between two --json documents
//! ```
//!
//! Every report is a pure function of the workload and tier: byte
//! identical across runs and for any `--jobs`. On the pipeline tier the
//! CLI additionally machine-checks the attribution invariant — per-block
//! attributed cycles plus the unattributed bucket must sum *exactly* to
//! the pipeline's `retire + Σ stalls == cycles` totals — and fails hard
//! if it does not hold.
//!
//! The cost of profiling itself is measured by `tier_bench`.
//!
//! Exit status: 0 success, 2 invalid command line / file error /
//! attribution-check failure.

use audo_analyze::{cfg, symbols};
use audo_bench::cli::{self, build_config, build_workload};
use audo_bench::scheduler;
use audo_common::{Addr, SimError};
use audo_obs::profile::{flame_stacks, render_annotated, render_hot_blocks, ProfileDoc};
use audo_obs::FoldedStacks;
use audo_platform::config::{SocConfig, DSPR_BASE, PERIPH_BASE};
use audo_platform::Soc;
use audo_tricore::disasm::disassemble_range;
use audo_tricore::iss::Iss;
use audo_workloads::Workload;

struct Args {
    workloads: Vec<String>,
    config: String,
    tier: String,
    top: usize,
    annotate: bool,
    json: Option<String>,
    flame_out: Option<String>,
    jobs: usize,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: vec!["engine".to_string()],
        config: "tc1797".to_string(),
        tier: "pipeline".to_string(),
        top: 10,
        annotate: false,
        json: None,
        flame_out: None,
        jobs: scheduler::default_jobs(),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let spec = it.next().ok_or("--workload needs a value")?;
                args.workloads = spec
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if args.workloads.is_empty() {
                    return Err("--workload needs at least one spec".to_string());
                }
            }
            "--config" => args.config = it.next().ok_or("--config needs a value")?,
            "--tier" => args.tier = it.next().ok_or("--tier needs a value")?,
            "--top" => {
                args.top = it
                    .next()
                    .ok_or("--top needs a count")?
                    .parse()
                    .map_err(|_| "--top must be an integer")?;
            }
            "--annotate" => args.annotate = true,
            "--json" => args.json = Some(it.next().ok_or("--json needs a path")?),
            "--flame-out" => args.flame_out = Some(it.next().ok_or("--flame-out needs a path")?),
            "--jobs" => {
                args.jobs = it
                    .next()
                    .ok_or("--jobs needs a count")?
                    .parse()
                    .map_err(|_| "--jobs must be an integer")?;
            }
            "--compare" => {
                let a = it.next().ok_or("--compare needs two paths")?;
                let b = it.next().ok_or("--compare needs two paths")?;
                args.compare = Some((a, b));
            }
            "--help" | "-h" => {
                println!(
                    "usage: profile [--workload SPEC[,SPEC..]] [--config tc1797|tc1767] \
                     [--tier iss|pipeline] [--top N] [--annotate] [--json PATH] \
                     [--flame-out PATH] [--jobs N] | --compare A.json B.json"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }
    if !matches!(args.tier.as_str(), "iss" | "pipeline") {
        return Err(format!("unknown tier {:?} (iss, pipeline)", args.tier));
    }
    Ok(args)
}

/// Everything one profiled workload run produces, ready to print.
struct RunOutput {
    /// `== name (tier) ==` banner plus the attribution-check line.
    header: String,
    /// Hot-block table, optionally followed by annotated disassembly.
    report: String,
    /// Serializable document for `--json` / `--compare`.
    doc: ProfileDoc,
    /// Folded stacks for `--flame-out`.
    stacks: FoldedStacks,
}

/// Runs `spec` on the pipeline tier of a full SoC with profiling on and
/// machine-checks the attribution invariant against the pipeline stats.
fn run_pipeline_tier(
    w: &Workload,
    soc_cfg: &SocConfig,
) -> Result<(audo_obs::profile::BlockProfile, u64, u64), String> {
    let mut soc = Soc::new(soc_cfg.clone());
    w.install(&mut soc)
        .map_err(|e| format!("workload install failed: {e}"))?;
    soc.tricore.set_profile_observation(true);
    soc.run_to_halt(w.max_cycles)
        .map_err(|e| format!("workload run failed: {e}"))?;
    let profile = soc
        .tricore
        .block_profile()
        .cloned()
        .expect("profiling was enabled");
    let stats = soc.tricore.stats();
    let cycles = stats.retire_cycles + stats.stall_total();
    let attributed = profile.total();
    if attributed.cycles() != cycles || attributed.retire_cycles != stats.retire_cycles {
        return Err(format!(
            "attribution check FAILED for {}: profile accounts {} cycles ({} retire + {} stall) \
             but the pipeline ran {} ({} retire + {} stall)",
            w.name,
            attributed.cycles(),
            attributed.retire_cycles,
            attributed.stall_total(),
            cycles,
            stats.retire_cycles,
            stats.stall_total(),
        ));
    }
    Ok((profile, cycles, soc.tricore.retired_total()))
}

/// Runs `spec` on the bare functional ISS with profiling on. The memory
/// map is taken from the SoC config (plus a flat RAM window over the
/// peripheral space, so register writes don't fault); the run stops at
/// the first `halt`/`wait` or at the cycle budget, whichever comes first
/// — all three are clean, deterministic stops for profiling purposes.
fn run_iss_tier(
    w: &Workload,
    soc_cfg: &SocConfig,
) -> Result<(audo_obs::profile::BlockProfile, u64), String> {
    use audo_platform::config::{DFLASH_BASE, PFLASH_BASE, PSPR_BASE, SRAM_BASE};
    let mut iss = Iss::new();
    // reason: ByteSize::bytes is a u64 API over u32-sized memories.
    #[allow(clippy::cast_possible_truncation)]
    for (base, len) in [
        (PFLASH_BASE, soc_cfg.pflash_size.bytes() as u32),
        (DFLASH_BASE, soc_cfg.dflash_size.bytes() as u32),
        (SRAM_BASE, soc_cfg.sram_size.bytes() as u32),
        (PSPR_BASE, soc_cfg.pspr_size.bytes() as u32),
        (DSPR_BASE, soc_cfg.dspr_size.bytes() as u32),
        (PERIPH_BASE, 0x10_0000),
    ] {
        iss.map_region(base, len);
    }
    iss.init_csa(Addr(DSPR_BASE.0 + 0x8000), 64)
        .map_err(|e| format!("CSA init failed: {e}"))?;
    iss.load(&w.image)
        .map_err(|e| format!("image load failed: {e}"))?;
    iss.set_fast_path(true);
    iss.set_profile_observation(true);
    match iss.run_resumable(w.max_cycles) {
        Ok(_) | Err(SimError::LimitExceeded { .. }) => {}
        Err(e) => return Err(format!("workload run failed: {e}")),
    }
    let profile = iss.block_profile().cloned().expect("profiling was enabled");
    Ok((profile, iss.instr_count()))
}

/// Profiles one workload spec end to end: run, symbolize, render.
fn run_one(spec: &str, args: &Args) -> Result<RunOutput, String> {
    let w = build_workload(spec)?;
    let soc_cfg = build_config(&args.config)?;
    let (profile, total_cycles, total_instructions) = match args.tier.as_str() {
        "pipeline" => run_pipeline_tier(&w, &soc_cfg)?,
        _ => {
            let (profile, instrs) = run_iss_tier(&w, &soc_cfg)?;
            (profile, 0, instrs)
        }
    };

    let graph = cfg::recover(&w.image);
    let symbol_map = symbols::symbol_map(&graph, &soc_cfg);
    let calls = symbols::call_graph(&graph, &symbol_map);

    let mut header = format!("== {} ({}) ==\n", w.name, args.tier);
    if args.tier == "pipeline" {
        let total = profile.total();
        header.push_str(&format!(
            "attribution: {} cycles == retire {} + stalls {} (exact), {} instructions\n",
            total.cycles(),
            total.retire_cycles,
            total.stall_total(),
            total_instructions,
        ));
    } else {
        header.push_str(&format!(
            "attribution: {total_instructions} instructions retired (functional tier, no cycles)\n"
        ));
    }

    let mut report = render_hot_blocks(&profile, &symbol_map, args.top);
    if args.annotate {
        report.push_str(&render_annotated(
            &profile,
            &symbol_map,
            args.top,
            |start, span| {
                disassemble_range(&w.image, Addr(start), span)
                    .into_iter()
                    .map(|l| (l.addr.0, l.text))
                    .collect()
            },
        ));
    }

    let stacks = flame_stacks(&profile, &symbol_map, &calls);
    let doc = ProfileDoc::new(
        &w.name,
        &args.tier,
        total_cycles,
        total_instructions,
        profile,
        &symbol_map,
    );
    Ok(RunOutput {
        header,
        report,
        doc,
        stacks,
    })
}

/// Differential mode: print the per-block delta table between two
/// profile documents written by `--json`.
fn run_compare(a_path: &str, b_path: &str, top: usize) -> Result<(), String> {
    let read = |path: &str| -> Result<ProfileDoc, String> {
        let body =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        ProfileDoc::from_json(&body).map_err(|e| format!("{path}: {e}"))
    };
    let before = read(a_path)?;
    let after = read(b_path)?;
    print!("{}", before.delta_table(&after, top));
    Ok(())
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;

    if let Some((a, b)) = &args.compare {
        run_compare(a, b, args.top)?;
        return Ok(0);
    }

    if args.json.is_some() && args.workloads.len() > 1 {
        return Err("--json requires a single --workload".to_string());
    }

    let outputs = scheduler::run_jobs(args.workloads.len(), args.jobs, |i| {
        run_one(&args.workloads[i], &args)
    });
    let mut merged = FoldedStacks::new();
    let many = args.workloads.len() > 1;
    let mut first = true;
    for job in outputs {
        let out = job.output?;
        if !first {
            println!();
        }
        first = false;
        print!("{}", out.header);
        print!("{}", out.report);
        if let Some(path) = &args.json {
            std::fs::write(path, out.doc.to_json())
                .map_err(|e| format!("could not write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        merged.merge(
            &out.stacks,
            if many {
                Some(out.doc.workload.as_str())
            } else {
                None
            },
        );
    }
    if let Some(path) = &args.flame_out {
        std::fs::write(path, merged.render())
            .map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(0)
}

fn main() {
    cli::main_with("profile", 2, run);
}

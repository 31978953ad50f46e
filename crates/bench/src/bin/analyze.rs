//! Static guest-image analyzer CLI: recovers the CFG of a workload
//! image, classifies every static memory access against the platform
//! memory map, reports contract violations and multi-master hazards, and
//! optionally cross-checks a measured metrics snapshot against the
//! static rate bounds.
//!
//! ```text
//! cargo run --release -p audo-bench --bin analyze -- [options]
//!
//!   --workload NAME[:flags]  workload to analyze (default: engine).
//!                            NAME is engine | transmission | chassis;
//!                            engine flags (comma-separated): dspr-tables,
//!                            pspr-isrs, pcp-can, dspr-bg
//!   --asm PATH               analyze an assembly source file instead of
//!                            a named workload (no DMA/PCP masters)
//!   --config NAME            platform derivative: tc1797 (default) or
//!                            tc1767
//!   --json                   print the machine-readable JSON report
//!                            instead of the rustc-style text report
//!   --wcet                   additionally run the whole-program WCET and
//!                            CSA-depth analysis and print its report
//!   --csa-frames N           CSA free-list budget for --wcet (default:
//!                            the platform's 48 frames)
//!   --check-profile          run the image under the block profiler and
//!                            verify measured per-block and end-to-end
//!                            cycles never exceed the static bounds
//!                            (implies the --wcet analysis)
//!   --measure PATH           additionally run the workload to halt and
//!                            write a Prometheus-style metrics snapshot
//!   --check-against PATH     load a metrics snapshot (from --measure or
//!                            experiments --metrics-out) and print the
//!                            static-vs-measured divergence table
//!   --bench-json PATH        instead of analyzing one image, time the
//!                            full static pipeline (CFG recovery,
//!                            classification, rate prediction, WCET) over
//!                            the named workloads and write analyzer
//!                            throughput (blocks/sec) as a
//!                            BENCH_analyze.json perf artifact
//! ```
//!
//! Exit status: 0 clean, 1 the analysis reported errors, 2 the measured
//! snapshot diverged from the static bounds, the WCET analysis reported
//! an error-severity finding (CSA overflow or recursion), a profile
//! check found a bound violation, or the command line / a file
//! operation was invalid.

use audo_analyze::findings::{Finding, Severity};
use audo_analyze::{analyze, constprop, predict, wcet, MasterRanges};
use audo_bench::cli::{self, build_config, build_workload};
use audo_bench::harness::{measure, time, BenchDoc};
use audo_platform::config::SocConfig;
use audo_platform::soc::CSA_AREAS;
use audo_platform::Soc;
use audo_tricore::pipeline::CostModel;

struct Args {
    workload: String,
    asm: Option<String>,
    config: String,
    json: bool,
    wcet: bool,
    csa_frames: Option<u32>,
    check_profile: bool,
    measure: Option<String>,
    check_against: Option<String>,
    bench_json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "engine".to_string(),
        asm: None,
        config: "tc1797".to_string(),
        json: false,
        wcet: false,
        csa_frames: None,
        check_profile: false,
        measure: None,
        check_against: None,
        bench_json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                args.workload = it.next().ok_or("--workload needs a value")?;
            }
            "--asm" => {
                args.asm = Some(it.next().ok_or("--asm needs a path")?);
            }
            "--config" => {
                args.config = it.next().ok_or("--config needs a value")?;
            }
            "--json" => args.json = true,
            "--wcet" => args.wcet = true,
            "--csa-frames" => {
                let v = it.next().ok_or("--csa-frames needs a value")?;
                args.csa_frames = Some(v.parse().map_err(|_| format!("not a number: {v:?}"))?);
            }
            "--check-profile" => args.check_profile = true,
            "--measure" => {
                args.measure = Some(it.next().ok_or("--measure needs a path")?);
            }
            "--check-against" => {
                args.check_against = Some(it.next().ok_or("--check-against needs a path")?);
            }
            "--bench-json" => {
                args.bench_json = Some(it.next().ok_or("--bench-json needs a path")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: analyze [--workload NAME[:flags] | --asm PATH] \
                     [--config tc1797|tc1767] [--json] [--wcet] [--csa-frames N] \
                     [--check-profile] [--measure PATH] [--check-against PATH] \
                     [--bench-json PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }
    Ok(args)
}

/// Cycle budget for `--asm` images, which carry no workload metadata.
const ASM_MAX_CYCLES: u64 = 5_000_000;

/// Times the full static pipeline over the named workloads and writes
/// the throughput artifact. Images are built outside the timed region;
/// the pass runs `REPS` times and every pass must see the same blocks.
fn run_bench(cfg: &SocConfig, path: &str) -> Result<(), String> {
    const REPS: usize = 5;
    let mut prepared = Vec::new();
    for spec in ["engine", "transmission", "chassis"] {
        let w = build_workload(spec)?;
        let mut soc = Soc::new(cfg.clone());
        w.install(&mut soc)
            .map_err(|e| format!("workload install failed: {e}"))?;
        let masters = MasterRanges::derive(&soc.fabric.dma, None);
        prepared.push((w.image, masters, w.name));
    }
    let (ns, blocks) = measure(REPS, &["pass"], |_| {
        time(|| {
            let mut blocks = 0u64;
            for (image, masters, name) in &prepared {
                let a = audo_analyze::analyze(image, cfg, masters, name);
                let sol = constprop::solve(&a.cfg);
                let model = CostModel::new(cfg.cpu.clone(), wcet::soc_mem_costs(cfg));
                let report = wcet::analyze_wcet(&a.cfg, &sol, &model, CSA_AREAS, name);
                blocks += a.cfg.blocks.len() as u64;
                std::hint::black_box(&report);
            }
            blocks
        })
    })?;
    let mut doc = BenchDoc::new("analyze_blocks", 1, REPS);
    doc.row("analyze", "pass", blocks, "block", &ns[0]);
    doc.write(path)?;
    let row = &doc.rows[0];
    eprintln!(
        "analyze: {} blocks in {:.3}s ({:.0} blocks/sec)",
        row.work,
        row.ns.median / 1e9,
        row.per_sec()
    );
    eprintln!("wrote {path}");
    Ok(())
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let cfg = build_config(&args.config)?;

    if let Some(path) = &args.bench_json {
        run_bench(&cfg, path)?;
        return Ok(0);
    }

    // Build the image and a fresh SoC holding it. Workloads install
    // through their setup hook (so the DMA programming is visible to the
    // hazard detector); --asm sources are assembled and loaded bare.
    let mut soc = Soc::new(cfg.clone());
    let (image, name, max_cycles, masters);
    if let Some(path) = &args.asm {
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        image = audo_tricore::asm::assemble(&src).map_err(|e| format!("{path}: {e}"))?;
        name = std::path::Path::new(path)
            .file_stem()
            .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
        max_cycles = ASM_MAX_CYCLES;
        masters = MasterRanges::empty();
        soc.load_image(&image)
            .map_err(|e| format!("image load failed: {e}"))?;
    } else {
        let w = build_workload(&args.workload)?;
        w.install(&mut soc)
            .map_err(|e| format!("workload install failed: {e}"))?;
        let pcp = w.pcp().map(|p| {
            let entries: Vec<u16> = p.channels.iter().map(|&(_, e)| e).collect();
            (p.words.clone(), p.base, entries)
        });
        masters = match &pcp {
            Some((words, base, entries)) => MasterRanges::derive(
                &soc.fabric.dma,
                Some((words.as_slice(), *base, entries.as_slice())),
            ),
            None => MasterRanges::derive(&soc.fabric.dma, None),
        };
        max_cycles = w.max_cycles;
        name = w.name;
        image = w.image;
    }
    let a = analyze(&image, &cfg, &masters, &name);

    if args.json {
        println!("{}", a.to_json());
    } else {
        print!("{}", a.to_text());
    }

    // The WCET layer shares one timing table with the cycle-level
    // pipeline: the exported cost model, fed the SoC's memory latencies.
    let mut wcet_failed = false;
    let wcet_report = if args.wcet || args.check_profile {
        let sol = constprop::solve(&a.cfg);
        let model = CostModel::new(cfg.cpu.clone(), wcet::soc_mem_costs(&cfg));
        let budget = args.csa_frames.unwrap_or(CSA_AREAS);
        let report = wcet::analyze_wcet(&a.cfg, &sol, &model, budget, &name);
        if args.wcet {
            print!("{}", wcet::render_report(&report));
        }
        wcet_failed = report.has_errors();
        Some((report, model))
    } else {
        None
    };

    // --measure and --check-profile share one run of the freshly built
    // SoC (profiling is enabled up front when the check needs it).
    let mut profile_violated = false;
    if args.measure.is_some() || args.check_profile {
        // Load-time code-region stamps: sampled before the run so the
        // check can tell image-resident blocks from self-modified ones.
        let stamps = wcet::code_stamps(&a.cfg, &soc.fabric);
        if args.check_profile {
            soc.tricore.set_profile_observation(true);
        }
        soc.run_to_halt(max_cycles)
            .map_err(|e| format!("workload run failed: {e}"))?;

        if let Some(path) = &args.measure {
            let mut reg = audo_obs::Registry::new();
            soc.export_obs(&mut reg);
            let body = audo_obs::metrics_text::render(&reg, "audo_");
            std::fs::write(path, body).map_err(|e| format!("could not write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }

        if args.check_profile {
            let (report, model) = wcet_report
                .as_ref()
                .expect("check_profile computed the WCET report above");
            let profile = soc
                .tricore
                .block_profile()
                .cloned()
                .ok_or("block profiler produced no profile")?;
            let stats = soc.tricore.stats();
            let total_cycles = stats.retire_cycles + stats.stall_total();
            let csa_peak = soc.tricore.arch().csa_depth_peak;
            let check = wcet::check_profile(
                &a.cfg,
                model,
                report,
                &profile,
                &stamps,
                total_cycles,
                soc.irqs_taken,
                csa_peak,
            );
            print!("{}", wcet::render_check(&name, &check));
            profile_violated = !check.sound();
        }
    }

    let mut diverged = false;
    if let Some(path) = &args.check_against {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        match predict::parse_snapshot(&text) {
            Ok(parsed) => {
                let rows = predict::check(&a.prediction, &parsed);
                print!("{}", predict::render_check(&name, &rows));
                diverged = rows.iter().any(|r| !r.ok());
            }
            Err(e) => {
                // A malformed snapshot is a finding, not a silent skip:
                // last-write-wins on duplicate series once masked a real
                // divergence.
                let f = Finding::new(Severity::Error, "snapshot-format", None, e);
                print!("{}", audo_analyze::findings::render_text(&name, &[f]));
                diverged = true;
            }
        }
    }

    if diverged || wcet_failed || profile_violated {
        Ok(2)
    } else if a.error_count() > 0 {
        Ok(1)
    } else {
        Ok(0)
    }
}

fn main() {
    cli::main_with("analyze", 2, run);
}

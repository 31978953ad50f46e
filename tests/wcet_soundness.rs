//! Soundness contract of the static WCET/CSA analyzer.
//!
//! Every corpus program with a finite static WCET must run inside its
//! bound on both execution tiers: the functional ISS (retired
//! instructions can never exceed a cycle bound — every instruction
//! costs at least one cycle) and the cycle-level pipeline (measured
//! per-block and end-to-end cycles checked by
//! [`audo_analyze::wcet::check_profile`]). The fuzzer's `--check-wcet`
//! mode must render byte-identical reports at any worker count. The
//! engine workload's WCET/CSA report is pinned as a golden, and so are
//! the reports of seeded generated programs and the corpus under the
//! fuzz tier's cost model; refresh an intentional change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test wcet_soundness
//! ```

use audo_analyze::{cfg, wcet};
use audo_asm::{default_corpus_dir, load_corpus, Tiers};
use audo_bench::run_jobs;
use audo_common::{Addr, Cycle, EventSink, SourceId};
use audo_fuzz::tiers::{CSA_BASE, CSA_FRAMES, REGIONS};
use audo_fuzz::{run_fuzz, serial_schedule, CaseResult, FuzzOptions};
use audo_tricore::arch::init_csa_list;
use audo_tricore::bus::TestBus;
use audo_tricore::iss::{Iss, RunStop};
use audo_tricore::pipeline::{CostModel, MemCosts};
use audo_tricore::{Core, CoreConfig, Image};

fn fuzz_tier_bus(image: &Image) -> Option<TestBus> {
    let mut bus = TestBus::new();
    for &(base, len) in REGIONS {
        bus.mem.add_region(Addr(base), len);
    }
    image.load_into(&mut bus.mem).ok()?;
    Some(bus)
}

fn analyze_image(image: &Image, name: &str) -> (cfg::Cfg, wcet::WcetReport, CostModel) {
    let (g, sol) = cfg::recover_solved(image);
    let model = CostModel::new(
        CoreConfig::default(),
        MemCosts::of_test_bus(&TestBus::new()),
    );
    let report = wcet::analyze_wcet(&g, &sol, &model, CSA_FRAMES, name);
    (g, report, model)
}

/// Retired instructions of a halted ISS run, `None` when the program
/// faults, waits, or exceeds the budget (no completed run to bound).
fn iss_retired(image: &Image, max_instrs: u64) -> Option<u64> {
    let mut iss = Iss::new();
    for &(base, len) in REGIONS {
        iss.map_region(Addr(base), len);
    }
    iss.init_csa(Addr(CSA_BASE), CSA_FRAMES).ok()?;
    iss.load(image).ok()?;
    iss.set_fast_path(true);
    match iss.run_resumable(max_instrs) {
        Ok(RunStop::Halted) => Some(iss.instr_count()),
        _ => None,
    }
}

/// Every corpus program with a finite static WCET measures inside its
/// bound on both tiers.
#[test]
fn corpus_measures_inside_finite_static_bounds_on_both_tiers() {
    let corpus = load_corpus(&default_corpus_dir()).expect("corpus loads");
    assert!(!corpus.is_empty(), "empty corpus proves nothing");
    let mut finite = 0usize;
    let mut pipeline_checked = 0usize;
    for e in &corpus {
        let (g, report, model) = analyze_image(&e.image, &e.file_name);
        let Some(w) = report.program_wcet.finite() else {
            continue;
        };
        finite += 1;

        // ISS tier: instructions retired can never exceed a cycle bound.
        if let Some(retired) = iss_retired(&e.image, e.program.max_instrs) {
            assert!(
                retired <= w + report.entry_overhead,
                "{}: ISS retired {retired} > static WCET {w}",
                e.file_name
            );
        }

        // Pipeline tier: exact per-block and end-to-end cycle check.
        if e.program.tiers != Tiers::All {
            continue;
        }
        let Some(mut bus) = fuzz_tier_bus(&e.image) else {
            continue;
        };
        let mut core = Core::new(CoreConfig::default(), e.image.entry(), SourceId::TRICORE);
        core.set_fast_path(true);
        core.set_profile_observation(true);
        let fcx = init_csa_list(&mut bus.mem, Addr(CSA_BASE), CSA_FRAMES).expect("CSA mapped");
        core.arch_mut().fcx = fcx;
        let stamps = wcet::code_stamps(&g, &bus);
        let mut sink = EventSink::new();
        sink.set_enabled(false);
        let max_cycles = e
            .program
            .max_instrs
            .saturating_mul(40)
            .saturating_add(10_000);
        let mut cyc = 0u64;
        let mut faulted = false;
        while !core.is_halted() && cyc < max_cycles {
            if core.step(Cycle(cyc), &mut bus, None, &mut sink).is_err() {
                faulted = true;
                break;
            }
            cyc += 1;
        }
        if faulted || !core.is_halted() {
            continue;
        }
        let profile = core.block_profile().cloned().expect("profiling was on");
        let stats = core.stats();
        let total = stats.retire_cycles + stats.stall_total();
        let check = wcet::check_profile(
            &g,
            &model,
            &report,
            &profile,
            &stamps,
            total,
            0,
            core.arch().csa_depth_peak,
        );
        assert!(
            check.sound(),
            "{}: {}",
            e.file_name,
            wcet::render_check(&e.file_name, &check)
        );
        assert!(check.checked_blocks > 0, "{}: nothing checked", e.file_name);
        pipeline_checked += 1;
    }
    assert!(finite > 0, "no corpus program has a finite WCET");
    assert!(
        pipeline_checked > 0,
        "no corpus program reached the pipeline check"
    );
}

/// The fuzz session report with the WCET check enabled is byte-identical
/// at any worker count, and clean on a healthy tree.
#[test]
fn check_wcet_fuzz_report_is_byte_identical_across_job_counts() {
    let opts = FuzzOptions {
        seed: 0x5CE7,
        iterations: 16,
        round: 8,
        corpus_dir: Some(default_corpus_dir()),
        check_wcet: true,
        ..FuzzOptions::default()
    };
    let serial = run_fuzz(&opts, serial_schedule).expect("serial session runs");
    let pooled = run_fuzz(&opts, |count, case| {
        run_jobs(count, 4, case)
            .into_iter()
            .map(|t| t.output)
            .collect::<Vec<CaseResult>>()
    })
    .expect("pooled session runs");
    assert_eq!(
        serial.render(),
        pooled.render(),
        "check-wcet report depends on worker count"
    );
    assert!(
        serial.divergences.is_empty(),
        "clean tree has WCET violations: {:#?}",
        serial.divergences
    );
}

/// The engine workload's WCET/CSA report is pinned byte-for-byte.
#[test]
fn engine_wcet_report_matches_golden() {
    use audo_platform::config::SocConfig;
    use audo_platform::soc::CSA_AREAS;
    use audo_workloads::engine::{engine_control, EngineParams};

    let w = engine_control(&EngineParams::default());
    let soc_cfg = SocConfig::tc1797();
    let (g, sol) = cfg::recover_solved(&w.image);
    let model = CostModel::new(soc_cfg.cpu.clone(), wcet::soc_mem_costs(&soc_cfg));
    let report = wcet::analyze_wcet(&g, &sol, &model, CSA_AREAS, &w.name);
    let actual = wcet::render_report(&report);

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wcet_engine.txt");
    audo_common::golden::check(&path, &actual);
}

/// Generated programs pinned by [`generated_wcet_reports_match_golden`].
const GOLDEN_PROGRAMS: u64 = 150;

/// The WCET/CSA reports of seeded generated programs plus every corpus
/// program, under the fuzz tier's cost model and CSA budget, are pinned
/// byte-for-byte: every loop's header, depth, size and trip, every
/// function's bounds and every finding.
#[test]
fn generated_wcet_reports_match_golden() {
    let mut actual = String::new();
    for seed in 0..GOLDEN_PROGRAMS {
        let src = audo_fuzz::gen::generate(seed, &[]);
        let image = audo_tricore::asm::assemble(&src)
            .unwrap_or_else(|e| panic!("generated program {seed} assembles: {e}"));
        let (_, report, _) = analyze_image(&image, &format!("gen_{seed}"));
        actual.push_str(&wcet::render_report(&report));
    }
    for e in load_corpus(&default_corpus_dir()).expect("corpus loads") {
        let (_, report, _) = analyze_image(&e.image, &e.file_name);
        actual.push_str(&wcet::render_report(&report));
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wcet_generated.txt");
    audo_common::golden::check(&path, &actual);
}

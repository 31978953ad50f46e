//! Determinism contract of the differential fuzzer.
//!
//! The fuzz session report must be byte-identical no matter how many
//! worker threads execute the cases: all entropy comes from the session
//! seed, coverage feedback only crosses rounds at fixed barriers, and
//! results are folded in case-index order. These tests pin that
//! contract at the library level (the `fuzz` CLI adds nothing but
//! argument parsing and printing on top), and exercise the whole
//! shrink-and-pin loop through the injected-fault hook.

use audo_bench::run_jobs;
use audo_fuzz::{run_fuzz, serial_schedule, CaseResult, FuzzOptions};
use audo_tricore::opcodes::opcode_by_name;

/// A schedule that runs cases on `jobs` worker threads through the
/// bench-harness scheduler — the same wiring the `fuzz` CLI uses.
fn threaded_schedule(
    jobs: usize,
) -> impl Fn(usize, &(dyn Fn(usize) -> CaseResult + Sync)) -> Vec<CaseResult> {
    move |count, case| {
        run_jobs(count, jobs, case)
            .into_iter()
            .map(|t| t.output)
            .collect()
    }
}

fn base_opts() -> FuzzOptions {
    FuzzOptions {
        seed: 0xD1FF,
        iterations: 24,
        round: 8,
        corpus_dir: Some(audo_asm::default_corpus_dir()),
        ..FuzzOptions::default()
    }
}

/// Serial execution and a 4-worker pool must render the exact same
/// report, and the checked-in corpus plus generated programs must be
/// divergence-free on a healthy tree.
#[test]
fn report_is_byte_identical_across_job_counts_and_clean() {
    let opts = base_opts();
    let serial = run_fuzz(&opts, serial_schedule).expect("serial session runs");
    let pooled = run_fuzz(&opts, threaded_schedule(4)).expect("pooled session runs");
    assert_eq!(
        serial.render(),
        pooled.render(),
        "fuzz report depends on worker count"
    );
    assert!(
        serial.divergences.is_empty(),
        "clean tree diverged: {:#?}",
        serial.divergences
    );
    assert!(serial.retired_total > 0);
}

/// A `--check-wcet` session over the corpus plus generated programs,
/// pinned byte for byte: the report, the per-slot opcode coverage, the
/// per-cause stall coverage and the retired total. Every check the tier
/// checker makes feeds one of these, so a change that drops or weakens
/// a check on the way to a faster checker moves this file.
///
/// Regenerate only after an intentional change:
/// `GOLDEN_REGEN=1 cargo test --test fuzz_determinism`.
#[test]
fn check_wcet_session_matches_the_committed_golden() {
    let opts = FuzzOptions {
        seed: 0xF00D,
        iterations: 64,
        round: 32,
        check_wcet: true,
        ..base_opts()
    };
    let report = run_fuzz(&opts, serial_schedule).expect("session runs");
    let mut reg = audo_obs::Registry::new();
    report.export_obs(&mut reg);
    let text = format!(
        "{}{}",
        report.render(),
        audo_obs::metrics_text::render(&reg, "")
    );
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/fuzz_report_f00d_wcet.txt");
    audo_common::golden::check(&golden, &text);
}

/// An injected tier bug must surface as a divergence with a minimized,
/// pinned reproducer that round-trips through the literate parser and
/// the assembler — and the failure report must itself be deterministic
/// across worker counts.
#[test]
fn injected_fault_pins_a_minimized_reproducer_at_any_job_count() {
    let pin_dir = std::env::temp_dir().join(format!("audo-fuzz-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&pin_dir);
    let opts = FuzzOptions {
        fault: Some(opcode_by_name("mul").expect("mul is assigned")),
        pin_dir: Some(pin_dir.clone()),
        ..base_opts()
    };
    let serial = run_fuzz(&opts, serial_schedule).expect("serial session runs");
    let pooled = run_fuzz(&opts, threaded_schedule(4)).expect("pooled session runs");
    assert_eq!(
        serial.render(),
        pooled.render(),
        "divergence report depends on worker count"
    );
    assert!(
        !serial.divergences.is_empty(),
        "injected fault went unnoticed"
    );

    let pinned: Vec<_> = serial
        .divergences
        .iter()
        .filter_map(|d| d.pinned.as_ref())
        .collect();
    assert!(!pinned.is_empty(), "no reproducer was pinned");
    for name in pinned {
        let text = std::fs::read_to_string(pin_dir.join(name)).expect("pinned file exists");
        let program = audo_asm::parse_literate(&text).expect("reproducer is literate");
        program.assemble().expect("reproducer assembles");
        assert!(
            program
                .source
                .lines()
                .filter(|l| !l.trim().is_empty())
                .count()
                <= 15,
            "reproducer was not minimized:\n{}",
            program.source
        );
    }
    let _ = std::fs::remove_dir_all(&pin_dir);
}

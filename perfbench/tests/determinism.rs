//! The benchmark's own outputs: the `sim_digest` repeats across runs and
//! worker counts, and every metric `BENCHMARK.json` declares is printed.

use audo_perfbench::{run, RunConfig, Workload};

fn cfg(workload: Workload, traced: bool, jobs: usize) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        seconds: 0.0,
        traced,
        jobs,
    }
}

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let end = section.find(']').expect("section is a list");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

#[test]
fn digest_repeats_across_runs_and_worker_counts() {
    for w in [Workload::Fleet, Workload::Trace, Workload::Fuzz] {
        let a = run(&cfg(w, false, 1)).expect("runs");
        let b = run(&cfg(w, false, 1)).expect("runs");
        let c = run(&cfg(w, false, 2)).expect("runs");
        assert!(a.correct && b.correct && c.correct, "{w:?}: {:?}", a.notes);
        assert_eq!(a.sim_digest, b.sim_digest, "{w:?} repeated");
        assert_eq!(a.sim_digest, c.sim_digest, "{w:?} at two workers");
        let other = run(&RunConfig {
            seed: 8,
            ..cfg(w, false, 1)
        })
        .expect("runs");
        assert_ne!(
            a.sim_digest, other.sim_digest,
            "{w:?}: the seed drives the inputs"
        );
    }
}

#[test]
fn every_declared_metric_is_printed() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.iter().any(|n| n == "setup_s"));
    for w in [Workload::Fleet, Workload::Trace, Workload::Fuzz] {
        let plain = run(&cfg(w, false, 1)).expect("runs");
        let traced = run(&cfg(w, true, 1)).expect("runs");
        assert!(plain.correct && traced.correct, "{w:?}: {:?}", traced.notes);
        if w != Workload::Fuzz {
            // Fuzz failures are findings in the program under test; they
            // are counted in the result, not asserted away here.
            assert_eq!(plain.fail_rate(), 0.0, "{w:?}");
        }
        let names = |r: &audo_perfbench::RunReport| -> Vec<String> {
            r.metrics.iter().map(|m| m.name.clone()).collect()
        };
        assert_eq!(names(&plain), e2e, "{w:?} end-to-end metrics");
        assert_eq!(names(&traced), layers, "{w:?} per-layer metrics");
        // The traced run reproduces the untraced run's deterministic
        // outputs: same digest.
        assert_eq!(plain.sim_digest, traced.sim_digest, "{w:?}");
    }
}

#[test]
fn fuzz_checks_a_fixed_program_set_per_seed_and_seconds() {
    // Two seconds' worth of sessions, whatever the host's speed: the
    // programs checked, and so the failures, repeat exactly.
    let c = RunConfig {
        seconds: 2.0,
        ..cfg(Workload::Fuzz, false, 1)
    };
    let sessions = audo_perfbench::fuzz::session_count(c.seconds) as u64;
    let a = run(&c).expect("runs");
    let b = run(&RunConfig {
        jobs: 2,
        ..c.clone()
    })
    .expect("runs");
    assert_eq!(
        a.attempted,
        sessions * (10 + audo_perfbench::fuzz::GENERATED)
    );
    assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
}

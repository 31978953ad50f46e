//! End-to-end methodology checks: the fast paper experiments must pass
//! under `cargo test`; the full suite (`run_selected`) is exercised by the
//! `experiments` binary and kept behind `--ignored` here because the
//! architecture sweeps replay many full workloads.

#[test]
fn e2_ipc_timeline_passes() {
    let r = audo_bench::e2_ipc_timeline().expect("runs");
    assert!(r.passed(), "{}", r.render());
}

#[test]
fn e4_cascade_passes() {
    let r = audo_bench::e4_cascade().expect("runs");
    assert!(r.passed(), "{}", r.render());
}

#[test]
fn e5_bandwidth_passes() {
    let r = audo_bench::e5_bandwidth().expect("runs");
    assert!(r.passed(), "{}", r.render());
}

#[test]
fn e1_platform_passes() {
    let r = audo_bench::e1_platform().expect("runs");
    assert!(r.passed(), "{}", r.render());
}

#[test]
fn e3_parallel_rates_passes() {
    let r = audo_bench::e3_parallel_rates().expect("runs");
    assert!(r.passed(), "{}", r.render());
}

#[test]
fn e8_partitioning_passes() {
    let r = audo_bench::e8_partitioning().expect("runs");
    assert!(r.passed(), "{}", r.render());
}

#[test]
fn e9_trace_passes() {
    let r = audo_bench::e9_trace().expect("runs");
    assert!(r.passed(), "{}", r.render());
}

#[test]
fn e11_parallel_vs_serial_passes() {
    let r = audo_bench::e11_parallel_vs_serial().expect("runs");
    assert!(r.passed(), "{}", r.render());
}

/// The replay-heavy experiments (E6/E7/E10/E12); run with
/// `cargo test -- --ignored` (ideally `--release`).
#[test]
#[ignore = "replays many full workloads; run explicitly (release build recommended)"]
fn heavy_experiments_pass() {
    for r in [
        audo_bench::e6_arch_sweep().expect("E6 runs"),
        audo_bench::e7_gain_cost().expect("E7 runs"),
        audo_bench::e10_calibration().expect("E10 runs"),
        audo_bench::e12_fmodel().expect("E12 runs"),
    ] {
        assert!(r.passed(), "{}", r.render());
    }
}

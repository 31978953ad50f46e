//! Golden-file check of the observability exports: a fixed seeded workload
//! must render the exact committed Chrome-trace, metrics-snapshot, and
//! flamegraph bytes. Because every timestamp is a simulated cycle, the
//! goldens are machine-independent; they change only when target timing,
//! instrumentation points, or an exporter format genuinely change.
//!
//! To refresh after an intentional change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test obs_golden
//! ```
//!
//! and commit the updated files under `tests/golden/` with an explanation.

use audo_ed::{EdConfig, EmulationDevice};
use audo_platform::config::SocConfig;
use audo_profiler::reconstruct::reconstruct_flow;
use audo_profiler::session::{profile, SessionOptions};
use audo_profiler::spec::ProfileSpec;
use audo_workloads::engine::{engine_control, EngineParams};

fn check_golden(name: &str, actual: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    audo_common::golden::check(&dir.join(name), actual);
}

#[test]
fn seeded_session_matches_committed_goldens() {
    let p = EngineParams {
        rpm: 6_000,
        target_teeth: 5,
        target_bg_passes: 3,
        ..EngineParams::default()
    };
    let w = engine_control(&p);
    let mut ed = EmulationDevice::new(SocConfig::default(), EdConfig::default());
    w.install_ed(&mut ed).unwrap();
    let spec = ProfileSpec::new().with_program_trace().with_sync_every(16);
    let out = profile(
        &mut ed,
        &spec,
        &SessionOptions {
            max_cycles: w.max_cycles,
            observe: true,
            ..SessionOptions::default()
        },
    )
    .unwrap();
    let rec = reconstruct_flow(&w.image, &out.messages).unwrap();

    check_golden(
        "session_trace.json",
        &audo_obs::chrome::trace_json(&out.obs, "audo session", &[(0, String::from("session"))]),
    );
    check_golden(
        "session_metrics.txt",
        &audo_obs::metrics_text::render(&out.obs, "audo_"),
    );
    check_golden("session_flame.txt", &rec.folded.render());
}

//! Golden-file check of the static analyzer's JSON report: the stock and
//! optimized engine images must render the exact committed finding sets.
//! Everything in the report is derived from the image bytes and the
//! platform memory map, so the goldens are machine-independent; they
//! change only when the workload generator, the memory map, or the
//! analyzer itself genuinely change.
//!
//! To refresh after an intentional change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test analyze_golden
//! ```
//!
//! and commit the updated files under `tests/golden/` with an explanation.

use audo_analyze::{analyze, MasterRanges};
use audo_platform::config::SocConfig;
use audo_platform::Soc;
use audo_workloads::engine::{engine_control, EngineParams};
use audo_workloads::Workload;

fn check_golden(name: &str, actual: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    audo_common::golden::check(&dir.join(name), actual);
}

fn report(w: &Workload) -> String {
    let cfg = SocConfig::tc1797();
    let mut soc = Soc::new(cfg.clone());
    w.install(&mut soc).expect("workload installs");
    let pcp = w.pcp().map(|p| {
        let entries: Vec<u16> = p.channels.iter().map(|&(_, e)| e).collect();
        (p.words.clone(), p.base, entries)
    });
    let masters = match &pcp {
        Some((words, base, entries)) => MasterRanges::derive(
            &soc.fabric.dma,
            Some((words.as_slice(), *base, entries.as_slice())),
        ),
        None => MasterRanges::derive(&soc.fabric.dma, None),
    };
    let mut json = analyze(&w.image, &cfg, &masters, &w.name).to_json();
    json.push('\n');
    json
}

#[test]
fn engine_reports_match_committed_goldens() {
    let stock = engine_control(&EngineParams::default());
    check_golden("analyze_engine_stock.json", &report(&stock));

    let optimized = engine_control(&EngineParams {
        tables_in_dspr: true,
        can_on_pcp: true,
        isrs_in_pspr: true,
        ..EngineParams::default()
    });
    check_golden("analyze_engine_optimized.json", &report(&optimized));
}

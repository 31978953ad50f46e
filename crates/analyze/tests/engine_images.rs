//! End-to-end analyzer checks: the real engine-control workload images
//! must analyze clean, purpose-built contract violations must be caught,
//! and the static rate bounds must agree with an actual measured run.

use audo_analyze::{analyze, predict, Analysis, MasterRanges};
use audo_platform::config::SocConfig;
use audo_platform::dma::DmaState;
use audo_platform::Soc;
use audo_workloads::engine::{engine_control, EngineParams};
use audo_workloads::Workload;

/// Installs `w` into a fresh SoC (so the DMA channels are programmed the
/// way the workload's setup hook really programs them), derives the
/// master access ranges, and analyzes the image.
fn analyze_workload(w: &Workload, cfg: &SocConfig) -> Analysis {
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
    analyze(&w.image, cfg, &masters, &w.name)
}

fn optimized_params() -> EngineParams {
    EngineParams {
        tables_in_dspr: true,
        can_on_pcp: true,
        isrs_in_pspr: true,
        ..EngineParams::default()
    }
}

#[test]
fn stock_engine_image_is_clean_and_fully_discovered() {
    let w = engine_control(&EngineParams::default());
    let a = analyze_workload(&w, &SocConfig::tc1797());
    assert_eq!(a.error_count(), 0, "{}", a.to_text());
    // Entry plus the five interrupt vectors, all found through the BIV
    // write at startup.
    assert_eq!(a.cfg.roots.len(), 6, "roots: {:?}", a.cfg.roots);
    assert!(
        a.cfg
            .roots
            .iter()
            .filter(|(_, n)| n.starts_with("vector_"))
            .count()
            == 5,
        "roots: {:?}",
        a.cfg.roots
    );
    // The ISRs read the ADC buffer the DMA engine writes: a real (and
    // intentional) multi-master overlap the analyzer must surface.
    assert!(
        a.findings.iter().any(|f| f.code == "hazard-dma"),
        "{}",
        a.to_text()
    );
    // The EEPROM-emulation store to data flash is informational.
    assert!(
        a.findings.iter().any(|f| f.code == "dflash-write"),
        "{}",
        a.to_text()
    );
    // The flash-resident background checksum dominates the static mix.
    assert!(
        a.prediction.flash_per_100 > 10.0,
        "flash_per_100 = {}",
        a.prediction.flash_per_100
    );
}

#[test]
fn optimized_engine_image_is_clean_and_resolves_pspr_handlers() {
    let w = engine_control(&optimized_params());
    let a = analyze_workload(&w, &SocConfig::tc1797());
    assert_eq!(a.error_count(), 0, "{}", a.to_text());
    // The PSPR handlers are reached through `la a15, h; ji a15`
    // indirection the constant propagator must resolve.
    assert!(
        a.cfg
            .blocks
            .keys()
            .any(|&b| (0xC000_0000..0xC001_0000).contains(&b)),
        "no PSPR block recovered"
    );
    assert!(
        a.cfg.unresolved_indirect.is_empty(),
        "{:?}",
        a.cfg.unresolved_indirect
    );
    // The PCP firmware publishes the CAN summary word the CPU reads.
    assert!(
        a.findings.iter().any(|f| f.code == "hazard-pcp"),
        "{}",
        a.to_text()
    );
}

#[test]
fn contract_violations_are_pinpointed() {
    // A flash write plus a CPU store into the range an enabled DMA
    // channel writes: exactly these two findings, nothing else.
    let src = "
    .org 0x80000000
_start:
    la a2, 0x80004000
    st.w d0, [a2]
    la a3, 0xd0000104
    st.w d1, [a3]
    halt
";
    let image = audo_tricore::asm::assemble(src).expect("assembles");
    let mut dma = DmaState::new();
    dma.mmio_write(0x00, 0xF000_200C);
    dma.mmio_write(0x04, 0xD000_0100);
    dma.mmio_write(0x08, 8);
    dma.mmio_write(0x14, 4);
    dma.mmio_write(0x0C, 1); // enabled
    let masters = MasterRanges::derive(&dma, None);
    let a = analyze(&image, &SocConfig::tc1797(), &masters, "crafted");
    let codes: Vec<&str> = a.findings.iter().map(|f| f.code).collect();
    assert_eq!(codes, vec!["flash-write", "hazard-dma"], "{}", a.to_text());
    assert_eq!(a.error_count(), 2);
}

#[test]
fn engine_report_is_byte_identical_across_runs() {
    let w = engine_control(&EngineParams::default());
    let a = analyze_workload(&w, &SocConfig::tc1797());
    let b = analyze_workload(&w, &SocConfig::tc1797());
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_text(), b.to_text());
}

/// Runs the stock workload for real on the cacheless tc1767 derivative,
/// samples the hardware counters into a metrics snapshot, and checks the
/// measurement against the static bounds: everything must land inside.
#[test]
fn measured_stock_run_passes_static_bounds() {
    let cfg = SocConfig::tc1767();
    let p = EngineParams {
        rpm: 12_000,
        target_teeth: 20,
        ..EngineParams::default()
    };
    let w = engine_control(&p);
    let a = analyze_workload(&w, &cfg);

    let mut soc = Soc::new(cfg);
    w.install(&mut soc).expect("workload installs");
    soc.run_to_halt(w.max_cycles).expect("engine run halts");
    let mut reg = audo_obs::Registry::new();
    soc.export_obs(&mut reg);
    let snapshot = audo_obs::metrics_text::render(&reg, "audo_");

    let parsed = predict::parse_snapshot(&snapshot).expect("registry snapshot has no duplicates");
    let rows = predict::check(&a.prediction, &parsed);
    assert!(
        rows.iter().all(predict::CheckRow::ok),
        "{}",
        predict::render_check(&w.name, &rows)
    );
    // And the check actually saw both measurements.
    assert!(
        rows.iter().all(|r| r.measured.is_some()),
        "snapshot incomplete"
    );
}

/// The scratchpad-resident calibration build has almost no static flash
/// data traffic, so its bounds must veto a profile measured from the
/// flash-heavy stock build — the divergence check the experiment recipe
/// relies on.
#[test]
fn dspr_bg_bounds_veto_a_flash_heavy_profile() {
    let w = engine_control(&EngineParams {
        tables_in_dspr: true,
        bg_in_dspr: true,
        ..EngineParams::default()
    });
    let a = analyze_workload(&w, &SocConfig::tc1767());
    assert_eq!(a.error_count(), 0, "{}", a.to_text());
    assert!(
        a.prediction.flash_per_100 < 5.0,
        "dspr-bg static flash rate should be small, got {}",
        a.prediction.flash_per_100
    );

    // Stock-build-shaped measurement: ~24.6 flash accesses / 100 instrs.
    let stock_profile = "
audo_soc_tricore_instructions_retired 100000
audo_soc_flash_buffer_hits 20000
audo_soc_flash_buffer_misses 4600
audo_soc_tricore_ipc 0.71
";
    let parsed = predict::parse_snapshot(stock_profile).expect("snapshot parses");
    let rows = predict::check(&a.prediction, &parsed);
    let flash = rows
        .iter()
        .find(|r| r.name == "flash_per_100_instrs")
        .expect("flash row");
    assert!(!flash.ok(), "{}", predict::render_check(&w.name, &rows));
}

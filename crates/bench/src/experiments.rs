//! Experiments E1–E12: one per paper figure/claim (see DESIGN.md §4).
//!
//! Every experiment returns a [`Report`] with human-readable results and
//! machine-checkable claims; the `experiments` binary renders them all into
//! EXPERIMENTS.md and the integration tests assert `report.passed()`.

use audo_common::{Addr, ByteSize, Cycle, EventRecord, Freq, PerfEvent, SimError, SourceId};
use audo_dap::DapConfig;
use audo_ed::{EdConfig, EmulationDevice, TraceMode};
use audo_mcds::TraceMessage;
use audo_platform::config::{PortArbitration, SocConfig};
use audo_platform::Soc;
use audo_profiler::bandwidth;
use audo_profiler::metrics::Metric;
use audo_profiler::options::{
    cross_workload_ranking, evaluate_options, render_cross_ranking, ArchOption, CostModel,
    MeasuredProfile,
};
use audo_profiler::reconstruct::{flat_profile, reconstruct_flow};
use audo_profiler::session::{profile, DrainPolicy, SessionOptions};
use audo_profiler::spec::{MetricRequest, ProfileSpec};
use audo_workloads::engine::{engine_control, layout, EngineParams};
use audo_workloads::micro::{flash_duel, flash_streamer, table_chase};
use audo_workloads::Workload;

use crate::report::Report;

/// A program with a good-IPC phase followed by a flash-bound phase (shared
/// by E2/E4): tight loop, then an uncached pointer chase across 8 lines.
const PHASED_SRC: &str = "
    .equ UNCACHED, 0x20000000
    .org 0x80000000
_start:
    movi d1, 3
    movi d2, 5
    li d3, 2000
    mov.a a3, d3
    la a4, 0xD0000000
p1:
    mac d0, d1, d2
    lea a4, a4, 1
    mac d5, d1, d2
    loop a3, p1
    la a2, chain0 + UNCACHED
    movi d3, 0
    li d4, 500
p2:
    ld.a a2, [a2]
    addi d3, d3, 1
    jne d3, d4, p2
    halt
    .align 64
chain0: .word chain1 + UNCACHED
    .space 60
chain1: .word chain2 + UNCACHED
    .space 60
chain2: .word chain3 + UNCACHED
    .space 60
chain3: .word chain4 + UNCACHED
    .space 60
chain4: .word chain5 + UNCACHED
    .space 60
chain5: .word chain6 + UNCACHED
    .space 60
chain6: .word chain7 + UNCACHED
    .space 60
chain7: .word chain0 + UNCACHED
";

fn phased_ed() -> Result<EmulationDevice, SimError> {
    let image = audo_tricore::asm::assemble(PHASED_SRC)?;
    let mut ed = EmulationDevice::new(SocConfig::default(), EdConfig::default());
    ed.soc.load_image(&image)?;
    Ok(ed)
}

fn engine_ed(p: &EngineParams) -> Result<(Workload, EmulationDevice), SimError> {
    let w = engine_control(p);
    let mut ed = EmulationDevice::new(SocConfig::default(), EdConfig::default());
    w.install_ed(&mut ed)?;
    Ok((w, ed))
}

fn run_workload_cycles(cfg: &SocConfig, w: &Workload) -> Result<u64, SimError> {
    let mut soc = Soc::new(cfg.clone());
    soc.set_observation(false);
    w.install(&mut soc)?;
    soc.run_to_halt(w.max_cycles)
}

/// Renders the pipeline's per-cause cycle decomposition into the report:
/// every executed cycle is either a retire cycle or charged to exactly one
/// stall cause, so the rows sum to the run's cycle count and explain its
/// IPC (the methodology's "where did the time go" primitive).
fn report_stall_decomposition(r: &mut Report, core: &audo_tricore::Core, cycles: u64) {
    use audo_common::events::StallReason;
    let p = core.stats();
    let pct = |c: u64| 100.0 * c as f64 / cycles as f64;
    r.line(format!(
        "cycle decomposition over {cycles} cycles (IPC {:.3}):",
        core.retired_total() as f64 / cycles as f64
    ));
    r.line(format!(
        "  {:<18} {:>10} {:>7.1}%",
        "retire",
        p.retire_cycles,
        pct(p.retire_cycles)
    ));
    for reason in StallReason::ALL {
        let c = p.stalls(reason);
        if c > 0 {
            r.line(format!(
                "  stall.{:<12} {:>10} {:>7.1}%",
                reason.key(),
                c,
                pct(c)
            ));
        }
    }
    r.check(
        "stall decomposition is exhaustive (retire + stalls == cycles)",
        p.retire_cycles + p.stall_total() == cycles,
    );
}

// ======================================================================
// E1 — Fig. 2/4: the Emulation Device platform boots and behaves sanely
// ======================================================================

/// Boots the full ED with the engine workload, checks block activity.
///
/// # Errors
///
/// Propagates simulation faults (a failure is itself a finding).
pub fn e1_platform() -> Result<Report, SimError> {
    let mut r = Report::new("E1", "platform self-check (ED block diagram, Fig. 2/4)");
    let p = EngineParams {
        rpm: 6000,
        target_teeth: 25,
        ..EngineParams::default()
    };
    let (w, mut ed) = engine_ed(&p)?;
    let mut events: Vec<EventRecord> = Vec::new();
    let cycles = ed.run(w.max_cycles, |s| events.extend_from_slice(&s.obs.events))?;
    let retired = ed.soc.tricore.retired_total();
    let ipc = retired as f64 / cycles as f64;
    let cfg = &ed.soc.fabric.cfg;
    r.line(format!(
        "device: {} CPU, I-cache {}, D-cache {}, flash ws={} buffers={} prefetch={}, EMEM {}",
        cfg.cpu_clock,
        cfg.icache.size,
        cfg.dcache.size,
        cfg.flash.wait_states,
        cfg.flash.read_buffers,
        cfg.flash.prefetch,
        cfg.emem_size
    ));
    r.line(format!(
        "workload `{}`: {cycles} cycles, {retired} TriCore instrs (IPC {ipc:.3}), {} PCP instrs, {} DMA beats",
        w.name,
        ed.soc.pcp.retired_total(),
        ed.soc.fabric.dma_beats()
    ));
    let (ihit, imiss) = ed.soc.fabric.icache.stats();
    let (dhit, dmiss) = ed.soc.fabric.dcache.stats();
    let (fhit, fmiss, pf) = ed.soc.fabric.flash.stats();
    let (grants, contended) = ed.soc.fabric.xbar.stats();
    let port_conflicts = events
        .iter()
        .filter(|e| matches!(e.event, PerfEvent::FlashPortConflict { .. }))
        .count();
    r.line(format!(
        "I-cache {ihit}/{imiss} hit/miss, D-cache {dhit}/{dmiss}, flash buffers {fhit}/{fmiss} (+{pf} prefetches), bus {grants} grants / {contended} contended, {port_conflicts} flash port conflicts"
    ));
    let irqs = events
        .iter()
        .filter(|e| matches!(e.event, PerfEvent::IrqTaken { .. }))
        .count();
    r.line(format!("interrupts taken: {irqs}"));
    r.check(
        "IPC in the plausible 0.2..3.0 band",
        (0.2..3.0).contains(&ipc),
    );
    r.check(
        "all memories and caches saw traffic",
        ihit > 0 && dhit > 0 && fhit > 0,
    );
    r.check(
        "DMA moved data without CPU involvement",
        ed.soc.fabric.dma_beats() > 0,
    );
    r.check("interrupt system delivered requests", irqs > 10);
    r.check(
        "flash code/data port arbitration observed conflicts",
        port_conflicts > 0,
    );
    Ok(r)
}

// ======================================================================
// E2 — §5 worked example: dynamic IPC via two counters, resolution x
// ======================================================================

/// Measures the IPC timeline at two resolutions and validates both against
/// the hardware's ground truth, exactly.
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e2_ipc_timeline() -> Result<Report, SimError> {
    let mut r = Report::new("E2", "dynamic IPC rate via on-chip counters (§5 example)");
    for window in [100u32, 1000] {
        let mut ed = phased_ed()?;
        let spec = ProfileSpec::new().metric(Metric::Ipc, window);
        let (mcds, map) = spec.compile()?;
        ed.program_mcds(mcds);
        let mut truth_events: Vec<EventRecord> = Vec::new();
        let mut host = Vec::new();
        let mut halted = false;
        while !halted {
            let step = ed.step()?;
            truth_events.extend_from_slice(&step.obs.events);
            halted = step.halted;
            let level = ed.trace.level();
            if level > 0 {
                host.extend_from_slice(&ed.drain_trace(level as u32)?);
            }
        }
        let (messages, err) = audo_mcds::msg::decode_stream_lossy(&host);
        assert!(err.is_none());
        let timeline = audo_profiler::timeline::Timeline::from_messages(&messages, &map);
        let series = timeline.series(Metric::Ipc);
        let last_cycle = series.last().map_or(Cycle(0), |s| s.cycle);
        let measured: u64 = series.iter().map(|s| s.num).sum();
        let truth: u64 = truth_events
            .iter()
            .filter(|e| e.cycle <= last_cycle && e.source == SourceId::TRICORE)
            .filter_map(|e| match e.event {
                PerfEvent::InstrRetired { count } => Some(u64::from(count)),
                _ => None,
            })
            .sum();
        let hi = timeline.max_sample(Metric::Ipc).map_or(0.0, |s| s.value);
        let lo = timeline.min_sample(Metric::Ipc).map_or(0.0, |s| s.value);
        r.line(format!(
            "window {window:>5} cycles: {} samples, IPC range {lo:.2}..{hi:.2}, measured instrs {measured} vs ground truth {truth}",
            series.len()
        ));
        r.check(
            format!("window {window}: counter stream equals hardware retire count exactly"),
            measured == truth,
        );
        r.check(
            format!("window {window}: timeline resolves the two program phases"),
            hi > 1.2 && lo < 0.7,
        );
        if r.obs.is_enabled() {
            let mut run = audo_obs::Registry::new();
            ed.export_obs(&mut run);
            run.sample("ipc.samples", series.len() as u64);
            run.sample("ipc.instructions_measured", measured);
            r.obs.merge_from(&format!("w{window}."), &run, 1);
        }
    }
    Ok(r)
}

// ======================================================================
// E3 — §5: event rates per executed instruction, all in parallel
// ======================================================================

/// Measures seven rates in one run and cross-checks every numerator against
/// the ground-truth event stream, exactly (up to the last completed window).
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e3_parallel_rates() -> Result<Report, SimError> {
    let mut r = Report::new("E3", "parallel non-intrusive rate measurement (§5)");
    let p = EngineParams {
        rpm: 6000,
        target_teeth: 25,
        ..EngineParams::default()
    };
    let (w, mut ed) = engine_ed(&p)?;
    let metrics = [
        Metric::Ipc,
        Metric::IcacheMissPerInstr,
        Metric::DcacheMissPerInstr,
        Metric::FlashDataAccessPerInstr,
        Metric::RegionAccessPerInstr(audo_common::events::MemRegion::Sram),
        Metric::InterruptsPerKilocycle,
        Metric::BusContentionPerKilocycle,
    ];
    let spec = ProfileSpec::new().metrics(&metrics, 1000);
    let (mcds, map) = spec.compile()?;
    ed.program_mcds(mcds);
    let mut truth: Vec<EventRecord> = Vec::new();
    let mut host = Vec::new();
    let mut halted = false;
    let mut cycles = 0u64;
    while !halted && cycles < w.max_cycles {
        let step = ed.step()?;
        truth.extend_from_slice(&step.obs.events);
        halted = step.halted;
        cycles += 1;
        let level = ed.trace.level();
        if level > 0 {
            host.extend_from_slice(&ed.drain_trace(level as u32)?);
        }
    }
    let (messages, err) = audo_mcds::msg::decode_stream_lossy(&host);
    assert!(err.is_none(), "trace must decode: {err:?}");
    let timeline = audo_profiler::timeline::Timeline::from_messages(&messages, &map);
    r.line(format!(
        "one run, {} metrics, {cycles} cycles, {} trace bytes",
        map.len(),
        host.len()
    ));
    r.line(format!(
        "{:<34} {:>10} {:>12} {:>12}",
        "metric", "average", "measured", "truth"
    ));
    for m in metrics {
        let series = timeline.series(m);
        let last_cycle = series.last().map_or(Cycle(0), |s| s.cycle);
        let measured: u64 = series.iter().map(|s| s.num).sum();
        let sel = m.selectors()[0];
        let expect: u64 = truth
            .iter()
            .filter(|e| e.cycle <= last_cycle)
            .map(|e| sel.weight(e))
            .sum();
        r.line(format!(
            "{:<34} {:>10.4} {:>12} {:>12}",
            m.name(),
            timeline.average(m),
            measured,
            expect
        ));
        r.check(
            format!("{}: MCDS count equals ground truth exactly", m.name()),
            measured == expect,
        );
    }
    report_stall_decomposition(&mut r, &ed.soc.tricore, cycles);
    if r.obs.is_enabled() {
        let mut run = audo_obs::Registry::new();
        ed.export_obs(&mut run);
        r.obs.merge_from("run.", &run, 1);
    }
    Ok(r)
}

// ======================================================================
// E4 — §5: cascaded multi-resolution counter structures
// ======================================================================

/// Compares always-fine, cascaded and coarse-only measurement of the phased
/// program: the cascade must deliver fine detail in the bad phase at a
/// fraction of the trace volume.
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e4_cascade() -> Result<Report, SimError> {
    let mut r = Report::new("E4", "cascaded multi-resolution rate capture (§5)");
    let fine = MetricRequest {
        metric: Metric::FlashDataAccessPerInstr,
        window: 50,
    };

    let mut ed = phased_ed()?;
    let spec_fine = ProfileSpec::new()
        .metric(Metric::Ipc, 200)
        .metric(fine.metric, fine.window);
    let out_fine = profile(&mut ed, &spec_fine, &SessionOptions::default())?;

    let mut ed = phased_ed()?;
    let spec_casc =
        ProfileSpec::new()
            .metric(Metric::Ipc, 200)
            .cascade(Metric::Ipc, 0.55, vec![fine]);
    let out_casc = profile(&mut ed, &spec_casc, &SessionOptions::default())?;

    let mut ed = phased_ed()?;
    let spec_coarse = ProfileSpec::new().metric(Metric::Ipc, 200);
    let out_coarse = profile(&mut ed, &spec_coarse, &SessionOptions::default())?;

    let fine_samples = |o: &audo_profiler::SessionOutcome| {
        o.timeline.series(Metric::FlashDataAccessPerInstr).len()
    };
    let bad_phase_start = out_casc.cycles / 2;
    let casc_in_bad = out_casc
        .timeline
        .series(Metric::FlashDataAccessPerInstr)
        .iter()
        .filter(|s| s.cycle.0 > bad_phase_start)
        .count();
    r.line(format!(
        "{:<22} {:>12} {:>14}",
        "configuration", "trace bytes", "fine samples"
    ));
    r.line(format!(
        "{:<22} {:>12} {:>14}",
        "always-fine",
        out_fine.produced_bytes,
        fine_samples(&out_fine)
    ));
    r.line(format!(
        "{:<22} {:>12} {:>14}",
        "cascaded",
        out_casc.produced_bytes,
        fine_samples(&out_casc)
    ));
    r.line(format!(
        "{:<22} {:>12} {:>14}",
        "coarse-only", out_coarse.produced_bytes, 0
    ));
    r.line(format!(
        "cascade: {casc_in_bad} of {} fine samples fall in the low-IPC phase",
        fine_samples(&out_casc)
    ));
    r.check(
        "cascade costs less bandwidth than always-fine",
        out_casc.produced_bytes < out_fine.produced_bytes,
    );
    r.check(
        "cascade costs more than coarse-only (it does add detail)",
        out_casc.produced_bytes > out_coarse.produced_bytes,
    );
    r.check("fine samples exist in the bad phase", casc_in_bad >= 5);
    r.check(
        "fine samples are concentrated in the bad phase",
        casc_in_bad * 10 >= fine_samples(&out_casc) * 9,
    );
    // The stall decomposition of the phased program explains *why* the
    // cascade triggers: the low-IPC phase is flash-bound (fetch/data
    // stalls), not execute-bound.
    report_stall_decomposition(&mut r, &ed.soc.tricore, out_coarse.cycles);
    if r.obs.is_enabled() {
        let mut run = audo_obs::Registry::new();
        ed.export_obs(&mut run);
        r.obs.merge_from("coarse.", &run, 1);
    }
    Ok(r)
}

// ======================================================================
// E5 — §5 closing claim: rate messages vs external counter sampling
// ======================================================================

/// Sweeps CPU frequency and compares tool-bandwidth demand of on-chip rate
/// messages vs external register sampling at equal resolution, plus a
/// measured data point from a real session.
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e5_bandwidth() -> Result<Report, SimError> {
    let mut r = Report::new(
        "E5",
        "tool-interface bandwidth scalability (§5 closing claim)",
    );
    let dap = DapConfig::default();
    let probes = 4u32;
    let window = 1000u32;
    r.line(format!(
        "{} probes, {}-cycle windows, DAP capacity {:.1} MB/s (does not scale with CPU clock)",
        probes,
        window,
        dap.bytes_per_second() / 1e6
    ));
    r.line(format!(
        "{:>8} {:>16} {:>16} {:>10}",
        "CPU MHz", "on-chip B/s", "sampling B/s", "reduction"
    ));
    let mut rows = Vec::new();
    for mhz in [80u64, 150, 200, 300] {
        let row = bandwidth::compare(probes, window, Freq::mhz(mhz), &dap);
        r.line(format!(
            "{:>8} {:>16.0} {:>16.0} {:>9.1}x",
            mhz, row.onchip, row.sampling, row.reduction
        ));
        rows.push(row);
    }
    let fastest = rows.last().expect("rows");
    r.check(
        "on-chip demand stays under DAP capacity at 300 MHz",
        fastest.onchip < fastest.capacity,
    );
    r.check(
        "external sampling exceeds DAP capacity at 300 MHz",
        fastest.sampling > fastest.capacity,
    );
    r.check(
        "reduction factor is at least 3x at every frequency",
        rows.iter().all(|x| x.reduction >= 3.0),
    );

    let p = EngineParams {
        rpm: 6000,
        target_teeth: 20,
        ..EngineParams::default()
    };
    let (w, mut ed) = engine_ed(&p)?;
    let spec = ProfileSpec::new()
        .metric(Metric::Ipc, 1000)
        .metric(Metric::IcacheMissPerInstr, 1000)
        .metric(Metric::DcacheMissPerInstr, 1000)
        .metric(Metric::InterruptsPerKilocycle, 1000);
    let out = profile(
        &mut ed,
        &spec,
        &SessionOptions {
            max_cycles: w.max_cycles,
            drain: DrainPolicy::Dap(dap.clone()),
            observe: r.obs.is_enabled(),
            ..SessionOptions::default()
        },
    )?;
    r.obs.merge_from("", &out.obs, 1);
    let measured_bps = out.produced_bytes as f64 / (out.cycles as f64 / 150e6);
    r.line(format!(
        "measured session (150 MHz, 4 metrics): {:.0} B/s produced, {} bytes lost over the DAP link",
        measured_bps, out.lost_bytes
    ));
    r.check(
        "measured rate-message session fits the DAP with zero loss",
        out.lost_bytes == 0,
    );

    // Scalable time-stamping (§3): the same rate-message stream with
    // coarser stamps costs measurably less bandwidth (dense program-flow
    // streams have 1-byte deltas already; sparse counter streams are where
    // the knob pays).
    let stamped = |shift: u8| -> Result<u64, SimError> {
        let (w, mut ed) = engine_ed(&p)?;
        let spec = ProfileSpec::new()
            .metric(Metric::Ipc, 300)
            .metric(Metric::IcacheMissPerInstr, 300)
            .metric(Metric::DcacheMissPerInstr, 300)
            .metric(Metric::InterruptsPerKilocycle, 300)
            .with_timestamp_shift(shift);
        let out = profile(
            &mut ed,
            &spec,
            &SessionOptions {
                max_cycles: w.max_cycles,
                ..SessionOptions::default()
            },
        )?;
        Ok(out.produced_bytes)
    };
    let fine = stamped(0)?;
    let coarse = stamped(8)?;
    r.line(format!(
        "scalable time-stamping: 4 rate probes {fine} bytes cycle-exact vs {coarse} bytes at 256-cycle stamps ({:.1}% saved)",
        100.0 * (fine - coarse) as f64 / fine.max(1) as f64
    ));
    r.check("coarser timestamps reduce trace volume", coarse < fine);

    // The §4 premise behind the whole flash story: the flash array needs
    // constant *time*, so a faster CPU clock sees more wait states — the
    // CPU→flash path degrades relative to the core.
    let chase = table_chase(16, 2_000, true);
    let base_cycles = run_workload_cycles(&SocConfig::default(), &chase)?;
    let mut fast = SocConfig {
        cpu_clock: Freq::mhz(300),
        ..SocConfig::default()
    };
    fast.rescale_flash_for_clock(Freq::mhz(150));
    let fast_cycles = run_workload_cycles(&fast, &chase)?;
    r.line(format!(
        "flash-bound chase: {base_cycles} cycles at 150 MHz (ws=5) vs {fast_cycles} cycles at 300 MHz (ws=10): more cycles per unit of work as the clock rises"
    ));
    r.check(
        "a 2x CPU clock costs more cycles on the flash-bound path (constant-time flash)",
        fast_cycles as f64 > base_cycles as f64 * 1.3,
    );
    Ok(r)
}

// ======================================================================
// E6 — §4: architecture options on the CPU→flash path, replayed
// ======================================================================

/// Replays three unchanged workloads across candidate architecture options.
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e6_arch_sweep() -> Result<Report, SimError> {
    let mut r = Report::new("E6", "architecture-option sweep on measured workloads (§4)");
    let baseline = SocConfig::default();
    let options = [
        ArchOption::FlashWaitStates(3),
        ArchOption::FlashReadBuffers(4),
        ArchOption::FlashPrefetch(false),
        ArchOption::FlashArbitration(PortArbitration::DataFirst),
        ArchOption::IcacheSize(ByteSize::kib(32)),
        ArchOption::DcacheSize(ByteSize::kib(8)),
    ];
    let workloads = [
        engine_control(&EngineParams {
            rpm: 12_000,
            target_teeth: 25,
            ..EngineParams::default()
        }),
        table_chase(16, 4_000, true),
        flash_streamer(1500, 10),
        flash_duel(800, 8), // code footprint > I-cache: both PMU ports stay busy
    ];
    let cost_model = CostModel::default();
    let mut engine_ws_gain = 0.0;
    let mut chase_ws = (0.0, 0.0);
    let mut duel_arb_gain = 0.0;
    let mut studies: Vec<(String, audo_profiler::OptionStudy)> = Vec::new();
    for w in &workloads {
        let mut soc = Soc::new(baseline.clone());
        w.install(&mut soc)?;
        let mut events = Vec::new();
        let cycles = soc.run(w.max_cycles, |o| events.extend_from_slice(&o.events))?;
        let prof = MeasuredProfile::from_events(cycles, &events);
        let study = evaluate_options(&baseline, &options, &cost_model, Some(&prof), |cfg| {
            run_workload_cycles(cfg, w)
        })?;
        r.line(format!("--- {} ---", w.name));
        for l in study.render().lines() {
            r.line(format!("    {l}"));
        }
        for e in &study.evaluations {
            if let ArchOption::FlashWaitStates(_) = e.option {
                if w.name.starts_with("engine") {
                    engine_ws_gain = e.gain;
                }
                if w.name == "table_chase" {
                    chase_ws = (e.gain, e.analytical_gain.unwrap_or(0.0));
                }
            }
            if let ArchOption::FlashArbitration(_) = e.option {
                if w.name == "flash_duel" {
                    duel_arb_gain = e.gain.abs();
                }
            }
        }
        studies.push((w.name.clone(), study));
    }
    // §4: "without negative side effects for other possible use cases" —
    // aggregate across workloads and veto options that regress any of them.
    let cross = cross_workload_ranking(&studies, 0.002);
    r.line("--- cross-workload ranking (regression veto per §4) ---".to_string());
    for l in render_cross_ranking(&cross).lines() {
        r.line(format!("    {l}"));
    }
    r.check(
        "the top cross-workload option regresses no workload",
        cross[0].safe,
    );
    r.check(
        "the top cross-workload option has positive geomean gain",
        cross[0].geomean_speedup > 1.0,
    );
    r.check(
        "flash wait states gain >2% on the engine workload",
        engine_ws_gain > 0.02,
    );
    r.check(
        "flash wait states gain >15% on the uncached chase",
        chase_ws.0 > 0.15,
    );
    r.check(
        "analytical estimate within 2 points of replay on the chase",
        (chase_ws.0 - chase_ws.1).abs() < 0.02,
    );
    r.check(
        "port arbitration measurably matters on the duel workload",
        duel_arb_gain > 0.001,
    );
    Ok(r)
}

// ======================================================================
// E7 — §6: performance-gain / cost ranking
// ======================================================================

/// Ranks the E6 options by gain/cost on the engine workload and checks the
/// ranking logic.
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e7_gain_cost() -> Result<Report, SimError> {
    let mut r = Report::new("E7", "gain/cost ranking of improvement options (§6)");
    let baseline = SocConfig::default();
    let options = [
        ArchOption::FlashWaitStates(3),
        ArchOption::FlashReadBuffers(4),
        ArchOption::DcacheSize(ByteSize::kib(8)),
        ArchOption::IcacheSize(ByteSize::kib(32)),
        ArchOption::FlashArbitration(PortArbitration::RoundRobin),
    ];
    let w = engine_control(&EngineParams {
        rpm: 12_000,
        target_teeth: 25,
        ..EngineParams::default()
    });
    let study = evaluate_options(&baseline, &options, &CostModel::default(), None, |cfg| {
        run_workload_cycles(cfg, &w)
    })?;
    for l in study.render().lines() {
        r.line(l.to_string());
    }
    let ranked: Vec<String> = study.evaluations.iter().map(|e| e.option.label()).collect();
    r.line(format!("ranking: {}", ranked.join("  >  ")));
    let top = &study.evaluations[0];
    let best_gain = study
        .evaluations
        .iter()
        .max_by(|a, b| a.gain.partial_cmp(&b.gain).expect("finite"))
        .expect("non-empty");
    r.line(format!(
        "best raw gain: {} ({:.2}%); best gain/cost: {} ({:.3} %/kGE)",
        best_gain.option.label(),
        best_gain.gain * 100.0,
        top.option.label(),
        top.gain_per_cost
    ));
    r.check("a positive-gain option ranks first", top.gain > 0.0);
    r.check(
        "gain/cost ordering is monotone",
        study
            .evaluations
            .windows(2)
            .all(|w| w[0].gain_per_cost >= w[1].gain_per_cost),
    );
    let study2 = evaluate_options(&baseline, &options, &CostModel::default(), None, |cfg| {
        run_workload_cycles(cfg, &w)
    })?;
    r.check(
        "ranking is reproducible (deterministic platform)",
        study2
            .evaluations
            .iter()
            .map(|e| e.option.label())
            .collect::<Vec<_>>()
            == ranked,
    );
    Ok(r)
}

// ======================================================================
// E8 — §1: TriCore/PCP software partitioning
// ======================================================================

/// Compares CPU-handled CAN vs PCP-offloaded CAN under heavy bus load.
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e8_partitioning() -> Result<Report, SimError> {
    let mut r = Report::new("E8", "HW/SW partitioning between TriCore and PCP (§1)");
    let base = EngineParams {
        rpm: 12_000,
        target_teeth: 20,
        can_period: 1_200,
        ..EngineParams::default()
    };
    let mut rows = Vec::new();
    for (label, can_on_pcp) in [("CAN on CPU", false), ("CAN on PCP", true)] {
        let p = EngineParams {
            can_on_pcp,
            ..base.clone()
        };
        let (w, mut ed) = engine_ed(&p)?;
        let mut cpu_irqs = 0u64;
        let cycles = ed.run(w.max_cycles, |s| {
            cpu_irqs += s
                .obs
                .events
                .iter()
                .filter(|e| matches!(e.event, PerfEvent::IrqTaken { .. }))
                .count() as u64;
        })?;
        let can_count = ed
            .soc
            .fabric
            .peek(Addr(layout::STATE + layout::state::CAN_COUNT), 4)?;
        rows.push((
            label,
            cycles,
            cpu_irqs,
            can_count,
            ed.soc.pcp.retired_total(),
        ));
    }
    r.line(format!(
        "{:<12} {:>10} {:>10} {:>12} {:>12}",
        "variant", "cycles", "CPU irqs", "CAN handled", "PCP instrs"
    ));
    for (label, cycles, irqs, can, pcp) in &rows {
        r.line(format!(
            "{label:<12} {cycles:>10} {irqs:>10} {can:>12} {pcp:>12}"
        ));
    }
    let (cpu, pcp) = (&rows[0], &rows[1]);
    r.check("both variants handled CAN traffic", cpu.3 > 0 && pcp.3 > 0);
    r.check(
        "PCP variant takes far fewer CPU interrupts",
        pcp.2 * 2 < cpu.2,
    );
    r.check(
        "PCP variant finishes the compute-bound run sooner",
        pcp.1 < cpu.1,
    );
    r.check("PCP executed the offloaded firmware", pcp.4 > 1000);
    Ok(r)
}

// ======================================================================
// E9 — §3: cycle-accurate multi-core + bus trace, reconstructed
// ======================================================================

/// Traces TriCore program flow, PCP channel activity and bus transactions
/// concurrently; reconstructs the program flow and verifies coverage,
/// ordering and compression.
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e9_trace() -> Result<Report, SimError> {
    let mut r = Report::new(
        "E9",
        "multi-core cycle-accurate trace + reconstruction (§3)",
    );
    let p = EngineParams {
        rpm: 12_000,
        target_teeth: 15,
        can_period: 2_000,
        can_on_pcp: true,
        target_bg_passes: 10,
        ..EngineParams::default()
    };
    let w = engine_control(&p);
    let mut ed = EmulationDevice::new(SocConfig::default(), EdConfig::default());
    w.install_ed(&mut ed)?;
    let spec = ProfileSpec::new()
        .with_program_trace()
        .with_sync_every(16)
        .with_pcp_trace()
        .with_bus_trace(Some(SourceId::DMA));
    let out = profile(
        &mut ed,
        &spec,
        &SessionOptions {
            max_cycles: w.max_cycles,
            observe: r.obs.is_enabled(),
            ..SessionOptions::default()
        },
    )?;
    let retired = ed.soc.tricore.retired_total();
    let rec = reconstruct_flow(&w.image, &out.messages)?;
    r.obs.merge_from("", &out.obs, 1);
    if r.obs.is_enabled() {
        r.obs.sample("reconstruction.instructions", rec.instr_count);
        r.obs
            .sample("reconstruction.flow_messages", rec.flow_messages);
        r.obs
            .sample("reconstruction.symbols", rec.per_symbol.len() as u64);
        r.flame.merge(&rec.folded, None);
    }
    let pcp_msgs = out
        .messages
        .iter()
        .filter(|(_, m)| matches!(m, TraceMessage::PcpChannel { .. }))
        .count();
    let bus_msgs = out
        .messages
        .iter()
        .filter(|(_, m)| matches!(m, TraceMessage::Bus { .. }))
        .count();
    let monotonic = out.messages.windows(2).all(|p| p[0].0 <= p[1].0);
    let bytes_per_instr = out.produced_bytes as f64 / rec.instr_count.max(1) as f64;
    r.line(format!(
        "{} cycles, {} trace bytes; reconstructed {} of {} retired instructions from {} flow messages",
        out.cycles, out.produced_bytes, rec.instr_count, retired, rec.flow_messages
    ));
    r.line(format!(
        "{pcp_msgs} PCP channel markers, {bus_msgs} DMA bus transactions, interleaved on one timestamp axis"
    ));
    r.line(format!(
        "trace cost: {bytes_per_instr:.2} bytes per reconstructed instruction"
    ));
    r.line("top functions by reconstructed instructions:".to_string());
    for (name, instrs, share) in flat_profile(&rec).into_iter().take(5) {
        r.line(format!("    {name:<16} {instrs:>10} {share:>6.2}%"));
    }
    r.check(
        "decode clean (no trace loss)",
        out.decode_error.is_none() && out.lost_bytes == 0,
    );
    r.check(
        "reconstruction covers ≥97% of retired instructions",
        rec.instr_count as f64 >= retired as f64 * 0.97,
    );
    r.check("PCP activity interleaved in the same stream", pcp_msgs >= 2);
    r.check(
        "autonomous DMA activity visible via bus trace",
        bus_msgs > 10,
    );
    r.check(
        "timestamps monotonic (order preserved to cycle level)",
        monotonic,
    );
    r.check(
        "compression below 2 bytes/instruction",
        bytes_per_instr < 2.0,
    );
    r.check(
        "the crank ISR appears in the function profile",
        rec.per_symbol.contains_key("isr_crank"),
    );
    Ok(r)
}

// ======================================================================
// E10 — §3: EMEM shared between trace and calibration overlay
// ======================================================================

/// Runs a live calibration session (map scaled ×2 mid-run) and sweeps the
/// EMEM partitioning trade-off.
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e10_calibration() -> Result<Report, SimError> {
    let mut r = Report::new("E10", "calibration overlay sharing EMEM with trace (§3)");
    r.line(format!(
        "{:>14} {:>16} {:>12}",
        "trace region", "overlay pages", "trace lost"
    ));
    let mut losses = Vec::new();
    for trace_kib in [32u32, 128, 448] {
        let p = EngineParams {
            rpm: 12_000,
            target_teeth: 20,
            ..EngineParams::default()
        };
        let w = engine_control(&p);
        let mut ed = EmulationDevice::new(
            SocConfig::default(),
            EdConfig {
                trace_bytes: trace_kib * 1024,
                trace_mode: TraceMode::Linear,
            },
        );
        w.install_ed(&mut ed)?;
        ed.program_mcds(audo_mcds::Mcds::builder().program_trace().build()?);
        ed.run(w.max_cycles, |_| {})?;
        let pages = ed.calibration_bytes() / ed.soc.fabric.cfg.overlay_page;
        r.line(format!(
            "{:>11}KiB {:>16} {:>12}",
            trace_kib,
            pages,
            ed.trace.lost()
        ));
        losses.push(ed.trace.lost());
    }
    r.check(
        "larger trace regions lose less",
        losses.windows(2).all(|w| w[0] >= w[1]),
    );

    let p = EngineParams {
        rpm: 6000,
        target_teeth: 120,
        ..EngineParams::default()
    };
    let w = engine_control(&p);
    let mut ed = EmulationDevice::new(
        SocConfig::default(),
        EdConfig {
            trace_bytes: 64 * 1024,
            trace_mode: TraceMode::Ring,
        },
    );
    w.install_ed(&mut ed)?;
    // Profiling runs concurrently with the calibration session.
    ed.program_mcds(
        audo_mcds::Mcds::builder()
            .probe(audo_mcds::RateProbe {
                event: audo_mcds::EventSelector::of(audo_mcds::EventClass::InstrRetired)
                    .from(SourceId::TRICORE),
                basis: audo_mcds::Basis::Cycles(5_000),
                group: None,
            })
            .build()?,
    );
    let inj_map = w.image.symbol("inj_map").expect("inj_map");
    let page = ed.soc.fabric.cfg.overlay_page;
    ed.map_calibration_page(0, (inj_map.0 - 0x8000_0000) / page)?;
    let phase = w.max_cycles / 3;
    ed.run(phase, |_| {}).ok();
    let read_state = |ed: &mut EmulationDevice, off: u32| -> Result<u32, SimError> {
        let b = ed.tool_read(Addr(layout::STATE + off), 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    };
    let row_before = read_state(&mut ed, layout::state::SMOOTH_OUT)?;
    let map_in_emem = Addr(0xE000_0000 + ed.calibration_offset() + (inj_map.0 % page));
    let current = ed.tool_read(map_in_emem, 1024)?;
    let tuned: Vec<u8> = current
        .chunks_exact(4)
        .flat_map(|c| (u32::from_le_bytes([c[0], c[1], c[2], c[3]]) * 2).to_le_bytes())
        .collect();
    ed.tool_write(map_in_emem, &tuned)?;
    ed.run(phase, |_| {}).ok();
    let row_after = read_state(&mut ed, layout::state::SMOOTH_OUT)?;
    let ratio = f64::from(row_after) / f64::from(row_before.max(1));
    r.line(format!(
        "live tuning: map x2 mid-run -> row average {row_before} -> {row_after} ({ratio:.2}x)"
    ));
    r.check(
        "tool-side map change visible in the running application",
        ratio > 1.5,
    );
    r.check(
        "profiling continued during calibration",
        ed.trace.total_written() > 0,
    );
    if r.obs.is_enabled() {
        ed.export_obs(&mut r.obs);
        r.obs
            .sample("calibration.overlay_bytes_tuned", tuned.len() as u64);
    }
    Ok(r)
}

// ======================================================================
// E11 — §5: parallel measurement vs sequential runs
// ======================================================================

/// Shows why "measuring different data sources one after the other" fails:
/// real-time stimulus is not repeatable across runs, while one parallel run
/// captures coherent timelines.
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e11_parallel_vs_serial() -> Result<Report, SimError> {
    let mut r = Report::new("E11", "parallel capture vs sequential runs (§5)");
    let p = EngineParams {
        rpm: 6000,
        target_teeth: 40,
        can_period: 4_000,
        ..EngineParams::default()
    };
    let window = 5_000u32;
    let run_with_seed = |seed: u32| -> Result<audo_profiler::SessionOutcome, SimError> {
        let (w, mut ed) = engine_ed(&p)?;
        // A different day in the car: same software, different bus/analog
        // environment.
        ed.soc.fabric.can.reseed(seed);
        ed.soc.fabric.can.jitter = 2_000; // a noisy bus: ±50% spacing
        ed.soc.fabric.adc.reseed(seed.wrapping_mul(7919));
        let spec = ProfileSpec::new()
            .metric(Metric::Ipc, window)
            .metric(Metric::IrqRaisedPerKilocycle, window);
        profile(
            &mut ed,
            &spec,
            &SessionOptions {
                max_cycles: w.max_cycles,
                ..SessionOptions::default()
            },
        )
    };
    let run_a = run_with_seed(1)?;
    let run_b = run_with_seed(2)?;
    let irq_a: Vec<f64> = run_a
        .timeline
        .series(Metric::IrqRaisedPerKilocycle)
        .iter()
        .map(|s| s.value)
        .collect();
    let irq_b: Vec<f64> = run_b
        .timeline
        .series(Metric::IrqRaisedPerKilocycle)
        .iter()
        .map(|s| s.value)
        .collect();
    let n = irq_a.len().min(irq_b.len());
    let mean: f64 = irq_a[..n].iter().sum::<f64>() / n as f64;
    let mad: f64 = irq_a[..n]
        .iter()
        .zip(&irq_b[..n])
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / n as f64;
    let rel = mad / mean.max(1e-9);
    r.line(format!(
        "two sequential runs (different real-time environment): {n} windows, mean service-request rate {mean:.3}/kcycle, mean |Δ| {mad:.3} ({:.0}% of mean)",
        rel * 100.0
    ));
    r.line(
        "a sequential two-run measurement would pair run A's IPC with run B's interrupt rate — \
         but the interrupt timelines differ materially between runs"
            .to_string(),
    );
    r.line(format!(
        "the parallel run captured both series on one time axis at {:.1} bytes/kcycle",
        run_a.bytes_per_kilocycle()
    ));
    r.check(
        "sequential runs disagree materially (≥10% mean deviation)",
        rel >= 0.10,
    );
    r.check(
        "parallel run has both series with consistent sample counts",
        {
            let a = run_a.timeline.series(Metric::Ipc).len();
            let b = run_a.timeline.series(Metric::IrqRaisedPerKilocycle).len();
            a == b && a > 10
        },
    );
    Ok(r)
}

// ======================================================================
// E12 — Fig. 1: the F-model generation step
// ======================================================================

/// Runs the packaged F-model workflow: evaluate options per workload,
/// rank with the §4 regression veto, adopt the affordable winners, and
/// validate the combined next generation on the unchanged software.
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e12_fmodel() -> Result<Report, SimError> {
    use audo_profiler::generation::{plan_next_generation, GenerationPlanOptions};
    let mut r = Report::new(
        "E12",
        "F-model: next generation, software unchanged (Fig. 1)",
    );
    let baseline = SocConfig::default();
    let options = [
        ArchOption::FlashWaitStates(3),
        ArchOption::FlashReadBuffers(4),
        ArchOption::FlashArbitration(PortArbitration::DataFirst),
        ArchOption::IcacheSize(ByteSize::kib(32)),
        ArchOption::DcacheSize(ByteSize::kib(8)),
    ];
    let workloads = [
        engine_control(&EngineParams {
            rpm: 12_000,
            target_teeth: 25,
            ..EngineParams::default()
        }),
        table_chase(16, 4_000, true),
        flash_duel(800, 8),
        engine_control(&EngineParams {
            rpm: 12_000,
            target_teeth: 25,
            tables_in_dspr: true,
            ..EngineParams::default()
        }),
    ];
    let names: Vec<String> = workloads.iter().map(|w| w.name.clone()).collect();
    let plan = plan_next_generation(
        &baseline,
        &names,
        &options,
        &CostModel::default(),
        &GenerationPlanOptions {
            budget: 120.0,
            ..GenerationPlanOptions::default()
        },
        |cfg, i| run_workload_cycles(cfg, &workloads[i]),
    )?;
    for l in plan.render().lines() {
        r.line(l.to_string());
    }
    r.check(
        "the planner adopted at least one option",
        !plan.adopted.is_empty(),
    );
    r.check(
        "the adopted set respects the 120 kGE budget",
        plan.total_cost <= 120.0,
    );
    r.check(
        "no workload regresses on the next generation (software compatibility)",
        plan.combined_speedups.iter().all(|(_, s)| *s >= 0.999),
    );
    let engine = plan
        .combined_speedups
        .iter()
        .find(|(n, _)| n.starts_with("engine[12000rpm]"))
        .expect("engine workload present");
    r.check("the engine workload gains >8% on gen N+1", engine.1 > 1.08);
    let chase = plan
        .combined_speedups
        .iter()
        .find(|(n, _)| n == "table_chase")
        .expect("chase workload present");
    r.check(
        "the flash-bound chase gains >15% on gen N+1",
        chase.1 > 1.15,
    );
    Ok(r)
}

/// An experiment entry point.
pub type ExperimentFn = fn() -> Result<Report, SimError>;

/// The full experiment registry, in report order. Each entry pairs the
/// experiment id (as matched by `--filter`) with its entry point; every
/// experiment is self-contained and independently seeded, which is what
/// lets [`run_selected`] schedule them concurrently.
#[must_use]
pub fn registry() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("E1", e1_platform as ExperimentFn),
        ("E2", e2_ipc_timeline),
        ("E3", e3_parallel_rates),
        ("E4", e4_cascade),
        ("E5", e5_bandwidth),
        ("E6", e6_arch_sweep),
        ("E7", e7_gain_cost),
        ("E8", e8_partitioning),
        ("E9", e9_trace),
        ("E10", e10_calibration),
        ("E11", e11_parallel_vs_serial),
        ("E12", e12_fmodel),
        ("E13", e13_mli_intrusiveness),
        ("E14", e14_data_attribution),
        ("E15", e15_software_optimization),
        ("E16", e16_tool_link),
    ]
}

/// One experiment's report plus its wall-clock duration.
#[derive(Debug, Clone)]
pub struct TimedReport {
    /// The experiment's report.
    pub report: Report,
    /// How long the experiment ran.
    pub duration: std::time::Duration,
}

/// Runs the registry experiments whose id is in `ids` (all of them when
/// `ids` is empty) on up to `jobs` worker threads. Reports come back in
/// registry order whatever the scheduling, so the rendered output is
/// byte-identical to a `jobs = 1` run.
///
/// # Errors
///
/// Returns `SimError::InvalidConfig` for an unknown id; otherwise
/// propagates the first simulation fault in registry order.
pub fn run_selected(ids: &[String], jobs: usize) -> Result<Vec<TimedReport>, SimError> {
    let all = registry();
    let selected: Vec<(&'static str, ExperimentFn)> = if ids.is_empty() {
        all
    } else {
        for id in ids {
            if !all.iter().any(|(known, _)| known.eq_ignore_ascii_case(id)) {
                return Err(SimError::InvalidConfig {
                    message: format!("unknown experiment id {id:?} (known: E1..E{})", all.len()),
                });
            }
        }
        all.into_iter()
            .filter(|(id, _)| ids.iter().any(|want| want.eq_ignore_ascii_case(id)))
            .collect()
    };
    let outcomes = crate::scheduler::run_jobs(selected.len(), jobs, |i| selected[i].1());
    outcomes
        .into_iter()
        .map(|job| {
            job.output.map(|report| TimedReport {
                report,
                duration: job.duration,
            })
        })
        .collect()
}

// ======================================================================
// E13 — §3: the intrusive MLI/monitor path vs the ED/DAP path
// ======================================================================

/// Quantifies the §3 alternative access path: "a tool can communicate …
/// with a monitor routine, running on TriCore" — i.e. the target CPU pays
/// cycles for every transferred byte, while the ED/DAP path is free.
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e13_mli_intrusiveness() -> Result<Report, SimError> {
    let mut r = Report::new(
        "E13",
        "MLI monitor path vs non-intrusive ED/DAP access (§3)",
    );
    let monitor = audo_dap::MliMonitor::default();
    let chunk = 256u64;
    let p = EngineParams {
        rpm: 6000,
        target_teeth: 20,
        ..EngineParams::default()
    };

    let mut results = Vec::new();
    for (label, spec) in [
        (
            "rates only (4 probes)",
            ProfileSpec::new()
                .metric(Metric::Ipc, 1000)
                .metric(Metric::IcacheMissPerInstr, 1000)
                .metric(Metric::DcacheMissPerInstr, 1000)
                .metric(Metric::InterruptsPerKilocycle, 1000),
        ),
        (
            "full program trace",
            ProfileSpec::new().with_program_trace(),
        ),
    ] {
        let (w, mut ed) = engine_ed(&p)?;
        let out = profile(
            &mut ed,
            &spec,
            &SessionOptions {
                max_cycles: w.max_cycles,
                ..SessionOptions::default()
            },
        )?;
        // MLI path: the monitor routine moves the same bytes in 256-byte
        // chunks, stealing CPU cycles per invocation and per byte.
        let invocations = out.produced_bytes.div_ceil(chunk);
        let stolen = (0..invocations)
            .map(|i| {
                let bytes = chunk.min(out.produced_bytes - i * chunk);
                monitor.intrusion_cycles(bytes)
            })
            .sum::<u64>();
        let overhead = stolen as f64 / out.cycles as f64;
        r.line(format!(
            "{label:<24}: {} bytes over {} cycles -> MLI steals {} CPU cycles ({:.1}% slowdown); ED/DAP steals 0",
            out.produced_bytes,
            out.cycles,
            stolen,
            overhead * 100.0
        ));
        results.push((label, out.produced_bytes, overhead));
    }
    r.line(
        "(the ED path's zero intrusion is verified directly: identical cycle counts with and \
         without the MCDS attached — see `observation_is_nonintrusive` in audo-ed)"
            .to_string(),
    );
    r.check(
        "full-trace transport over MLI costs >50% of the CPU",
        results[1].2 > 0.5,
    );
    r.check(
        "even the cheap rate-message stream costs measurable CPU over MLI",
        results[0].2 > 0.001,
    );
    r.check(
        "rate messages reduce the MLI pain vs full trace by >10x",
        results[1].2 / results[0].2.max(1e-12) > 10.0,
    );
    Ok(r)
}

// ======================================================================
// E14 — §5: qualified data trace for data-structure attribution
// ======================================================================

/// Uses the qualified data trace to attribute accesses to the application's
/// data structures — the §5 customer value of finding "data
/// structures/variables that should be mapped to scratch pad memory".
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e14_data_attribution() -> Result<Report, SimError> {
    let mut r = Report::new(
        "E14",
        "qualified data trace: data-structure attribution (§5)",
    );
    let p = EngineParams {
        rpm: 12_000,
        target_teeth: 25,
        ..EngineParams::default()
    };
    let w = engine_control(&p);
    let mut ed = EmulationDevice::new(SocConfig::default(), EdConfig::default());
    w.install_ed(&mut ed)?;
    let inj_map = w.image.symbol("inj_map").expect("inj_map").0;
    let ign_map = w.image.symbol("ign_map").expect("ign_map").0;
    // One qualifier covering both flash tables (reads only).
    let qual = audo_mcds::DataQualifier {
        lo: Addr(inj_map),
        hi: Addr(ign_map + 64 - 1),
        source: Some(SourceId::TRICORE),
        kind: Some(audo_common::AccessKind::Read),
    };
    let spec = ProfileSpec::new().with_data_trace(qual);
    let (mcds, _map) = spec.compile()?;
    ed.program_mcds(mcds);
    let mut truth_in_range = 0u64;
    let mut host = Vec::new();
    let mut halted = false;
    while !halted {
        let step = ed.step()?;
        for e in &step.obs.events {
            if let PerfEvent::DataValue {
                addr,
                kind: audo_common::AccessKind::Read,
                ..
            } = e.event
            {
                if e.source == SourceId::TRICORE && addr.0 >= inj_map && addr.0 < ign_map + 64 {
                    truth_in_range += 1;
                }
            }
        }
        halted = step.halted;
        let level = ed.trace.level();
        if level > 0 {
            host.extend_from_slice(&ed.drain_trace(level as u32)?);
        }
    }
    let (messages, err) = audo_mcds::msg::decode_stream_lossy(&host);
    assert!(err.is_none());
    let mut per_structure = std::collections::BTreeMap::new();
    let mut traced = 0u64;
    for (_, m) in &messages {
        if let TraceMessage::Data { addr, .. } = m {
            traced += 1;
            let name = if addr.0 >= ign_map {
                "ign_map"
            } else {
                "inj_map"
            };
            *per_structure.entry(name).or_insert(0u64) += 1;
        }
    }
    r.line(format!(
        "qualifier [{:#x}..{:#x}), reads by TriCore: traced {traced} accesses (ground truth {truth_in_range})",
        inj_map,
        ign_map + 64
    ));
    for (name, n) in &per_structure {
        r.line(format!("    {name:<10} {n:>8} accesses"));
    }
    r.check(
        "every qualified access captured, none invented",
        traced == truth_in_range,
    );
    r.check(
        "the injection map is identified as the hot structure",
        per_structure.get("inj_map").copied().unwrap_or(0)
            > per_structure.get("ign_map").copied().unwrap_or(0),
    );
    r.check("accesses outside the qualifier window are not traced", {
        // ADC buffer traffic (DSPR) is heavy but must not appear.
        messages.iter().all(|(_, m)| match m {
            TraceMessage::Data { addr, .. } => addr.0 >= inj_map && addr.0 < ign_map + 64,
            _ => true,
        })
    });
    Ok(r)
}

// ======================================================================
// E15 — §5: the customer's software optimizations, measured
// ======================================================================

/// Quantifies the §5 customer-side optimizations the profiling method is
/// meant to drive: mapping hot data to the DSPR, hot ISR code to the PSPR,
/// and offloading CAN to the PCP — individually and combined — with the
/// before/after comparison the paper asks for ("measuring the result of
/// the improvement quantitatively").
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e15_software_optimization() -> Result<Report, SimError> {
    let mut r = Report::new(
        "E15",
        "customer software optimizations (§5), before vs after",
    );
    let base = EngineParams {
        rpm: 12_000,
        target_teeth: 20,
        can_period: 2_000,
        ..EngineParams::default()
    };
    let variants: [(&str, EngineParams); 5] = [
        ("baseline", base.clone()),
        (
            "tables->DSPR",
            EngineParams {
                tables_in_dspr: true,
                ..base.clone()
            },
        ),
        (
            "ISRs->PSPR",
            EngineParams {
                isrs_in_pspr: true,
                ..base.clone()
            },
        ),
        (
            "CAN->PCP",
            EngineParams {
                can_on_pcp: true,
                ..base.clone()
            },
        ),
        (
            "all combined",
            EngineParams {
                tables_in_dspr: true,
                isrs_in_pspr: true,
                can_on_pcp: true,
                ..base.clone()
            },
        ),
    ];
    let mut rows = Vec::new();
    let mut baseline_tl = None;
    for (label, p) in &variants {
        let (w, mut ed) = engine_ed(p)?;
        let spec = ProfileSpec::new()
            .metric(Metric::Ipc, 2000)
            .metric(Metric::DcacheHitRatio, 2000)
            .metric(Metric::InterruptsPerKilocycle, 2000);
        let out = profile(
            &mut ed,
            &spec,
            &SessionOptions {
                max_cycles: w.max_cycles,
                ..SessionOptions::default()
            },
        )?;
        rows.push((
            label.to_string(),
            out.cycles,
            out.timeline.average(Metric::DcacheHitRatio),
        ));
        if *label == "baseline" {
            baseline_tl = Some(out.timeline);
        } else if *label == "all combined" {
            // The paper's before/after comparison, on the measured rates.
            let deltas = audo_profiler::compare_timelines(
                baseline_tl.as_ref().expect("baseline measured first"),
                &out.timeline,
            );
            r.line("baseline vs all-combined (measured rate comparison):".to_string());
            for l in audo_profiler::render_comparison(&deltas).lines() {
                r.line(format!("    {l}"));
            }
        }
    }
    r.line(format!(
        "{:<16} {:>10} {:>10} {:>12}",
        "variant", "cycles", "speedup", "dcache-hit"
    ));
    let base_cycles = rows[0].1;
    for (label, cycles, dhit) in &rows {
        r.line(format!(
            "{label:<16} {cycles:>10} {:>9.3}x {dhit:>12.4}",
            base_cycles as f64 / *cycles as f64
        ));
    }
    let speedup_of = |l: &str| {
        let row = rows.iter().find(|(n, _, _)| n == l).expect("row");
        base_cycles as f64 / row.1 as f64
    };
    r.check("tables->DSPR helps", speedup_of("tables->DSPR") > 1.0);
    r.check("ISRs->PSPR helps", speedup_of("ISRs->PSPR") > 1.0);
    r.check(
        "CAN->PCP helps under this CAN load",
        speedup_of("CAN->PCP") > 1.0,
    );
    r.check(
        "the combination beats every single optimization",
        speedup_of("all combined")
            > speedup_of("tables->DSPR")
                .max(speedup_of("ISRs->PSPR"))
                .max(speedup_of("CAN->PCP")),
    );
    Ok(r)
}

// ======================================================================
// E16 — the robust framed tool link: fault sweep + drain/overlay arbitration
// ======================================================================

/// Exercises the framed `DapSession` protocol end to end: a fault-rate
/// sweep over the differential matrix rates {0, 1e-3, 1e-2} (three pinned
/// seeds each, or a single `--dap-fault-rate` override), asserting the
/// never-silently-wrong contract — each drained stream is byte-identical
/// to the lossless drain or explicitly flagged truncated — plus an
/// arbitration run where a calibration overlay write and the trace drain
/// contend for the same link budget.
///
/// # Errors
///
/// Propagates simulation faults.
pub fn e16_tool_link() -> Result<Report, SimError> {
    use audo_dap::session::{ArbitrationPolicy, DapEndpoint, DapSession, HostTool, SessionConfig};
    use audo_dap::FaultConfig;
    use audo_profiler::session::ToolLinkOptions;

    let mut r = Report::new(
        "E16",
        "robust framed tool link: fault sweep and drain/overlay arbitration",
    );
    let spec = ProfileSpec::new().metric(Metric::Ipc, 200);

    // Reference: the idealised offline drain of the identical program.
    let mut ref_ed = phased_ed()?;
    let reference = profile(&mut ref_ed, &spec, &SessionOptions::default())?;
    let ref_stream_len = reference.downloaded_bytes;

    let rates: Vec<f64> = match crate::dap_fault_rate_override() {
        Some(rate) => vec![rate],
        None => vec![0.0, 1e-3, 1e-2],
    };
    let seeds: [u64; 3] = [11, 23, 47];
    r.line(format!(
        "{:<11} {:>5} {:>9} {:>8} {:>9} {:>10} {:>10}",
        "fault-rate", "seed", "drained", "retries", "timeouts", "truncated", "exact"
    ));
    let mut all_explicit = true;
    let mut lossless_exact = true;
    for &rate in &rates {
        for &seed in &seeds {
            let mut ed = phased_ed()?;
            let out = profile(
                &mut ed,
                &spec,
                &SessionOptions {
                    drain: DrainPolicy::Session(ToolLinkOptions {
                        faults: FaultConfig::uniform(rate, seed),
                        ..ToolLinkOptions::default()
                    }),
                    ..SessionOptions::default()
                },
            )?;
            let report = out.tool.expect("session policy reports");
            if r.obs.is_enabled() {
                // Aggregate link-robustness counters across the sweep.
                r.obs.add("sweep.sessions", 1);
                r.obs.add("sweep.retries", report.stats.retries);
                r.obs.add("sweep.timeouts", report.stats.timeouts);
                r.obs.add("sweep.crc_errors", report.stats.crc_errors);
                r.obs
                    .add("sweep.backoff_cycles", report.stats.backoff_cycles);
                r.obs.add("sweep.rewinds", report.stats.rewinds);
            }
            let exact = out.downloaded_bytes == ref_stream_len && report.complete;
            let explicit = exact || report.stats.trace_truncated;
            all_explicit &= explicit;
            if rate == 0.0 {
                lossless_exact &= exact && report.stats.retries == 0;
            }
            r.line(format!(
                "{rate:<11} {seed:>5} {:>9} {:>8} {:>9} {:>10} {exact:>10}",
                out.downloaded_bytes,
                report.stats.retries,
                report.stats.timeouts,
                report.stats.trace_truncated,
            ));
            r.field(
                format!("rate_{rate}_seed_{seed}_retries"),
                report.stats.retries,
            );
            r.field(
                format!("rate_{rate}_seed_{seed}_truncated"),
                report.stats.trace_truncated,
            );
        }
    }
    r.field("reference_stream_bytes", ref_stream_len);
    r.check(
        "every drain is byte-identical to lossless or explicitly truncated",
        all_explicit,
    );
    if rates.contains(&0.0) {
        r.check("fault rate 0: exact stream, zero retries", lossless_exact);
    }

    // Arbitration: run the target to halt with trace kept on the device,
    // then let an overlay write and the trace drain fight for the link.
    let mut ed = phased_ed()?;
    ed.program_mcds(audo_mcds::Mcds::builder().program_trace().build()?);
    ed.run(2_000_000, |_| {})?;
    let trace_level = ed.trace.level();
    let session = DapSession::new(
        DapConfig::default(),
        SessionConfig::default(),
        FaultConfig::lossless(),
    );
    let mut tool = HostTool::new(session, ArbitrationPolicy::CalibrationFirst);
    let cal = audo_platform::config::EMEM_BASE.offset(ed.calibration_offset());
    let payload: Vec<u8> = (0..512u32).map(|i| (i * 13) as u8).collect();
    tool.queue_overlay_write(cal.0, &payload);
    for _ in 0..4_000_000u64 {
        tool.pump(&mut ed);
        if tool.pending_write_chunks() == 0
            && tool.session.stats().trace_bytes_drained >= trace_level
        {
            break;
        }
    }
    let drained_ok = tool.finish_drain(&mut ed, 4_000_000);
    let st = *tool.session.stats();
    if r.obs.is_enabled() {
        let mut arb = audo_obs::Registry::new();
        tool.session.export_obs(&mut arb);
        ed.export_obs(&mut arb);
        r.obs.merge_from("arb.", &arb, 1);
    }
    let written = ed.block_read(cal.0, payload.len())?;
    r.line(format!(
        "arbitration: {} trace B drained, {} overlay B written, grants drain/overlay {}/{}",
        st.trace_bytes_drained, st.overlay_bytes_written, st.drain_grants, st.overlay_grants
    ));
    // Latency and wire-size distributions from the arbitration run: the
    // session's transaction-latency histogram, and the encoded sizes of the
    // trace messages it drained. Percentiles report the bucket upper bound.
    let collected = tool.take_collected();
    let mut msg_sizes = Vec::new();
    let _ = audo_mcds::msg::decode_stream_lossy_shifted_sized(&collected, 0, &mut msg_sizes);
    let mut msg_hist = audo_obs::Histogram::default();
    for s in &msg_sizes {
        msg_hist.record(*s as u64);
    }
    if r.obs.is_enabled() {
        r.obs.observe_histogram("arb.mcds.message_bytes", &msg_hist);
    }
    let lat = tool.session.latency_histogram();
    r.line(format!(
        "link transaction cycles: p50 <= {}, p90 <= {}, p99 <= {} ({} transactions)",
        lat.percentile(50.0),
        lat.percentile(90.0),
        lat.percentile(99.0),
        lat.count(),
    ));
    r.line(format!(
        "trace message bytes: p50 <= {}, p90 <= {}, p99 <= {} ({} messages)",
        msg_hist.percentile(50.0),
        msg_hist.percentile(90.0),
        msg_hist.percentile(99.0),
        msg_hist.count(),
    ));
    r.field("arb_txn_cycles_p50", lat.percentile(50.0));
    r.field("arb_txn_cycles_p99", lat.percentile(99.0));
    r.field("arb_msg_bytes_p50", msg_hist.percentile(50.0));
    r.field("arb_msg_bytes_p99", msg_hist.percentile(99.0));
    r.check(
        "latency percentiles populated and monotone",
        lat.count() > 0
            && lat.percentile(50.0) > 0
            && lat.percentile(50.0) <= lat.percentile(90.0)
            && lat.percentile(90.0) <= lat.percentile(99.0),
    );
    r.check(
        "message-size percentiles populated and monotone",
        msg_hist.count() > 0
            && msg_hist.percentile(50.0) > 0
            && msg_hist.percentile(50.0) <= msg_hist.percentile(99.0),
    );
    r.field("arb_trace_bytes", st.trace_bytes_drained);
    r.field("arb_overlay_bytes", st.overlay_bytes_written);
    r.check(
        "overlay write lands byte-exact despite drain pressure",
        written == payload,
    );
    r.check(
        "trace fully drained alongside the overlay traffic",
        drained_ok && st.trace_bytes_drained >= trace_level && !st.trace_truncated,
    );
    r.check(
        "both classes actually shared the link",
        st.drain_grants > 0 && st.overlay_grants > 0,
    );
    Ok(r)
}

//! Differential execution of one program across the execution tiers.
//!
//! A program is run through up to four configurations — functional ISS
//! with per-step refetch, ISS basic-block fast path, cycle-level
//! pipeline uncached, and pipeline with the predecoded fast path — and
//! every architectural observable that the tiers contractually share is
//! diffed:
//!
//! * ISS slow vs. fast: complete [`ArchState`], event stream, debug
//!   markers, retired count, and the MCDS-encoded trace bytes of the
//!   event stream (which must also decode back losslessly).
//! * pipeline uncached vs. cached: register files, retired count and
//!   event stream.
//! * across tiers: register files and retired count. (Event *timing*
//!   differs by design — the pipeline emits stall and flow events the
//!   functional model has no notion of.)
//! * statically: every decodable instruction in the image must
//!   round-trip `disassemble → assemble → decode` to the same
//!   instruction (the encoder/disassembler differential). Each listing
//!   line is assembled on its own at its address
//!   ([`assemble_instr`]) and the bytes it gives are decoded.
//! * optionally ([`CheckOptions::check_wcet`]): the static WCET/CSA
//!   bounds from `audo-analyze` against the profile of the cached
//!   pipeline run — the same run that is diffed against the uncached
//!   pipeline, with block profiling on. A measured count above a static
//!   bound is a timing-model bug, handled exactly like any other
//!   divergence.
//!
//! Each piece of work is done once per program: one disassembly, one
//! line assembly and decode per instruction, one run per tier, one CFG
//! recovery and constant propagation.
//!
//! A program on which the golden model itself faults (unmapped store,
//! retire-budget blowout, CSA exhaustion...) is not a divergence as
//! long as both ISS configurations fault with the *same* error; the
//! pipeline is skipped for such programs, mirroring how the repo treats
//! guest faults elsewhere.

use std::collections::BTreeMap;

use audo_analyze::cfg::{self, Cfg};
use audo_analyze::constprop::Solution;
use audo_analyze::wcet;
use audo_common::events::StallReason;
use audo_common::{Addr, Cycle, EventRecord, EventSink, SimError, SourceId};
use audo_mcds::select::{EventClass, EventSelector};
use audo_mcds::{decode_stream, Basis, Mcds, RateProbe};
use audo_obs::profile::BlockProfile;
use audo_tricore::arch::init_csa_list;
use audo_tricore::asm::{assemble, assemble_instr};
use audo_tricore::bus::TestBus;
use audo_tricore::disasm::disassemble_range;
use audo_tricore::encode::decode;
use audo_tricore::iss::Iss;
use audo_tricore::opcodes::{opcode_name, OPCODE_SPACE};
use audo_tricore::pipeline::{CostModel, MemCosts};
use audo_tricore::{ArchState, Core, CoreConfig, Image};

use audo_asm::Tiers;

/// Memory map every tier runs under: flash, SRAM, DSPR and PSPR, with
/// the CSA pool carved out of the upper DSPR half.
pub const REGIONS: &[(u32, u32)] = &[
    (0x8000_0000, 0x4_0000),
    (0x9000_0000, 0x2_0000),
    (0xD000_0000, 0x2_0000),
    (0xC000_0000, 0x1_0000),
];

/// Base of the context-save-area pool.
pub const CSA_BASE: u32 = 0xD000_8000;
/// Number of CSA frames in the pool.
pub const CSA_FRAMES: u32 = 64;

/// Knobs for one differential check.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Retired-instruction budget per ISS run. The pipeline's cycle cap
    /// is derived from this (×40, plus slack), so a tier that hangs is
    /// reported as a divergence instead of wedging the fuzzer.
    pub max_instrs: u64,
    /// Test-only fault hook: when the program retires at least one
    /// instruction in this opcode slot, the fast-path ISS result is
    /// deliberately corrupted before comparison. This exists so the
    /// shrink/pin loop can be exercised end to end without waiting for
    /// a real tier bug.
    pub fault: Option<u8>,
    /// Additionally check the static WCET/CSA bounds against a profiled
    /// pipeline run of the program: any measured per-block cycle count,
    /// end-to-end cycle count or CSA peak above its static bound is a
    /// timing-model bug, reported (and shrunk) like a tier divergence.
    pub check_wcet: bool,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions {
            max_instrs: 200_000,
            fault: None,
            check_wcet: false,
        }
    }
}

/// Outcome of one differential check.
#[derive(Debug, Clone)]
pub struct TierReport {
    /// First divergence found, if any (deterministic: checks run in a
    /// fixed order).
    pub divergence: Option<String>,
    /// The tiers agreed that the program faults (same [`SimError`] from
    /// both ISS configurations). Not a divergence.
    pub errored: bool,
    /// Instructions the golden model retired.
    pub retired: u64,
    /// Per-opcode-slot retire counts from the golden model.
    pub coverage: Box<[u64; OPCODE_SPACE]>,
    /// Per-cause stall cycles the uncached pipeline run observed (all
    /// zero for ISS-only programs), indexed by [`StallReason::index`] —
    /// how well the fuzz corpus exercises the stall machinery.
    pub stall_coverage: [u64; StallReason::COUNT],
}

struct IssOut {
    err: Option<SimError>,
    state: ArchState,
    instr_count: u64,
    debug_markers: Vec<u8>,
    events: Vec<EventRecord>,
    /// Per-opcode-slot retired counts, from the slow run only.
    coverage: Option<Box<[u64; OPCODE_SPACE]>>,
}

/// Runs the ISS on `image`. Only the slow run counts opcode coverage: the
/// fast run is compared against it, and its counts would be the same.
fn iss_exec(image: &Image, fast: bool, max_instrs: u64) -> IssOut {
    let mut iss = Iss::new();
    for &(base, len) in REGIONS {
        iss.map_region(Addr(base), len);
    }
    iss.init_csa(Addr(CSA_BASE), CSA_FRAMES)
        .expect("CSA window is mapped");
    iss.set_profile_observation(!fast);
    let err = match iss.load(image) {
        Ok(()) => {
            iss.set_fast_path(fast);
            iss.set_observation(true);
            iss.run_resumable(max_instrs).err()
        }
        Err(e) => Some(e),
    };
    IssOut {
        err,
        state: iss.state().clone(),
        instr_count: iss.instr_count(),
        debug_markers: iss.debug_markers().to_vec(),
        events: iss.events().to_vec(),
        coverage: iss.opcode_counts().map(|c| Box::new(*c)),
    }
}

struct PipeOut {
    err: Option<SimError>,
    halted: bool,
    retired: u64,
    d: [u32; 16],
    a: [u32; 16],
    events: Vec<EventRecord>,
    stall_cycles: [u64; StallReason::COUNT],
    /// What the WCET check measures, when the run was profiled.
    profiled: Option<Profiled>,
}

/// The measured side of the WCET check, taken from one profiled run.
#[derive(Clone)]
struct Profiled {
    profile: BlockProfile,
    /// Region write generations after the load, before the first cycle
    /// ([`wcet::code_stamps`]).
    stamps: BTreeMap<u32, u64>,
    mem: MemCosts,
    /// Retire plus stall cycles: the run's accounted total.
    total_cycles: u64,
    csa_peak: u32,
}

/// Runs the pipeline on `image`. With `profile_for` a recovered graph of
/// the image, block profiling is on and the run also yields what the WCET
/// check measures, its code stamps keyed by that graph's blocks.
fn pipe_exec(image: &Image, fast: bool, max_cycles: u64, profile_for: Option<&Cfg>) -> PipeOut {
    let mut bus = TestBus::new();
    for &(base, len) in REGIONS {
        bus.mem.add_region(Addr(base), len);
    }
    let mut out = PipeOut {
        err: None,
        halted: false,
        retired: 0,
        d: [0; 16],
        a: [0; 16],
        events: Vec::new(),
        stall_cycles: [0; StallReason::COUNT],
        profiled: None,
    };
    if let Err(e) = image.load_into(&mut bus.mem) {
        out.err = Some(e);
        return out;
    }
    let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
    core.set_fast_path(fast);
    core.set_profile_observation(profile_for.is_some());
    match init_csa_list(&mut bus.mem, Addr(CSA_BASE), CSA_FRAMES) {
        Ok(fcx) => core.arch_mut().fcx = fcx,
        Err(e) => {
            out.err = Some(e);
            return out;
        }
    }
    // Stamps after every load-time store, before the first guest cycle.
    let stamps = profile_for.map(|g| wcet::code_stamps(g, &bus));
    let mut sink = EventSink::new();
    let mut cyc = 0u64;
    while !core.is_halted() && cyc < max_cycles {
        if let Err(e) = core.step(Cycle(cyc), &mut bus, None, &mut sink) {
            out.err = Some(e);
            break;
        }
        out.events.extend_from_slice(sink.records());
        sink.clear();
        cyc += 1;
    }
    out.halted = core.is_halted();
    out.retired = core.retired_total();
    out.d = core.arch().d;
    out.a = core.arch().a;
    let stats = core.stats();
    out.stall_cycles = stats.stall_cycles;
    out.profiled = match (stamps, core.block_profile()) {
        (Some(stamps), Some(profile)) => Some(Profiled {
            profile: profile.clone(),
            stamps,
            mem: MemCosts::of_test_bus(&bus),
            total_cycles: stats.retire_cycles + stats.stall_total(),
            csa_peak: core.arch().csa_depth_peak,
        }),
        _ => None,
    };
    out
}

/// Static-WCET soundness differential: bounds every block of the
/// recovered graph with the pipeline's exported cost model and reports
/// the first value measured by the profiled run that exceeds its static
/// bound.
///
/// The caller passes only runs that halted without a fault (anything else
/// is already a divergence or an agreed fault in the main differential).
/// Self-modified and runtime-written code is excluded inside
/// [`audo_analyze::wcet::check_profile`] via region write-generation
/// stamps, so only image-resident blocks are held to the static bounds.
fn wcet_divergence(g: &Cfg, sol: &Solution, run: &Profiled) -> Option<String> {
    let model = CostModel::new(CoreConfig::default(), run.mem);
    let report = wcet::analyze_wcet(g, sol, &model, CSA_FRAMES, "fuzz");
    let check = wcet::check_profile(
        g,
        &model,
        &report,
        &run.profile,
        &run.stamps,
        run.total_cycles,
        0,
        run.csa_peak,
    );
    check.violations.first().map(|v| {
        format!(
            "wcet: measured {} {} at {:#010x} exceeds the static bound {} \
             (program WCET {}, CSA depth {})",
            v.what, v.measured, v.addr, v.bound, report.program_wcet, report.program_csa
        )
    })
}

/// Encodes an event stream through a fully armed MCDS (program trace
/// plus an instruction-rate probe) and returns the raw trace bytes.
#[must_use]
pub fn mcds_trace_bytes(events: &[EventRecord]) -> Vec<u8> {
    let mut mcds = Mcds::builder()
        .program_trace()
        .probe(RateProbe {
            event: EventSelector::of(EventClass::InstrRetired).from(SourceId::TRICORE),
            basis: Basis::Cycles(4),
            group: None,
        })
        .build()
        .expect("static MCDS config is valid");
    let mut out = Vec::new();
    let last = events.last().map_or(0, |e| e.cycle.0);
    let mut i = 0;
    for cy in 0..=last {
        let start = i;
        while i < events.len() && events[i].cycle.0 == cy {
            i += 1;
        }
        mcds.observe(Cycle(cy), &events[start..i], &[], &mut out);
    }
    out
}

fn diff_streams(tag: &str, a: &[EventRecord], b: &[EventRecord]) -> Option<String> {
    if a == b {
        return None;
    }
    let at = a
        .iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    Some(format!(
        "{tag}: event streams differ at record {at} ({} vs {} records)",
        a.len(),
        b.len()
    ))
}

/// Static encoder/disassembler differential: every decodable
/// instruction must survive `disassemble → assemble → decode`
/// *semantically* (the re-encoding may legally pick a narrower form, so
/// bytes are not compared). Each line is assembled alone at its address.
fn roundtrip_divergence(image: &Image) -> Option<String> {
    for s in image.sections() {
        for line in disassemble_range(image, s.base, s.bytes.len() as u32) {
            let Some(orig) = line.instr else {
                continue;
            };
            let (addr, text) = (line.addr, line.text);
            let code = match assemble_instr(&text, addr) {
                Ok(code) => code,
                Err(SimError::Assemble { message, .. }) => {
                    return Some(format!(
                        "round-trip: `{text}` at {addr} does not reassemble: {message}"
                    ))
                }
                Err(e) => return Some(format!("round-trip: `{text}` at {addr}: {e}")),
            };
            match decode(code.as_bytes(), addr) {
                Ok((back, _)) if back == orig => {}
                Ok((back, _)) => {
                    return Some(format!(
                        "round-trip: `{text}` at {addr} re-decodes as {back:?}, was {orig:?}"
                    ))
                }
                Err(e) => return Some(format!("round-trip: `{text}` at {addr}: {e}")),
            }
        }
    }
    None
}

/// Runs one assembled image through every tier it is eligible for and
/// diffs the results.
#[must_use]
#[allow(clippy::too_many_lines)] // reason: a linear checklist of tier comparisons, one per observable
pub fn check_image(image: &Image, tiers: Tiers, opts: &CheckOptions) -> TierReport {
    let slow = iss_exec(image, false, opts.max_instrs);
    let mut fast = iss_exec(image, true, opts.max_instrs);
    let mut report = TierReport {
        divergence: None,
        errored: false,
        retired: slow.instr_count,
        coverage: slow.coverage.expect("the slow run counts coverage"),
        stall_coverage: [0; StallReason::COUNT],
    };

    // Static differential first: it is independent of execution.
    if let Some(msg) = roundtrip_divergence(image) {
        report.divergence = Some(msg);
        return report;
    }

    // Test-only fault hook: corrupt the fast-path result when the
    // targeted opcode slot was exercised.
    if let Some(k) = opts.fault {
        if report.coverage[usize::from(k)] > 0 {
            fast.state.d[3] ^= 1;
        }
    }

    match (&slow.err, &fast.err) {
        (Some(a), Some(b)) if a == b => {
            report.errored = true;
            return report;
        }
        (Some(a), Some(b)) => {
            report.divergence = Some(format!("ISS error mismatch: slow `{a}` vs fast `{b}`"));
            return report;
        }
        (Some(a), None) => {
            report.divergence = Some(format!(
                "slow ISS faulted (`{a}`) but the fast path completed"
            ));
            return report;
        }
        (None, Some(b)) => {
            report.divergence = Some(format!(
                "fast-path ISS faulted (`{b}`) but the slow path completed"
            ));
            return report;
        }
        (None, None) => {}
    }

    if slow.state != fast.state {
        let field = if slow.state.d != fast.state.d {
            "d registers"
        } else if slow.state.a != fast.state.a {
            "a registers"
        } else {
            "control state"
        };
        report.divergence = Some(format!("ISS slow vs fast: {field} differ"));
        return report;
    }
    if slow.instr_count != fast.instr_count {
        report.divergence = Some(format!(
            "ISS slow vs fast: retired {} vs {}",
            slow.instr_count, fast.instr_count
        ));
        return report;
    }
    if slow.debug_markers != fast.debug_markers {
        report.divergence = Some("ISS slow vs fast: debug markers differ".to_string());
        return report;
    }
    if let Some(msg) = diff_streams("ISS slow vs fast", &slow.events, &fast.events) {
        report.divergence = Some(msg);
        return report;
    }

    // MCDS differential: identical event streams must encode to
    // identical trace bytes, and those bytes must decode losslessly.
    let trace_slow = mcds_trace_bytes(&slow.events);
    let trace_fast = mcds_trace_bytes(&fast.events);
    if trace_slow != trace_fast {
        report.divergence = Some(format!(
            "MCDS trace bytes differ: {} vs {} bytes",
            trace_slow.len(),
            trace_fast.len()
        ));
        return report;
    }
    if let Err(e) = decode_stream(&trace_slow) {
        report.divergence = Some(format!("MCDS trace bytes do not decode: {e}"));
        return report;
    }

    if tiers == Tiers::IssOnly {
        return report;
    }

    let max_cycles = opts.max_instrs.saturating_mul(40).saturating_add(10_000);
    // The WCET check keys the cached run's code stamps by the recovered
    // graph, so the graph comes first.
    let graph = opts.check_wcet.then(|| cfg::recover_solved(image));
    let pslow = pipe_exec(image, false, max_cycles, None);
    let pfast = pipe_exec(image, true, max_cycles, graph.as_ref().map(|(g, _)| g));
    report.stall_coverage = pslow.stall_cycles;
    for (tag, p) in [("pipeline uncached", &pslow), ("pipeline cached", &pfast)] {
        if let Some(e) = &p.err {
            report.divergence = Some(format!("{tag} faulted (`{e}`) but the ISS completed"));
            return report;
        }
        if !p.halted {
            report.divergence = Some(format!(
                "{tag} did not halt within {max_cycles} cycles (ISS retired {})",
                slow.instr_count
            ));
            return report;
        }
    }
    if pslow.d != pfast.d || pslow.a != pfast.a {
        report.divergence = Some("pipeline uncached vs cached: register files differ".to_string());
        return report;
    }
    if pslow.retired != pfast.retired {
        report.divergence = Some(format!(
            "pipeline uncached vs cached: retired {} vs {}",
            pslow.retired, pfast.retired
        ));
        return report;
    }
    if let Some(msg) = diff_streams("pipeline uncached vs cached", &pslow.events, &pfast.events) {
        report.divergence = Some(msg);
        return report;
    }

    if slow.state.d != pslow.d {
        let at = (0..16)
            .find(|&i| slow.state.d[i] != pslow.d[i])
            .unwrap_or(0);
        report.divergence = Some(format!(
            "ISS vs pipeline: d{at} is {:#x} vs {:#x}",
            slow.state.d[at], pslow.d[at]
        ));
        return report;
    }
    if slow.state.a != pslow.a {
        let at = (0..16)
            .find(|&i| slow.state.a[i] != pslow.a[i])
            .unwrap_or(0);
        report.divergence = Some(format!(
            "ISS vs pipeline: a{at} is {:#x} vs {:#x}",
            slow.state.a[at], pslow.a[at]
        ));
        return report;
    }
    if slow.instr_count != pslow.retired {
        report.divergence = Some(format!(
            "ISS vs pipeline: retired {} vs {}",
            slow.instr_count, pslow.retired
        ));
        return report;
    }

    // All tiers agree; optionally hold the cached run to the static
    // bounds.
    if let (Some((g, sol)), Some(run)) = (&graph, &pfast.profiled) {
        report.divergence = wcet_divergence(g, sol, run);
    }
    report
}

/// Assembles `src` and runs [`check_image`].
///
/// # Errors
///
/// Returns the assembly error if `src` does not assemble; execution
/// divergences are reported through the [`TierReport`], not as errors.
pub fn check_source(src: &str, tiers: Tiers, opts: &CheckOptions) -> Result<TierReport, SimError> {
    let image = assemble(src)?;
    Ok(check_image(&image, tiers, opts))
}

/// Renders the covered/uncovered opcode summary of a coverage array:
/// `(covered, sampleable, uncovered names)`.
#[must_use]
pub fn coverage_summary(coverage: &[u64; OPCODE_SPACE]) -> (usize, usize, Vec<&'static str>) {
    let mut covered = 0;
    let mut sampleable = 0;
    let mut uncovered = Vec::new();
    for (idx, &count) in coverage.iter().enumerate() {
        #[allow(clippy::cast_possible_truncation)] // reason: OPCODE_SPACE is 128
        let Some(name) = opcode_name(idx as u8) else {
            continue;
        };
        sampleable += 1;
        if count > 0 {
            covered += 1;
        } else {
            uncovered.push(name);
        }
    }
    (covered, sampleable, uncovered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_trivial_program_agrees_on_all_tiers() {
        let src = ".org 0x80000000\n_start:\n movi d0, 7\n add d1, d0, d0\n debug 1\n halt\n";
        let r = check_source(src, Tiers::All, &CheckOptions::default()).unwrap();
        assert_eq!(r.divergence, None);
        assert!(!r.errored);
        assert_eq!(r.retired, 4);
        let movi = audo_tricore::opcodes::opcode_by_name("movi").unwrap();
        assert_eq!(r.coverage[usize::from(movi)], 1);
    }

    #[test]
    fn agreed_program_faults_are_not_divergences() {
        // Store to an unmapped address: both ISS paths fault identically.
        let src = ".org 0x80000000\n_start:\n la a2, 0x40000000\n st.w d0, [a2]\n halt\n";
        let r = check_source(src, Tiers::All, &CheckOptions::default()).unwrap();
        assert_eq!(r.divergence, None);
        assert!(r.errored);
    }

    #[test]
    fn the_fault_hook_produces_a_divergence() {
        let src = ".org 0x80000000\n_start:\n movi d0, 3\n mul d1, d0, d0\n halt\n";
        let mul = audo_tricore::opcodes::opcode_by_name("mul").unwrap();
        let opts = CheckOptions {
            fault: Some(mul),
            ..CheckOptions::default()
        };
        let r = check_source(src, Tiers::All, &opts).unwrap();
        assert!(
            r.divergence
                .as_deref()
                .is_some_and(|m| m.contains("slow vs fast")),
            "{:?}",
            r.divergence
        );
        // Programs that never retire the slot are unaffected.
        let clean = ".org 0x80000000\n_start:\n movi d0, 3\n halt\n";
        let r = check_source(clean, Tiers::All, &opts).unwrap();
        assert_eq!(r.divergence, None);
    }

    /// A counted loop plus a call: finite WCET and CSA depth.
    const BOUNDED: &str = "
    .org 0x80000000
_start:
    li d2, 12
loop:
    call work
    addi d2, d2, -1
    jnz d2, loop
    halt
work:
    addi d5, d5, 3
    ret
";

    #[test]
    fn the_wcet_check_passes_on_bounded_programs() {
        // The profiled run must land inside both bounds.
        let opts = CheckOptions {
            check_wcet: true,
            ..CheckOptions::default()
        };
        let r = check_source(BOUNDED, Tiers::All, &opts).unwrap();
        assert_eq!(r.divergence, None);
        assert!(!r.errored);
    }

    #[test]
    fn the_cached_run_is_profiled_and_held_to_the_static_bounds() {
        let image = assemble(BOUNDED).unwrap();
        let (g, sol) = cfg::recover_solved(&image);
        let plain = pipe_exec(&image, true, 1_000_000, None);
        let run = pipe_exec(&image, true, 1_000_000, Some(&g));
        assert!(plain.profiled.is_none());
        // Profiling does not perturb what the differential compares.
        assert_eq!(
            (plain.d, plain.a, plain.retired, &plain.events),
            (run.d, run.a, run.retired, &run.events)
        );
        let measured = run.profiled.expect("a run with a graph is profiled");
        assert_eq!(wcet_divergence(&g, &sol, &measured), None);
        // The same run, measured above each bound, is a divergence.
        let too_long = Profiled {
            total_cycles: u64::MAX,
            ..measured.clone()
        };
        let too_deep = Profiled {
            csa_peak: u32::MAX,
            ..measured
        };
        for (run, what) in [(too_long, "end-to-end"), (too_deep, "csa-depth")] {
            let msg = wcet_divergence(&g, &sol, &run).expect("a bound is exceeded");
            assert!(msg.starts_with(&format!("wcet: measured {what} ")), "{msg}");
        }
    }

    #[test]
    fn check_image_holds_the_run_to_the_static_bounds() {
        use audo_tricore::image::Section;
        // Two sections at one base: the analyzer reads the first (a
        // straight line to `halt`), the loader writes the second last (a
        // 40-pass loop), so every tier runs far past the static WCET.
        let straight = assemble(".org 0x80000000\n movi d0, 1\n halt\n").unwrap();
        let looping =
            assemble(".org 0x80000000\n li d2, 40\nl:\n addi d2, d2, -1\n jnz d2, l\n halt\n")
                .unwrap();
        let image = Image::from_parts(
            [straight, looping]
                .iter()
                .map(|i| i.sections()[0].clone())
                .collect::<Vec<Section>>(),
            std::collections::BTreeMap::new(),
        );
        let opts = CheckOptions {
            check_wcet: true,
            ..CheckOptions::default()
        };
        let r = check_image(&image, Tiers::All, &opts);
        let msg = r.divergence.expect("the run exceeds the static WCET");
        assert!(msg.starts_with("wcet: measured end-to-end "), "{msg}");
        let unchecked = check_image(&image, Tiers::All, &CheckOptions::default());
        assert_eq!(unchecked.divergence, None);
    }

    #[test]
    fn retire_budget_blowouts_are_agreed_faults() {
        let src = ".org 0x80000000\n_start:\nspin:\n j spin\n";
        let opts = CheckOptions {
            max_instrs: 1_000,
            ..CheckOptions::default()
        };
        let r = check_source(src, Tiers::All, &opts).unwrap();
        assert_eq!(r.divergence, None);
        assert!(r.errored);
    }
}

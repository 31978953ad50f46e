//! `fuzz`: `audo_fuzz` sessions with `check_wcet` on, each the corpus
//! baseline plus freshly generated and mutated programs, every program
//! through the ISS slow and fast paths, the pipeline uncached and cached,
//! the disassembly round trip, the MCDS codec and the static WCET/CSA
//! check.
//!
//! The only workload that runs the ISS; it bypasses the SoC fabric, the
//! ED and the DAP. Thousands of tiny programs keep the decode caches
//! cold. A program fails on a tier divergence or a WCET/CSA violation; a
//! guest fault that every tier agrees on is not a failure.
//!
//! A session follows `audo_fuzz::run_fuzz` call for call (without the
//! shrink-and-pin path, which runs only after a divergence), but over a
//! corpus loaded once at set-up: corpus loading is set-up cost.
//!
//! A run checks a fixed number of sessions ([`session_count`]), not as
//! many as fit in the measured time: which programs a run checks, and so
//! which of them fail, depends on the seed and `--seconds` only, never on
//! the host's speed.

use std::time::Instant;

use audo_asm::{load_corpus, CorpusEntry, Tiers};
use audo_common::events::StallReason;
use audo_common::{Addr, Cycle, EventRecord, EventSink, SimError, SourceId};
use audo_fuzz::gen::{generate, injectable, mutate};
use audo_fuzz::rng::{case_seed, Rng};
use audo_fuzz::tiers::{CSA_BASE, CSA_FRAMES, REGIONS};
use audo_fuzz::{
    check_image, CaseKind, CheckOptions, Divergence, FuzzOptions, FuzzReport, TierReport,
};
use audo_mcds::select::{EventClass, EventSelector};
use audo_mcds::{decode_stream, Basis, Mcds, RateProbe};
use audo_tricore::arch::init_csa_list;
use audo_tricore::asm::assemble;
use audo_tricore::bus::TestBus;
use audo_tricore::disasm::disassemble_range;
use audo_tricore::encode::decode;
use audo_tricore::iss::Iss;
use audo_tricore::opcodes::{sample_instr, OPCODE_SPACE};
use audo_tricore::{ArchState, Core, CoreConfig, Image};

use crate::host;
use crate::span::{Layer, Spans};
use crate::stats::Digest;
use crate::{
    closed_loop, per_layer_report, repeat_setup, EndToEnd, ExactCounts, RunConfig, RunReport,
    TracedTimes,
};

/// Generated and mutated cases per session (after the corpus baseline).
pub const GENERATED: u64 = 90;
/// Sessions of the reference set (digest, exact counts).
pub const REFERENCE_SESSIONS: usize = 4;
/// Corpus loads behind the `setup_s` median.
pub const SETUP_REPS: usize = 31;
/// Sessions a run checks per second of `--seconds`: about what the
/// reference host completes (8-10 per second), so a run lasts about
/// `--seconds` there.
pub const SESSIONS_PER_SECOND: f64 = 9.0;

/// Sessions a run of `seconds` checks: at least the reference set.
#[must_use]
pub fn session_count(seconds: f64) -> usize {
    ((seconds.max(0.0) * SESSIONS_PER_SECOND).round() as usize).max(REFERENCE_SESSIONS)
}

/// Options of session `k` of a run with `seed`.
#[must_use]
pub fn session_options(seed: u64, k: u64, fault: Option<u8>) -> FuzzOptions {
    FuzzOptions {
        seed: audo_fleet::derive::derive_stream(seed, k),
        iterations: GENERATED,
        corpus_dir: Some(audo_asm::default_corpus_dir()),
        fault,
        check_wcet: true,
        ..FuzzOptions::default()
    }
}

/// How a session runs its programs: through the library, or through the
/// traced rebuild of every tier.
pub enum Tiering<'a> {
    /// `audo_fuzz::check_image` and friends.
    Library,
    /// [`check_image_traced`] with spans.
    Traced(&'a mut Spans, &'a mut ExactCounts),
}

impl Tiering<'_> {
    fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        match self {
            Tiering::Library => f(),
            Tiering::Traced(spans, _) => spans.time(layer, f),
        }
    }

    fn check(&mut self, image: &Image, tiers: Tiers, opts: &CheckOptions) -> TierReport {
        match self {
            Tiering::Library => check_image(image, tiers, opts),
            Tiering::Traced(spans, exact) => check_image_traced(image, tiers, opts, spans, exact),
        }
    }
}

fn injection_hints(union: &[u64; OPCODE_SPACE]) -> Vec<u8> {
    (0..OPCODE_SPACE)
        .filter_map(|idx| {
            let idx = u8::try_from(idx).expect("OPCODE_SPACE is 128");
            if union[usize::from(idx)] > 0 {
                return None;
            }
            let sample = sample_instr(idx)?;
            injectable(&sample).then_some(idx)
        })
        .collect()
}

fn fold_report(report: &mut FuzzReport, rep: &TierReport) {
    for i in 0..OPCODE_SPACE {
        report.coverage[i] += rep.coverage[i];
    }
    for i in 0..StallReason::COUNT {
        report.stall_coverage[i] += rep.stall_coverage[i];
    }
    report.retired_total += rep.retired;
    if rep.errored {
        report.errored += 1;
    }
}

/// One fuzz session's report and the number of programs it checked.
pub struct SessionRun {
    /// The session report, as `run_fuzz` renders it.
    pub report: FuzzReport,
    /// Programs checked (corpus baseline plus cases).
    pub programs: u64,
}

/// Runs one fuzz session over a preloaded corpus.
#[must_use]
pub fn run_session(opts: &FuzzOptions, corpus: &[CorpusEntry], t: &mut Tiering<'_>) -> SessionRun {
    let mut report = FuzzReport {
        seed: opts.seed,
        iterations: opts.iterations,
        corpus_programs: corpus.len(),
        divergences: Vec::new(),
        errored: 0,
        retired_total: 0,
        coverage: Box::new([0u64; OPCODE_SPACE]),
        stall_coverage: [0; StallReason::COUNT],
    };
    for e in corpus {
        let check = CheckOptions {
            max_instrs: e.program.max_instrs.min(opts.max_instrs),
            fault: opts.fault,
            check_wcet: opts.check_wcet,
        };
        let rep = t.check(&e.image, e.program.tiers, &check);
        fold_report(&mut report, &rep);
        if let Some(message) = rep.divergence {
            report.divergences.push(Divergence {
                index: None,
                kind: e.file_name.clone(),
                message,
                minimized: String::new(),
                pinned: None,
            });
        }
    }
    let mut done = 0u64;
    while done < opts.iterations {
        let n = opts.round.min(opts.iterations - done);
        let hints = injection_hints(&report.coverage);
        for index in done..done + n {
            let cseed = case_seed(opts.seed, index);
            let (kind, source, tiers, max_instrs) = if !corpus.is_empty() && index % 4 == 3 {
                let mut r = Rng::new(cseed);
                let entry = &corpus[r.below(corpus.len() as u64) as usize];
                let base = &entry.program.source;
                let mut chosen = base.clone();
                for attempt in 0..8u64 {
                    let m = t.time(Layer::FuzzGen, || mutate(base, cseed.wrapping_add(attempt)));
                    if let Some(m) = m {
                        if t.time(Layer::AsmAssemble, || assemble(&m)).is_ok() {
                            chosen = m;
                            break;
                        }
                    }
                }
                (
                    CaseKind::Mutated(entry.file_name.clone()),
                    chosen,
                    entry.program.tiers,
                    entry.program.max_instrs.min(opts.max_instrs),
                )
            } else {
                let src = t.time(Layer::FuzzGen, || generate(cseed, &hints));
                (CaseKind::Generated, src, Tiers::All, opts.max_instrs)
            };
            let check = CheckOptions {
                max_instrs,
                fault: opts.fault,
                check_wcet: opts.check_wcet,
            };
            let rep = match t.time(Layer::AsmAssemble, || assemble(&source)) {
                Ok(image) => t.check(&image, tiers, &check),
                Err(e) => TierReport {
                    divergence: Some(format!("case program does not assemble: {e}")),
                    errored: false,
                    retired: 0,
                    coverage: Box::new([0u64; OPCODE_SPACE]),
                    stall_coverage: [0; StallReason::COUNT],
                },
            };
            fold_report(&mut report, &rep);
            if let Some(message) = rep.divergence {
                report.divergences.push(Divergence {
                    index: Some(index),
                    kind: kind.to_string(),
                    message,
                    minimized: String::new(),
                    pinned: None,
                });
            }
        }
        done += n;
    }
    SessionRun {
        programs: corpus.len() as u64 + opts.iterations,
        report,
    }
}

// ---- the traced rebuild of `audo_fuzz::tiers::check_image` ----

struct IssOut {
    err: Option<SimError>,
    state: ArchState,
    instr_count: u64,
    debug_markers: Vec<u8>,
    events: Vec<EventRecord>,
    coverage: Box<[u64; OPCODE_SPACE]>,
}

fn iss_exec(image: &Image, fast: bool, max_instrs: u64) -> IssOut {
    let mut iss = Iss::new();
    for &(base, len) in REGIONS {
        iss.map_region(Addr(base), len);
    }
    iss.init_csa(Addr(CSA_BASE), CSA_FRAMES)
        .expect("CSA window is mapped");
    let err = match iss.load(image) {
        Ok(()) => {
            iss.set_fast_path(fast);
            iss.set_observation(true);
            iss.set_opcode_observation(true);
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
        coverage: iss
            .opcode_counts()
            .map_or_else(|| Box::new([0u64; OPCODE_SPACE]), |c| Box::new(*c)),
    }
}

struct PipeOut {
    err: Option<SimError>,
    halted: bool,
    retired: u64,
    cycles: u64,
    d: [u32; 16],
    a: [u32; 16],
    events: Vec<EventRecord>,
    stall_cycles: [u64; StallReason::COUNT],
    predecode: (u64, u64),
}

fn pipe_exec(image: &Image, fast: bool, max_cycles: u64) -> PipeOut {
    let mut bus = TestBus::new();
    for &(base, len) in REGIONS {
        bus.mem.add_region(Addr(base), len);
    }
    let mut out = PipeOut {
        err: None,
        halted: false,
        retired: 0,
        cycles: 0,
        d: [0; 16],
        a: [0; 16],
        events: Vec::new(),
        stall_cycles: [0; StallReason::COUNT],
        predecode: (0, 0),
    };
    if let Err(e) = image.load_into(&mut bus.mem) {
        out.err = Some(e);
        return out;
    }
    let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
    core.set_fast_path(fast);
    match init_csa_list(&mut bus.mem, Addr(CSA_BASE), CSA_FRAMES) {
        Ok(fcx) => core.arch_mut().fcx = fcx,
        Err(e) => {
            out.err = Some(e);
            return out;
        }
    }
    let mut sink = EventSink::new();
    let mut cyc = 0u64;
    while !core.is_halted() && cyc < max_cycles {
        if let Err(e) = core.step(Cycle(cyc), &mut bus, None, &mut sink) {
            out.err = Some(e);
            break;
        }
        out.events.append(&mut sink.drain());
        cyc += 1;
    }
    out.halted = core.is_halted();
    out.retired = core.retired_total();
    out.cycles = cyc;
    out.d = core.arch().d;
    out.a = core.arch().a;
    out.stall_cycles = core.stats().stall_cycles;
    out.predecode = (core.stats().predecode.hits, core.stats().predecode.misses);
    out
}

fn wcet_divergence(image: &Image, max_cycles: u64) -> Option<String> {
    use audo_analyze::{cfg, constprop, wcet};
    use audo_tricore::pipeline::{CostModel, MemCosts};

    let g = cfg::recover(image);
    let sol = constprop::solve(&g);
    let mut bus = TestBus::new();
    for &(base, len) in REGIONS {
        bus.mem.add_region(Addr(base), len);
    }
    if image.load_into(&mut bus.mem).is_err() {
        return None;
    }
    let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
    core.set_fast_path(true);
    core.set_profile_observation(true);
    match init_csa_list(&mut bus.mem, Addr(CSA_BASE), CSA_FRAMES) {
        Ok(fcx) => core.arch_mut().fcx = fcx,
        Err(_) => return None,
    }
    let stamps = wcet::code_stamps(&g, &bus);
    let model = CostModel::new(CoreConfig::default(), MemCosts::of_test_bus(&bus));
    let report = wcet::analyze_wcet(&g, &sol, &model, CSA_FRAMES, "fuzz");
    let mut sink = EventSink::new();
    sink.set_enabled(false);
    let mut cyc = 0u64;
    while !core.is_halted() && cyc < max_cycles {
        if core.step(Cycle(cyc), &mut bus, None, &mut sink).is_err() {
            return None;
        }
        cyc += 1;
    }
    if !core.is_halted() {
        return None;
    }
    let profile = core.block_profile().cloned()?;
    let stats = core.stats();
    let total_cycles = stats.retire_cycles + stats.stall_total();
    let check = wcet::check_profile(
        &g,
        &model,
        &report,
        &profile,
        &stamps,
        total_cycles,
        0,
        core.arch().csa_depth_peak,
    );
    check.violations.first().map(|v| {
        format!(
            "wcet: measured {} {} at {:#010x} exceeds the static bound {} \
             (program WCET {}, CSA depth {})",
            v.what, v.measured, v.addr, v.bound, report.program_wcet, report.program_csa
        )
    })
}

fn mcds_trace_bytes(events: &[EventRecord]) -> Vec<u8> {
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

fn roundtrip_divergence(image: &Image) -> Option<String> {
    let mut lines = Vec::new();
    let mut src = String::new();
    for s in image.sections() {
        for line in disassemble_range(image, s.base, s.bytes.len() as u32) {
            if let Some(instr) = line.instr {
                src.push_str(&format!(".org {:#x}\n{}\n", line.addr.0, line.text));
                lines.push((line.addr, line.text, instr));
            }
        }
    }
    if lines.is_empty() {
        return None;
    }
    let re = match assemble(&src) {
        Ok(i) => i,
        Err(e) => return Some(format!("round-trip: disassembly does not reassemble: {e}")),
    };
    for (addr, text, orig) in lines {
        let Some(bytes) = re.bytes_at(addr, 4).or_else(|| re.bytes_at(addr, 2)) else {
            return Some(format!("round-trip: no bytes at {addr} for `{text}`"));
        };
        match decode(&bytes, addr) {
            Ok((back, _)) if back == orig => {}
            Ok((back, _)) => {
                return Some(format!(
                    "round-trip: `{text}` at {addr} re-decodes as {back:?}, was {orig:?}"
                ))
            }
            Err(e) => return Some(format!("round-trip: `{text}` at {addr}: {e}")),
        }
    }
    None
}

/// `audo_fuzz::check_image`, rebuilt from public calls with a span around
/// each tier; also records the pipeline's cycles and predecode counts.
#[must_use]
#[allow(clippy::too_many_lines)] // reason: mirrors the library's linear checklist of tier comparisons
pub fn check_image_traced(
    image: &Image,
    tiers: Tiers,
    opts: &CheckOptions,
    spans: &mut Spans,
    exact: &mut ExactCounts,
) -> TierReport {
    let slow = spans.time(Layer::IssSlow, || iss_exec(image, false, opts.max_instrs));
    let mut fast = spans.time(Layer::IssFast, || iss_exec(image, true, opts.max_instrs));
    let mut report = TierReport {
        divergence: None,
        errored: false,
        retired: slow.instr_count,
        coverage: slow.coverage,
        stall_coverage: [0; StallReason::COUNT],
    };
    if let Some(msg) = spans.time(Layer::DisasmRoundtrip, || roundtrip_divergence(image)) {
        report.divergence = Some(msg);
        return report;
    }
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
    let codec = spans.time(Layer::McdsCodec, || {
        let trace_slow = mcds_trace_bytes(&slow.events);
        let trace_fast = mcds_trace_bytes(&fast.events);
        if trace_slow != trace_fast {
            return Some(format!(
                "MCDS trace bytes differ: {} vs {} bytes",
                trace_slow.len(),
                trace_fast.len()
            ));
        }
        decode_stream(&trace_slow)
            .err()
            .map(|e| format!("MCDS trace bytes do not decode: {e}"))
    });
    if let Some(msg) = codec {
        report.divergence = Some(msg);
        return report;
    }
    if tiers == Tiers::IssOnly {
        return report;
    }

    let max_cycles = opts.max_instrs.saturating_mul(40).saturating_add(10_000);
    let pslow = spans.time(Layer::PipelineUncached, || {
        pipe_exec(image, false, max_cycles)
    });
    let pfast = spans.time(Layer::PipelineCached, || pipe_exec(image, true, max_cycles));
    exact.cycles += pfast.cycles;
    exact.instructions += pfast.retired;
    exact.predecode_hits += pfast.predecode.0;
    exact.predecode_misses += pfast.predecode.1;
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
    if opts.check_wcet {
        if let Some(msg) = spans.time(Layer::AnalyzeWcet, || wcet_divergence(image, max_cycles)) {
            report.divergence = Some(msg);
        }
    }
    report
}

/// One closed-loop item: a fuzz session.
pub struct Item {
    /// Rendered session report.
    pub rendered: String,
    /// Programs checked.
    pub programs: u64,
    /// Programs that diverged.
    pub divergences: u64,
    /// Each divergence: the case (or corpus program) and the message.
    pub failures: Vec<String>,
    /// Golden-model instructions retired.
    pub instructions: u64,
    /// Session wall time.
    pub secs: f64,
    /// Calibration kernel time after the session.
    pub kernel_s: f64,
    /// Exact counts and opcode coverage of the session.
    pub exact: ExactCounts,
    /// Per-slot golden-model coverage.
    pub coverage: Box<[u64; OPCODE_SPACE]>,
    /// Traced replay: spans and whether its report matched.
    pub traced: Option<(TracedTimes, bool)>,
}

/// Runs fuzz session `k`, and with `traced` its replay.
#[must_use]
pub fn run_item(
    corpus: &[CorpusEntry],
    seed: u64,
    k: u64,
    traced: bool,
    fault: Option<u8>,
) -> Item {
    let opts = session_options(seed, k, fault);
    let untraced = || {
        let clock = Instant::now();
        let s = run_session(&opts, corpus, &mut Tiering::Library);
        let secs = clock.elapsed().as_secs_f64();
        (s, secs, host::kernel_s(secs))
    };
    let replay = || {
        let mut times = TracedTimes::default();
        let mut exact = ExactCounts::default();
        let t = Instant::now();
        let s = run_session(
            &opts,
            corpus,
            &mut Tiering::Traced(&mut times.spans, &mut exact),
        );
        times.traced_s = t.elapsed().as_secs_f64();
        times.items = 1;
        (s, times, exact)
    };
    // Alternate which side runs first, so neither always finds the host's
    // caches warmed by the other.
    let ((s, secs, kernel_s), replayed) = match (traced, k.is_multiple_of(2)) {
        (false, _) => (untraced(), None),
        (true, true) => {
            let a = untraced();
            (a, Some(replay()))
        }
        (true, false) => {
            let b = replay();
            (untraced(), Some(b))
        }
    };
    let rendered = s.report.render();
    let mut exact = ExactCounts {
        fuzz_cases: s.programs,
        fuzz_divergences: s.report.divergences.len() as u64,
        fuzz_agreed_faults: s.report.errored,
        ..ExactCounts::default()
    };
    let traced = replayed.map(|(replay, mut times, replay_exact)| {
        times.untraced_s = secs;
        // The pipeline tiers' counts: cycles, the instructions they
        // retired, and predecode hits.
        exact.cycles = replay_exact.cycles;
        exact.instructions = replay_exact.instructions;
        exact.predecode_hits = replay_exact.predecode_hits;
        exact.predecode_misses = replay_exact.predecode_misses;
        (times, replay.report.render() == rendered)
    });
    Item {
        programs: s.programs,
        divergences: s.report.divergences.len() as u64,
        failures: s
            .report
            .divergences
            .iter()
            .map(|d| format!("{} {:?}: {}", d.kind, d.index, d.message))
            .collect(),
        instructions: s.report.retired_total,
        coverage: s.report.coverage.clone(),
        rendered,
        secs,
        kernel_s,
        exact,
        traced,
    }
}

/// Runs the `fuzz` workload.
///
/// # Errors
///
/// The corpus does not load.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    run_with_fault(cfg, None)
}

/// Runs the `fuzz` workload with the tier checker's test-only fault hook
/// armed on opcode slot `fault`.
///
/// # Errors
///
/// The corpus does not load.
pub fn run_with_fault(cfg: &RunConfig, fault: Option<u8>) -> Result<RunReport, String> {
    let dir = audo_asm::default_corpus_dir();
    let (corpus, setup) = repeat_setup(SETUP_REPS, || load_corpus(&dir));
    let corpus = corpus.map_err(|e| format!("corpus {}: {e}", dir.display()))?;
    let lp = closed_loop(cfg.jobs, session_count(cfg.seconds), 0.0, |k| {
        run_item(&corpus, cfg.seed, k as u64, cfg.traced, fault)
    });

    let mut r = RunReport {
        correct: true,
        ..RunReport::default()
    };
    let mut e2e = EndToEnd {
        setup,
        wall_s: lp.wall_s,
        ..EndToEnd::default()
    };
    let mut digest = Digest::default();
    let mut exact = ExactCounts::default();
    let mut union = [0u64; OPCODE_SPACE];
    for (k, job) in lp.items.iter().enumerate() {
        let item = &job.output;
        e2e.sessions.push((item.secs, 0));
        e2e.kernels.push(item.kernel_s);
        e2e.programs += item.programs;
        e2e.instructions += item.instructions;
        r.failed += item.divergences;
        for d in &item.failures {
            r.notes.push(format!("session {k}: {d}"));
        }
        if k < REFERENCE_SESSIONS {
            digest.str(&item.rendered);
            exact.add(&item.exact);
            for (u, c) in union.iter_mut().zip(item.coverage.iter()) {
                *u += c;
            }
        }
    }
    exact.fuzz_slots_covered = union.iter().filter(|&&c| c > 0).count() as u64;
    r.attempted = e2e.programs;
    r.sim_digest = digest.value();
    r.notes.push(format!(
        "fuzz: {} sessions (fixed: {SESSIONS_PER_SECOND} per second of --seconds) of {} \
         corpus + {GENERATED} generated programs, check_wcet on",
        e2e.sessions.len(),
        corpus.len()
    ));

    if cfg.traced {
        let mut times = TracedTimes {
            queue_wait_s: lp.queue_wait_s,
            ..TracedTimes::default()
        };
        for (k, job) in lp.items.iter().enumerate() {
            let (t, matched) = job.output.traced.as_ref().expect("traced run");
            times.spans.merge(&t.spans);
            times.traced_s += t.traced_s;
            times.untraced_s += t.untraced_s;
            times.items += t.items;
            if !matched {
                r.correct = false;
                r.notes.push(format!("replay mismatch on session {k}"));
            }
        }
        per_layer_report(&mut r, &times, &exact, host::run_scale(&e2e.kernels));
    } else {
        e2e.report(&mut r);
    }
    Ok(r)
}

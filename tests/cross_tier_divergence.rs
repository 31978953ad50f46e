//! Cross-tier divergence sweep: the same program, four ways.
//!
//! Every pinned program runs through the **functional ISS** (per-step
//! refetch), the **ISS basic-block fast path**, the **cycle-level pipeline
//! uncached**, and the **pipeline with the predecoded fast path** — and
//! all four must agree on the architectural outcome: final register file
//! and retired-instruction count. The two ISS runs must additionally be
//! event-identical to each other, as must the two pipeline runs (events
//! across *tiers* differ by design — the pipeline emits stall and flow
//! timing the ISS has no notion of).
//!
//! Programs whose stores patch their own upcoming code are excluded here
//! on purpose: the pipeline's fetch buffer legitimately lets a just-
//! patched instruction execute stale (hardware prefetch), while the ISS
//! refetches every step. Those semantics are pinned one tier at a time in
//! `tests/decode_cache_invalidation.rs` and
//! `tests/pipeline_invalidation.rs` instead.
//!
//! The stock SoC workload variants (engine / transmission / chassis) run
//! interrupt-driven on the full platform, so they are swept pipeline
//! cached vs. uncached on the `Soc` in lockstep, cycle by cycle, down to
//! the rendered metrics snapshot.

use audo_common::{Addr, Cycle, EventSink, SourceId};
use audo_tricore::arch::init_csa_list;
use audo_tricore::bus::TestBus;
use audo_tricore::iss::{Iss, IssRun};
use audo_tricore::{Core, CoreConfig};
use audo_workloads::micro::{div_kernel, mac_kernel, random_mix, stream_copy};
use audo_workloads::{stock_workloads, Workload};

fn iss_run(w: &Workload, fast: bool) -> IssRun {
    let mut iss = Iss::new();
    iss.map_region(Addr(0x8000_0000), 0x4_0000);
    iss.map_region(Addr(0x9000_0000), 0x2_0000);
    iss.map_region(Addr(0xD000_0000), 0x2_0000);
    iss.init_csa(Addr(0xD000_8000), 64).unwrap();
    iss.load(&w.image).unwrap();
    iss.set_fast_path(fast);
    iss.set_observation(true);
    iss.run(10_000_000).expect("ISS run completes")
}

struct PipeOut {
    retired: u64,
    d: [u32; 16],
    a: [u32; 16],
    events: Vec<audo_common::EventRecord>,
}

fn pipeline_run(w: &Workload, fast: bool) -> PipeOut {
    let mut bus = TestBus::new();
    bus.mem.add_region(Addr(0x8000_0000), 0x4_0000);
    bus.mem.add_region(Addr(0x9000_0000), 0x2_0000);
    bus.mem.add_region(Addr(0xD000_0000), 0x2_0000);
    w.image.load_into(&mut bus.mem).unwrap();
    let mut core = Core::new(CoreConfig::default(), w.image.entry(), SourceId::TRICORE);
    core.set_fast_path(fast);
    core.arch_mut().fcx = init_csa_list(&mut bus.mem, Addr(0xD000_8000), 64).unwrap();
    let mut sink = EventSink::new();
    let mut events = Vec::new();
    let mut cyc = 0u64;
    while !core.is_halted() {
        assert!(
            cyc < w.max_cycles,
            "{} did not halt on the pipeline",
            w.name
        );
        core.step(Cycle(cyc), &mut bus, None, &mut sink)
            .expect("no fault");
        events.append(&mut sink.drain());
        cyc += 1;
    }
    PipeOut {
        retired: core.retired_total(),
        d: core.arch().d,
        a: core.arch().a,
        events,
    }
}

/// One program through all four tiers; every architectural observable must
/// line up.
fn sweep(w: &Workload) {
    let iss_slow = iss_run(w, false);
    let iss_fast = iss_run(w, true);
    let pipe_slow = pipeline_run(w, false);
    let pipe_fast = pipeline_run(w, true);

    // Within a tier: bit-for-bit, including events.
    assert_eq!(iss_slow.state, iss_fast.state, "{}: ISS arch state", w.name);
    assert_eq!(iss_slow.events, iss_fast.events, "{}: ISS events", w.name);
    assert_eq!(pipe_slow.d, pipe_fast.d, "{}: pipeline d regs", w.name);
    assert_eq!(pipe_slow.a, pipe_fast.a, "{}: pipeline a regs", w.name);
    assert_eq!(
        pipe_slow.events, pipe_fast.events,
        "{}: pipeline events",
        w.name
    );

    // Across tiers: the architectural contract.
    assert_eq!(
        iss_slow.state.d, pipe_slow.d,
        "{}: d regs ISS vs pipeline",
        w.name
    );
    assert_eq!(
        iss_slow.state.a, pipe_slow.a,
        "{}: a regs ISS vs pipeline",
        w.name
    );
    assert_eq!(
        iss_slow.instr_count, pipe_slow.retired,
        "{}: instruction count ISS vs pipeline retired",
        w.name
    );
}

#[test]
fn microbenchmarks_agree_across_all_tiers() {
    for w in [mac_kernel(500), stream_copy(300), div_kernel(200)] {
        sweep(&w);
    }
}

/// Pinned instruction-mix seeds: the same generator seeds forever, so a
/// future divergence bisects to a code change, not to workload drift.
#[test]
fn pinned_random_mix_seeds_agree_across_all_tiers() {
    for seed in [1, 2, 3, 7, 11, 0xDEAD_BEEF] {
        sweep(&random_mix(seed, 300, 20));
    }
}

/// Every literate corpus program through the fuzzer's differential
/// checker: functional ISS vs. fast path vs. both pipeline
/// configurations, plus the encoder/disassembler round-trip and MCDS
/// byte identity. Programs that rewrite their own code carry a
/// `tiers = iss` directive and are checked on the ISS tiers only —
/// the same exclusion as the hand-written sweeps above, but expressed
/// in the workload file instead of the test.
#[test]
fn literate_corpus_agrees_across_its_pinned_tiers() {
    let entries = audo_asm::load_corpus(&audo_asm::default_corpus_dir()).expect("corpus loads");
    assert!(entries.len() >= 10, "corpus shrank: {}", entries.len());
    for e in &entries {
        let rep = audo_fuzz::check_image(
            &e.image,
            e.program.tiers,
            &audo_fuzz::CheckOptions::default(),
        );
        assert!(
            rep.divergence.is_none(),
            "{}: {}",
            e.file_name,
            rep.divergence.unwrap()
        );
        assert!(!rep.errored, "{}: agreed guest fault", e.file_name);
    }
}

/// All stock SoC workload variants, pipeline cached vs. uncached on the
/// full platform in lockstep: every cycle's events, bus transactions,
/// retired count and halt, then the register file and the rendered
/// metrics snapshot (modulo the predecode cache's own counters) must be
/// identical.
#[test]
#[ignore = "slow: three full SoC workloads, two runs each (CI runs with --include-ignored)"]
fn stock_workload_variants_identical_cached_vs_uncached() {
    for w in stock_workloads() {
        audo_bench::tiers::check_soc_identity(&w).unwrap_or_else(|e| panic!("{e}"));
    }
}

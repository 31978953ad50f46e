//! Pipeline predecode invalidation and fast-path observability tests.
//!
//! The cycle-level pipeline's predecoded-block fast path
//! (`audo_tricore::pipeline`) must be invisible: identical cycle count,
//! architectural results, stall decomposition, event stream and MCDS trace
//! bytes — including when code memory is written under the cache's feet.
//! This mirrors `tests/decode_cache_invalidation.rs` one tier down, where
//! the extra wrinkle is the fetch pipeline itself: bytes already sitting
//! in the fetch buffer legitimately predate a store (hardware prefetch),
//! so the reference for every scenario is the *uncached* pipeline, not the
//! ISS.
//!
//! 1. a **store into an already cached block** re-entered by a loop,
//! 2. a **calibration-overlay swap** applied while the core idles in
//!    `WAIT`, resumed by an interrupt,
//! 3. the pinned seed programs from `seed_regressions.rs`, replayed
//!    cache-on vs. cache-off,
//! 4. MCDS byte identity on branchy and self-modifying programs.

use audo_common::{Addr, Cycle, EventRecord, EventSink, SourceId};
use audo_fuzz::tiers::mcds_trace_bytes;
use audo_tricore::arch::init_csa_list;
use audo_tricore::asm::assemble;
use audo_tricore::bus::TestBus;
use audo_tricore::{Core, CoreConfig, PipelineStats};

fn prepared(src: &str, fast: bool) -> (Core, TestBus) {
    let image = assemble(src).expect("assembles");
    let mut bus = TestBus::new();
    bus.mem.add_region(Addr(0x8000_0000), 0x1_0000);
    bus.mem.add_region(Addr(0xD000_0000), 0x1_0000);
    image.load_into(&mut bus.mem).unwrap();
    let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
    core.set_fast_path(fast);
    core.arch_mut().fcx = init_csa_list(&mut bus.mem, Addr(0xD000_8000), 32).unwrap();
    (core, bus)
}

struct RunOut {
    cycles: u64,
    retired: u64,
    stats: PipelineStats,
    d: [u32; 16],
    a: [u32; 16],
    events: Vec<EventRecord>,
}

fn run_to_halt(src: &str, fast: bool) -> RunOut {
    let (mut core, mut bus) = prepared(src, fast);
    let mut sink = EventSink::new();
    let mut events = Vec::new();
    let mut cyc = 0u64;
    while !core.is_halted() {
        assert!(cyc < 1_000_000, "program did not halt");
        core.step(Cycle(cyc), &mut bus, None, &mut sink)
            .expect("no fault");
        events.append(&mut sink.drain());
        cyc += 1;
    }
    RunOut {
        cycles: cyc,
        retired: core.retired_total(),
        stats: *core.stats(),
        d: core.arch().d,
        a: core.arch().a,
        events,
    }
}

fn run_both_ways(src: &str) -> (RunOut, RunOut) {
    (run_to_halt(src, false), run_to_halt(src, true))
}

/// Everything but the predecode cache's own hit/miss counters must match
/// (with the fast path off the cache is never consulted).
fn assert_identical(slow: &RunOut, fast: &RunOut, ctx: &str) {
    assert_eq!(slow.cycles, fast.cycles, "cycle count: {ctx}");
    assert_eq!(slow.retired, fast.retired, "retired count: {ctx}");
    assert_eq!(slow.d, fast.d, "data regs: {ctx}");
    assert_eq!(slow.a, fast.a, "address regs: {ctx}");
    assert_eq!(slow.events, fast.events, "event stream: {ctx}");
    let mut normalized = fast.stats;
    normalized.predecode = slow.stats.predecode;
    assert_eq!(normalized, slow.stats, "stall decomposition: {ctx}");
}

/// Assembles a single instruction and returns its encoding bytes.
fn encoding_of(line: &str) -> Vec<u8> {
    let img = assemble(&format!(".org 0x80001000\n    {line}\n")).unwrap();
    img.bytes_at(Addr(0x8000_1000), img.size()).unwrap()
}

/// Emits assembly that stores `enc` (a 2- or 4-byte instruction encoding)
/// over the code at the address held in `a2`, via halfword stores.
fn emit_patch_stores(enc: &[u8]) -> String {
    let lo = u16::from_le_bytes([enc[0], enc[1]]);
    let mut s = format!("    li d14, {lo}\n    st.h d14, [a2+0]\n");
    if enc.len() == 4 {
        let hi = u16::from_le_bytes([enc[2], enc[3]]);
        s.push_str(&format!("    li d14, {hi}\n    st.h d14, [a2+2]\n"));
    }
    s
}

/// A store rewrites an instruction in an **already cached** block (the
/// loop body executed once before the patch lands): on re-entry the stale
/// predecoded block must be invalidated and the patched bytes decoded
/// fresh, exactly like the uncached pipeline refetching them.
#[test]
fn store_into_cached_block_invalidates_on_reentry() {
    let patched = encoding_of("movi d1, 99");
    let src = format!(
        "
        .org 0x80000000
    _start:
        la a2, victim
        movi d3, 0
        movi d15, 2
        mov.a a5, d15
    L0:
    victim:
        movi d1, 11
        add d3, d3, d1
{patch}
        loop a5, L0
        halt
    ",
        patch = emit_patch_stores(&patched),
    );
    let (slow, fast) = run_both_ways(&src);
    // Pass 1 adds the original 11, pass 2 the patched 99. The back edge
    // flushes the fetch pipeline, so both modes see the patch on re-entry.
    assert_eq!(slow.d[3], 110, "patched loop body executed");
    assert!(
        fast.stats.predecode.invalidations + fast.stats.loop_buffer_invalidations >= 1,
        "the patched loop body must invalidate a cached copy: {:?}",
        fast.stats
    );
    assert_identical(&slow, &fast, "store into cached block");
}

/// Calibration-overlay swap mid-run: the program idles in `WAIT` between
/// passes; the host patches an alternative calibration immediate over the
/// code with [`audo_tricore::Image::overlay_into`] and wakes the core with
/// an interrupt. Both pipelines must execute the swapped instruction.
#[test]
fn overlay_swap_while_waiting_takes_effect() {
    let src = "
        .org 0x80000000
    _start:
        li d0, 0x80002000   ; BIV
        mtcr biv, d0
        enable
        movi d3, 0
        movi d15, 2
        mov.a a5, d15
    L0:
    hook:
        movi d1, 11
        add d3, d3, d1
        wait
        loop a5, L0
        halt

        ; priority 1 vector at BIV + 32
        .org 0x80002000 + 32
        movi d2, 9
        rfe
    ";
    let hook = assemble(src).unwrap().symbol("hook").unwrap();
    let run = |fast: bool| {
        let (mut core, mut bus) = prepared(src, fast);
        let mut sink = EventSink::new();
        let mut events = Vec::new();
        let mut overlaid = false;
        let mut cyc = 0u64;
        while !core.is_halted() {
            assert!(cyc < 1_000_000, "program did not halt (fast={fast})");
            // First time the core idles: swap the overlay, then wake it.
            let irq = if core.is_idle() && !overlaid {
                let overlay = assemble(&format!(".org {:#x}\n    movi d1, 22\n", hook.0)).unwrap();
                let written = overlay.overlay_into(&mut bus.mem, hook, 4).unwrap();
                assert!(written > 0, "overlay window covered the hook");
                overlaid = true;
                Some(1)
            } else if core.is_idle() {
                Some(1)
            } else {
                None
            };
            core.step(Cycle(cyc), &mut bus, irq, &mut sink)
                .expect("no fault");
            events.append(&mut sink.drain());
            cyc += 1;
        }
        assert!(overlaid, "core never idled (fast={fast})");
        (cyc, core.arch().d, events)
    };
    let (slow_cycles, slow_d, slow_events) = run(false);
    let (fast_cycles, fast_d, fast_events) = run(true);
    // Pass 1 adds the original 11, pass 2 the swapped 22.
    assert_eq!(slow_d[3], 33, "overlay took effect");
    assert_eq!(slow_cycles, fast_cycles, "overlay swap cycle count");
    assert_eq!(slow_d, fast_d, "overlay swap data regs");
    assert_eq!(slow_events, fast_events, "overlay swap event stream");
}

/// The committed proptest regression seeds from `tests/seed_regressions.rs`
/// (sub-word stores on conditional arms inside hardware loops), replayed
/// through the pipeline cache-on vs. cache-off. Sources duplicated
/// verbatim — integration test binaries cannot import from each other.
#[test]
fn pinned_seed_programs_agree_cache_on_vs_off() {
    let seeds: Vec<String> = vec![
        "
        .org 0x80000000
    _start:
        la a2, 0xD0000100
        la a3, 0xD0000200
        la sp, 0xD0004000
        movi d0, 3
        movi d1, -7
        movi d2, 11
        movi d3, 127
        movi d4, -1
        movi d5, 9
        movi d6, 0
        movi d7, 5
        movi d15, 1
        mov.a a5, d15
    L0:
        jz d0, L1
        st.h d0, [a3+0]
        j L2
    L1:
        add d0, d0, d0
    L2:
        loop a5, L0
        ld.hu d1, [a3+0]
        halt
    leaf_a:
        addi d6, d6, 1
        xor d5, d5, d6
        ret
    leaf_b:
        add d5, d5, d7
        ret
    "
        .to_string(),
        "
        .org 0x80000000
    _start:
        la a3, 0xD0000200
        movi d0, 0
        movi d15, 2
        mov.a a5, d15
    L0:
        jz d0, L1
        st.h d0, [a3+0]
        j L2
    L1:
        add d0, d0, d0
        addi d0, d0, 5
    L2:
        loop a5, L0
        ld.hu d1, [a3+0]
        halt
    "
        .to_string(),
    ];
    // The st.h/st.b width matrix from `subword_stores_on_both_paths_all_widths`.
    let widths = [
        (true, "st.h d2, [a3+0]", "ld.hu d4, [a3+0]", 0x0001_ABCDu32),
        (false, "st.h d2, [a3+2]", "ld.h d4, [a3+2]", 0x0000_8001),
        (true, "st.b d2, [a3+1]", "ld.bu d4, [a3+1]", 0x0000_01FE),
        (false, "st.b d2, [a3+3]", "ld.b d4, [a3+3]", 0x0000_0080),
    ];
    let mut all = seeds;
    for (taken, store, load, val) in widths {
        let d0 = u32::from(!taken);
        all.push(format!(
            "
        .org 0x80000000
    _start:
        la a3, 0xD0000200
        movi d0, {d0}
        li d2, {val}
        movi d3, 0
        movi d15, 2
        mov.a a5, d15
    L0:
        jz d0, L1
        {not_taken_insn}
        j L2
    L1:
        {taken_insn}
    L2:
        addi d3, d3, 1
        loop a5, L0
        {load}
        halt
    ",
            taken_insn = if taken { store } else { "add d5, d5, d5" },
            not_taken_insn = if taken { "add d5, d5, d5" } else { store },
        ));
    }
    for src in &all {
        let (slow, fast) = run_both_ways(src);
        assert_identical(&slow, &fast, src);
    }
}

/// The acceptance bar from the issue: MCDS trace output is **byte
/// identical** with the pipeline fast path on vs. off, on a branchy
/// program exercising flow messages and a self-modifying one exercising
/// invalidation.
#[test]
fn mcds_trace_bytes_identical_fast_on_vs_off() {
    let branchy = "
        .org 0x80000000
    _start:
        la sp, 0xD0004000
        movi d0, 0
        movi d1, 9
    outer:
        call bump
        addi d1, d1, -1
        jnz d1, outer
        halt
    bump:
        addi d0, d0, 3
        ret
    "
    .to_string();
    let patched_enc = encoding_of("movi d1, 99");
    let self_mod = format!(
        "
        .org 0x80000000
    _start:
        la a2, victim
        movi d9, 3
    spin:
{patch}
        addi d9, d9, -1
        jnz d9, spin
    victim:
        movi d1, 11
        halt
    ",
        patch = emit_patch_stores(&patched_enc),
    );
    for src in [branchy, self_mod] {
        let (slow, fast) = run_both_ways(&src);
        assert_identical(&slow, &fast, &src);
        let slow_bytes = mcds_trace_bytes(&slow.events);
        let fast_bytes = mcds_trace_bytes(&fast.events);
        assert!(!slow_bytes.is_empty(), "trace produced bytes\n{src}");
        assert_eq!(slow_bytes, fast_bytes, "MCDS trace bytes\n{src}");
    }
}

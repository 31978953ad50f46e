//! Decode-cache invalidation and fast-path observability tests.
//!
//! The ISS basic-block fast path (`audo_tricore::decode_cache`) must be
//! invisible: identical architectural results, identical event stream,
//! identical MCDS trace bytes — including when code memory is written
//! under the cache's feet. Three scenarios are load-bearing for the
//! paper's calibration story and are pinned here explicitly:
//!
//! 1. a **self-modifying store** into the currently executing block,
//! 2. a **calibration-overlay swap** applied mid-run between `WAIT`s,
//! 3. the pinned `st.h`/`st.b` seed programs from `seed_regressions.rs`,
//!    replayed cache-on vs. cache-off.

use audo_common::Addr;
use audo_fuzz::tiers::mcds_trace_bytes;
use audo_tricore::asm::assemble;
use audo_tricore::iss::{Iss, IssRun, RunStop};

fn prepared_iss(src: &str, fast: bool) -> Iss {
    let image = assemble(src).expect("assembles");
    let mut iss = Iss::new();
    iss.map_region(Addr(0x8000_0000), 0x10000);
    iss.map_region(Addr(0xD000_0000), 0x10000);
    iss.init_csa(Addr(0xD000_8000), 32).unwrap();
    iss.load(&image).unwrap();
    iss.set_fast_path(fast);
    iss.set_observation(true);
    iss
}

fn run_both_ways(src: &str) -> (IssRun, IssRun) {
    let slow = prepared_iss(src, false).run(1_000_000).expect("slow run");
    let fast = prepared_iss(src, true).run(1_000_000).expect("fast run");
    (slow, fast)
}

fn assert_identical(slow: &IssRun, fast: &IssRun, ctx: &str) {
    assert_eq!(slow.state, fast.state, "arch state: {ctx}");
    assert_eq!(slow.instr_count, fast.instr_count, "instr count: {ctx}");
    assert_eq!(slow.debug_markers, fast.debug_markers, "markers: {ctx}");
    assert_eq!(slow.events, fast.events, "event stream: {ctx}");
}

/// Assembles a single instruction and returns its encoding bytes.
fn encoding_of(line: &str) -> Vec<u8> {
    let img = assemble(&format!(".org 0x80001000\n    {line}\n")).unwrap();
    img.bytes_at(Addr(0x8000_1000), img.size()).unwrap()
}

/// Emits assembly that stores `enc` (a 2- or 4-byte instruction encoding)
/// over the code at the address held in `a2`, via halfword stores (every
/// instruction address is 2-aligned, so `st.h` is always legal).
fn emit_patch_stores(enc: &[u8]) -> String {
    let lo = u16::from_le_bytes([enc[0], enc[1]]);
    let mut s = format!("    li d14, {lo}\n    st.h d14, [a2+0]\n");
    if enc.len() == 4 {
        let hi = u16::from_le_bytes([enc[2], enc[3]]);
        s.push_str(&format!("    li d14, {hi}\n    st.h d14, [a2+2]\n"));
    }
    s
}

/// A store rewrites an instruction *later in the same basic block*: the
/// fast path must notice the code-region generation bump mid-block and
/// fall back to a fresh decode, exactly like re-fetching every step.
#[test]
fn self_modifying_store_within_current_block() {
    let original = encoding_of("movi d1, 11");
    let patched = encoding_of("movi d1, 99");
    assert_eq!(original.len(), patched.len(), "same encoding format");
    let src = format!(
        "
        .org 0x80000000
    _start:
        la a2, victim
{patch}
    victim:
        movi d1, 11
        halt
    ",
        patch = emit_patch_stores(&patched),
    );
    let (slow, fast) = run_both_ways(&src);
    assert_eq!(slow.state.d[1], 99, "patched instruction executed");
    assert_identical(&slow, &fast, "self-modifying store, same block");
}

/// A store rewrites an instruction in an **already cached** block (the
/// loop body executed once before the patch lands): the stale block must
/// be invalidated on re-entry, not replayed.
#[test]
fn self_modifying_store_invalidates_cached_block() {
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
    let slow = prepared_iss(&src, false).run(1_000_000).expect("slow run");
    let mut fast_iss = prepared_iss(&src, true);
    assert_eq!(fast_iss.run_resumable(1_000_000), Ok(RunStop::Halted));
    let stats = fast_iss.cache_stats().unwrap();
    assert!(
        stats.invalidations >= 1,
        "the patched loop body must invalidate: {stats:?}"
    );
    // Pass 1 adds the original 11, pass 2 the patched 99.
    assert_eq!(slow.state.d[3], 110);
    assert_eq!(slow.state.d, fast_iss.state().d, "data regs");
    assert_eq!(slow.events, fast_iss.events(), "event stream");
}

/// Calibration-overlay swap mid-run: the program yields with `WAIT`
/// between passes; the host patches an alternative "calibration" value
/// (here: an immediate in code, the worst case for a decode cache) over
/// flash with [`audo_tricore::Image::overlay_into`] and resumes.
#[test]
fn overlay_swap_between_waits_takes_effect() {
    let src = "
        .org 0x80000000
    _start:
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
    ";
    let run = |fast: bool| {
        let mut iss = prepared_iss(src, fast);
        let hook = assemble(src).unwrap().symbol("hook").unwrap();
        // Pass 1 runs the original calibration (d1 = 11), then waits.
        assert_eq!(iss.run_resumable(1_000_000), Ok(RunStop::Waited));
        assert_eq!(iss.state().d[3], 11);
        // Swap the overlay while the core waits.
        let overlay = assemble(&format!(".org {:#x}\n    movi d1, 22\n", hook.0)).unwrap();
        let written = overlay.overlay_into(iss.mem_mut(), hook, 4).unwrap();
        assert!(written > 0, "overlay window covered the hook");
        // Pass 2 must see the swapped value on both paths.
        assert_eq!(iss.run_resumable(1_000_000), Ok(RunStop::Waited));
        assert_eq!(iss.state().d[3], 33, "11 + swapped 22 (fast={fast})");
        assert_eq!(iss.run_resumable(1_000_000), Ok(RunStop::Halted));
        (iss.state().clone(), iss.events().to_vec())
    };
    let (slow_state, slow_events) = run(false);
    let (fast_state, fast_events) = run(true);
    assert_eq!(slow_state, fast_state, "overlay swap arch state");
    assert_eq!(slow_events, fast_events, "overlay swap event stream");
}

/// The committed proptest regression seeds from `tests/seed_regressions.rs`
/// (sub-word stores on conditional arms inside hardware loops), replayed
/// cache-on vs. cache-off. The sources are duplicated verbatim from that
/// file — integration test binaries cannot import from each other.
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
/// identical** with the fast path on vs. off, on a branchy program that
/// exercises flow messages, and on a self-modifying one that exercises
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
{patch}
    victim:
        movi d1, 11
        movi d9, 3
    spin:
        addi d9, d9, -1
        jnz d9, spin
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

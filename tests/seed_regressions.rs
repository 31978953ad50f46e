//! Deterministic replays of the program named by the committed proptest
//! regression seed for `golden_equivalence.rs`:
//!
//! ```text
//! blocks = [Loop { count: 1, body: [IfElse { reg: 0,
//!     then_b: ["st.h d0, [a3+0]"], else_b: ["add d0, d0, d0"] }] }]
//! ```
//!
//! i.e. a sub-word store on one arm of a conditional inside a hardware
//! loop. Pinned here as plain unit tests — with the store's effect read
//! back into a register so it is architecturally visible — plus the
//! mirrored variants the shrink points at: `st.h`/`st.b` on both the
//! taken and the not-taken path, across all three execution models.

use audo_common::{Addr, Cycle, EventSink, SourceId};
use audo_platform::config::SocConfig;
use audo_platform::Soc;
use audo_tricore::asm::assemble;
use audo_tricore::bus::TestBus;
use audo_tricore::iss::Iss;
use audo_tricore::pipeline::{Core, CoreConfig};

fn run_iss(src: &str) -> [u32; 16] {
    let image = assemble(src).expect("assembles");
    let mut iss = Iss::new();
    iss.map_region(Addr(0x8000_0000), 0x10000);
    iss.map_region(Addr(0xD000_0000), 0x10000);
    iss.init_csa(Addr(0xD000_8000), 32).unwrap();
    iss.load(&image).unwrap();
    iss.set_fast_path(false);
    iss.run(1_000_000).expect("golden run completes").state.d
}

fn run_pipeline(src: &str) -> [u32; 16] {
    let image = assemble(src).expect("assembles");
    let mut bus = TestBus::new();
    bus.mem.add_region(Addr(0x8000_0000), 0x10000);
    bus.mem.add_region(Addr(0xD000_0000), 0x10000);
    image.load_into(&mut bus.mem).unwrap();
    let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
    core.arch_mut().fcx =
        audo_tricore::arch::init_csa_list(&mut bus.mem, Addr(0xD000_8000), 32).unwrap();
    let mut sink = EventSink::disabled();
    let mut cycle = 0u64;
    while !core.is_halted() {
        core.step(Cycle(cycle), &mut bus, None, &mut sink)
            .expect("no fault");
        cycle += 1;
        assert!(cycle < 2_000_000, "pipeline did not halt");
    }
    core.arch().d
}

fn run_soc(src: &str) -> [u32; 16] {
    let image = assemble(src).expect("assembles");
    let mut soc = Soc::new(SocConfig::default());
    soc.load_image(&image).unwrap();
    soc.run_to_halt(5_000_000).expect("soc run completes");
    soc.tricore.arch().d
}

fn assert_three_models_agree(src: &str) -> [u32; 16] {
    let iss = run_iss(src);
    let pipe = run_pipeline(src);
    assert_eq!(iss, pipe, "ISS vs pipeline data regs\n{src}");
    let soc = run_soc(src);
    assert_eq!(iss, soc, "ISS vs SoC data regs\n{src}");
    iss
}

/// The seed program exactly as `structured_program` emits it, with a
/// load-back appended so the stored half-word becomes register-visible.
/// `jz d0` falls through when d0 != 0, so with `d0 = 3` the `st.h` arm
/// executes — this is the store path the shrink names.
#[test]
fn seed_loop_ifelse_sth_store_path() {
    let src = "
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
    ";
    let d = assert_three_models_agree(src);
    // d0 = 3, nonzero → fall through to the store arm; one iteration
    // (`loop` with count 1 runs the body once). d1 reads the store back.
    assert_eq!(d[0], 3);
    assert_eq!(d[1], 3, "stored half-word reads back");
}

/// Same seed shape with `d0 = 0` at the branch: iteration one takes the
/// `jz` (add) arm, iteration two falls through to `st.h`; the loaded-back
/// value pins the store after a conditional flip mid-loop.
#[test]
fn seed_loop_ifelse_sth_both_paths_across_iterations() {
    let src = "
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
    ";
    let d = assert_three_models_agree(src);
    // Iter 1: d0 == 0 → jz arm: d0 = 5. Iter 2: d0 != 0 → st.h 5.
    assert_eq!(d[0], 5);
    assert_eq!(d[1], 5, "stored half-word reads back");
}

/// Every sub-word store/load width on BOTH conditional paths, on all
/// three models: st.h on taken, st.b on not-taken, with sign- and
/// zero-extending loads, inside the same counted-loop skeleton.
#[test]
fn subword_stores_on_both_paths_all_widths() {
    for (taken, store, load, val, want) in [
        // (branch reg zero → jz taken, store insn, load insn, stored value, loaded-back)
        (
            true,
            "st.h d2, [a3+0]",
            "ld.hu d4, [a3+0]",
            0x0001_ABCDu32,
            0xABCD,
        ),
        (
            false,
            "st.h d2, [a3+2]",
            "ld.h d4, [a3+2]",
            0x0000_8001,
            0xFFFF_8001,
        ),
        (
            true,
            "st.b d2, [a3+1]",
            "ld.bu d4, [a3+1]",
            0x0000_01FE,
            0xFE,
        ),
        (
            false,
            "st.b d2, [a3+3]",
            "ld.b d4, [a3+3]",
            0x0000_0080,
            0xFFFF_FF80,
        ),
    ] {
        let d0 = u32::from(!taken); // jz d0 takes the branch when d0 == 0
        let src = format!(
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
        );
        let d = assert_three_models_agree(&src);
        assert_eq!(d[4], want, "loaded-back value for {store:?} / {load:?}");
        assert_eq!(d[3], 2, "loop count 2 runs the body twice");
    }
}

/// Byte stores at every offset within a word must not disturb their
/// neighbours — the classic sub-word read-modify-write hazard, checked
/// across all three memory systems.
#[test]
fn byte_stores_preserve_neighbouring_bytes() {
    let src = "
        .org 0x80000000
    _start:
        la a3, 0xD0000200
        li d0, 0x11223344
        st.w d0, [a3+0]
        movi d1, 0xAA
        st.b d1, [a3+1]
        movi d2, 0xBB
        st.b d2, [a3+2]
        ld.w d3, [a3+0]
        halt
    ";
    let d = assert_three_models_agree(src);
    // Little-endian word 0x11223344 with byte1 ← AA, byte2 ← BB.
    assert_eq!(d[3], 0x11BB_AA44);
}

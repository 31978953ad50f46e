//! Golden-file check of the functional ISS's observation exports: the
//! `iss.mix.*`, `iss.opcode.*` and `iss.profile.*` metrics of
//! `Iss::export_obs` and the hot-block table of the fast path's block
//! profile, over the `tier_bench` micro workloads (at smaller sizes) and
//! three programs that leave a predecoded block early: a store into the
//! running block, a retire limit hit mid-block and a load fault mid-block.
//! The slow path must count the same opcodes as the fast path.
//!
//! To refresh after an intentional change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test iss_observation_golden
//! ```

use std::fmt::Write as _;

use audo_common::Addr;
use audo_fuzz::tiers::{CSA_BASE, CSA_FRAMES, REGIONS};
use audo_obs::profile::{render_hot_blocks, SymbolMap};
use audo_obs::{metrics_text, Registry};
use audo_tricore::asm::assemble;
use audo_tricore::iss::Iss;
use audo_tricore::Image;
use audo_workloads::micro::{div_kernel, mac_kernel, random_mix, stream_copy};

/// Retire budget of the workloads, which all halt well inside it.
const MAX_INSTRS: u64 = 1_000_000;

/// An ISS under the differential fuzzer's memory map with `image` loaded
/// and every observation counter on.
fn observed_iss(image: &Image, fast: bool) -> Iss {
    let mut iss = Iss::new();
    for &(base, len) in REGIONS {
        iss.map_region(Addr(base), len);
    }
    iss.init_csa(Addr(CSA_BASE), CSA_FRAMES).unwrap();
    iss.load(image).unwrap();
    iss.set_fast_path(fast);
    iss.set_profile_observation(true);
    iss
}

/// Runs `image` on both paths with `limit`, checks that they end alike
/// and count the same opcodes, and renders the fast path's exports.
fn section(name: &str, image: &Image, limit: u64) -> String {
    let mut slow = observed_iss(image, false);
    let mut fast = observed_iss(image, true);
    let slow_end = slow.run_resumable(limit);
    let fast_end = fast.run_resumable(limit);
    assert_eq!(slow_end, fast_end, "{name}: run outcome");
    assert_eq!(slow.instr_count(), fast.instr_count(), "{name}: retired");
    assert_eq!(
        slow.opcode_counts(),
        fast.opcode_counts(),
        "{name}: opcode counts"
    );
    let mut reg = Registry::new();
    fast.export_obs(&mut reg);
    let metrics: String = metrics_text::render(&reg, "")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            ["iss_mix_", "iss_opcode_", "iss_profile_"]
                .iter()
                .any(|p| l.starts_with(p))
        })
        .map(|l| format!("{l}\n"))
        .collect();
    let profile = fast.block_profile().expect("profiling is on");
    let mut out = format!(
        "== {name}: {:?} after {} ==\n",
        fast_end,
        fast.instr_count()
    );
    out.push_str(&metrics);
    out.push_str(&render_hot_blocks(profile, &SymbolMap::new(), 8));
    for (key, c) in profile.blocks() {
        let _ = writeln!(
            out,
            "block 0x{:08x} gen {}: exec {} instrs {} span {}",
            key.addr(),
            key.generation,
            c.executions,
            c.instructions,
            c.span
        );
    }
    out
}

/// Assembles one instruction at the code base and returns its encoding.
fn encoding_of(line: &str) -> Vec<u8> {
    let img = assemble(&format!(".org 0x80001000\n    {line}\n")).unwrap();
    img.bytes_at(Addr(0x8000_1000), img.size()).unwrap()
}

/// A loop whose body stores a new `movi` over an instruction later in
/// its own block on the first pass, so the fast path bails mid-block.
fn self_modifying() -> Image {
    let patched = encoding_of("movi d1, 99");
    let lo = u16::from_le_bytes([patched[0], patched[1]]);
    let hi = u16::from_le_bytes([patched[2], patched[3]]);
    assemble(&format!(
        "
        .org 0x80000000
    _start:
        la a2, victim
        movi d3, 0
        movi d15, 3
        mov.a a5, d15
    L0:
        li d14, {lo}
        st.h d14, [a2+0]
        li d14, {hi}
        st.h d14, [a2+2]
    victim:
        movi d1, 11
        add d3, d3, d1
        loop a5, L0
        halt
    "
    ))
    .unwrap()
}

/// A long straight-line block; run with a retire limit that falls
/// inside it on the second pass.
fn straight_line() -> Image {
    let body: String = (0..12)
        .map(|i| format!("        addi d{}, d{}, {}\n", i % 6, i % 6, i + 1))
        .collect();
    assemble(&format!(
        "
        .org 0x80000000
    _start:
        movi d15, 4
        mov.a a5, d15
    L0:
{body}
        loop a5, L0
        halt
    "
    ))
    .unwrap()
}

/// A block that loads from unmapped memory after a few instructions,
/// so `execute` faults mid-block.
fn load_fault() -> Image {
    assemble(
        "
        .org 0x80000000
    _start:
        movi d0, 1
        movi d1, 2
        add  d2, d0, d1
        la   a2, 0x40000000
        mul  d3, d2, d2
        ld.w d4, [a2]
        movi d5, 5
        halt
    ",
    )
    .unwrap()
}

#[test]
fn iss_observation_exports_match_committed_golden() {
    let mut out = String::new();
    for w in [
        mac_kernel(2_000),
        stream_copy(1_000),
        div_kernel(1_000),
        random_mix(7, 400, 10),
    ] {
        out.push_str(&section(&w.name, &w.image, MAX_INSTRS));
    }
    out.push_str(&section("self_modifying", &self_modifying(), MAX_INSTRS));
    out.push_str(&section("limit_mid_block", &straight_line(), 20));
    out.push_str(&section("load_fault", &load_fault(), MAX_INSTRS));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    audo_common::golden::check(&dir.join("iss_observation.txt"), &out);
}

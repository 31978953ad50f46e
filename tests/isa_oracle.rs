//! A pinned, independent oracle for the TC-R instruction set.
//!
//! The encoder, decoder, assembler and disassembler are generated from one
//! description of each instruction form, so their round trips agree with
//! each other by construction. This test pins what they produced before
//! that description existed: for every assigned opcode slot it decodes a
//! spread of raw field patterns (the slot's sample, every register field at
//! 0 and 15, every immediate, offset and branch field at its extremes),
//! and records the decoded instruction, its re-encoding, its printed text
//! and what the assembler makes of that text. It also pins the widened
//! 32-bit form of every compressible operation, the 32-bit `ret` alias,
//! a digest of the decoder's answer to every first halfword, and the image
//! hash of every stock workload program.
//!
//! Regenerate only after an intentional ISA change:
//! `GOLDEN_REGEN=1 cargo test --test isa_oracle`.

use std::fmt::Write as _;
use std::path::PathBuf;

use audo_common::Addr;
use audo_tricore::asm::assemble;
use audo_tricore::disasm::format_instr;
use audo_tricore::encode::{decode, encode_sized};
use audo_tricore::opcodes::{sample_instr, ASSIGNED};
use audo_tricore::{Image, Instr};
use audo_workloads::{engine, micro, variants, Workload};

const PC: Addr = Addr(0x8000_0000);

/// Slots whose operation also has a 16-bit form; their 16-bit decodes are
/// listed a second time widened to 32 bits.
const COMPRESSIBLE: [u8; 8] = [2, 3, 4, 5, 9, 10, 11, 13];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fnv1a64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn image_hash(image: &Image) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    fnv1a64(&mut h, &image.entry().0.to_le_bytes());
    for s in image.sections() {
        fnv1a64(&mut h, &s.base.0.to_le_bytes());
        fnv1a64(&mut h, &(s.bytes.len() as u64).to_le_bytes());
        fnv1a64(&mut h, &s.bytes);
    }
    h
}

/// What the assembler emits for `text` at [`PC`]: the bytes of the
/// first section, or the error.
fn reassemble(text: &str) -> String {
    match assemble(&format!(".org {:#x}\n{text}\n", PC.0)) {
        Ok(img) => hex(&img.sections()[0].bytes),
        Err(e) => format!("error: {e}"),
    }
}

fn row(out: &mut String, slot: u8, instr: &Instr, len: u8) {
    let enc = encode_sized(instr, len);
    let text = format_instr(instr, PC);
    let asm = reassemble(&text);
    writeln!(
        out,
        "{slot:3} {:#x} | {text} | {} | asm {asm} | {instr:?}",
        PC.0,
        hex(enc.as_bytes())
    )
    .unwrap();
}

/// Raw encodings of one slot: its sample (or the bare opcode), then the
/// same word with register fields and immediate fields at their extremes.
fn patterns(slot: u8) -> Vec<Vec<u8>> {
    let base: u32 = match sample_instr(slot) {
        Some(s) => {
            let e = encode_sized(&s, if slot < 16 { 2 } else { 4 });
            let mut w = [0u8; 4];
            w[..e.len as usize].copy_from_slice(e.as_bytes());
            u32::from_le_bytes(w)
        }
        None => 1 | (u32::from(slot) << 1),
    };
    let mut out = Vec::new();
    if slot < 16 {
        out.push((base as u16).to_le_bytes().to_vec());
        let op = base as u16 & 0x00FF;
        for r1 in [0u16, 15] {
            for r2 in [0u16, 7, 8, 15] {
                out.push((op | (r1 << 8) | (r2 << 12)).to_le_bytes().to_vec());
            }
        }
        return out;
    }
    out.push(base.to_le_bytes().to_vec());
    let op = base & 0xFF;
    let regs = 0x000F_FF00;
    out.push((base & !regs).to_le_bytes().to_vec());
    out.push((base | regs).to_le_bytes().to_vec());
    for imm12 in [0x000u32, 0x7FF, 0x800, 0xFFF] {
        out.push(
            ((base & 0x000F_FFFF) | (imm12 << 20))
                .to_le_bytes()
                .to_vec(),
        );
    }
    for imm16 in [0x0000u32, 0x7FFF, 0x8000, 0xFFFF] {
        out.push(
            ((base & 0x0000_FFFF) | (imm16 << 16))
                .to_le_bytes()
                .to_vec(),
        );
    }
    for off24 in [0x00_0000u32, 0x7F_FFFF, 0x80_0000, 0xFF_FFFF] {
        out.push((op | (off24 << 8)).to_le_bytes().to_vec());
    }
    out
}

fn isa_rows() -> String {
    let mut out = String::new();
    for &(slot, name) in ASSIGNED {
        writeln!(out, "# slot {slot} {name}").unwrap();
        let mut seen: Vec<(Instr, u8)> = Vec::new();
        for bytes in patterns(slot) {
            let (instr, len) = match decode(&bytes, PC) {
                Ok(d) => d,
                Err(e) => {
                    writeln!(out, "{slot:3} {} | {e}", hex(&bytes)).unwrap();
                    continue;
                }
            };
            if seen.contains(&(instr, len)) {
                continue;
            }
            seen.push((instr, len));
            if slot == 68 {
                // The 32-bit `ret` alias decodes but has no encoder form.
                writeln!(
                    out,
                    "{slot:3} {} | decodes {instr:?} len {len} | {}",
                    hex(&bytes),
                    format_instr(&instr, PC)
                )
                .unwrap();
                continue;
            }
            row(&mut out, slot, &instr, len);
            if COMPRESSIBLE.contains(&slot) {
                row(&mut out, slot, &instr, 4);
            }
        }
    }
    out
}

fn workload_programs() -> Vec<Workload> {
    let mut ws = audo_workloads::stock_workloads();
    let e = engine::EngineParams::default;
    for p in [
        engine::EngineParams {
            tables_in_dspr: true,
            ..e()
        },
        engine::EngineParams {
            tables_in_dspr: true,
            bg_in_dspr: true,
            ..e()
        },
        engine::EngineParams {
            can_on_pcp: true,
            ..e()
        },
        engine::EngineParams {
            isrs_in_pspr: true,
            ..e()
        },
        engine::EngineParams { rpm: 6000, ..e() },
    ] {
        ws.push(engine::engine_control(&p));
    }
    ws.extend([
        variants::transmission_control(3),
        variants::chassis_monitor(16, 2_000),
        micro::mac_kernel(100),
        micro::stream_copy(64),
        micro::table_chase(16, 100, false),
        micro::table_chase(16, 100, true),
        micro::call_storm(8, 10),
        micro::flash_streamer(4, 2),
        micro::div_kernel(10),
        micro::random_mix(1, 64, 2),
        micro::random_mix(7, 200, 3),
        micro::flash_duel(4, 2),
    ]);
    ws
}

fn image_rows() -> String {
    let mut out = String::new();
    for w in workload_programs() {
        writeln!(out, "{} {:016x}", w.name, image_hash(&w.image)).unwrap();
    }
    let csa = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("workloads/csa_overflow.s"),
    )
    .expect("csa_overflow.s");
    let img = assemble(&csa).expect("csa_overflow.s assembles");
    writeln!(out, "csa_overflow.s {:016x}", image_hash(&img)).unwrap();
    out
}

#[test]
fn isa_forms_match_the_pinned_oracle() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/isa_oracle.txt");
    audo_common::golden::check(&golden, &isa_rows());
}

#[test]
fn workload_images_match_the_pinned_oracle() {
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/isa_oracle_images.txt");
    audo_common::golden::check(&golden, &image_rows());
}

/// FNV digest of `decode`'s full answer (instruction, length or error) for
/// every first halfword, alone and followed by a few upper halfwords.
fn decode_digest() -> String {
    let mut out = String::new();
    for upper in [
        None,
        Some(0x0000u16),
        Some(0xFFFF),
        Some(0x5A5A),
        Some(0xA5A5),
    ] {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let (mut ok, mut err) = (0u32, 0u32);
        for first in 0..=u16::MAX {
            let mut bytes = first.to_le_bytes().to_vec();
            if let Some(u) = upper {
                bytes.extend_from_slice(&u.to_le_bytes());
            }
            let r = decode(&bytes, PC);
            if r.is_ok() {
                ok += 1;
            } else {
                err += 1;
            }
            fnv1a64(&mut h, format!("{r:?}").as_bytes());
        }
        writeln!(out, "upper {upper:?}: {ok} ok, {err} err, digest {h:016x}").unwrap();
    }
    out
}

#[test]
fn decoder_answers_match_the_pinned_oracle() {
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/isa_oracle_decode.txt");
    audo_common::golden::check(&golden, &decode_digest());
}

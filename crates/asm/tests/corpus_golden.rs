//! Golden tests over the checked-in workload corpus.
//!
//! Three gates:
//!
//! 1. Every corpus program assembles and its image hashes to a pinned
//!    value (`golden/corpus_hashes.txt`). Regenerate after intentional
//!    corpus or encoder changes with:
//!    `GOLDEN_REGEN=1 cargo test -p audo-asm --test corpus_golden`
//! 2. Every decodable instruction in every corpus image round-trips
//!    through the disassembler *semantically*: its printed form
//!    reassembles (at the same address) to the same [`Instr`]. Byte
//!    equality is deliberately not required — the assembler may have
//!    widened a compressible instruction, and the canonical re-encoding
//!    is allowed to pick the short form.
//! 3. The encoder table is exhaustively assemblable: every assigned
//!    opcode's sample instruction formats to text the assembler accepts
//!    and decodes back to the same instruction.

use std::path::PathBuf;

use audo_asm::{default_corpus_dir, load_corpus};
use audo_common::Addr;
use audo_tricore::asm::assemble;
use audo_tricore::disasm::{disassemble_range, format_instr};
use audo_tricore::encode::decode;
use audo_tricore::opcodes::{opcode_index, sample_instr, ASSIGNED};
use audo_tricore::Image;

fn fnv1a64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Stable content hash of an image: entry point plus every section's
/// base address and bytes, in section order.
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

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/corpus_hashes.txt")
}

#[test]
fn corpus_images_match_pinned_hashes() {
    let entries = load_corpus(&default_corpus_dir()).expect("corpus loads");
    assert!(entries.len() >= 10, "corpus too small: {}", entries.len());
    let actual: Vec<String> = entries
        .iter()
        .map(|e| format!("{} {:016x}", e.file_name, image_hash(&e.image)))
        .collect();
    let rendered = format!("{}\n", actual.join("\n"));
    audo_common::golden::check(&golden_path(), &rendered);
}

#[test]
fn corpus_disassembly_round_trips_semantically() {
    let entries = load_corpus(&default_corpus_dir()).expect("corpus loads");
    let mut checked = 0usize;
    for e in &entries {
        for s in e.image.sections() {
            for line in disassemble_range(&e.image, s.base, s.bytes.len() as u32) {
                let Some(orig) = line.instr else { continue };
                let src = format!(".org {:#x}\n{}\n", line.addr.0, line.text);
                let re = assemble(&src).unwrap_or_else(|err| {
                    panic!(
                        "{}: `{}` does not reassemble: {err}",
                        e.file_name, line.text
                    )
                });
                let (word, avail) = re
                    .instr_bytes(line.addr)
                    .unwrap_or_else(|| panic!("{}: no bytes at {}", e.file_name, line.addr));
                let (back, _) = decode(&word[..avail], line.addr).unwrap_or_else(|err| {
                    panic!("{}: `{}` does not re-decode: {err}", e.file_name, line.text)
                });
                assert_eq!(
                    orig, back,
                    "{}: `{}` at {} is not a semantic fixpoint",
                    e.file_name, line.text, line.addr
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 300, "suspiciously few instructions: {checked}");
}

#[test]
fn every_assigned_opcode_is_assemblable_from_its_canonical_text() {
    let pc = Addr(0x8000_0000);
    let mut sampled = 0usize;
    for &(idx, name) in ASSIGNED {
        let Some(sample) = sample_instr(idx) else {
            // The 32-bit `ret` slot decodes but is never canonically
            // emitted; everything else must have a sample.
            assert_eq!(idx, 68, "slot {idx} ({name}) has no sample");
            continue;
        };
        let text = format_instr(&sample, pc);
        let src = format!(".org {:#x}\n{}\n", pc.0, text);
        let image = assemble(&src)
            .unwrap_or_else(|err| panic!("slot {idx} ({name}): `{text}` rejected: {err}"));
        let (word, avail) = image.instr_bytes(pc).expect("sample bytes");
        let (back, _) = decode(&word[..avail], pc).expect("sample re-decodes");
        assert_eq!(sample, back, "slot {idx} ({name}): `{text}` drifted");
        assert_eq!(
            opcode_index(&back),
            idx,
            "slot {idx} ({name}): reassembled into a different slot"
        );
        sampled += 1;
    }
    assert_eq!(ASSIGNED.len(), 87);
    assert_eq!(sampled, 86);
}

#[test]
fn unencodable_text_is_rejected_at_parse_time() {
    // The assembler's mnemonic table and the encoder table are the same
    // source of truth: text with no encoding must fail to parse, not
    // assemble to something else.
    for bad in [
        "madd d0, d1, d2",  // no such mnemonic
        "movi d0, 0x12345", // immediate does not fit the encoding
        "addi d0, d1, 5000",
        "extr d0, d1, 32, 1", // pos out of encodable range
        "shi d0, d1, 40",
    ] {
        let src = format!(".org 0x1000\n{bad}\n");
        assert!(
            matches!(assemble(&src), Err(audo_common::SimError::Assemble { .. })),
            "`{bad}` should be rejected"
        );
    }
}

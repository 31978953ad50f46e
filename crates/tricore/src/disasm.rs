//! Disassembler: formats decoded instructions back into assembler syntax.
//!
//! Used by trace viewers and the host-side program-flow reconstruction to
//! present readable listings; `disassemble` round-trips with the assembler
//! dialect of [`crate::asm`].

use std::fmt::Write as _;

use audo_common::Addr;

use crate::forms::{find, Kind};
use crate::image::Image;
use crate::isa::Instr;

/// Formats one instruction at `pc` (needed to print absolute branch targets).
#[must_use]
pub fn format_instr(instr: &Instr, pc: Addr) -> String {
    let (form, ops) = find(instr, false).expect("every instruction has a form");
    let mut s = String::with_capacity(32);
    s.push_str(form.mnemonic);
    for (i, &(kind, _)) in form.shape.iter().enumerate() {
        if kind.takes_text() {
            s.push_str(if i == 0 { " " } else { ", " });
        }
        let kind = match kind {
            Kind::Tie(k) => form.shape[k].0,
            k => k,
        };
        let v = ops[i];
        // Writing to a `String` cannot fail.
        let _ = match kind {
            Kind::D => push_reg(&mut s, "d", v),
            Kind::A => push_reg(&mut s, "a", v),
            Kind::Base => push_reg(&mut s, "[a", v),
            Kind::Off if v != 0 => write!(s, "{v:+}]"),
            Kind::Off | Kind::Zero => s.write_char(']'),
            Kind::PostInc => write!(s, "+]{v}"),
            Kind::Imm(r) if r.hex => write!(s, "{v:#x}"),
            Kind::Rel => write!(s, "{:#x}", pc.0.wrapping_add((v as u32) << 1)),
            Kind::Imm(_) | Kind::Csfr | Kind::Tie(_) => write!(s, "{v}"),
        };
    }
    s
}

/// Appends register `n` (0-15) after `prefix` (`d`, `a`, or `[a` for the
/// base of a memory operand) without going through the formatter.
fn push_reg(s: &mut String, prefix: &str, n: i32) -> std::fmt::Result {
    s.push_str(prefix);
    if n >= 10 {
        s.push('1');
    }
    s.push(char::from(b'0' + (n % 10) as u8));
    Ok(())
}

/// One line of a disassembly listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListingLine {
    /// Instruction address.
    pub addr: Addr,
    /// Decoded instruction (`None` for undecodable bytes).
    pub instr: Option<Instr>,
    /// Formatted text.
    pub text: String,
}

/// Disassembles `len` bytes of an image starting at `start`.
///
/// Undecodable words are listed as `.word`/`.half` data and skipped, so a
/// listing can run through embedded data tables without stopping.
#[must_use]
pub fn disassemble_range(image: &Image, start: Addr, len: u32) -> Vec<ListingLine> {
    let mut out = Vec::new();
    let mut pc = start;
    let end = start.0.saturating_add(len);
    while pc.0 < end {
        let Some((word, avail)) = fetch(image, pc) else {
            break;
        };
        let bytes = &word[..avail];
        match crate::encode::decode(bytes, pc) {
            Ok((instr, ilen)) => {
                out.push(ListingLine {
                    addr: pc,
                    instr: Some(instr),
                    text: format_instr(&instr, pc),
                });
                pc = pc.offset(u32::from(ilen));
            }
            Err(_) => {
                let text = if avail == 4 {
                    format!(".word {:#010x}", u32::from_le_bytes(word))
                } else {
                    format!(".half {:#06x}", u16::from_le_bytes([word[0], word[1]]))
                };
                out.push(ListingLine {
                    addr: pc,
                    instr: None,
                    text,
                });
                pc = pc.offset(avail as u32);
            }
        }
    }
    out
}

/// The bytes an instruction at `pc` can take: four when the image holds
/// them all, else two, else `None`. They come from the slice of the
/// section holding `pc`; only near its end are the following bytes looked
/// up in whichever section holds them, so an instruction may run across
/// two adjacent sections that were not merged.
fn fetch(image: &Image, pc: Addr) -> Option<([u8; 4], usize)> {
    let section = image
        .sections()
        .iter()
        .find(|s| pc.in_range(s.base, s.bytes.len() as u32))?;
    let tail = &section.bytes[(pc.0 - section.base.0) as usize..];
    let mut word = [0; 4];
    let mut n = tail.len().min(4);
    word[..n].copy_from_slice(&tail[..n]);
    while n < 4 {
        let Some(b) = image.byte_at(pc.offset(n as u32)) else {
            break;
        };
        word[n] = b;
        n += 1;
    }
    match n {
        4 => Some((word, 4)),
        2 | 3 => Some((word, 2)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn formats_match_assembler_dialect() {
        let src = "
            .org 0x1000
            movi d0, -5
            add d1, d2, d3
            ld.w d1, [a2+8]
            st.b d3, [a4-1]
            jz d0, 0x1000
            loop a3, 0x1000
            call 0x1000
        ";
        let img = assemble(src).unwrap();
        let listing = disassemble_range(&img, Addr(0x1000), img.size() as u32);
        let texts: Vec<&str> = listing.iter().map(|l| l.text.as_str()).collect();
        assert_eq!(texts[0], "movi d0, -5");
        assert_eq!(texts[1], "add d1, d2, d3");
        assert_eq!(texts[2], "ld.w d1, [a2+8]");
        assert_eq!(texts[3], "st.b d3, [a4-1]");
        assert!(texts[4].starts_with("jz d0, 0x1000"));
        assert!(texts[5].starts_with("loop a3, 0x1000"));
        assert!(texts[6].starts_with("call 0x1000"));
    }

    #[test]
    fn reassembling_disassembly_is_stable() {
        // Disassemble a program, reassemble the text, and compare bytes.
        let src = "
            .org 0x1000
            movh d1, 0x8000
            oril d1, 0x1234
            addi d2, d1, -7
            sel d0, d1, d2
            extr d3, d1, 4, 8
            halt
        ";
        let img1 = assemble(src).unwrap();
        let listing = disassemble_range(&img1, Addr(0x1000), img1.size() as u32);
        let mut src2 = String::from(".org 0x1000\n");
        for l in &listing {
            src2.push_str(&l.text);
            src2.push('\n');
        }
        let img2 = assemble(&src2).unwrap();
        assert_eq!(img1.sections()[0].bytes, img2.sections()[0].bytes);
    }

    #[test]
    fn instructions_run_across_adjacent_unmerged_sections() {
        use crate::image::Section;
        // `movi d0, 7` split over two sections that meet at 0x1002, then
        // a lone halfword of a 32-bit instruction at the end.
        let movi = assemble(".org 0x1000\n movi d0, 7\n").unwrap().sections()[0]
            .bytes
            .clone();
        let img = Image::from_parts(
            vec![
                Section {
                    base: Addr(0x1000),
                    bytes: movi[..2].to_vec(),
                },
                Section {
                    base: Addr(0x1002),
                    bytes: [&movi[2..], &movi[..2]].concat(),
                },
            ],
            std::collections::BTreeMap::new(),
        );
        let listing = disassemble_range(&img, Addr(0x1000), 6);
        let texts: Vec<&str> = listing.iter().map(|l| l.text.as_str()).collect();
        assert_eq!(texts, ["movi d0, 7", ".half 0x0021"]);
        assert_eq!(listing[1].addr, Addr(0x1004));
    }

    #[test]
    fn data_words_are_listed_not_fatal() {
        let img = assemble(".org 0x1000\n .word 0xFFFFFFFF\n nop\n").unwrap();
        let listing = disassemble_range(&img, Addr(0x1000), 6);
        assert!(listing[0].instr.is_none());
        assert!(listing[0].text.starts_with(".word"));
        assert_eq!(listing[1].text, "nop");
    }
}

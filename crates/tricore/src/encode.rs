//! Binary encoding and decoding of TC-R instructions.
//!
//! TC-R uses mixed-length encodings like the real TriCore: bit 0 of the
//! first halfword selects between a 16-bit and a 32-bit format.
//!
//! **16-bit format** (bit 0 = 0):
//!
//! ```text
//! 15    12 11     8 7      1 0
//! [  r2   ][  r1   ][ op7   ][0]
//! ```
//!
//! **32-bit format** (bit 0 = 1):
//!
//! ```text
//! 31        20 19   16 15   12 11    8 7     1 0
//! [   imm12   ][  r3  ][  r2  ][  r1  ][ op7  ][1]
//! ```
//!
//! with alternative layouts chosen per form: `imm16` in bits 31..16,
//! `off24` in bits 31..8 (halfword-scaled signed jump displacement), and
//! `pos`/`width - 1` in bits 24..20 and 29..25 for bit-field operations.
//! Which field each operand occupies is a column of the instruction-form
//! table (`forms.rs`); this module picks the row and frames the bytes.
//!
//! The encoder always emits the *shortest canonical* encoding, and the only
//! instructions with two encodings (e.g. `ADD` with `rd == ra`) compress
//! based on register operands and literal immediates — never on label
//! distances — so instruction sizes are known in the assembler's first pass.

use audo_common::{Addr, SimError};

use crate::forms::{decode_at, find};
use crate::isa::Instr;

/// An encoded instruction: up to four bytes plus its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Encoded {
    /// Little-endian instruction bytes; only the first `len` are meaningful.
    pub bytes: [u8; 4],
    /// Encoded length: 2 or 4.
    pub len: u8,
}

impl Encoded {
    /// The meaningful byte slice.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

/// Encodes an instruction into its canonical (shortest) binary form.
///
/// Immediates and offsets are masked to their field; the assembler
/// validates ranges before calling this.
#[must_use]
pub fn encode(instr: &Instr) -> Encoded {
    let (form, ops) = find(instr, false).expect("every instruction has a form");
    form.encode(&ops)
}

/// Encodes an instruction forcing a specific length.
///
/// The assembler reserves space in its first pass based on *syntactic*
/// compressibility; if an expression later evaluates to a compressible value
/// (e.g. `addi d1, d1, SYM` with `SYM = 3`) the canonical encoding would be
/// two bytes shorter than reserved. This function emits the 32-bit form on
/// demand so sizes always match the first-pass layout.
///
/// # Panics
///
/// Panics if `want_len` is 4 but the instruction has no 32-bit encoding
/// (only register-to-register moves and `nop` lack one), or if `want_len`
/// is 2 but the canonical encoding is 4 bytes.
#[must_use]
pub fn encode_sized(instr: &Instr, want_len: u8) -> Encoded {
    let (form, ops) = match find(instr, want_len == 4) {
        Some(found) => found,
        None => panic!("no 32-bit encoding for {instr:?}"),
    };
    assert!(
        form.len() == want_len,
        "cannot shrink {instr:?} to {want_len} bytes"
    );
    form.encode(&ops)
}

/// Decodes one instruction from the front of `bytes`.
///
/// Returns the instruction and its encoded length in bytes. The opcode
/// indexes the form table directly.
///
/// # Errors
///
/// Returns [`SimError::DecodeInstr`] if the opcode is unknown or the input
/// is shorter than the format, and reports `addr` (the caller-supplied PC)
/// in the error.
pub fn decode(bytes: &[u8], addr: Addr) -> Result<(Instr, u8), SimError> {
    let error = |word| SimError::DecodeInstr { addr, word };
    let (word, len) = match *bytes {
        [b0, b1, b2, b3, ..] if b0 & 1 == 1 => (u32::from_le_bytes([b0, b1, b2, b3]), 4),
        [b0, b1, ..] if b0 & 1 == 0 => (u32::from(u16::from_le_bytes([b0, b1])), 2),
        // A 32-bit format cut short.
        [b0, b1, ..] => return Err(error(u32::from(u16::from_le_bytes([b0, b1])))),
        _ => return Err(error(0)),
    };
    // 16-bit forms own slots 0-15, 32-bit forms the rest.
    let slot = ((word >> 1) & 0x7F) as u8;
    match decode_at(slot, word) {
        Some(instr) if (slot >= 16) == (len == 4) => Ok((instr, len)),
        _ => Err(error(word)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AReg, BranchCond, DReg, MemWidth};

    fn roundtrip(i: Instr) {
        let e = encode(&i);
        let (back, len) = decode(e.as_bytes(), Addr(0)).expect("decodes");
        assert_eq!(back, i, "round-trip failed for {i:?}");
        assert_eq!(len, e.len);
    }

    #[test]
    fn short_forms_are_two_bytes() {
        assert_eq!(encode(&Instr::Nop).len, 2);
        assert_eq!(
            encode(&Instr::MovD {
                rd: DReg(1),
                rs: DReg(2)
            })
            .len,
            2
        );
        assert_eq!(
            encode(&Instr::Add {
                rd: DReg(1),
                ra: DReg(1),
                rb: DReg(2)
            })
            .len,
            2
        );
        assert_eq!(encode(&Instr::Ret).len, 2);
        assert_eq!(
            encode(&Instr::Ld {
                rd: DReg(3),
                ab: AReg(4),
                off: 0,
                width: MemWidth::Word,
                sign: false
            })
            .len,
            2
        );
    }

    #[test]
    fn long_forms_are_four_bytes() {
        assert_eq!(
            encode(&Instr::Add {
                rd: DReg(1),
                ra: DReg(2),
                rb: DReg(3)
            })
            .len,
            4
        );
        assert_eq!(encode(&Instr::J { off: 100 }).len, 4);
        assert_eq!(
            encode(&Instr::Ld {
                rd: DReg(3),
                ab: AReg(4),
                off: 8,
                width: MemWidth::Word,
                sign: false
            })
            .len,
            4
        );
    }

    #[test]
    fn roundtrip_representative_instructions() {
        use crate::isa::Instr::*;
        let cases = [
            Nop,
            MovD {
                rd: DReg(0),
                rs: DReg(15),
            },
            MovI {
                rd: DReg(5),
                imm: -1234,
            },
            MovH {
                rd: DReg(5),
                imm: 0x8000,
            },
            MovU {
                rd: DReg(5),
                imm: 0xFFFF,
            },
            MovHA {
                ad: AReg(2),
                imm: 0xD000,
            },
            AddIA {
                ad: AReg(2),
                imm: -32768,
            },
            OrIL {
                rd: DReg(4),
                imm: 0xBEEF,
            },
            Lea {
                ad: AReg(1),
                ab: AReg(2),
                off: -2048,
            },
            Add {
                rd: DReg(1),
                ra: DReg(2),
                rb: DReg(3),
            },
            Add {
                rd: DReg(1),
                ra: DReg(1),
                rb: DReg(3),
            },
            Mul {
                rd: DReg(9),
                ra: DReg(10),
                rb: DReg(11),
            },
            Mac {
                rd: DReg(9),
                ra: DReg(10),
                rb: DReg(11),
            },
            Div {
                rd: DReg(1),
                ra: DReg(2),
                rb: DReg(3),
            },
            ShI {
                rd: DReg(1),
                ra: DReg(2),
                amount: -16,
            },
            AddI {
                rd: DReg(1),
                ra: DReg(2),
                imm: 2047,
            },
            AddI {
                rd: DReg(1),
                ra: DReg(1),
                imm: -8,
            },
            AndI {
                rd: DReg(1),
                ra: DReg(2),
                imm: 0xFFF,
            },
            Extr {
                rd: DReg(1),
                ra: DReg(2),
                pos: 31,
                width: 1,
            },
            Extr {
                rd: DReg(1),
                ra: DReg(2),
                pos: 0,
                width: 32,
            },
            Insert {
                rd: DReg(1),
                rs: DReg(2),
                pos: 5,
                width: 7,
            },
            Sel {
                rd: DReg(1),
                cond: DReg(2),
                rs: DReg(3),
            },
            Ld {
                rd: DReg(1),
                ab: AReg(2),
                off: -4,
                width: MemWidth::Half,
                sign: true,
            },
            Ld {
                rd: DReg(1),
                ab: AReg(2),
                off: 0,
                width: MemWidth::Word,
                sign: false,
            },
            St {
                rs: DReg(1),
                ab: AReg(2),
                off: 100,
                width: MemWidth::Byte,
            },
            LdWPostInc {
                rd: DReg(1),
                ab: AReg(2),
                inc: 4,
            },
            StWPostInc {
                rs: DReg(1),
                ab: AReg(2),
                inc: -4,
            },
            LdA {
                ad: AReg(1),
                ab: AReg(10),
                off: 8,
            },
            StA {
                a_src: AReg(11),
                ab: AReg(10),
                off: -8,
            },
            J { off: -(1 << 23) },
            J { off: (1 << 23) - 1 },
            Jl { off: 42 },
            Call { off: -42 },
            Ji { aa: AReg(11) },
            CallI { aa: AReg(3) },
            Ret,
            JCond {
                cond: BranchCond::GeU,
                ra: DReg(1),
                rb: DReg(2),
                off: -6,
            },
            Jz {
                ra: DReg(7),
                off: 6,
            },
            Jnz {
                ra: DReg(7),
                off: 6,
            },
            Loop {
                aa: AReg(3),
                off: -10,
            },
            Rfe,
            Syscall { num: 77 },
            Enable,
            Disable,
            Mfcr {
                rd: DReg(1),
                csfr: 5,
            },
            Mtcr {
                csfr: 6,
                rs: DReg(2),
            },
            Debug { code: 200 },
            Debug { code: 5 },
            Wait,
            Halt,
        ];
        for c in cases {
            roundtrip(c);
        }
    }

    #[test]
    fn unknown_opcodes_error() {
        // 16-bit op 15 is unassigned.
        let h: u16 = 15 << 1;
        assert!(decode(&h.to_le_bytes(), Addr(0x100)).is_err());
        // 32-bit op 127 is unassigned.
        let w: u32 = 1 | (127 << 1);
        assert!(decode(&w.to_le_bytes(), Addr(0x100)).is_err());
    }

    #[test]
    fn truncated_input_errors() {
        assert!(decode(&[], Addr(0)).is_err());
        assert!(decode(&[0x01], Addr(0)).is_err());
        // 32-bit instruction but only two bytes available.
        let e = encode(&Instr::J { off: 4 });
        assert!(decode(&e.bytes[..2], Addr(0)).is_err());
    }

    #[test]
    fn signed_fields_sign_extend() {
        let addi = |w: u32| decode(&(w | 0x47).to_le_bytes(), Addr(0)).unwrap().0;
        assert_eq!(
            addi(0xFFF << 20),
            Instr::AddI {
                rd: DReg(0),
                ra: DReg(0),
                imm: -1
            }
        );
        assert_eq!(
            addi(0x800 << 20),
            Instr::AddI {
                rd: DReg(0),
                ra: DReg(0),
                imm: -2048
            }
        );
        assert_eq!(
            addi(0x7FF << 20),
            Instr::AddI {
                rd: DReg(0),
                ra: DReg(0),
                imm: 2047
            }
        );
        let j = |w: u32| decode(&(w | 0x7F).to_le_bytes(), Addr(0)).unwrap().0;
        assert_eq!(j(0xFFFF_FF00), Instr::J { off: -1 });
        assert_eq!(j(0x8000_0000), Instr::J { off: -(1 << 23) });
    }
}

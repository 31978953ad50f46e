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
//! with two alternative layouts selected by the opcode: `imm16` in bits
//! 31..16 (`I16` format, `r2`/`r3` unused) and `off24` in bits 31..8
//! (`J` format, halfword-scaled signed jump displacement).
//!
//! The encoder always emits the *shortest canonical* encoding, and the only
//! instructions with two encodings (e.g. `ADD` with `rd == ra`) compress
//! based on register operands and literal immediates — never on label
//! distances — so instruction sizes are known in the assembler's first pass.

use audo_common::{Addr, SimError};

use crate::isa::{AReg, BranchCond, DReg, Instr, MemWidth};

// 16-bit opcodes.
const OP16_NOP: u8 = 0;
const OP16_MOV: u8 = 1;
const OP16_ADD: u8 = 2;
const OP16_SUB: u8 = 3;
const OP16_AND: u8 = 4;
const OP16_OR: u8 = 5;
const OP16_MOVAA: u8 = 6;
const OP16_MOVD2A: u8 = 7;
const OP16_MOVA2D: u8 = 8;
const OP16_LDW: u8 = 9;
const OP16_STW: u8 = 10;
const OP16_ADDI: u8 = 11;
const OP16_RET: u8 = 12;
const OP16_DEBUG: u8 = 13;

// 32-bit opcodes.
const OP_MOVI: u8 = 16;
const OP_MOVH: u8 = 17;
const OP_MOVU: u8 = 18;
const OP_MOVHA: u8 = 19;
const OP_LEA: u8 = 20;
const OP_ADD: u8 = 21;
const OP_SUB: u8 = 22;
const OP_AND: u8 = 23;
const OP_OR: u8 = 24;
const OP_XOR: u8 = 25;
const OP_MIN: u8 = 26;
const OP_MAX: u8 = 27;
const OP_MUL: u8 = 28;
const OP_MAC: u8 = 29;
const OP_DIV: u8 = 30;
const OP_REM: u8 = 31;
const OP_SH: u8 = 32;
const OP_SHA: u8 = 33;
const OP_SHI: u8 = 34;
const OP_ADDI: u8 = 35;
const OP_ANDI: u8 = 36;
const OP_ORI: u8 = 37;
const OP_XORI: u8 = 38;
const OP_CLZ: u8 = 39;
const OP_SEXTB: u8 = 40;
const OP_SEXTH: u8 = 41;
const OP_ZEXTB: u8 = 42;
const OP_ZEXTH: u8 = 43;
const OP_EXTR: u8 = 44;
const OP_INSERT: u8 = 45;
const OP_LT: u8 = 46;
const OP_LTU: u8 = 47;
const OP_EQ: u8 = 48;
const OP_NE: u8 = 49;
const OP_SEL: u8 = 50;
const OP_LDW: u8 = 51;
const OP_LDH: u8 = 52;
const OP_LDHU: u8 = 53;
const OP_LDB: u8 = 54;
const OP_LDBU: u8 = 55;
const OP_STW: u8 = 56;
const OP_STH: u8 = 57;
const OP_STB: u8 = 58;
const OP_LDA: u8 = 59;
const OP_STA: u8 = 60;
const OP_LDWPI: u8 = 61;
const OP_STWPI: u8 = 62;
const OP_J: u8 = 63;
const OP_JL: u8 = 64;
const OP_CALL: u8 = 65;
const OP_JI: u8 = 66;
const OP_CALLI: u8 = 67;
const OP_RET: u8 = 68;
const OP_JEQ: u8 = 69;
const OP_JNE: u8 = 70;
const OP_JLT: u8 = 71;
const OP_JGE: u8 = 72;
const OP_JLTU: u8 = 73;
const OP_JGEU: u8 = 74;
const OP_JZ: u8 = 75;
const OP_JNZ: u8 = 76;
const OP_LOOP: u8 = 77;
const OP_RFE: u8 = 78;
const OP_SYSCALL: u8 = 79;
const OP_ENABLE: u8 = 80;
const OP_DISABLE: u8 = 81;
const OP_MFCR: u8 = 82;
const OP_MTCR: u8 = 83;
const OP_DEBUG: u8 = 84;
const OP_WAIT: u8 = 85;
const OP_HALT: u8 = 86;
const OP_ADDIA: u8 = 87;
const OP_ORIL: u8 = 88;

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

fn enc16(op: u8, r1: u8, r2: u8) -> Encoded {
    debug_assert!(op < 16 && r1 < 16 && r2 < 16);
    let h = (u16::from(op) << 1) | (u16::from(r1) << 8) | (u16::from(r2) << 12);
    Encoded {
        bytes: [(h & 0xFF) as u8, (h >> 8) as u8, 0, 0],
        len: 2,
    }
}

fn enc32(op: u8, r1: u8, r2: u8, r3: u8, imm12: u16) -> Encoded {
    debug_assert!((16..128).contains(&op) && r1 < 16 && r2 < 16 && r3 < 16 && imm12 < 4096);
    let w = 1u32
        | (u32::from(op) << 1)
        | (u32::from(r1) << 8)
        | (u32::from(r2) << 12)
        | (u32::from(r3) << 16)
        | (u32::from(imm12) << 20);
    Encoded {
        bytes: w.to_le_bytes(),
        len: 4,
    }
}

fn enc32_i16(op: u8, r1: u8, imm16: u16) -> Encoded {
    let w = 1u32 | (u32::from(op) << 1) | (u32::from(r1) << 8) | (u32::from(imm16) << 16);
    Encoded {
        bytes: w.to_le_bytes(),
        len: 4,
    }
}

fn enc32_j(op: u8, off24: i32) -> Encoded {
    debug_assert!((-(1 << 23)..(1 << 23)).contains(&off24));
    let w = 1u32 | (u32::from(op) << 1) | (((off24 as u32) & 0x00FF_FFFF) << 8);
    Encoded {
        bytes: w.to_le_bytes(),
        len: 4,
    }
}

fn simm12(v: i16) -> u16 {
    debug_assert!((-2048..2048).contains(&v), "imm12 out of range: {v}");
    (v as u16) & 0x0FFF
}

fn sext12(v: u16) -> i16 {
    ((v << 4) as i16) >> 4
}

fn sext24(v: u32) -> i32 {
    ((v << 8) as i32) >> 8
}

/// Encodes an instruction into its canonical (shortest) binary form.
///
/// # Panics
///
/// Panics in debug builds if an immediate or offset is out of range for its
/// field. The assembler validates ranges before calling this.
#[must_use]
pub fn encode(instr: &Instr) -> Encoded {
    use Instr::*;
    match *instr {
        Nop => enc16(OP16_NOP, 0, 0),
        MovD { rd, rs } => enc16(OP16_MOV, rd.0, rs.0),
        Add { rd, ra, rb } if rd == ra => enc16(OP16_ADD, rd.0, rb.0),
        Sub { rd, ra, rb } if rd == ra => enc16(OP16_SUB, rd.0, rb.0),
        And { rd, ra, rb } if rd == ra => enc16(OP16_AND, rd.0, rb.0),
        Or { rd, ra, rb } if rd == ra => enc16(OP16_OR, rd.0, rb.0),
        MovAA { ad, a_src } => enc16(OP16_MOVAA, ad.0, a_src.0),
        MovDtoA { ad, rs } => enc16(OP16_MOVD2A, ad.0, rs.0),
        MovAtoD { rd, a_src } => enc16(OP16_MOVA2D, rd.0, a_src.0),
        Ld {
            rd,
            ab,
            off: 0,
            width: MemWidth::Word,
            sign: _,
        } => enc16(OP16_LDW, rd.0, ab.0),
        St {
            rs,
            ab,
            off: 0,
            width: MemWidth::Word,
        } => enc16(OP16_STW, rs.0, ab.0),
        AddI { rd, ra, imm } if rd == ra && (-8..8).contains(&imm) => {
            enc16(OP16_ADDI, rd.0, (imm as u8) & 0xF)
        }
        Ret => enc16(OP16_RET, 0, 0),
        Debug { code } if code < 16 => enc16(OP16_DEBUG, code, 0),

        MovI { rd, imm } => enc32_i16(OP_MOVI, rd.0, imm as u16),
        MovH { rd, imm } => enc32_i16(OP_MOVH, rd.0, imm),
        MovU { rd, imm } => enc32_i16(OP_MOVU, rd.0, imm),
        MovHA { ad, imm } => enc32_i16(OP_MOVHA, ad.0, imm),
        AddIA { ad, imm } => enc32_i16(OP_ADDIA, ad.0, imm as u16),
        OrIL { rd, imm } => enc32_i16(OP_ORIL, rd.0, imm),
        Lea { ad, ab, off } => enc32(OP_LEA, ad.0, ab.0, 0, simm12(off)),
        Add { rd, ra, rb } => enc32(OP_ADD, rd.0, ra.0, rb.0, 0),
        Sub { rd, ra, rb } => enc32(OP_SUB, rd.0, ra.0, rb.0, 0),
        And { rd, ra, rb } => enc32(OP_AND, rd.0, ra.0, rb.0, 0),
        Or { rd, ra, rb } => enc32(OP_OR, rd.0, ra.0, rb.0, 0),
        Xor { rd, ra, rb } => enc32(OP_XOR, rd.0, ra.0, rb.0, 0),
        Min { rd, ra, rb } => enc32(OP_MIN, rd.0, ra.0, rb.0, 0),
        Max { rd, ra, rb } => enc32(OP_MAX, rd.0, ra.0, rb.0, 0),
        Mul { rd, ra, rb } => enc32(OP_MUL, rd.0, ra.0, rb.0, 0),
        Mac { rd, ra, rb } => enc32(OP_MAC, rd.0, ra.0, rb.0, 0),
        Div { rd, ra, rb } => enc32(OP_DIV, rd.0, ra.0, rb.0, 0),
        Rem { rd, ra, rb } => enc32(OP_REM, rd.0, ra.0, rb.0, 0),
        Sh { rd, ra, rb } => enc32(OP_SH, rd.0, ra.0, rb.0, 0),
        Sha { rd, ra, rb } => enc32(OP_SHA, rd.0, ra.0, rb.0, 0),
        ShI { rd, ra, amount } => enc32(OP_SHI, rd.0, ra.0, 0, simm12(i16::from(amount))),
        AddI { rd, ra, imm } => enc32(OP_ADDI, rd.0, ra.0, 0, simm12(imm)),
        AndI { rd, ra, imm } => enc32(OP_ANDI, rd.0, ra.0, 0, imm & 0xFFF),
        OrI { rd, ra, imm } => enc32(OP_ORI, rd.0, ra.0, 0, imm & 0xFFF),
        XorI { rd, ra, imm } => enc32(OP_XORI, rd.0, ra.0, 0, imm & 0xFFF),
        Clz { rd, ra } => enc32(OP_CLZ, rd.0, ra.0, 0, 0),
        SextB { rd, ra } => enc32(OP_SEXTB, rd.0, ra.0, 0, 0),
        SextH { rd, ra } => enc32(OP_SEXTH, rd.0, ra.0, 0, 0),
        ZextB { rd, ra } => enc32(OP_ZEXTB, rd.0, ra.0, 0, 0),
        ZextH { rd, ra } => enc32(OP_ZEXTH, rd.0, ra.0, 0, 0),
        Extr { rd, ra, pos, width } => enc32(
            OP_EXTR,
            rd.0,
            ra.0,
            0,
            u16::from(pos) | (u16::from(width - 1) << 5),
        ),
        Insert { rd, rs, pos, width } => enc32(
            OP_INSERT,
            rd.0,
            rs.0,
            0,
            u16::from(pos) | (u16::from(width - 1) << 5),
        ),
        Lt { rd, ra, rb } => enc32(OP_LT, rd.0, ra.0, rb.0, 0),
        LtU { rd, ra, rb } => enc32(OP_LTU, rd.0, ra.0, rb.0, 0),
        EqR { rd, ra, rb } => enc32(OP_EQ, rd.0, ra.0, rb.0, 0),
        NeR { rd, ra, rb } => enc32(OP_NE, rd.0, ra.0, rb.0, 0),
        Sel { rd, cond, rs } => enc32(OP_SEL, rd.0, cond.0, rs.0, 0),
        Ld {
            rd,
            ab,
            off,
            width,
            sign,
        } => {
            let op = match (width, sign) {
                (MemWidth::Word, _) => OP_LDW,
                (MemWidth::Half, true) => OP_LDH,
                (MemWidth::Half, false) => OP_LDHU,
                (MemWidth::Byte, true) => OP_LDB,
                (MemWidth::Byte, false) => OP_LDBU,
            };
            enc32(op, rd.0, ab.0, 0, simm12(off))
        }
        St { rs, ab, off, width } => {
            let op = match width {
                MemWidth::Word => OP_STW,
                MemWidth::Half => OP_STH,
                MemWidth::Byte => OP_STB,
            };
            enc32(op, rs.0, ab.0, 0, simm12(off))
        }
        LdA { ad, ab, off } => enc32(OP_LDA, ad.0, ab.0, 0, simm12(off)),
        StA { a_src, ab, off } => enc32(OP_STA, a_src.0, ab.0, 0, simm12(off)),
        LdWPostInc { rd, ab, inc } => enc32(OP_LDWPI, rd.0, ab.0, 0, simm12(inc)),
        StWPostInc { rs, ab, inc } => enc32(OP_STWPI, rs.0, ab.0, 0, simm12(inc)),
        J { off } => enc32_j(OP_J, off),
        Jl { off } => enc32_j(OP_JL, off),
        Call { off } => enc32_j(OP_CALL, off),
        Ji { aa } => enc32(OP_JI, aa.0, 0, 0, 0),
        CallI { aa } => enc32(OP_CALLI, aa.0, 0, 0, 0),
        JCond { cond, ra, rb, off } => {
            let op = match cond {
                BranchCond::Eq => OP_JEQ,
                BranchCond::Ne => OP_JNE,
                BranchCond::Lt => OP_JLT,
                BranchCond::Ge => OP_JGE,
                BranchCond::LtU => OP_JLTU,
                BranchCond::GeU => OP_JGEU,
            };
            enc32(op, ra.0, rb.0, 0, simm12(off))
        }
        Jz { ra, off } => enc32(OP_JZ, ra.0, 0, 0, simm12(off)),
        Jnz { ra, off } => enc32(OP_JNZ, ra.0, 0, 0, simm12(off)),
        Loop { aa, off } => enc32(OP_LOOP, aa.0, 0, 0, simm12(off)),
        Rfe => enc32(OP_RFE, 0, 0, 0, 0),
        Syscall { num } => enc32(OP_SYSCALL, 0, 0, 0, num & 0xFFF),
        Enable => enc32(OP_ENABLE, 0, 0, 0, 0),
        Disable => enc32(OP_DISABLE, 0, 0, 0, 0),
        Mfcr { rd, csfr } => enc32(OP_MFCR, rd.0, 0, 0, csfr & 0xFFF),
        Mtcr { csfr, rs } => enc32(OP_MTCR, rs.0, 0, 0, csfr & 0xFFF),
        Debug { code } => enc32(OP_DEBUG, 0, 0, 0, u16::from(code)),
        Wait => enc32(OP_WAIT, 0, 0, 0, 0),
        Halt => enc32(OP_HALT, 0, 0, 0, 0),
    }
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
/// (only register-to-register moves lack one, and those are always sized 2),
/// or if `want_len` is 2 but the canonical encoding is 4 bytes.
#[must_use]
pub fn encode_sized(instr: &Instr, want_len: u8) -> Encoded {
    use Instr::*;
    let canonical = encode(instr);
    if canonical.len == want_len {
        return canonical;
    }
    assert!(want_len == 4, "cannot shrink {instr:?} to {want_len} bytes");
    match *instr {
        Add { rd, ra, rb } => enc32(OP_ADD, rd.0, ra.0, rb.0, 0),
        Sub { rd, ra, rb } => enc32(OP_SUB, rd.0, ra.0, rb.0, 0),
        And { rd, ra, rb } => enc32(OP_AND, rd.0, ra.0, rb.0, 0),
        Or { rd, ra, rb } => enc32(OP_OR, rd.0, ra.0, rb.0, 0),
        AddI { rd, ra, imm } => enc32(OP_ADDI, rd.0, ra.0, 0, simm12(imm)),
        Ld {
            rd,
            ab,
            off,
            width: MemWidth::Word,
            ..
        } => enc32(OP_LDW, rd.0, ab.0, 0, simm12(off)),
        St {
            rs,
            ab,
            off,
            width: MemWidth::Word,
        } => enc32(OP_STW, rs.0, ab.0, 0, simm12(off)),
        Debug { code } => enc32(OP_DEBUG, 0, 0, 0, u16::from(code)),
        ref other => panic!("no 32-bit encoding for {other:?}"),
    }
}

/// Decodes one instruction from the front of `bytes`.
///
/// Returns the instruction and its encoded length in bytes.
///
/// # Errors
///
/// Returns [`SimError::DecodeInstr`] if the opcode is unknown, and reports
/// `addr` (the caller-supplied PC) in the error.
pub fn decode(bytes: &[u8], addr: Addr) -> Result<(Instr, u8), SimError> {
    use Instr::*;
    if bytes.len() < 2 {
        return Err(SimError::DecodeInstr { addr, word: 0 });
    }
    let h = u16::from_le_bytes([bytes[0], bytes[1]]);
    if h & 1 == 0 {
        // 16-bit format.
        let op = ((h >> 1) & 0x7F) as u8;
        let r1 = ((h >> 8) & 0xF) as u8;
        let r2 = ((h >> 12) & 0xF) as u8;
        let instr = match op {
            OP16_NOP => Nop,
            OP16_MOV => MovD {
                rd: DReg(r1),
                rs: DReg(r2),
            },
            OP16_ADD => Add {
                rd: DReg(r1),
                ra: DReg(r1),
                rb: DReg(r2),
            },
            OP16_SUB => Sub {
                rd: DReg(r1),
                ra: DReg(r1),
                rb: DReg(r2),
            },
            OP16_AND => And {
                rd: DReg(r1),
                ra: DReg(r1),
                rb: DReg(r2),
            },
            OP16_OR => Or {
                rd: DReg(r1),
                ra: DReg(r1),
                rb: DReg(r2),
            },
            OP16_MOVAA => MovAA {
                ad: AReg(r1),
                a_src: AReg(r2),
            },
            OP16_MOVD2A => MovDtoA {
                ad: AReg(r1),
                rs: DReg(r2),
            },
            OP16_MOVA2D => MovAtoD {
                rd: DReg(r1),
                a_src: AReg(r2),
            },
            OP16_LDW => Ld {
                rd: DReg(r1),
                ab: AReg(r2),
                off: 0,
                width: MemWidth::Word,
                sign: false,
            },
            OP16_STW => St {
                rs: DReg(r1),
                ab: AReg(r2),
                off: 0,
                width: MemWidth::Word,
            },
            OP16_ADDI => {
                let imm = ((r2 << 4) as i8) >> 4; // sign-extend 4-bit
                AddI {
                    rd: DReg(r1),
                    ra: DReg(r1),
                    imm: i16::from(imm),
                }
            }
            OP16_RET => Ret,
            OP16_DEBUG => Debug { code: r1 },
            _ => {
                return Err(SimError::DecodeInstr {
                    addr,
                    word: u32::from(h),
                })
            }
        };
        return Ok((instr, 2));
    }
    // 32-bit format.
    if bytes.len() < 4 {
        return Err(SimError::DecodeInstr {
            addr,
            word: u32::from(h),
        });
    }
    let w = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let op = ((w >> 1) & 0x7F) as u8;
    let r1 = ((w >> 8) & 0xF) as u8;
    let r2 = ((w >> 12) & 0xF) as u8;
    let r3 = ((w >> 16) & 0xF) as u8;
    let imm12 = ((w >> 20) & 0xFFF) as u16;
    let imm16 = (w >> 16) as u16;
    let off24 = sext24(w >> 8);
    let d = DReg;
    let a = AReg;
    let instr = match op {
        OP_MOVI => MovI {
            rd: d(r1),
            imm: imm16 as i16,
        },
        OP_MOVH => MovH {
            rd: d(r1),
            imm: imm16,
        },
        OP_MOVU => MovU {
            rd: d(r1),
            imm: imm16,
        },
        OP_MOVHA => MovHA {
            ad: a(r1),
            imm: imm16,
        },
        OP_ADDIA => AddIA {
            ad: a(r1),
            imm: imm16 as i16,
        },
        OP_ORIL => OrIL {
            rd: d(r1),
            imm: imm16,
        },
        OP_LEA => Lea {
            ad: a(r1),
            ab: a(r2),
            off: sext12(imm12),
        },
        OP_ADD => Add {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_SUB => Sub {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_AND => And {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_OR => Or {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_XOR => Xor {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_MIN => Min {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_MAX => Max {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_MUL => Mul {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_MAC => Mac {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_DIV => Div {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_REM => Rem {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_SH => Sh {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_SHA => Sha {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_SHI => ShI {
            rd: d(r1),
            ra: d(r2),
            amount: sext12(imm12) as i8,
        },
        OP_ADDI => AddI {
            rd: d(r1),
            ra: d(r2),
            imm: sext12(imm12),
        },
        OP_ANDI => AndI {
            rd: d(r1),
            ra: d(r2),
            imm: imm12,
        },
        OP_ORI => OrI {
            rd: d(r1),
            ra: d(r2),
            imm: imm12,
        },
        OP_XORI => XorI {
            rd: d(r1),
            ra: d(r2),
            imm: imm12,
        },
        OP_CLZ => Clz {
            rd: d(r1),
            ra: d(r2),
        },
        OP_SEXTB => SextB {
            rd: d(r1),
            ra: d(r2),
        },
        OP_SEXTH => SextH {
            rd: d(r1),
            ra: d(r2),
        },
        OP_ZEXTB => ZextB {
            rd: d(r1),
            ra: d(r2),
        },
        OP_ZEXTH => ZextH {
            rd: d(r1),
            ra: d(r2),
        },
        OP_EXTR => Extr {
            rd: d(r1),
            ra: d(r2),
            pos: (imm12 & 0x1F) as u8,
            width: ((imm12 >> 5) & 0x1F) as u8 + 1,
        },
        OP_INSERT => Insert {
            rd: d(r1),
            rs: d(r2),
            pos: (imm12 & 0x1F) as u8,
            width: ((imm12 >> 5) & 0x1F) as u8 + 1,
        },
        OP_LT => Lt {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_LTU => LtU {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_EQ => EqR {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_NE => NeR {
            rd: d(r1),
            ra: d(r2),
            rb: d(r3),
        },
        OP_SEL => Sel {
            rd: d(r1),
            cond: d(r2),
            rs: d(r3),
        },
        OP_LDW => Ld {
            rd: d(r1),
            ab: a(r2),
            off: sext12(imm12),
            width: MemWidth::Word,
            sign: false,
        },
        OP_LDH => Ld {
            rd: d(r1),
            ab: a(r2),
            off: sext12(imm12),
            width: MemWidth::Half,
            sign: true,
        },
        OP_LDHU => Ld {
            rd: d(r1),
            ab: a(r2),
            off: sext12(imm12),
            width: MemWidth::Half,
            sign: false,
        },
        OP_LDB => Ld {
            rd: d(r1),
            ab: a(r2),
            off: sext12(imm12),
            width: MemWidth::Byte,
            sign: true,
        },
        OP_LDBU => Ld {
            rd: d(r1),
            ab: a(r2),
            off: sext12(imm12),
            width: MemWidth::Byte,
            sign: false,
        },
        OP_STW => St {
            rs: d(r1),
            ab: a(r2),
            off: sext12(imm12),
            width: MemWidth::Word,
        },
        OP_STH => St {
            rs: d(r1),
            ab: a(r2),
            off: sext12(imm12),
            width: MemWidth::Half,
        },
        OP_STB => St {
            rs: d(r1),
            ab: a(r2),
            off: sext12(imm12),
            width: MemWidth::Byte,
        },
        OP_LDA => LdA {
            ad: a(r1),
            ab: a(r2),
            off: sext12(imm12),
        },
        OP_STA => StA {
            a_src: a(r1),
            ab: a(r2),
            off: sext12(imm12),
        },
        OP_LDWPI => LdWPostInc {
            rd: d(r1),
            ab: a(r2),
            inc: sext12(imm12),
        },
        OP_STWPI => StWPostInc {
            rs: d(r1),
            ab: a(r2),
            inc: sext12(imm12),
        },
        OP_J => J { off: off24 },
        OP_JL => Jl { off: off24 },
        OP_CALL => Call { off: off24 },
        OP_JI => Ji { aa: a(r1) },
        OP_CALLI => CallI { aa: a(r1) },
        OP_RET => Ret,
        OP_JEQ => JCond {
            cond: BranchCond::Eq,
            ra: d(r1),
            rb: d(r2),
            off: sext12(imm12),
        },
        OP_JNE => JCond {
            cond: BranchCond::Ne,
            ra: d(r1),
            rb: d(r2),
            off: sext12(imm12),
        },
        OP_JLT => JCond {
            cond: BranchCond::Lt,
            ra: d(r1),
            rb: d(r2),
            off: sext12(imm12),
        },
        OP_JGE => JCond {
            cond: BranchCond::Ge,
            ra: d(r1),
            rb: d(r2),
            off: sext12(imm12),
        },
        OP_JLTU => JCond {
            cond: BranchCond::LtU,
            ra: d(r1),
            rb: d(r2),
            off: sext12(imm12),
        },
        OP_JGEU => JCond {
            cond: BranchCond::GeU,
            ra: d(r1),
            rb: d(r2),
            off: sext12(imm12),
        },
        OP_JZ => Jz {
            ra: d(r1),
            off: sext12(imm12),
        },
        OP_JNZ => Jnz {
            ra: d(r1),
            off: sext12(imm12),
        },
        OP_LOOP => Loop {
            aa: a(r1),
            off: sext12(imm12),
        },
        OP_RFE => Rfe,
        OP_SYSCALL => Syscall { num: imm12 },
        OP_ENABLE => Enable,
        OP_DISABLE => Disable,
        OP_MFCR => Mfcr {
            rd: d(r1),
            csfr: imm12,
        },
        OP_MTCR => Mtcr {
            csfr: imm12,
            rs: d(r1),
        },
        OP_DEBUG => Debug {
            code: (imm12 & 0xFF) as u8,
        },
        OP_WAIT => Wait,
        OP_HALT => Halt,
        _ => return Err(SimError::DecodeInstr { addr, word: w }),
    };
    Ok((instr, 4))
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn sign_extension_helpers() {
        assert_eq!(sext12(0xFFF), -1);
        assert_eq!(sext12(0x800), -2048);
        assert_eq!(sext12(0x7FF), 2047);
        assert_eq!(sext24(0x00FF_FFFF), -1);
        assert_eq!(sext24(0x0080_0000), -(1 << 23));
    }
}

//! The PCP-R instruction set: a compact channel-programmed I/O processor ISA.
//!
//! The real PCP (Peripheral Control Processor) on AUDO-class devices runs
//! small channel programs out of its own code memory, triggered by service
//! requests, with per-channel register contexts held in parameter RAM
//! (PRAM). PCP-R keeps that structure with a simplified 32-bit fixed-width
//! encoding:
//!
//! ```text
//! 31    26 25  23 22  20 19    16 15             0
//! [  op6  ][ r1  ][ r2  ][ unused ][     imm16    ]
//! ```

use audo_common::{Addr, SimError};

/// A PCP channel register `r0..r7` (per-channel context).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PReg(pub u8);

impl std::fmt::Display for PReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A decoded PCP-R instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PcpInstr {
    /// `r1 = zero_extend(imm16)`.
    Ldi { r1: PReg, imm: u16 },
    /// `r1 = (imm16 << 16) | (r1 & 0xFFFF)` — set the high half.
    Ldih { r1: PReg, imm: u16 },
    /// `r1 = r1 + r2`.
    Add { r1: PReg, r2: PReg },
    /// `r1 = r1 + sign_extend(imm16)`.
    Addi { r1: PReg, imm: i16 },
    /// `r1 = r1 - r2`.
    Sub { r1: PReg, r2: PReg },
    /// `r1 = r1 & r2`.
    And { r1: PReg, r2: PReg },
    /// `r1 = r1 | r2`.
    Or { r1: PReg, r2: PReg },
    /// `r1 = r1 ^ r2`.
    Xor { r1: PReg, r2: PReg },
    /// `r1 = r1 << imm` (imm 0..=31).
    Shl { r1: PReg, imm: u8 },
    /// `r1 = r1 >> imm` logical.
    Shr { r1: PReg, imm: u8 },
    /// `r1 = r1 * r2` (low 32 bits).
    Mul { r1: PReg, r2: PReg },
    /// `r1 = min(r1, r2)` signed.
    Min { r1: PReg, r2: PReg },
    /// `r1 = max(r1, r2)` signed.
    Max { r1: PReg, r2: PReg },
    /// FPI word load: `r1 = mem[r2 + sign_extend(imm16)]` (via the crossbar).
    Ld { r1: PReg, r2: PReg, off: i16 },
    /// FPI word store: `mem[r2 + sign_extend(imm16)] = r1`.
    St { r1: PReg, r2: PReg, off: i16 },
    /// PRAM word load: `r1 = pram[imm16]` (local, single-cycle).
    Ldp { r1: PReg, idx: u16 },
    /// PRAM word store: `pram[imm16] = r1`.
    Stp { r1: PReg, idx: u16 },
    /// Absolute jump to CMEM word index `imm16`.
    Jmp { target: u16 },
    /// Jump if `r1 != 0`.
    Jnz { r1: PReg, target: u16 },
    /// Jump if `r1 == 0`.
    Jz { r1: PReg, target: u16 },
    /// Raise service request node `imm16 & 0xFF` (e.g. to notify TriCore).
    Srq { srn: u8 },
    /// Channel program done; context is saved and the channel sleeps.
    Exit,
    /// No operation.
    Nop,
}

const OP_LDI: u32 = 0;
const OP_LDIH: u32 = 1;
const OP_ADD: u32 = 2;
const OP_ADDI: u32 = 3;
const OP_SUB: u32 = 4;
const OP_AND: u32 = 5;
const OP_OR: u32 = 6;
const OP_XOR: u32 = 7;
const OP_SHL: u32 = 8;
const OP_SHR: u32 = 9;
const OP_MUL: u32 = 10;
const OP_MIN: u32 = 11;
const OP_MAX: u32 = 12;
const OP_LD: u32 = 13;
const OP_ST: u32 = 14;
const OP_LDP: u32 = 15;
const OP_STP: u32 = 16;
const OP_JMP: u32 = 17;
const OP_JNZ: u32 = 18;
const OP_JZ: u32 = 19;
const OP_SRQ: u32 = 20;
const OP_EXIT: u32 = 21;
const OP_NOP: u32 = 22;

fn pack(op: u32, r1: u8, r2: u8, imm: u16) -> u32 {
    (op << 26) | (u32::from(r1) << 23) | (u32::from(r2) << 20) | u32::from(imm)
}

impl PcpInstr {
    /// Encodes the instruction into its 32-bit word.
    #[must_use]
    pub fn encode(&self) -> u32 {
        use PcpInstr::*;
        match *self {
            Ldi { r1, imm } => pack(OP_LDI, r1.0, 0, imm),
            Ldih { r1, imm } => pack(OP_LDIH, r1.0, 0, imm),
            Add { r1, r2 } => pack(OP_ADD, r1.0, r2.0, 0),
            Addi { r1, imm } => pack(OP_ADDI, r1.0, 0, imm as u16),
            Sub { r1, r2 } => pack(OP_SUB, r1.0, r2.0, 0),
            And { r1, r2 } => pack(OP_AND, r1.0, r2.0, 0),
            Or { r1, r2 } => pack(OP_OR, r1.0, r2.0, 0),
            Xor { r1, r2 } => pack(OP_XOR, r1.0, r2.0, 0),
            Shl { r1, imm } => pack(OP_SHL, r1.0, 0, u16::from(imm)),
            Shr { r1, imm } => pack(OP_SHR, r1.0, 0, u16::from(imm)),
            Mul { r1, r2 } => pack(OP_MUL, r1.0, r2.0, 0),
            Min { r1, r2 } => pack(OP_MIN, r1.0, r2.0, 0),
            Max { r1, r2 } => pack(OP_MAX, r1.0, r2.0, 0),
            Ld { r1, r2, off } => pack(OP_LD, r1.0, r2.0, off as u16),
            St { r1, r2, off } => pack(OP_ST, r1.0, r2.0, off as u16),
            Ldp { r1, idx } => pack(OP_LDP, r1.0, 0, idx),
            Stp { r1, idx } => pack(OP_STP, r1.0, 0, idx),
            Jmp { target } => pack(OP_JMP, 0, 0, target),
            Jnz { r1, target } => pack(OP_JNZ, r1.0, 0, target),
            Jz { r1, target } => pack(OP_JZ, r1.0, 0, target),
            Srq { srn } => pack(OP_SRQ, 0, 0, u16::from(srn)),
            Exit => pack(OP_EXIT, 0, 0, 0),
            Nop => pack(OP_NOP, 0, 0, 0),
        }
    }

    /// Decodes a 32-bit CMEM word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DecodeInstr`] for unknown opcodes; `addr` is the
    /// reporting address (CMEM word index).
    pub fn decode(word: u32, addr: Addr) -> Result<PcpInstr, SimError> {
        use PcpInstr::*;
        let op = word >> 26;
        let r1 = PReg(((word >> 23) & 7) as u8);
        let r2 = PReg(((word >> 20) & 7) as u8);
        let imm = (word & 0xFFFF) as u16;
        Ok(match op {
            OP_LDI => Ldi { r1, imm },
            OP_LDIH => Ldih { r1, imm },
            OP_ADD => Add { r1, r2 },
            OP_ADDI => Addi {
                r1,
                imm: imm as i16,
            },
            OP_SUB => Sub { r1, r2 },
            OP_AND => And { r1, r2 },
            OP_OR => Or { r1, r2 },
            OP_XOR => Xor { r1, r2 },
            OP_SHL => Shl {
                r1,
                imm: (imm & 31) as u8,
            },
            OP_SHR => Shr {
                r1,
                imm: (imm & 31) as u8,
            },
            OP_MUL => Mul { r1, r2 },
            OP_MIN => Min { r1, r2 },
            OP_MAX => Max { r1, r2 },
            OP_LD => Ld {
                r1,
                r2,
                off: imm as i16,
            },
            OP_ST => St {
                r1,
                r2,
                off: imm as i16,
            },
            OP_LDP => Ldp { r1, idx: imm },
            OP_STP => Stp { r1, idx: imm },
            OP_JMP => Jmp { target: imm },
            OP_JNZ => Jnz { r1, target: imm },
            OP_JZ => Jz { r1, target: imm },
            OP_SRQ => Srq {
                srn: (imm & 0xFF) as u8,
            },
            OP_EXIT => Exit,
            OP_NOP => Nop,
            _ => return Err(SimError::DecodeInstr { addr, word }),
        })
    }
}

/// Builder for PCP channel programs with symbolic jump labels.
///
/// # Examples
///
/// ```
/// use audo_pcp::isa::{PcpInstr, PReg, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// b.push(PcpInstr::Ldi { r1: PReg(0), imm: 5 });
/// let head = b.label();
/// b.push(PcpInstr::Addi { r1: PReg(0), imm: -1 });
/// b.jnz(PReg(0), head);
/// b.push(PcpInstr::Exit);
/// let words = b.finish(0);
/// assert_eq!(words.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<PcpInstr>,
    fixups: Vec<(usize, usize)>, // (instr index, label id)
    labels: Vec<Option<usize>>,
}

/// A forward- or backward-referenced label id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Appends an instruction.
    pub fn push(&mut self, i: PcpInstr) {
        self.instrs.push(i);
    }

    /// Binds a label at the current position.
    pub fn label(&mut self) -> Label {
        self.labels.push(Some(self.instrs.len()));
        Label(self.labels.len() - 1)
    }

    /// Declares a label to be bound later with [`ProgramBuilder::bind`].
    pub fn forward_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds a previously declared forward label here.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, l: Label) {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.instrs.len());
    }

    /// Appends `JNZ r1, label`.
    pub fn jnz(&mut self, r1: PReg, l: Label) {
        self.fixups.push((self.instrs.len(), l.0));
        self.instrs.push(PcpInstr::Jnz { r1, target: 0 });
    }

    /// Appends `JZ r1, label`.
    pub fn jz(&mut self, r1: PReg, l: Label) {
        self.fixups.push((self.instrs.len(), l.0));
        self.instrs.push(PcpInstr::Jz { r1, target: 0 });
    }

    /// Resolves labels (relative to `base_word`, the CMEM load offset) and
    /// returns the encoded words.
    ///
    /// # Panics
    ///
    /// Panics if a forward label was never bound.
    #[must_use]
    pub fn finish(mut self, base_word: u16) -> Vec<u32> {
        for (idx, label) in self.fixups.clone() {
            let pos = self.labels[label].expect("unbound label") as u16 + base_word;
            self.instrs[idx] = match self.instrs[idx] {
                PcpInstr::Jmp { .. } => PcpInstr::Jmp { target: pos },
                PcpInstr::Jnz { r1, .. } => PcpInstr::Jnz { r1, target: pos },
                PcpInstr::Jz { r1, .. } => PcpInstr::Jz { r1, target: pos },
                other => other,
            };
        }
        self.instrs.iter().map(PcpInstr::encode).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_ops() {
        let cases = [
            PcpInstr::Ldi {
                r1: PReg(7),
                imm: 0xFFFF,
            },
            PcpInstr::Ldih {
                r1: PReg(1),
                imm: 0xD000,
            },
            PcpInstr::Add {
                r1: PReg(1),
                r2: PReg(2),
            },
            PcpInstr::Addi {
                r1: PReg(1),
                imm: -3,
            },
            PcpInstr::Sub {
                r1: PReg(3),
                r2: PReg(4),
            },
            PcpInstr::And {
                r1: PReg(5),
                r2: PReg(6),
            },
            PcpInstr::Or {
                r1: PReg(0),
                r2: PReg(7),
            },
            PcpInstr::Xor {
                r1: PReg(2),
                r2: PReg(2),
            },
            PcpInstr::Shl {
                r1: PReg(1),
                imm: 31,
            },
            PcpInstr::Shr {
                r1: PReg(1),
                imm: 1,
            },
            PcpInstr::Mul {
                r1: PReg(2),
                r2: PReg(3),
            },
            PcpInstr::Min {
                r1: PReg(2),
                r2: PReg(3),
            },
            PcpInstr::Max {
                r1: PReg(2),
                r2: PReg(3),
            },
            PcpInstr::Ld {
                r1: PReg(1),
                r2: PReg(2),
                off: -4,
            },
            PcpInstr::St {
                r1: PReg(1),
                r2: PReg(2),
                off: 8,
            },
            PcpInstr::Ldp {
                r1: PReg(1),
                idx: 100,
            },
            PcpInstr::Stp {
                r1: PReg(1),
                idx: 200,
            },
            PcpInstr::Jmp { target: 42 },
            PcpInstr::Jnz {
                r1: PReg(3),
                target: 7,
            },
            PcpInstr::Jz {
                r1: PReg(3),
                target: 9,
            },
            PcpInstr::Srq { srn: 12 },
            PcpInstr::Exit,
            PcpInstr::Nop,
        ];
        for c in cases {
            let w = c.encode();
            assert_eq!(PcpInstr::decode(w, Addr(0)).unwrap(), c, "{c:?}");
        }
    }

    #[test]
    fn unknown_opcode_errors() {
        let w = 63u32 << 26;
        assert!(PcpInstr::decode(w, Addr(4)).is_err());
    }

    #[test]
    fn builder_resolves_forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        let done = b.forward_label();
        let head = b.label(); // index 0
        b.push(PcpInstr::Addi {
            r1: PReg(0),
            imm: -1,
        });
        b.jz(PReg(0), done);
        b.jnz(PReg(1), head);
        b.bind(done);
        b.push(PcpInstr::Exit);
        let words = b.finish(10);
        let decoded: Vec<_> = words
            .iter()
            .map(|&w| PcpInstr::decode(w, Addr(0)).unwrap())
            .collect();
        assert_eq!(
            decoded[1],
            PcpInstr::Jz {
                r1: PReg(0),
                target: 13
            }
        );
        assert_eq!(
            decoded[2],
            PcpInstr::Jnz {
                r1: PReg(1),
                target: 10
            }
        );
    }
}

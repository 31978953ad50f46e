//! The TC-R instruction set: a TriCore-flavoured 32-bit automotive RISC ISA.
//!
//! The real TriCore 1.3 is a tri-issue, dual-register-bank (data/address)
//! architecture with mixed 16/32-bit instruction encodings, hardware loops,
//! and a memory-resident context-save architecture (CSA). TC-R reproduces
//! those *structural* properties — they are what the profiling methodology
//! observes — without copying the proprietary encoding:
//!
//! * 16 data registers `D0..D15` and 16 address registers `A0..A15`
//!   (`A10` = stack pointer, `A11` = return address),
//! * 16-bit and 32-bit instruction formats (bit 0 of the first halfword
//!   selects the length),
//! * three issue pipes: integer ([`Pipe::Ip`]), load/store ([`Pipe::Ls`])
//!   and loop ([`Pipe::Lp`]),
//! * `CALL`/`RET` and interrupt entry spill an *upper context* of 16 words
//!   to a linked list of context save areas in memory,
//! * a `LOOP` instruction executed by the loop pipe with zero steady-state
//!   overhead.

use std::fmt;

/// A data register `D0..D15`.
///
/// # Examples
///
/// ```
/// use audo_tricore::isa::DReg;
/// assert_eq!(DReg(3).to_string(), "d3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DReg(pub u8);

/// An address register `A0..A15`.
///
/// `A10` is the stack pointer and `A11` the return-address register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AReg(pub u8);

impl AReg {
    /// The stack pointer, `A10`.
    pub const SP: AReg = AReg(10);
    /// The return-address register, `A11`.
    pub const RA: AReg = AReg(11);
}

impl fmt::Display for DReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl fmt::Display for AReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Core special-function register numbers for `MFCR`/`MTCR`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Csfr {
    /// Program status word.
    Psw = 0,
    /// Interrupt control register (`IE` and current priority `CCPN`).
    Icr = 2,
    /// Base address of the interrupt vector table.
    Biv = 3,
    /// Base address of the trap vector table.
    Btv = 4,
    /// Free CSA list head pointer.
    Fcx = 5,
    /// Previous context pointer.
    Pcx = 6,
    /// Core identification register.
    CoreId = 9,
    /// System configuration.
    Syscon = 10,
}

impl Csfr {
    /// Converts a raw CSFR number into a known register.
    #[must_use]
    pub fn from_u16(v: u16) -> Option<Csfr> {
        Some(match v {
            0 => Csfr::Psw,
            2 => Csfr::Icr,
            3 => Csfr::Biv,
            4 => Csfr::Btv,
            5 => Csfr::Fcx,
            6 => Csfr::Pcx,
            9 => Csfr::CoreId,
            10 => Csfr::Syscon,
            _ => return None,
        })
    }
}

/// Condition codes for compare-and-branch instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `ra == rb`
    Eq,
    /// `ra != rb`
    Ne,
    /// `ra < rb` (signed)
    Lt,
    /// `ra >= rb` (signed)
    Ge,
    /// `ra < rb` (unsigned)
    LtU,
    /// `ra >= rb` (unsigned)
    GeU,
}

impl fmt::Display for BranchCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchCond::Eq => "eq",
            BranchCond::Ne => "ne",
            BranchCond::Lt => "lt",
            BranchCond::Ge => "ge",
            BranchCond::LtU => "ltu",
            BranchCond::GeU => "geu",
        };
        f.write_str(s)
    }
}

/// Memory access widths for load/store instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 8-bit.
    Byte,
    /// 16-bit.
    Half,
    /// 32-bit.
    Word,
}

impl MemWidth {
    /// Access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u8 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }
}

/// A decoded TC-R instruction.
///
/// Execution semantics and pipeline classification match on it directly;
/// the encoder, decoder, assembler and disassembler reach it only through
/// the instruction-form table (`forms.rs`), which builds and destructures
/// each variant once per encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Instr {
    // ------------------------------------------------------------------
    // Moves and immediates
    // ------------------------------------------------------------------
    /// `rd = rs` (data).
    MovD { rd: DReg, rs: DReg },
    /// `ad = as` (address).
    MovAA { ad: AReg, a_src: AReg },
    /// `ad = rs` (data to address bank).
    MovDtoA { ad: AReg, rs: DReg },
    /// `rd = as` (address to data bank).
    MovAtoD { rd: DReg, a_src: AReg },
    /// `rd = sign_extend(imm16)`.
    MovI { rd: DReg, imm: i16 },
    /// `rd = imm16 << 16`.
    MovH { rd: DReg, imm: u16 },
    /// `rd = zero_extend(imm16)`.
    MovU { rd: DReg, imm: u16 },
    /// `ad = imm16 << 16` (address-bank variant for building pointers).
    MovHA { ad: AReg, imm: u16 },
    /// `ad += sign_extend(imm16)` — pairs with [`Instr::MovHA`] to build any
    /// 32-bit address in two instructions.
    AddIA { ad: AReg, imm: i16 },
    /// `rd |= zero_extend(imm16)` — pairs with [`Instr::MovH`] to build any
    /// 32-bit constant in two instructions.
    OrIL { rd: DReg, imm: u16 },
    /// `ad = ab + simm12` (address arithmetic, LS pipe).
    Lea { ad: AReg, ab: AReg, off: i16 },

    // ------------------------------------------------------------------
    // Integer ALU
    // ------------------------------------------------------------------
    /// `rd = ra + rb`.
    Add { rd: DReg, ra: DReg, rb: DReg },
    /// `rd = ra - rb`.
    Sub { rd: DReg, ra: DReg, rb: DReg },
    /// `rd = ra & rb`.
    And { rd: DReg, ra: DReg, rb: DReg },
    /// `rd = ra | rb`.
    Or { rd: DReg, ra: DReg, rb: DReg },
    /// `rd = ra ^ rb`.
    Xor { rd: DReg, ra: DReg, rb: DReg },
    /// `rd = min(ra, rb)` signed.
    Min { rd: DReg, ra: DReg, rb: DReg },
    /// `rd = max(ra, rb)` signed.
    Max { rd: DReg, ra: DReg, rb: DReg },
    /// `rd = ra * rb` (low 32 bits; 2-cycle result latency).
    Mul { rd: DReg, ra: DReg, rb: DReg },
    /// `rd += ra * rb` (multiply-accumulate; 2-cycle result latency).
    Mac { rd: DReg, ra: DReg, rb: DReg },
    /// `rd = ra / rb` signed (8-cycle, non-pipelined). Division by zero
    /// yields `0` and overflow wraps, so the instruction never traps.
    Div { rd: DReg, ra: DReg, rb: DReg },
    /// `rd = ra % rb` signed (8-cycle, non-pipelined).
    Rem { rd: DReg, ra: DReg, rb: DReg },
    /// Dynamic shift: positive `rb` shifts left, negative shifts right
    /// (logical), like TriCore `SH`.
    Sh { rd: DReg, ra: DReg, rb: DReg },
    /// Dynamic arithmetic shift (negative amounts shift right arithmetic).
    Sha { rd: DReg, ra: DReg, rb: DReg },
    /// Immediate shift with `SH` semantics.
    ShI { rd: DReg, ra: DReg, amount: i8 },
    /// `rd = ra + simm12`.
    AddI { rd: DReg, ra: DReg, imm: i16 },
    /// `rd = ra & uimm12`.
    AndI { rd: DReg, ra: DReg, imm: u16 },
    /// `rd = ra | uimm12`.
    OrI { rd: DReg, ra: DReg, imm: u16 },
    /// `rd = ra ^ uimm12`.
    XorI { rd: DReg, ra: DReg, imm: u16 },
    /// `rd = leading_zeros(ra)`.
    Clz { rd: DReg, ra: DReg },
    /// Sign-extend the low 8 bits.
    SextB { rd: DReg, ra: DReg },
    /// Sign-extend the low 16 bits.
    SextH { rd: DReg, ra: DReg },
    /// Zero-extend the low 8 bits.
    ZextB { rd: DReg, ra: DReg },
    /// Zero-extend the low 16 bits.
    ZextH { rd: DReg, ra: DReg },
    /// `rd = (ra >> pos) & ((1 << width) - 1)` — bit-field extract.
    Extr {
        rd: DReg,
        ra: DReg,
        pos: u8,
        width: u8,
    },
    /// Insert the low `width` bits of `rs` into `rd` at `pos`.
    Insert {
        rd: DReg,
        rs: DReg,
        pos: u8,
        width: u8,
    },
    /// `rd = (ra < rb) ? 1 : 0` signed.
    Lt { rd: DReg, ra: DReg, rb: DReg },
    /// `rd = (ra < rb) ? 1 : 0` unsigned.
    LtU { rd: DReg, ra: DReg, rb: DReg },
    /// `rd = (ra == rb) ? 1 : 0`.
    EqR { rd: DReg, ra: DReg, rb: DReg },
    /// `rd = (ra != rb) ? 1 : 0`.
    NeR { rd: DReg, ra: DReg, rb: DReg },
    /// `rd = (cond != 0) ? rs : rd` — conditional select.
    Sel { rd: DReg, cond: DReg, rs: DReg },

    // ------------------------------------------------------------------
    // Loads and stores (LS pipe)
    // ------------------------------------------------------------------
    /// Load from `[ab + off]` into a data register.
    ///
    /// `sign` selects sign extension for byte/half loads; word loads ignore
    /// it and are canonically encoded with `sign: false`.
    Ld {
        rd: DReg,
        ab: AReg,
        off: i16,
        width: MemWidth,
        sign: bool,
    },
    /// Store a data register to `[ab + off]`.
    St {
        rs: DReg,
        ab: AReg,
        off: i16,
        width: MemWidth,
    },
    /// Word load with post-increment: `rd = [ab]; ab += inc`.
    LdWPostInc { rd: DReg, ab: AReg, inc: i16 },
    /// Word store with post-increment: `[ab] = rs; ab += inc`.
    StWPostInc { rs: DReg, ab: AReg, inc: i16 },
    /// Load an address register from `[ab + off]`.
    LdA { ad: AReg, ab: AReg, off: i16 },
    /// Store an address register to `[ab + off]`.
    StA { a_src: AReg, ab: AReg, off: i16 },

    // ------------------------------------------------------------------
    // Control flow
    // ------------------------------------------------------------------
    /// Unconditional jump, `pc += 2 * off` (halfword-scaled 24-bit offset).
    J { off: i32 },
    /// Light leaf call: `A11 = return address; pc += 2 * off`. No CSA.
    Jl { off: i32 },
    /// Full call: spill upper context to the CSA list, then jump.
    Call { off: i32 },
    /// Indirect jump to `aa`.
    Ji { aa: AReg },
    /// Indirect full call to `aa` (CSA spill).
    CallI { aa: AReg },
    /// Return: `pc = A11`, restore upper context from the CSA list.
    Ret,
    /// Compare-and-branch: `if cond(ra, rb) pc += 2 * off`.
    JCond {
        cond: BranchCond,
        ra: DReg,
        rb: DReg,
        off: i16,
    },
    /// Branch if `ra == 0`.
    Jz { ra: DReg, off: i16 },
    /// Branch if `ra != 0`.
    Jnz { ra: DReg, off: i16 },
    /// Hardware loop: `aa -= 1; if aa != 0 pc += 2 * off` (loop pipe;
    /// zero steady-state overhead once the loop buffer is primed).
    Loop { aa: AReg, off: i16 },

    // ------------------------------------------------------------------
    // System
    // ------------------------------------------------------------------
    /// Return from exception/interrupt: restore upper context, pop priority.
    Rfe,
    /// Synchronous trap to the BTV vector; `D15` receives `num`.
    Syscall { num: u16 },
    /// Globally enable interrupts (`ICR.IE = 1`).
    Enable,
    /// Globally disable interrupts (`ICR.IE = 0`).
    Disable,
    /// Read a core special-function register.
    Mfcr { rd: DReg, csfr: u16 },
    /// Write a core special-function register (serializing).
    Mtcr { csfr: u16, rs: DReg },
    /// Emit an MCDS debug marker event carrying `code`.
    Debug { code: u8 },
    /// Suspend execution until an interrupt is pending.
    Wait,
    /// Stop the simulation (testbench convenience; not a real TriCore op).
    Halt,
    /// No operation.
    Nop,
}

/// Which execution pipe an instruction issues to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pipe {
    /// Integer pipeline (ALU, multiply/divide, data-bank branches, system).
    Ip,
    /// Load/store pipeline (memory, address arithmetic, address moves).
    Ls,
    /// Loop pipeline (the `LOOP` instruction).
    Lp,
}

/// Coarse instruction classification used by the retired-instruction mix
/// counters (observability layer).
///
/// Every [`Instr`] variant maps to exactly one class via [`Instr::class`].
/// The granularity follows the buckets an architect reads off a workload
/// characterisation: register moves and immediates, single-cycle ALU ops,
/// multi-cycle multiply/divide, loads, stores, control flow, and system /
/// CSFR instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum InstrClass {
    /// Register-to-register moves, immediate loads and address arithmetic
    /// that carries no data dependency through the integer pipe.
    Move,
    /// Single-cycle integer ALU operations (arithmetic, logic, shifts,
    /// comparisons, bit-field ops).
    Alu,
    /// Multiply, multiply-accumulate, divide and remainder.
    MulDiv,
    /// Memory loads (data and address registers).
    Load,
    /// Memory stores (data and address registers).
    Store,
    /// Jumps, calls, returns and the hardware loop.
    ControlFlow,
    /// System instructions: traps, interrupt control, CSFR access,
    /// `DEBUG`/`WAIT`/`HALT`/`NOP`.
    System,
}

impl InstrClass {
    /// Number of classes (length of a per-class counter array).
    pub const COUNT: usize = 7;

    /// All classes in counter-index order.
    pub const ALL: [InstrClass; InstrClass::COUNT] = [
        InstrClass::Move,
        InstrClass::Alu,
        InstrClass::MulDiv,
        InstrClass::Load,
        InstrClass::Store,
        InstrClass::ControlFlow,
        InstrClass::System,
    ];

    /// Stable lower-case label, suitable as a metric-name component.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InstrClass::Move => "move",
            InstrClass::Alu => "alu",
            InstrClass::MulDiv => "muldiv",
            InstrClass::Load => "load",
            InstrClass::Store => "store",
            InstrClass::ControlFlow => "control_flow",
            InstrClass::System => "system",
        }
    }

    /// Index into a `[u64; InstrClass::COUNT]` counter array.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl Instr {
    /// Returns the pipe this instruction issues to.
    ///
    /// The assignment mirrors TriCore 1.3: memory operations and
    /// address-register arithmetic go to the load/store pipe, `LOOP` to the
    /// loop pipe and everything else to the integer pipe.
    #[must_use]
    pub fn pipe(&self) -> Pipe {
        use Instr::*;
        match self {
            Ld { .. }
            | St { .. }
            | LdWPostInc { .. }
            | StWPostInc { .. }
            | LdA { .. }
            | StA { .. }
            | Lea { .. }
            | MovAA { .. }
            | MovDtoA { .. }
            | MovHA { .. }
            | AddIA { .. } => Pipe::Ls,
            Loop { .. } => Pipe::Lp,
            _ => Pipe::Ip,
        }
    }

    /// Returns `true` for instructions that may redirect the program counter.
    #[must_use]
    pub fn is_control_flow(&self) -> bool {
        use Instr::*;
        matches!(
            self,
            J { .. }
                | Jl { .. }
                | Call { .. }
                | Ji { .. }
                | CallI { .. }
                | Ret
                | JCond { .. }
                | Jz { .. }
                | Jnz { .. }
                | Loop { .. }
                | Rfe
                | Syscall { .. }
        )
    }

    /// Returns `true` for conditional branches (including `LOOP`).
    #[must_use]
    pub fn is_conditional(&self) -> bool {
        matches!(
            self,
            Instr::JCond { .. } | Instr::Jz { .. } | Instr::Jnz { .. } | Instr::Loop { .. }
        )
    }

    /// Returns `true` if the instruction serializes the pipeline
    /// (context-save operations and CSFR writes).
    #[must_use]
    pub fn is_serializing(&self) -> bool {
        matches!(
            self,
            Instr::Call { .. }
                | Instr::CallI { .. }
                | Instr::Ret
                | Instr::Rfe
                | Instr::Syscall { .. }
                | Instr::Mtcr { .. }
        )
    }

    /// Returns `true` if the instruction performs a data-memory access
    /// (loads, stores and the CSA traffic of call/return).
    #[must_use]
    pub fn is_memory(&self) -> bool {
        use Instr::*;
        matches!(
            self,
            Ld { .. }
                | St { .. }
                | LdWPostInc { .. }
                | StWPostInc { .. }
                | LdA { .. }
                | StA { .. }
                | Call { .. }
                | CallI { .. }
                | Ret
                | Rfe
                | Syscall { .. }
        )
    }

    /// Returns `true` for plain data stores — instructions that write
    /// memory without redirecting control flow (context-save traffic from
    /// calls/returns is excluded; those are [`Instr::is_serializing`]).
    ///
    /// The ISS decode cache uses this to know when a predecoded basic
    /// block must re-validate its memory generation mid-block: only a
    /// plain store can silently overwrite code the block has yet to
    /// execute.
    #[must_use]
    pub fn is_plain_store(&self) -> bool {
        matches!(
            self,
            Instr::St { .. } | Instr::StWPostInc { .. } | Instr::StA { .. }
        )
    }

    /// Returns the coarse [`InstrClass`] of this instruction, used by the
    /// observability layer's retired-instruction mix (folded from the
    /// per-slot counts by [`crate::opcodes::opcode_class`]).
    #[must_use]
    pub fn class(&self) -> InstrClass {
        use Instr::*;
        match self {
            MovD { .. }
            | MovAA { .. }
            | MovDtoA { .. }
            | MovAtoD { .. }
            | MovI { .. }
            | MovH { .. }
            | MovU { .. }
            | MovHA { .. }
            | AddIA { .. }
            | OrIL { .. }
            | Lea { .. } => InstrClass::Move,
            Add { .. }
            | Sub { .. }
            | And { .. }
            | Or { .. }
            | Xor { .. }
            | Min { .. }
            | Max { .. }
            | Sh { .. }
            | Sha { .. }
            | ShI { .. }
            | AddI { .. }
            | AndI { .. }
            | OrI { .. }
            | XorI { .. }
            | Clz { .. }
            | SextB { .. }
            | SextH { .. }
            | ZextB { .. }
            | ZextH { .. }
            | Extr { .. }
            | Insert { .. }
            | Lt { .. }
            | LtU { .. }
            | EqR { .. }
            | NeR { .. }
            | Sel { .. } => InstrClass::Alu,
            Mul { .. } | Mac { .. } | Div { .. } | Rem { .. } => InstrClass::MulDiv,
            Ld { .. } | LdWPostInc { .. } | LdA { .. } => InstrClass::Load,
            St { .. } | StWPostInc { .. } | StA { .. } => InstrClass::Store,
            J { .. }
            | Jl { .. }
            | Call { .. }
            | Ji { .. }
            | CallI { .. }
            | Ret
            | JCond { .. }
            | Jz { .. }
            | Jnz { .. }
            | Loop { .. } => InstrClass::ControlFlow,
            Rfe
            | Syscall { .. }
            | Enable
            | Disable
            | Mfcr { .. }
            | Mtcr { .. }
            | Debug { .. }
            | Wait
            | Halt
            | Nop => InstrClass::System,
        }
    }
}

/// A reference to a register in either bank, for hazard tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegRef {
    /// Data register.
    D(u8),
    /// Address register.
    A(u8),
}

/// A small fixed-capacity list of register references (avoids allocation in
/// the pipeline's per-instruction hazard checks).
#[derive(Debug, Clone, Copy, Default)]
pub struct RegList {
    regs: [Option<RegRef>; 4],
    len: u8,
}

impl RegList {
    fn push(&mut self, r: RegRef) {
        self.regs[self.len as usize] = Some(r);
        self.len += 1;
    }

    /// Iterates over the contained register references.
    #[inline(always)]
    pub fn iter(&self) -> impl Iterator<Item = RegRef> + '_ {
        self.regs[..self.len as usize]
            .iter()
            .map(|r| r.expect("filled slot"))
    }

    /// Returns `true` if `r` is in the list.
    #[must_use]
    pub fn contains(&self, r: RegRef) -> bool {
        self.iter().any(|x| x == r)
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Instr {
    /// Registers this instruction reads.
    ///
    /// Serializing instructions (CALL/RET/RFE/SYSCALL) touch the whole upper
    /// context; they report only their explicitly named registers because
    /// the pipeline issues them alone anyway.
    #[must_use]
    pub fn reads(&self) -> RegList {
        use Instr::*;
        use RegRef::{A, D};
        let mut l = RegList::default();
        match *self {
            MovD { rs, .. } => l.push(D(rs.0)),
            MovAA { a_src, .. } => l.push(A(a_src.0)),
            MovDtoA { rs, .. } => l.push(D(rs.0)),
            MovAtoD { a_src, .. } => l.push(A(a_src.0)),
            AddIA { ad, .. } => l.push(A(ad.0)),
            OrIL { rd, .. } => l.push(D(rd.0)),
            Lea { ab, .. } => l.push(A(ab.0)),
            Add { ra, rb, .. }
            | Sub { ra, rb, .. }
            | And { ra, rb, .. }
            | Or { ra, rb, .. }
            | Xor { ra, rb, .. }
            | Min { ra, rb, .. }
            | Max { ra, rb, .. }
            | Mul { ra, rb, .. }
            | Div { ra, rb, .. }
            | Rem { ra, rb, .. }
            | Sh { ra, rb, .. }
            | Sha { ra, rb, .. }
            | Lt { ra, rb, .. }
            | LtU { ra, rb, .. }
            | EqR { ra, rb, .. }
            | NeR { ra, rb, .. } => {
                l.push(D(ra.0));
                l.push(D(rb.0));
            }
            Mac { rd, ra, rb } => {
                l.push(D(rd.0));
                l.push(D(ra.0));
                l.push(D(rb.0));
            }
            ShI { ra, .. }
            | AddI { ra, .. }
            | AndI { ra, .. }
            | OrI { ra, .. }
            | XorI { ra, .. }
            | Clz { ra, .. }
            | SextB { ra, .. }
            | SextH { ra, .. }
            | ZextB { ra, .. }
            | ZextH { ra, .. }
            | Extr { ra, .. } => l.push(D(ra.0)),
            Insert { rd, rs, .. } => {
                l.push(D(rd.0));
                l.push(D(rs.0));
            }
            Sel { rd, cond, rs } => {
                l.push(D(rd.0));
                l.push(D(cond.0));
                l.push(D(rs.0));
            }
            Ld { ab, .. } | LdA { ab, .. } => l.push(A(ab.0)),
            St { rs, ab, .. } => {
                l.push(D(rs.0));
                l.push(A(ab.0));
            }
            LdWPostInc { ab, .. } => l.push(A(ab.0)),
            StWPostInc { rs, ab, .. } => {
                l.push(D(rs.0));
                l.push(A(ab.0));
            }
            StA { a_src, ab, .. } => {
                l.push(A(a_src.0));
                l.push(A(ab.0));
            }
            Ji { aa } | CallI { aa } => l.push(A(aa.0)),
            Ret | Rfe => l.push(A(11)),
            JCond { ra, rb, .. } => {
                l.push(D(ra.0));
                l.push(D(rb.0));
            }
            Jz { ra, .. } | Jnz { ra, .. } => l.push(D(ra.0)),
            Loop { aa, .. } => l.push(A(aa.0)),
            Mtcr { rs, .. } => l.push(D(rs.0)),
            MovI { .. }
            | MovH { .. }
            | MovU { .. }
            | MovHA { .. }
            | J { .. }
            | Jl { .. }
            | Call { .. }
            | Syscall { .. }
            | Enable
            | Disable
            | Mfcr { .. }
            | Debug { .. }
            | Wait
            | Halt
            | Nop => {}
        }
        l
    }

    /// Registers this instruction writes.
    #[must_use]
    pub fn writes(&self) -> RegList {
        use Instr::*;
        use RegRef::{A, D};
        let mut l = RegList::default();
        match *self {
            MovD { rd, .. }
            | MovI { rd, .. }
            | MovH { rd, .. }
            | MovU { rd, .. }
            | OrIL { rd, .. }
            | Add { rd, .. }
            | Sub { rd, .. }
            | And { rd, .. }
            | Or { rd, .. }
            | Xor { rd, .. }
            | Min { rd, .. }
            | Max { rd, .. }
            | Mul { rd, .. }
            | Mac { rd, .. }
            | Div { rd, .. }
            | Rem { rd, .. }
            | Sh { rd, .. }
            | Sha { rd, .. }
            | ShI { rd, .. }
            | AddI { rd, .. }
            | AndI { rd, .. }
            | OrI { rd, .. }
            | XorI { rd, .. }
            | Clz { rd, .. }
            | SextB { rd, .. }
            | SextH { rd, .. }
            | ZextB { rd, .. }
            | ZextH { rd, .. }
            | Extr { rd, .. }
            | Insert { rd, .. }
            | Lt { rd, .. }
            | LtU { rd, .. }
            | EqR { rd, .. }
            | NeR { rd, .. }
            | Sel { rd, .. }
            | Mfcr { rd, .. }
            | Ld { rd, .. } => l.push(D(rd.0)),
            MovAA { ad, .. }
            | MovDtoA { ad, .. }
            | MovHA { ad, .. }
            | AddIA { ad, .. }
            | Lea { ad, .. }
            | LdA { ad, .. } => l.push(A(ad.0)),
            MovAtoD { rd, .. } => l.push(D(rd.0)),
            LdWPostInc { rd, ab, .. } => {
                l.push(D(rd.0));
                l.push(A(ab.0));
            }
            StWPostInc { ab, .. } => l.push(A(ab.0)),
            Jl { .. } | Call { .. } | CallI { .. } => l.push(A(11)),
            Syscall { .. } => {
                l.push(D(15));
                l.push(A(11));
            }
            Loop { aa, .. } => l.push(A(aa.0)),
            St { .. }
            | StA { .. }
            | J { .. }
            | Ji { .. }
            | Ret
            | Rfe
            | JCond { .. }
            | Jz { .. }
            | Jnz { .. }
            | Enable
            | Disable
            | Mtcr { .. }
            | Debug { .. }
            | Wait
            | Halt
            | Nop => {}
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_classification() {
        assert_eq!(
            Instr::Add {
                rd: DReg(0),
                ra: DReg(1),
                rb: DReg(2)
            }
            .pipe(),
            Pipe::Ip
        );
        assert_eq!(
            Instr::Ld {
                rd: DReg(0),
                ab: AReg(1),
                off: 0,
                width: MemWidth::Word,
                sign: false
            }
            .pipe(),
            Pipe::Ls
        );
        assert_eq!(
            Instr::Loop {
                aa: AReg(2),
                off: -4
            }
            .pipe(),
            Pipe::Lp
        );
        assert_eq!(
            Instr::Lea {
                ad: AReg(0),
                ab: AReg(1),
                off: 4
            }
            .pipe(),
            Pipe::Ls
        );
        assert_eq!(
            Instr::MovHA {
                ad: AReg(0),
                imm: 1
            }
            .pipe(),
            Pipe::Ls
        );
    }

    #[test]
    fn control_flow_classification() {
        assert!(Instr::J { off: 2 }.is_control_flow());
        assert!(Instr::Ret.is_control_flow());
        assert!(Instr::Loop {
            aa: AReg(1),
            off: -2
        }
        .is_conditional());
        assert!(!Instr::Nop.is_control_flow());
        assert!(Instr::Jz {
            ra: DReg(1),
            off: 2
        }
        .is_conditional());
        assert!(!Instr::J { off: 2 }.is_conditional());
    }

    #[test]
    fn serializing_and_memory_classification() {
        assert!(Instr::Call { off: 4 }.is_serializing());
        assert!(Instr::Call { off: 4 }.is_memory());
        assert!(Instr::Mtcr {
            csfr: 2,
            rs: DReg(1)
        }
        .is_serializing());
        assert!(!Instr::Add {
            rd: DReg(0),
            ra: DReg(0),
            rb: DReg(0)
        }
        .is_memory());
        assert!(Instr::StWPostInc {
            rs: DReg(1),
            ab: AReg(2),
            inc: 4
        }
        .is_memory());
    }

    #[test]
    fn csfr_roundtrip() {
        for c in [
            Csfr::Psw,
            Csfr::Icr,
            Csfr::Biv,
            Csfr::Btv,
            Csfr::Fcx,
            Csfr::Pcx,
        ] {
            assert_eq!(Csfr::from_u16(c as u16), Some(c));
        }
        assert_eq!(Csfr::from_u16(999), None);
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::Half.bytes(), 2);
        assert_eq!(MemWidth::Word.bytes(), 4);
    }

    #[test]
    fn register_display() {
        assert_eq!(DReg(15).to_string(), "d15");
        assert_eq!(AReg::SP.to_string(), "a10");
        assert_eq!(BranchCond::GeU.to_string(), "geu");
    }
}

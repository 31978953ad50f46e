//! The instruction-form table: every TC-R encoding described once.
//!
//! Each row of [`FORMS`] gives one encoding's opcode slot and stable name,
//! its assembler mnemonic, its operand shape (the syntax of each operand
//! and the bit field it occupies), the [`Instr`] variant it builds and
//! destructures (operand fields in operand order, then fixed fields), and a
//! sample operand list. The encoder and decoder (`encode`), the assembler
//! (`asm`), the disassembler (`disasm`) and the opcode tables (`opcodes`)
//! all read these rows; none of them names an instruction.
//!
//! Both formats keep the slot in bits 7..1 of the first halfword and set
//! bit 0 for the 32-bit format; 16-bit forms use slots 0–15, 32-bit forms
//! 16–127. Register and immediate fields sit at the same bit positions in
//! either format, so a shape describes a 16-bit form as well as a 32-bit
//! one. A mnemonic with a 16-bit and a 32-bit form lists the 16-bit row
//! first: the encoder and the assembler take the first row that fits.
//!
//! # Adding an instruction form
//!
//! 1. Add the variant to [`Instr`], its semantics to `exec.rs` and its
//!    classification to `isa.rs` (`pipe`, `class`, `reads`, `writes`).
//! 2. Add one row to the `forms!` list below, at a free slot: name,
//!    mnemonic, shape (reuse one of the `const` shapes or add one next to
//!    them), sample operands, then the variant with its operand fields in
//!    operand order and any fixed fields after a `;`.
//!
//! The row alone makes the form encodable, decodable, printable,
//! assemblable, counted by the opcode-coverage tables and sampled by the
//! fuzzer; the tests in `opcodes` and `tests/isa_oracle.rs` check that the
//! sample sits in its slot and round-trips.

use crate::encode::Encoded;
use crate::isa::BranchCond as C;
use crate::isa::MemWidth::{Byte, Half, Word};
use crate::isa::{AReg, DReg, Instr};

/// A form's operand values, in operand order (unused slots are zero).
pub(crate) type Ops = [i32; 4];

/// A bit field of the instruction word: `bits` wide at `shift`, storing
/// the operand value minus `bias`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Field {
    shift: u8,
    /// Field width; branch offsets take their range from it.
    pub bits: u8,
    bias: i32,
}

const fn field(shift: u8, bits: u8) -> Field {
    Field {
        shift,
        bits,
        bias: 0,
    }
}

const R1: Field = field(8, 4);
const R2: Field = field(12, 4);
const R3: Field = field(16, 4);
const IMM12: Field = field(20, 12);
const IMM16: Field = field(16, 16);
const OFF24: Field = field(8, 24);
const POS5: Field = field(20, 5);
const WIDTH5: Field = Field {
    shift: 25,
    bits: 5,
    bias: 1,
};
const CODE8: Field = field(20, 8);
/// Operands the word does not store (ties and the implicit zero offset).
const NO_FIELD: Field = field(0, 0);

impl Field {
    fn put(self, v: i32) -> u32 {
        (v.wrapping_sub(self.bias) as u32 & self.mask()) << self.shift
    }

    fn get(self, word: u32, signed: bool) -> i32 {
        let raw = (word >> self.shift) & self.mask();
        let v = if signed && self.bits > 0 {
            let pad = 32 - u32::from(self.bits);
            ((raw << pad) as i32) >> pad
        } else {
            raw as i32
        };
        v + self.bias
    }

    fn mask(self) -> u32 {
        (1u32 << self.bits) - 1
    }
}

/// The accepted range of an immediate operand, how it prints, and the
/// words of its range error (`"{what} {value} out of {range}"`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Imm {
    pub lo: i32,
    pub hi: i32,
    pub hex: bool,
    pub what: &'static str,
    pub range: &'static str,
}

impl Imm {
    pub fn contains(self, v: i32) -> bool {
        (self.lo..=self.hi).contains(&v)
    }
}

const fn imm(lo: i32, hi: i32, hex: bool, what: &'static str, range: &'static str) -> Imm {
    Imm {
        lo,
        hi,
        hex,
        what,
        range,
    }
}

const S4: Imm = imm(-8, 7, false, "immediate", "signed 4-bit range");
const U4: Imm = imm(0, 15, false, "debug code", "4-bit range");
const U8: Imm = imm(0, 255, false, "debug code", "8-bit range");
/// Signed 12-bit: ALU immediates and memory offsets.
pub(crate) const S12: Imm = imm(-2048, 2047, false, "immediate", "signed 12-bit range");
pub(crate) const U12: Imm = imm(0, 4095, false, "immediate", "unsigned 12-bit range");
const X12: Imm = imm(0, 4095, true, "immediate", "unsigned 12-bit range");
/// Signed 16-bit, or any 16-bit pattern written unsigned.
const S16: Imm = imm(-0x8000, 0xFFFF, false, "immediate", "signed 16-bit range");
const X16: Imm = imm(0, 0xFFFF, true, "immediate", "16-bit range");
const SHAMT: Imm = imm(-32, 31, false, "shift amount", "-32..=31");
const POS: Imm = imm(0, 31, false, "pos", "0..=31");
const WIDTH: Imm = imm(1, 32, false, "width", "1..=32");

/// The syntax of one operand.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    /// Data register `dN`.
    D,
    /// Address register `aN` (or `sp`, `ra`).
    A,
    /// The same register as operand `n`, stored once (16-bit `rd == ra`).
    Tie(usize),
    /// Immediate expression.
    Imm(Imm),
    /// Core special-function register: a name or a 12-bit number.
    Csfr,
    /// Branch target, stored as a signed halfword offset from the PC.
    Rel,
    /// `[aN` — base register of a memory operand.
    Base,
    /// `+off]` — signed 12-bit offset closing a memory operand.
    Off,
    /// `]` — a memory operand without offset (the value is 0).
    Zero,
    /// `+]inc` — signed 12-bit post-increment closing a memory operand.
    PostInc,
}

impl Kind {
    /// Whether the operand is its own comma-separated text operand (the
    /// closing parts of a memory operand are not).
    pub fn takes_text(self) -> bool {
        !matches!(self, Kind::Off | Kind::Zero | Kind::PostInc)
    }

    fn signed(self) -> bool {
        match self {
            Kind::Imm(r) => r.lo < 0,
            Kind::Rel | Kind::Off | Kind::PostInc => true,
            _ => false,
        }
    }
}

/// An operand list: each operand's syntax and the field it is stored in.
pub(crate) type Shape = &'static [(Kind, Field)];

use Kind::{Base, Csfr, Off, PostInc, Rel, Tie, Zero, A, D};

const NO_OPS: Shape = &[];
const D_D: Shape = &[(D, R1), (D, R2)];
const A_A: Shape = &[(A, R1), (A, R2)];
const A_D: Shape = &[(A, R1), (D, R2)];
const D_A: Shape = &[(D, R1), (A, R2)];
const D_DT_D: Shape = &[(D, R1), (Tie(0), NO_FIELD), (D, R2)];
const D_MEM0: Shape = &[(D, R1), (Base, R2), (Zero, NO_FIELD)];
const D_DT_S4: Shape = &[(D, R1), (Tie(0), NO_FIELD), (Kind::Imm(S4), R2)];
const CODE4: Shape = &[(Kind::Imm(U4), R1)];
const D_S16: Shape = &[(D, R1), (Kind::Imm(S16), IMM16)];
const D_X16: Shape = &[(D, R1), (Kind::Imm(X16), IMM16)];
const A_S16: Shape = &[(A, R1), (Kind::Imm(S16), IMM16)];
const A_X16: Shape = &[(A, R1), (Kind::Imm(X16), IMM16)];
const A_A_S12: Shape = &[(A, R1), (A, R2), (Kind::Imm(S12), IMM12)];
const D_D_D: Shape = &[(D, R1), (D, R2), (D, R3)];
const D_D_S12: Shape = &[(D, R1), (D, R2), (Kind::Imm(S12), IMM12)];
const D_D_X12: Shape = &[(D, R1), (D, R2), (Kind::Imm(X12), IMM12)];
const D_D_SHAMT: Shape = &[(D, R1), (D, R2), (Kind::Imm(SHAMT), IMM12)];
const D_D_POS_WIDTH: Shape = &[
    (D, R1),
    (D, R2),
    (Kind::Imm(POS), POS5),
    (Kind::Imm(WIDTH), WIDTH5),
];
const D_MEM: Shape = &[(D, R1), (Base, R2), (Off, IMM12)];
const A_MEM: Shape = &[(A, R1), (Base, R2), (Off, IMM12)];
const D_POSTINC: Shape = &[(D, R1), (Base, R2), (PostInc, IMM12)];
const REL24: Shape = &[(Rel, OFF24)];
const A_ONLY: Shape = &[(A, R1)];
const D_D_REL12: Shape = &[(D, R1), (D, R2), (Rel, IMM12)];
const D_REL12: Shape = &[(D, R1), (Rel, IMM12)];
const A_REL12: Shape = &[(A, R1), (Rel, IMM12)];
const NUM12: Shape = &[(Kind::Imm(U12), IMM12)];
const D_CSFR: Shape = &[(D, R1), (Csfr, IMM12)];
const CSFR_D: Shape = &[(Csfr, IMM12), (D, R1)];
const CODE8_ONLY: Shape = &[(Kind::Imm(U8), CODE8)];

/// One instruction form: a row of the table.
#[derive(Debug)]
pub(crate) struct Form {
    /// Opcode slot (bits 7..1 of the first halfword).
    pub slot: u8,
    /// Stable label (`.s` marks 16-bit forms, `.pi` post-increment ones).
    pub name: &'static str,
    /// Assembler mnemonic.
    pub mnemonic: &'static str,
    /// Operand syntax and fields.
    pub shape: Shape,
    /// Sample operands (`None` for a form the encoder never emits).
    pub sample: Option<Ops>,
}

impl Form {
    /// Encoded length in bytes.
    pub fn len(&self) -> u8 {
        if self.slot < 16 {
            2
        } else {
            4
        }
    }

    /// Number of comma-separated text operands.
    pub fn arity(&self) -> usize {
        self.shape.iter().filter(|(k, _)| k.takes_text()).count()
    }

    /// Packs operand values into this form's encoding.
    pub fn encode(&self, ops: &Ops) -> Encoded {
        Encoded {
            bytes: pack(self.slot, ops).to_le_bytes(),
            len: self.len(),
        }
    }

    /// The instruction with these operand values.
    pub fn build(&self, ops: Ops) -> Instr {
        build(self.slot, ops)
    }
}

// The per-form functions below take their shape as a constant, so once
// inlined into a form's arm of the generated dispatch the loops over the
// shape unroll and fold to the hand-written field arithmetic.

/// Whether `ops` can take a form: tied registers agree, an implicit zero
/// offset is zero, a 16-bit form's immediates fit their range, and `wide`
/// (32-bit only) is honoured. Other fields are masked, not checked.
#[inline(always)]
fn fits(shape: Shape, short: bool, ops: &Ops, wide: bool) -> bool {
    if wide && short {
        return false;
    }
    for (i, &(kind, _)) in shape.iter().enumerate() {
        let ok = match kind {
            Tie(k) => ops[i] == ops[k],
            Zero => ops[i] == 0,
            Kind::Imm(r) => !short || r.contains(ops[i]),
            _ => true,
        };
        if !ok {
            return false;
        }
    }
    true
}

#[inline(always)]
fn put(slot: u8, shape: Shape, ops: &Ops) -> u32 {
    let mut word = (u32::from(slot) << 1) | u32::from(slot >= 16);
    for (&(_, f), &v) in shape.iter().zip(ops) {
        word |= f.put(v);
    }
    word
}

/// Whether a field of `shape` can hold an immediate outside its operand's
/// range. Only the 12-bit `shi` amount can (its range is -32..=31), so
/// decode checks ranges for that shape alone; evaluated at compile time.
const fn can_hold_out_of_range(shape: Shape) -> bool {
    let mut i = 0;
    while i < shape.len() {
        if let (Kind::Imm(r), f) = shape[i] {
            let span = 1i64 << f.bits;
            let (lo, hi) = if r.lo < 0 {
                (-span / 2, span / 2 - 1)
            } else {
                (0, span - 1)
            };
            let bias = f.bias as i64;
            if lo + bias < r.lo as i64 || hi + bias > r.hi as i64 {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Whether every immediate of `ops` lies in its operand's range.
#[inline(always)]
fn in_range(shape: Shape, ops: &Ops) -> bool {
    shape.iter().zip(ops).all(|(&(kind, _), &v)| match kind {
        Kind::Imm(r) => r.contains(v),
        _ => true,
    })
}

#[inline(always)]
fn get(shape: Shape, word: u32) -> Ops {
    let mut ops = [0; 4];
    for (i, &(kind, f)) in shape.iter().enumerate() {
        ops[i] = match kind {
            Tie(k) => ops[k],
            _ => f.get(word, kind.signed()),
        };
    }
    ops
}

/// Conversion between an [`Instr`] field and an operand value.
trait Operand: Copy {
    fn to_op(self) -> i32;
    fn from_op(v: i32) -> Self;
}

macro_rules! int_operand {
    ($($t:ty),*) => {$(
        impl Operand for $t {
            fn to_op(self) -> i32 {
                self as i32
            }
            fn from_op(v: i32) -> Self {
                v as $t
            }
        }
    )*};
}
int_operand!(i8, u8, i16, u16, i32);

impl Operand for DReg {
    fn to_op(self) -> i32 {
        i32::from(self.0)
    }
    fn from_op(v: i32) -> Self {
        DReg(v as u8)
    }
}

impl Operand for AReg {
    fn to_op(self) -> i32 {
        i32::from(self.0)
    }
    fn from_op(v: i32) -> Self {
        AReg(v as u8)
    }
}

const fn ops<const N: usize>(values: [i32; N]) -> Ops {
    let mut out = [0; 4];
    let mut i = 0;
    while i < N {
        out[i] = values[i];
        i += 1;
    }
    out
}

macro_rules! sample {
    (_) => {
        None
    };
    ([$($v:expr),*]) => {
        Some(ops([$($v),*]))
    };
}

/// The instruction a row builds from operand values `$ops`.
macro_rules! instr {
    ($ops:expr, $variant:ident { $($f:ident),* } { $($fixed:ident: $value:expr),* }) => {{
        let mut ops = $ops.into_iter();
        Instr::$variant {
            $($f: Operand::from_op(ops.next().unwrap_or(0)),)*
            $($fixed: $value,)*
        }
    }};
}

macro_rules! forms {
    ($($slot:literal $name:literal $mnemonic:literal $shape:ident $sample:tt
        $variant:ident { $($f:ident),* $(; $($fixed:ident: $value:expr),+)? };)*) => {
        /// Every instruction form, in slot order.
        pub(crate) const FORMS: &[Form] = &[$(Form {
            slot: $slot,
            name: $name,
            mnemonic: $mnemonic,
            shape: $shape,
            sample: sample!($sample),
        }),*];

        /// Assigned opcode slots with their stable names, in slot order.
        pub(crate) const ASSIGNED: &[(u8, &str)] = &[$(($slot, $name)),*];

        // reason: a form without operands never reads its operand iterator.
        #[allow(unused_mut, unused_variables)]
        fn build(slot: u8, ops: Ops) -> Instr {
            match slot {
                $($slot => instr!(ops, $variant { $($f),* } { $($($fixed: $value),+)? }),)*
                _ => unreachable!("slot {slot} is unassigned"),
            }
        }

        /// The instruction `word` holds if `slot` (its opcode field) is
        /// assigned and its immediates lie in their operands' ranges; the
        /// caller checks the format bit and length.
        // reason: a form without operands never reads its operand iterator.
        #[allow(unused_mut, unused_variables)]
        pub(crate) fn decode_at(slot: u8, word: u32) -> Option<Instr> {
            Some(match slot {
                $($slot => {
                    let ops = get($shape, word);
                    if const { can_hold_out_of_range($shape) } && !in_range($shape, &ops) {
                        return None;
                    }
                    instr!(ops, $variant { $($f),* } { $($($fixed: $value),+)? })
                })*
                _ => return None,
            })
        }

        fn pack(slot: u8, ops: &Ops) -> u32 {
            match slot {
                $($slot => put($slot, $shape, ops),)*
                _ => unreachable!("slot {slot} is unassigned"),
            }
        }

        /// The first form, in table order, that `instr` fits (32-bit forms
        /// only when `wide`), with its operand values.
        #[inline(always)]
        fn find_form(instr: Instr, wide: bool) -> Option<(&'static Form, Ops)> {
            match instr {
                $(Instr::$variant { $($f,)* $($($fixed,)+)? }
                    if $($($fixed == $value &&)+)?
                        fits($shape, $slot < 16, &ops([$($f.to_op()),*]), wide) =>
                {
                    Some((&FORMS[const { row($slot) }], ops([$($f.to_op()),*])))
                })*
                _ => None,
            }
        }
    };
}

forms! {
    0  "nop.s"    "nop"     NO_OPS        []           Nop {};
    1  "mov.s"    "mov"     D_D           [1, 2]       MovD { rd, rs };
    2  "add.s"    "add"     D_DT_D        [1, 1, 2]    Add { rd, ra, rb };
    3  "sub.s"    "sub"     D_DT_D        [1, 1, 2]    Sub { rd, ra, rb };
    4  "and.s"    "and"     D_DT_D        [1, 1, 2]    And { rd, ra, rb };
    5  "or.s"     "or"      D_DT_D        [1, 1, 2]    Or { rd, ra, rb };
    6  "mov.aa.s" "mov.aa"  A_A           [4, 5]       MovAA { ad, a_src };
    7  "mov.a.s"  "mov.a"   A_D           [4, 1]       MovDtoA { ad, rs };
    8  "mov.d.s"  "mov.d"   D_A           [1, 4]       MovAtoD { rd, a_src };
    9  "ld.w.s"   "ld.w"    D_MEM0        [1, 4, 0]    Ld { rd, ab, off; width: Word, sign: false };
    10 "st.w.s"   "st.w"    D_MEM0        [1, 4, 0]    St { rs, ab, off; width: Word };
    11 "addi.s"   "addi"    D_DT_S4       [1, 1, 3]    AddI { rd, ra, imm };
    12 "ret.s"    "ret"     NO_OPS        []           Ret {};
    13 "debug.s"  "debug"   CODE4         [1]          Debug { code };
    16 "movi"     "movi"    D_S16         [1, -77]     MovI { rd, imm };
    17 "movh"     "movh"    D_X16         [1, 0xD000]  MovH { rd, imm };
    18 "movu"     "movu"    D_X16         [1, 0xFFFF]  MovU { rd, imm };
    19 "movh.a"   "movh.a"  A_X16         [4, 0xD000]  MovHA { ad, imm };
    20 "lea"      "lea"     A_A_S12       [4, 5, 8]    Lea { ad, ab, off };
    21 "add"      "add"     D_D_D         [1, 2, 3]    Add { rd, ra, rb };
    22 "sub"      "sub"     D_D_D         [1, 2, 3]    Sub { rd, ra, rb };
    23 "and"      "and"     D_D_D         [1, 2, 3]    And { rd, ra, rb };
    24 "or"       "or"      D_D_D         [1, 2, 3]    Or { rd, ra, rb };
    25 "xor"      "xor"     D_D_D         [1, 2, 3]    Xor { rd, ra, rb };
    26 "min"      "min"     D_D_D         [1, 2, 3]    Min { rd, ra, rb };
    27 "max"      "max"     D_D_D         [1, 2, 3]    Max { rd, ra, rb };
    28 "mul"      "mul"     D_D_D         [1, 2, 3]    Mul { rd, ra, rb };
    29 "mac"      "mac"     D_D_D         [1, 2, 3]    Mac { rd, ra, rb };
    30 "div"      "div"     D_D_D         [1, 2, 3]    Div { rd, ra, rb };
    31 "rem"      "rem"     D_D_D         [1, 2, 3]    Rem { rd, ra, rb };
    32 "sh"       "sh"      D_D_D         [1, 2, 3]    Sh { rd, ra, rb };
    33 "sha"      "sha"     D_D_D         [1, 2, 3]    Sha { rd, ra, rb };
    34 "shi"      "shi"     D_D_SHAMT     [1, 2, -5]   ShI { rd, ra, amount };
    35 "addi"     "addi"    D_D_S12       [1, 2, 100]  AddI { rd, ra, imm };
    36 "andi"     "andi"    D_D_X12       [1, 2, 0xFF] AndI { rd, ra, imm };
    37 "ori"      "ori"     D_D_X12       [1, 2, 0xFF] OrI { rd, ra, imm };
    38 "xori"     "xori"    D_D_X12       [1, 2, 0xFF] XorI { rd, ra, imm };
    39 "clz"      "clz"     D_D           [1, 2]       Clz { rd, ra };
    40 "sext.b"   "sext.b"  D_D           [1, 2]       SextB { rd, ra };
    41 "sext.h"   "sext.h"  D_D           [1, 2]       SextH { rd, ra };
    42 "zext.b"   "zext.b"  D_D           [1, 2]       ZextB { rd, ra };
    43 "zext.h"   "zext.h"  D_D           [1, 2]       ZextH { rd, ra };
    44 "extr"     "extr"    D_D_POS_WIDTH [1, 2, 4, 8] Extr { rd, ra, pos, width };
    45 "insert"   "insert"  D_D_POS_WIDTH [1, 2, 4, 8] Insert { rd, rs, pos, width };
    46 "lt"       "lt"      D_D_D         [1, 2, 3]    Lt { rd, ra, rb };
    47 "ltu"      "ltu"     D_D_D         [1, 2, 3]    LtU { rd, ra, rb };
    48 "eq"       "eq"      D_D_D         [1, 2, 3]    EqR { rd, ra, rb };
    49 "ne"       "ne"      D_D_D         [1, 2, 3]    NeR { rd, ra, rb };
    50 "sel"      "sel"     D_D_D         [1, 2, 3]    Sel { rd, cond, rs };
    51 "ld.w"     "ld.w"    D_MEM         [1, 4, 8]    Ld { rd, ab, off; width: Word, sign: false };
    52 "ld.h"     "ld.h"    D_MEM         [1, 4, 8]    Ld { rd, ab, off; width: Half, sign: true };
    53 "ld.hu"    "ld.hu"   D_MEM         [1, 4, 8]    Ld { rd, ab, off; width: Half, sign: false };
    54 "ld.b"     "ld.b"    D_MEM         [1, 4, 8]    Ld { rd, ab, off; width: Byte, sign: true };
    55 "ld.bu"    "ld.bu"   D_MEM         [1, 4, 8]    Ld { rd, ab, off; width: Byte, sign: false };
    56 "st.w"     "st.w"    D_MEM         [1, 4, 8]    St { rs, ab, off; width: Word };
    57 "st.h"     "st.h"    D_MEM         [1, 4, 8]    St { rs, ab, off; width: Half };
    58 "st.b"     "st.b"    D_MEM         [1, 4, 8]    St { rs, ab, off; width: Byte };
    59 "ld.a"     "ld.a"    A_MEM         [4, 5, 8]    LdA { ad, ab, off };
    60 "st.a"     "st.a"    A_MEM         [4, 5, 8]    StA { a_src, ab, off };
    61 "ld.w.pi"  "ld.w"    D_POSTINC     [1, 4, 4]    LdWPostInc { rd, ab, inc };
    62 "st.w.pi"  "st.w"    D_POSTINC     [1, 4, 4]    StWPostInc { rs, ab, inc };
    63 "j"        "j"       REL24         [2]          J { off };
    64 "jl"       "jl"      REL24         [2]          Jl { off };
    65 "call"     "call"    REL24         [2]          Call { off };
    66 "ji"       "ji"      A_ONLY        [4]          Ji { aa };
    67 "calli"    "calli"   A_ONLY        [4]          CallI { aa };
    68 "ret"      "ret"     NO_OPS        _            Ret {};
    69 "jeq"      "jeq"     D_D_REL12     [1, 2, 2]    JCond { ra, rb, off; cond: C::Eq };
    70 "jne"      "jne"     D_D_REL12     [1, 2, 2]    JCond { ra, rb, off; cond: C::Ne };
    71 "jlt"      "jlt"     D_D_REL12     [1, 2, 2]    JCond { ra, rb, off; cond: C::Lt };
    72 "jge"      "jge"     D_D_REL12     [1, 2, 2]    JCond { ra, rb, off; cond: C::Ge };
    73 "jltu"     "jltu"    D_D_REL12     [1, 2, 2]    JCond { ra, rb, off; cond: C::LtU };
    74 "jgeu"     "jgeu"    D_D_REL12     [1, 2, 2]    JCond { ra, rb, off; cond: C::GeU };
    75 "jz"       "jz"      D_REL12       [1, 2]       Jz { ra, off };
    76 "jnz"      "jnz"     D_REL12       [1, 2]       Jnz { ra, off };
    77 "loop"     "loop"    A_REL12       [5, -2]      Loop { aa, off };
    78 "rfe"      "rfe"     NO_OPS        []           Rfe {};
    79 "syscall"  "syscall" NUM12         [7]          Syscall { num };
    80 "enable"   "enable"  NO_OPS        []           Enable {};
    81 "disable"  "disable" NO_OPS        []           Disable {};
    82 "mfcr"     "mfcr"    D_CSFR        [1, 0]       Mfcr { rd, csfr };
    83 "mtcr"     "mtcr"    CSFR_D        [7, 1]       Mtcr { csfr, rs };
    84 "debug"    "debug"   CODE8_ONLY    [200]        Debug { code };
    85 "wait"     "wait"    NO_OPS        []           Wait {};
    86 "halt"     "halt"    NO_OPS        []           Halt {};
    87 "addia"    "addia"   A_S16         [4, -8]      AddIA { ad, imm };
    88 "oril"     "oril"    D_X16         [1, 0xBEEF]  OrIL { rd, imm };
}

/// Row index of each slot (`u8::MAX` when unassigned); building it also
/// proves at compile time that every slot fits the 7-bit opcode field and
/// is assigned once.
const ROW_OF_SLOT: [u8; 128] = {
    let mut table = [u8::MAX; 128];
    let mut i = 0;
    while i < FORMS.len() {
        let slot = FORMS[i].slot as usize;
        assert!(slot < 128, "slot outside the 7-bit opcode field");
        assert!(table[slot] == u8::MAX, "slot assigned twice");
        table[slot] = i as u8;
        i += 1;
    }
    table
};

const fn row(slot: u8) -> usize {
    ROW_OF_SLOT[slot as usize] as usize
}

/// The form at an opcode slot: one array index, no table scan.
pub(crate) fn form_at(slot: u8) -> Option<&'static Form> {
    FORMS.get(usize::from(*ROW_OF_SLOT.get(usize::from(slot))?))
}

/// The first form, in table order, that `instr` fits (32-bit forms only
/// when `wide`), with its operand values.
#[inline(always)]
pub(crate) fn find(instr: &Instr, wide: bool) -> Option<(&'static Form, Ops)> {
    let mut instr = *instr;
    // Word loads ignore `sign`; both spellings take the `sign: false` row.
    if let Instr::Ld {
        width: Word, sign, ..
    } = &mut instr
    {
        *sign = false;
    }
    find_form(instr, wide)
}

/// `(key, row)` for every row, ordered by mnemonic key, rows of one
/// mnemonic in table order; built at compile time, so a lookup is a binary
/// search over integers and allocates nothing.
const BY_MNEMONIC: [(u128, u8); FORMS.len()] = {
    let mut rows = [(0u128, 0u8); FORMS.len()];
    let mut i = 0;
    while i < rows.len() {
        let Some(key) = mnemonic_key(FORMS[i].mnemonic) else {
            panic!("mnemonic longer than 15 bytes");
        };
        // Insertion sort; moving only past strictly greater keys keeps it
        // stable.
        let mut j = i;
        while j > 0 && key < rows[j - 1].0 {
            rows[j] = rows[j - 1];
            j -= 1;
        }
        rows[j] = (key, i as u8);
        i += 1;
    }
    rows
};

/// A mnemonic as one integer, unique per string: its bytes zero-padded to
/// 15, then its length; `None` for a mnemonic longer than 15 bytes.
const fn mnemonic_key(m: &str) -> Option<u128> {
    let bytes = m.as_bytes();
    if bytes.len() > 15 {
        return None;
    }
    let mut key = 0u128;
    let mut i = 0;
    while i < 15 {
        let b = if i < bytes.len() { bytes[i] } else { 0 };
        key = (key << 8) | b as u128;
        i += 1;
    }
    Some((key << 8) | bytes.len() as u128)
}

/// The forms spelled `mnemonic`, in table order.
pub(crate) fn named(mnemonic: &str) -> impl ExactSizeIterator<Item = &'static Form> + Clone {
    let rows = match mnemonic_key(mnemonic) {
        Some(key) => {
            let lo = BY_MNEMONIC.partition_point(|&(k, _)| k < key);
            let len = BY_MNEMONIC[lo..].partition_point(|&(k, _)| k == key);
            &BY_MNEMONIC[lo..lo + len]
        }
        None => &[],
    };
    rows.iter().map(|&(_, row)| &FORMS[usize::from(row)])
}

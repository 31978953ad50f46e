//! Two-pass text assembler for TC-R programs.
//!
//! The workloads in this repository (engine control, transmission,
//! microbenchmarks) are written in this assembly dialect and run on the
//! simulated SoC, so the profiling methodology is exercised on real machine
//! code rather than hand-placed event streams.
//!
//! # Syntax
//!
//! ```text
//! ; comment (also #)
//! .org   0x80000000          ; start a section
//! .equ   TICKS, 1000         ; named constant
//! .align 4                   ; pad with zero bytes
//! .word  1, 2, table         ; 32-bit data (expressions allowed)
//! .half  0x1234              ; 16-bit data
//! .byte  1, 2, 3             ; 8-bit data
//! .space 64                  ; reserve zeroed bytes
//!
//! _start:                    ; labels end with ':'
//!     li    d0, 0x12345678   ; pseudo: load 32-bit constant (2 instrs)
//!     la    a2, table        ; pseudo: load 32-bit address (2 instrs)
//!     ld.w  d1, [a2]         ; word load, zero offset (16-bit form)
//!     ld.w  d1, [a2+8]       ; word load with offset
//!     st.w  d1, [a2+]4       ; word store, post-increment a2 by 4
//!     add   d1, d1, d0
//!     jne   d1, d0, _start   ; compare-and-branch to a label
//!     loop  a3, _start       ; hardware loop
//!     call  function
//!     halt
//! ```
//!
//! Registers are written `d0..d15`, `a0..a15`, with aliases `sp` (= `a10`)
//! and `ra` (= `a11`). Expressions support `+`/`-`, decimal/hex/binary
//! literals, char literals, symbols, and the functions `lo(x)`, `hi(x)`
//! (plain halves) and `hia(x)` (high half adjusted for a signed low half).

use std::borrow::Cow;
use std::collections::BTreeMap;

use audo_common::{Addr, SimError};

use crate::encode::{encode, Encoded};
use crate::forms::{self, Form, Imm, Kind};
use crate::image::{Image, Section};
use crate::isa::{AReg, Csfr, DReg, Instr};

/// Assembles TC-R source text into an [`Image`].
///
/// # Errors
///
/// Returns [`SimError::Assemble`] with a line number and message on any
/// syntax error, undefined symbol, or out-of-range immediate/offset.
///
/// # Examples
///
/// ```
/// use audo_tricore::asm::assemble;
/// let image = assemble(".org 0x1000\nstart: movi d0, 7\n halt\n")?;
/// assert_eq!(image.symbol("start"), Some(audo_common::Addr(0x1000)));
/// # Ok::<(), audo_common::SimError>(())
/// ```
pub fn assemble(src: &str) -> Result<Image, SimError> {
    Assembler::new().run(src)
}

/// Assembles one instruction line placed at `pc`, with no symbols
/// defined: the bytes `assemble(".org pc\n" + text)` puts at `pc`, or its
/// error (reported at line 1). The line takes the same path as a line of
/// [`assemble`] — mnemonic normalisation, form selection and operand
/// packing — and allocates nothing when a lower-case line assembles.
///
/// `text` is one statement, optionally followed by a comment; labels and
/// directives are not instructions and are rejected.
///
/// # Errors
///
/// Returns [`SimError::Assemble`] for anything [`assemble`] rejects on
/// that line.
///
/// # Examples
///
/// ```
/// use audo_common::Addr;
/// use audo_tricore::asm::assemble_instr;
/// let code = assemble_instr("jnz d2, 0x1000", Addr(0x1004))?;
/// assert_eq!(code.as_bytes().len(), 4);
/// assert!(assemble_instr("addi d0, d1, 5000", Addr(0x1000)).is_err());
/// # Ok::<(), audo_common::SimError>(())
/// ```
pub fn assemble_instr(text: &str, pc: Addr) -> Result<LineCode, SimError> {
    const LINE: usize = 1;
    let (mnemonic, args) = split_mnemonic(strip_comment(text).trim());
    let mnemonic = normalise(mnemonic);
    if !pc.0.is_multiple_of(2) {
        return Err(odd_pc(LINE));
    }
    let asm = Assembler::new();
    let ops = Operands::parse(args);
    let form = asm.select(&mnemonic, &ops);
    asm.code(LINE, pc.0, &mnemonic, &ops, form)
}

/// The machine code of one instruction line: one instruction, or the two
/// 32-bit instructions an `li`/`la` pseudo expands to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCode {
    bytes: [u8; 8],
    len: u8,
}

impl LineCode {
    /// The encoded bytes, in address order.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    fn pair(hi: Encoded, lo: Encoded) -> LineCode {
        let mut code = LineCode::from(hi);
        code.bytes[usize::from(code.len)..][..usize::from(lo.len)].copy_from_slice(lo.as_bytes());
        code.len += lo.len;
        code
    }
}

impl From<Encoded> for LineCode {
    fn from(e: Encoded) -> LineCode {
        let mut bytes = [0; 8];
        bytes[..4].copy_from_slice(&e.bytes);
        LineCode { bytes, len: e.len }
    }
}

fn err(line: usize, message: impl Into<String>) -> SimError {
    SimError::Assemble {
        line,
        message: message.into(),
    }
}

fn odd_pc(line: usize) -> SimError {
    err(line, "instruction at odd address (missing .align 2?)")
}

#[derive(Debug)]
enum Item<'a> {
    /// An instruction (or an `li`/`la` pseudo expanding to two) with its
    /// operand text, and the form pass 1 chose for it; `None` for an
    /// unknown mnemonic. Pass 2 splits the text again: keeping the split
    /// operands would nearly double the size of every item.
    Code {
        line: usize,
        pc: u32,
        mnemonic: Cow<'a, str>,
        args: &'a str,
        form: Option<&'static Form>,
    },
    /// `.word`/`.half`/`.byte` data: the comma-separated expressions of
    /// `args`.
    Data {
        line: usize,
        pc: u32,
        width: u8,
        args: &'a str,
    },
    /// `.space` fill.
    Space { pc: u32, len: u32 },
    /// `.align` padding.
    Pad { pc: u32, len: u32 },
}

/// What pass 2 writes at an address: a line's code is kept inline.
enum Chunk {
    Code(LineCode),
    Bytes(Vec<u8>),
}

impl Chunk {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Chunk::Code(c) => c.as_bytes(),
            Chunk::Bytes(b) => b,
        }
    }
}

#[derive(Debug, Default)]
struct Assembler<'a> {
    symbols: BTreeMap<String, u32>,
    items: Vec<Item<'a>>,
    section_starts: Vec<u32>,
}

impl<'a> Assembler<'a> {
    fn new() -> Assembler<'a> {
        Assembler::default()
    }

    fn run(mut self, src: &'a str) -> Result<Image, SimError> {
        self.pass1(src)?;
        self.pass2()
    }

    fn pass1(&mut self, src: &'a str) -> Result<(), SimError> {
        let mut pc: Option<u32> = None;
        for (idx, raw) in src.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let mut rest = line;
            // Labels (possibly several on one line).
            while let Some(colon) = rest.find(':') {
                let (label, after) = rest.split_at(colon);
                let label = label.trim();
                if !is_ident(label) {
                    break;
                }
                let here = pc.ok_or_else(|| err(line_no, "label before any .org directive"))?;
                if self.symbols.insert(label.to_string(), here).is_some() {
                    return Err(err(line_no, format!("duplicate symbol `{label}`")));
                }
                rest = after[1..].trim_start();
            }
            if rest.is_empty() {
                continue;
            }
            let (mnemonic, args) = split_mnemonic(rest);
            let mnemonic = normalise(mnemonic);
            let ops = Operands::parse(args);
            if let Some(directive) = mnemonic.strip_prefix('.') {
                pc = self.directive(line_no, directive, &ops, args, pc)?;
                continue;
            }
            let here = pc.ok_or_else(|| err(line_no, "instruction before .org"))?;
            if here % 2 != 0 {
                return Err(odd_pc(line_no));
            }
            let form = self.select(&mnemonic, &ops);
            let size = match (&*mnemonic, form) {
                ("li" | "la", _) => 8,
                (_, Some(f)) => u32::from(f.len()),
                (_, None) => 4,
            };
            self.items.push(Item::Code {
                line: line_no,
                pc: here,
                mnemonic,
                args,
                form,
            });
            pc = Some(here + size);
        }
        Ok(())
    }

    fn directive(
        &mut self,
        line: usize,
        name: &str,
        ops: &Operands<'a>,
        args: &'a str,
        pc: Option<u32>,
    ) -> Result<Option<u32>, SimError> {
        match name {
            "org" => {
                let base = self.eval(
                    line,
                    ops.iter()
                        .next()
                        .ok_or_else(|| err(line, ".org needs an address"))?,
                )?;
                self.section_starts.push(base);
                Ok(Some(base))
            }
            "equ" => {
                if ops.len() != 2 {
                    return Err(err(line, ".equ needs NAME, VALUE"));
                }
                let (name, value) = (ops.text[0], ops.text[1]);
                let value = self.eval(line, value)?;
                if !is_ident(name) {
                    return Err(err(line, format!("invalid .equ name `{name}`")));
                }
                if self.symbols.insert(name.to_string(), value).is_some() {
                    return Err(err(line, format!("duplicate symbol `{name}`")));
                }
                Ok(pc)
            }
            "global" => Ok(pc), // all symbols are visible; accepted for style
            "align" => {
                let here = pc.ok_or_else(|| err(line, ".align before .org"))?;
                let a = self.eval(
                    line,
                    ops.iter()
                        .next()
                        .ok_or_else(|| err(line, ".align needs a value"))?,
                )?;
                if a == 0 || !a.is_power_of_two() {
                    return Err(err(line, ".align requires a power of two"));
                }
                let new = (here + a - 1) & !(a - 1);
                if new != here {
                    self.items.push(Item::Pad {
                        pc: here,
                        len: new - here,
                    });
                }
                Ok(Some(new))
            }
            "word" | "half" | "byte" => {
                let here = pc.ok_or_else(|| err(line, "data before .org"))?;
                let width: u8 = match name {
                    "word" => 4,
                    "half" => 2,
                    _ => 1,
                };
                if ops.len() == 0 {
                    return Err(err(line, format!(".{name} needs at least one value")));
                }
                let len = ops.len() as u32 * u32::from(width);
                self.items.push(Item::Data {
                    line,
                    pc: here,
                    width,
                    args,
                });
                Ok(Some(here + len))
            }
            "space" => {
                let here = pc.ok_or_else(|| err(line, ".space before .org"))?;
                let n = self.eval(
                    line,
                    ops.iter()
                        .next()
                        .ok_or_else(|| err(line, ".space needs a length"))?,
                )?;
                self.items.push(Item::Space { pc: here, len: n });
                Ok(Some(here + n))
            }
            other => Err(err(line, format!("unknown directive `.{other}`"))),
        }
    }

    /// The form a line takes, fixing its size in pass 1: the first form of
    /// the mnemonic whose operands fit *syntactically* — registers parse,
    /// tied operands are spelled alike, a 16-bit form's immediates are
    /// pass-1-resolvable literals in range — else the mnemonic's last form,
    /// whose pass-2 parse then reports what is wrong.
    fn select(&self, mnemonic: &str, ops: &Operands<'_>) -> Option<&'static Form> {
        let forms = forms::named(mnemonic);
        let fits = |form: &Form| {
            let short = form.len() == 2;
            let mut text = ops.iter();
            let mut seen = [""; 4];
            let mut mem = None;
            ops.len() == form.arity()
                && form.shape.iter().enumerate().all(|(i, &(kind, _))| {
                    let t = if kind.takes_text() {
                        text.next().unwrap_or("")
                    } else {
                        ""
                    };
                    seen[i] = t;
                    match kind {
                        Kind::D => dreg(t).is_some(),
                        Kind::A => areg(t).is_some(),
                        Kind::Tie(k) => t == seen[k],
                        Kind::Imm(r) => {
                            !short || self.try_eval(t).is_some_and(|v| r.contains(v as i32))
                        }
                        Kind::Csfr | Kind::Rel => true,
                        Kind::Base => {
                            mem = parse_mem(t);
                            mem.is_some()
                        }
                        Kind::Off => mem.as_ref().is_some_and(|m| !m.post),
                        Kind::Zero => mem.as_ref().is_some_and(|m| !m.post && m.expr == "0"),
                        Kind::PostInc => mem.as_ref().is_some_and(|m| m.post),
                    }
                })
        };
        // A lone form needs no test: its pass-2 parse reports any error.
        if forms.len() == 1 {
            return forms.last();
        }
        forms.clone().find(|f| fits(f)).or(forms.last())
    }

    fn pass2(mut self) -> Result<Image, SimError> {
        let mut writes: Vec<(u32, Chunk)> = Vec::new();
        let items = std::mem::take(&mut self.items);
        for item in &items {
            match item {
                Item::Code {
                    line,
                    pc,
                    mnemonic,
                    args,
                    form,
                } => {
                    let ops = Operands::parse(args);
                    let code = self.code(*line, *pc, mnemonic, &ops, *form)?;
                    writes.push((*pc, Chunk::Code(code)));
                }
                Item::Data {
                    line,
                    pc,
                    width,
                    args,
                } => {
                    let mut bytes = Vec::new();
                    for e in split_operands(args) {
                        let v = self.eval(*line, e)?;
                        // `.half`/`.byte` take a signed or unsigned value of their width.
                        let bits = u32::from(*width) * 8;
                        if bits < 32 && !(-(1 << (bits - 1))..1 << bits).contains(&(v as i32)) {
                            return Err(err(*line, format!("{e} out of {bits}-bit range")));
                        }
                        bytes.extend_from_slice(&v.to_le_bytes()[..usize::from(*width)]);
                    }
                    writes.push((*pc, Chunk::Bytes(bytes)));
                }
                Item::Space { pc, len } | Item::Pad { pc, len } => {
                    writes.push((*pc, Chunk::Bytes(vec![0u8; *len as usize])));
                }
            }
        }
        // Merge writes into contiguous sections.
        writes.sort_by_key(|&(pc, _)| pc);
        let mut sections: Vec<Section> = Vec::new();
        for (pc, chunk) in writes {
            let bytes = chunk.as_bytes();
            if bytes.is_empty() {
                continue;
            }
            match sections.last_mut() {
                Some(s) if s.base.0 as u64 + s.bytes.len() as u64 == u64::from(pc) => {
                    s.bytes.extend_from_slice(bytes);
                }
                _ => sections.push(Section {
                    base: Addr(pc),
                    bytes: bytes.to_vec(),
                }),
            }
        }
        Ok(Image::from_parts(sections, self.symbols))
    }

    // ------------------------------------------------------------------
    // Instruction construction (pass 2)
    // ------------------------------------------------------------------

    /// The machine code of one source line: the `li`/`la` pseudo's two
    /// 32-bit instructions, or the operands packed into the form pass 1
    /// chose.
    fn code(
        &self,
        line: usize,
        pc: u32,
        m: &str,
        ops: &Operands<'_>,
        form: Option<&Form>,
    ) -> Result<LineCode, SimError> {
        if m == "li" || m == "la" {
            if ops.len() != 2 {
                return Err(err(
                    line,
                    format!("`{m}` expects 2 operands, got {}", ops.len()),
                ));
            }
            let v = self.eval(line, ops.text[1])?;
            let (hi, lo) = if m == "li" {
                let rd = self.register(line, Kind::D, ops.text[0])?;
                let rd = DReg(rd as u8);
                (
                    Instr::MovH {
                        rd,
                        imm: (v >> 16) as u16,
                    },
                    Instr::OrIL { rd, imm: v as u16 },
                )
            } else {
                let ad = AReg(self.register(line, Kind::A, ops.text[0])? as u8);
                let lo = v as u16 as i16;
                let hi = (v.wrapping_sub(lo as i32 as u32) >> 16) as u16;
                (Instr::MovHA { ad, imm: hi }, Instr::AddIA { ad, imm: lo })
            };
            return Ok(LineCode::pair(encode(&hi), encode(&lo)));
        }
        let form = form.ok_or_else(|| err(line, format!("unknown mnemonic `{m}`")))?;
        if ops.len() != form.arity() {
            return Err(err(
                line,
                format!("`{m}` expects {} operands, got {}", form.arity(), ops.len()),
            ));
        }
        let mut values = [0; 4];
        let mut text = ops.iter();
        let mut mem = None;
        for (i, &(kind, field)) in form.shape.iter().enumerate() {
            let t = if kind.takes_text() {
                text.next().unwrap_or("")
            } else {
                ""
            };
            values[i] = match kind {
                Kind::D | Kind::A => self.register(line, kind, t)?,
                // Pass 1 only picks a tied form when both are spelled alike.
                Kind::Tie(k) => values[k],
                Kind::Imm(r) => self.imm(line, r, t)?,
                Kind::Csfr => self.csfr_num(line, t)?,
                Kind::Rel => self.branch_off(line, pc, t, field.bits)?,
                Kind::Base => {
                    let op = parse_mem(t).ok_or_else(|| err(line, "bad memory operand"))?;
                    let base = i32::from(op.base.0);
                    mem = Some(op);
                    base
                }
                Kind::Zero => 0,
                Kind::Off | Kind::PostInc => {
                    let op = mem.as_ref().expect("a memory operand opens with its base");
                    match (op.post, kind) {
                        (false, Kind::Off) | (true, Kind::PostInc) => {
                            self.imm(line, forms::S12, op.expr)?
                        }
                        (true, _) => {
                            return Err(err(line, format!("post-increment not supported by `{m}`")))
                        }
                        _ => {
                            return Err(err(line, format!("`{m}` needs a post-increment operand")))
                        }
                    }
                }
            };
        }
        Ok(form.encode(&values).into())
    }

    fn register(&self, line: usize, kind: Kind, t: &str) -> Result<i32, SimError> {
        let (reg, bank) = match kind {
            Kind::D => (dreg(t).map(|r| r.0), "data"),
            _ => (areg(t).map(|r| r.0), "address"),
        };
        reg.map(i32::from)
            .ok_or_else(|| err(line, format!("expected {bank} register, got `{t}`")))
    }

    fn imm(&self, line: usize, r: Imm, t: &str) -> Result<i32, SimError> {
        let v = self.eval(line, t)?;
        if r.contains(v as i32) {
            return Ok(v as i32);
        }
        let shown = if r.lo < 0 {
            (v as i32).to_string()
        } else {
            v.to_string()
        };
        Err(err(line, format!("{} {shown} out of {}", r.what, r.range)))
    }

    /// A branch target as a halfword offset from `pc` that fits `bits`.
    fn branch_off(&self, line: usize, pc: u32, target: &str, bits: u8) -> Result<i32, SimError> {
        let delta = self.eval(line, target)?.wrapping_sub(pc) as i32;
        if delta % 2 != 0 {
            return Err(err(line, "branch target at odd distance"));
        }
        let off = delta / 2;
        let half = 1i32 << (bits - 1);
        if !(-half..half).contains(&off) {
            return Err(err(
                line,
                format!("branch target out of {bits}-bit range ({off})"),
            ));
        }
        Ok(off)
    }

    fn csfr_num(&self, line: usize, s: &str) -> Result<i32, SimError> {
        const NAMED: [(&str, Csfr); 8] = [
            ("psw", Csfr::Psw),
            ("icr", Csfr::Icr),
            ("biv", Csfr::Biv),
            ("btv", Csfr::Btv),
            ("fcx", Csfr::Fcx),
            ("pcx", Csfr::Pcx),
            ("core_id", Csfr::CoreId),
            ("syscon", Csfr::Syscon),
        ];
        match NAMED.iter().find(|(name, _)| s.eq_ignore_ascii_case(name)) {
            Some(&(_, c)) => Ok(c as i32),
            None => self.imm(line, forms::U12, s),
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn try_eval(&self, s: &str) -> Option<u32> {
        eval_expr(s, &self.symbols).ok()
    }

    fn eval(&self, line: usize, s: &str) -> Result<u32, SimError> {
        eval_expr(s, &self.symbols).map_err(|m| err(line, m))
    }
}

// ----------------------------------------------------------------------
// Lexical helpers
// ----------------------------------------------------------------------

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

/// A line up to its first `;` or `#` comment.
fn strip_comment(line: &str) -> &str {
    line.find([';', '#']).map_or(line, |p| &line[..p])
}

fn split_mnemonic(line: &str) -> (&str, &str) {
    match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], line[i..].trim()),
        None => (line, ""),
    }
}

/// A mnemonic or directive in lower case, with `dbg` spelled `debug`;
/// borrowed unless it had to be lowered.
fn normalise(m: &str) -> Cow<'_, str> {
    if m.eq_ignore_ascii_case("dbg") {
        Cow::Borrowed("debug")
    } else if m.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(m.to_ascii_lowercase())
    } else {
        Cow::Borrowed(m)
    }
}

/// Splits an operand list on commas that are not inside brackets, trims
/// each operand and drops an empty last one.
fn split_operands(s: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(s);
    std::iter::from_fn(move || {
        let r = rest?;
        let mut depth = 0usize;
        for (i, b) in r.bytes().enumerate() {
            match b {
                b'[' | b'(' => depth += 1,
                b']' | b')' => depth = depth.saturating_sub(1),
                b',' if depth == 0 => {
                    rest = Some(&r[i + 1..]);
                    return Some(r[..i].trim());
                }
                _ => {}
            }
        }
        rest = None;
        Some(r.trim()).filter(|last| !last.is_empty())
    })
}

/// A line's operands, borrowed from the source: the first four (as many
/// as any instruction takes) and how many there are in all.
#[derive(Debug, Clone, Copy)]
struct Operands<'a> {
    text: [&'a str; 4],
    len: usize,
}

impl<'a> Operands<'a> {
    fn parse(args: &'a str) -> Operands<'a> {
        let mut ops = Operands {
            text: [""; 4],
            len: 0,
        };
        for op in split_operands(args) {
            if let Some(slot) = ops.text.get_mut(ops.len) {
                *slot = op;
            }
            ops.len += 1;
        }
        ops
    }

    fn len(&self) -> usize {
        self.len
    }

    fn iter(&self) -> impl Iterator<Item = &'a str> {
        self.text.into_iter().take(self.len)
    }
}

fn dreg(s: &str) -> Option<DReg> {
    let n: u8 = s.strip_prefix(['d', 'D'])?.parse().ok()?;
    (n < 16).then_some(DReg(n))
}

fn areg(s: &str) -> Option<AReg> {
    if s.eq_ignore_ascii_case("sp") {
        return Some(AReg::SP);
    }
    if s.eq_ignore_ascii_case("ra") {
        return Some(AReg::RA);
    }
    let n: u8 = s.strip_prefix(['a', 'A'])?.parse().ok()?;
    (n < 16).then_some(AReg(n))
}

/// A memory operand: `[aN]`, `[aN+expr]`, `[aN-expr]` (offset) or
/// `[aN+]expr` (post-increment).
#[derive(Debug, PartialEq, Eq)]
struct MemOperand<'a> {
    base: AReg,
    post: bool,
    /// The offset or increment expression (`"0"` when omitted).
    expr: &'a str,
}

fn parse_mem(s: &str) -> Option<MemOperand<'_>> {
    let s = s.trim();
    let inner = s.strip_prefix('[')?;
    let close = inner.find(']')?;
    let after = inner[close + 1..].trim();
    let inner = &inner[..close];
    if let Some(base) = inner.strip_suffix('+') {
        // Post-increment: `[aN+]inc`
        return (!after.is_empty()).then_some(MemOperand {
            base: areg(base.trim())?,
            post: true,
            expr: after,
        });
    }
    if !after.is_empty() {
        return None;
    }
    // Split between register and offset at the first +/- after the reg.
    let inner = inner.trim();
    let (base, expr) = match inner.find(['+', '-']) {
        Some(pos) if inner.as_bytes()[pos] == b'-' => (&inner[..pos], inner[pos..].trim()),
        Some(pos) => (&inner[..pos], inner[pos + 1..].trim()),
        None => (inner, "0"),
    };
    Some(MemOperand {
        base: areg(base.trim())?,
        post: false,
        expr,
    })
}

// ----------------------------------------------------------------------
// Expression evaluator
// ----------------------------------------------------------------------

fn eval_expr(s: &str, symbols: &BTreeMap<String, u32>) -> Result<u32, String> {
    let mut p = Parser {
        s: s.as_bytes(),
        pos: 0,
        symbols,
    };
    let v = p.expr()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(format!("trailing input in expression `{s}`"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
    symbols: &'a BTreeMap<String, u32>,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.pos).copied()
    }

    fn expr(&mut self) -> Result<u32, String> {
        let mut v = self.mul_term()?;
        loop {
            match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    v = v.wrapping_add(self.mul_term()?);
                }
                Some(b'-') => {
                    self.pos += 1;
                    v = v.wrapping_sub(self.mul_term()?);
                }
                _ => return Ok(v),
            }
        }
    }

    fn mul_term(&mut self) -> Result<u32, String> {
        let mut v = self.term()?;
        while self.peek() == Some(b'*') {
            self.pos += 1;
            v = v.wrapping_mul(self.term()?);
        }
        Ok(v)
    }

    fn term(&mut self) -> Result<u32, String> {
        match self.peek() {
            Some(b'-') => {
                self.pos += 1;
                Ok(self.term()?.wrapping_neg())
            }
            Some(b'(') => {
                self.pos += 1;
                let v = self.expr()?;
                if self.peek() != Some(b')') {
                    return Err("missing `)`".to_string());
                }
                self.pos += 1;
                Ok(v)
            }
            Some(b'\'') => {
                // Char literal.
                self.pos += 1;
                let c = *self.s.get(self.pos).ok_or("unterminated char literal")?;
                self.pos += 1;
                if self.s.get(self.pos) != Some(&b'\'') {
                    return Err("unterminated char literal".to_string());
                }
                self.pos += 1;
                Ok(u32::from(c))
            }
            Some(c) if c.is_ascii_digit() => self.number(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.ident_or_func(),
            other => Err(format!("unexpected token {other:?} in expression")),
        }
    }

    fn number(&mut self) -> Result<u32, String> {
        self.skip_ws();
        let start = self.pos;
        let radix = if self.s[self.pos..].starts_with(b"0x")
            || self.s[self.pos..].starts_with(b"0X")
        {
            self.pos += 2;
            16
        } else if self.s[self.pos..].starts_with(b"0b") || self.s[self.pos..].starts_with(b"0B") {
            self.pos += 2;
            2
        } else {
            10
        };
        let digits_start = self.pos;
        while self.pos < self.s.len()
            && (self.s[self.pos].is_ascii_alphanumeric() || self.s[self.pos] == b'_')
        {
            self.pos += 1;
        }
        // `_` separates digits; the rest must be digits of the radix and
        // the value must fit an `i64` (then truncates to 32 bits).
        let mut value: Option<i64> = None;
        for &c in &self.s[digits_start..self.pos] {
            if c == b'_' {
                continue;
            }
            let so_far = value.unwrap_or(0);
            value = char::from(c).to_digit(radix).and_then(|d| {
                so_far
                    .checked_mul(i64::from(radix))?
                    .checked_add(i64::from(d))
            });
            if value.is_none() {
                break;
            }
        }
        value.map(|v| v as u32).ok_or_else(|| {
            format!(
                "bad number `{}`",
                String::from_utf8_lossy(&self.s[start..self.pos])
            )
        })
    }

    fn ident_or_func(&mut self) -> Result<u32, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len()
            && (self.s[self.pos].is_ascii_alphanumeric()
                || self.s[self.pos] == b'_'
                || self.s[self.pos] == b'.')
        {
            self.pos += 1;
        }
        let name = std::str::from_utf8(&self.s[start..self.pos]).map_err(|_| "bad ident")?;
        if self.peek() == Some(b'(') {
            self.pos += 1;
            let v = self.expr()?;
            if self.peek() != Some(b')') {
                return Err("missing `)` after function argument".to_string());
            }
            self.pos += 1;
            return match name {
                "lo" => Ok(v & 0xFFFF),
                "hi" => Ok(v >> 16),
                "hia" => Ok((v.wrapping_add(0x8000)) >> 16),
                other => Err(format!("unknown function `{other}`")),
            };
        }
        self.symbols
            .get(name)
            .copied()
            .ok_or_else(|| format!("undefined symbol `{name}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::decode;
    use crate::isa::MemWidth;

    fn asm(src: &str) -> Image {
        assemble(src).expect("assembles")
    }

    fn decode_all(img: &Image) -> Vec<Instr> {
        let sec = &img.sections()[0];
        let mut out = Vec::new();
        let mut off = 0usize;
        while off < sec.bytes.len() {
            let (i, len) = decode(&sec.bytes[off..], Addr(sec.base.0 + off as u32)).unwrap();
            out.push(i);
            off += len as usize;
        }
        out
    }

    #[test]
    fn simple_program_layout() {
        let img = asm("
            .org 0x80000000
        _start:
            movi d0, 100
            nop
            halt
        ");
        assert_eq!(img.entry(), Addr(0x8000_0000));
        let instrs = decode_all(&img);
        assert_eq!(
            instrs,
            vec![
                Instr::MovI {
                    rd: DReg(0),
                    imm: 100
                },
                Instr::Nop,
                Instr::Halt
            ]
        );
        // movi(4) + nop(2) + halt(4)
        assert_eq!(img.sections()[0].bytes.len(), 10);
    }

    #[test]
    fn compressed_forms_are_selected() {
        let img = asm("
            .org 0x1000
            mov d1, d2
            add d1, d1, d3
            add d1, d2, d3
            addi d1, d1, 5
            addi d1, d1, 100
            ld.w d1, [a2]
            ld.w d1, [a2+4]
            ret
        ");
        let b = &img.sections()[0].bytes;
        // 2 + 2 + 4 + 2 + 4 + 2 + 4 + 2 = 22
        assert_eq!(b.len(), 22);
    }

    #[test]
    fn labels_and_branches() {
        let img = asm("
            .org 0x2000
        start:
            movi d0, 10
        loop_head:
            addi d0, d0, -1
            jnz d0, loop_head
            j   done
            nop
        done:
            halt
        ");
        let instrs = decode_all(&img);
        // movi(4) at 0x2000, addi16(2) at 0x2004, jnz(4) at 0x2006.
        // jnz target = loop_head (0x2004): off = (0x2004-0x2006)/2 = -1.
        assert!(instrs.contains(&Instr::Jnz {
            ra: DReg(0),
            off: -1
        }));
    }

    #[test]
    fn equ_and_expressions() {
        let img = asm("
            .equ BASE, 0xD0000000
            .equ COUNT, 16
            .org 0x1000
            movu d0, COUNT + 1
            movu d1, lo(BASE + 4)
            movu d2, hi(BASE - 0x10000)
        ");
        let instrs = decode_all(&img);
        assert_eq!(
            instrs[0],
            Instr::MovU {
                rd: DReg(0),
                imm: 17
            }
        );
        assert_eq!(
            instrs[1],
            Instr::MovU {
                rd: DReg(1),
                imm: 4
            }
        );
        assert_eq!(
            instrs[2],
            Instr::MovU {
                rd: DReg(2),
                imm: 0xCFFF
            }
        );
    }

    #[test]
    fn li_and_la_pseudos() {
        use crate::arch::ArchState;
        use crate::exec::execute;
        use crate::mem::FlatMem;
        for value in [
            0u32,
            1,
            0xFFFF_FFFF,
            0x8000_0000,
            0x1234_5678,
            0x0000_8000,
            0xFFFF_8000,
        ] {
            let img = asm(&format!(
                ".org 0x1000\n li d0, {value}\n la a0, {value}\n halt\n"
            ));
            let mut mem = FlatMem::new();
            mem.add_region(Addr(0x1000), 0x100);
            img.load_into(&mut mem).unwrap();
            let mut st = ArchState::new(0x1000);
            // Execute the four expanded instructions.
            for _ in 0..4 {
                let pc = st.pc;
                let bytes = mem.read_bytes(Addr(pc), 4).unwrap();
                let (i, len) = decode(&bytes, Addr(pc)).unwrap();
                execute(&mut st, &mut mem, &i, pc, len).unwrap();
            }
            assert_eq!(st.d[0], value, "li {value:#x}");
            assert_eq!(st.a[0], value, "la {value:#x}");
        }
    }

    #[test]
    fn data_directives() {
        let img = asm("
            .org 0x4000
            .word 0x11223344, sym
            .half 0xAABB
            .byte 1, 2
            .align 4
            .space 8
        sym:
            halt
        ");
        let b = &img.sections()[0].bytes;
        assert_eq!(&b[0..4], &0x1122_3344u32.to_le_bytes());
        // sym = 0x4000 + 8 + 2 + 2 (+align pads 0) + 8 = 0x4014
        assert_eq!(img.symbol("sym"), Some(Addr(0x4014)));
        assert_eq!(&b[4..8], &0x4014u32.to_le_bytes());
        assert_eq!(&b[8..10], &0xAABBu16.to_le_bytes());
        assert_eq!(b[10], 1);
        assert_eq!(b[11], 2);
    }

    #[test]
    fn memory_operand_forms() {
        let img = asm("
            .org 0x1000
            ld.w d1, [a2]
            ld.w d1, [a2+8]
            ld.w d1, [a2-8]
            ld.w d1, [a2+]4
            st.w d1, [sp-4]
            ld.hu d2, [a3+2]
            ld.b d3, [a3+1]
            st.b d3, [a3]
        ");
        let instrs = decode_all(&img);
        assert_eq!(
            instrs[1],
            Instr::Ld {
                rd: DReg(1),
                ab: AReg(2),
                off: 8,
                width: MemWidth::Word,
                sign: false
            }
        );
        assert_eq!(
            instrs[2],
            Instr::Ld {
                rd: DReg(1),
                ab: AReg(2),
                off: -8,
                width: MemWidth::Word,
                sign: false
            }
        );
        assert_eq!(
            instrs[3],
            Instr::LdWPostInc {
                rd: DReg(1),
                ab: AReg(2),
                inc: 4
            }
        );
        assert_eq!(
            instrs[4],
            Instr::St {
                rs: DReg(1),
                ab: AReg::SP,
                off: -4,
                width: MemWidth::Word
            }
        );
    }

    #[test]
    fn csfr_names() {
        let img = asm("
            .org 0x1000
            mfcr d0, icr
            mtcr biv, d1
            mfcr d2, 9
        ");
        let instrs = decode_all(&img);
        assert_eq!(
            instrs[0],
            Instr::Mfcr {
                rd: DReg(0),
                csfr: 2
            }
        );
        assert_eq!(
            instrs[1],
            Instr::Mtcr {
                csfr: 3,
                rs: DReg(1)
            }
        );
        assert_eq!(
            instrs[2],
            Instr::Mfcr {
                rd: DReg(2),
                csfr: 9
            }
        );
    }

    #[test]
    fn error_reporting() {
        let e = assemble("movi d0, 1").unwrap_err();
        assert!(e.to_string().contains("before .org"), "{e}");
        let e = assemble(".org 0\nbogus d0").unwrap_err();
        assert!(e.to_string().contains("unknown mnemonic"), "{e}");
        let e = assemble(".org 0\nmovi d0, undef_sym").unwrap_err();
        assert!(e.to_string().contains("undefined symbol"), "{e}");
        let e = assemble(".org 0\nx: nop\nx: nop").unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");
        let e = assemble(".org 0\naddi d0, d1, 5000").unwrap_err();
        assert!(e.to_string().contains("12-bit"), "{e}");
    }

    #[test]
    fn number_literals() {
        let syms = BTreeMap::new();
        let ok = |s: &str| eval_expr(s, &syms).unwrap();
        assert_eq!(ok("0x1_F"), 31);
        assert_eq!(ok("1__0"), 10);
        assert_eq!(ok("0B101"), 5);
        assert_eq!(ok("0x1_0000_0001"), 1, "truncates to 32 bits");
        assert_eq!(ok("9223372036854775807"), u32::MAX);
        for bad in ["0x", "0x_", "0b102", "12ab", "9223372036854775808"] {
            let e = eval_expr(bad, &syms).unwrap_err();
            assert_eq!(e, format!("bad number `{bad}`"));
        }
    }

    #[test]
    fn branch_range_checks() {
        let mut src = String::from(".org 0x1000\nstart: nop\n");
        // Pad far beyond the 12-bit (±4 KiB) branch range.
        src.push_str(".space 5000\n");
        src.push_str("jz d0, start\n");
        let e = assemble(&src).unwrap_err();
        assert!(e.to_string().contains("12-bit range"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines() {
        let img = asm("
            ; full-line comment
            .org 0x1000     ; trailing comment
            nop             # hash comment
            halt
        ");
        assert_eq!(decode_all(&img), vec![Instr::Nop, Instr::Halt]);
    }

    #[test]
    fn symbolic_zero_offset_keeps_reserved_width() {
        // `foo` evaluates to 0, but the load was *syntactically* offset-form,
        // so it must stay 4 bytes (pass-1 reserved 4).
        let img = asm("
            .equ foo, 0
            .org 0x1000
            ld.w d1, [a2+foo]
            halt
        ");
        let b = &img.sections()[0].bytes;
        assert_eq!(b.len(), 8); // 4 + 4
        let instrs = decode_all(&img);
        assert_eq!(
            instrs[0],
            Instr::Ld {
                rd: DReg(1),
                ab: AReg(2),
                off: 0,
                width: MemWidth::Word,
                sign: false
            }
        );
    }

    #[test]
    fn multiple_sections() {
        let img = asm("
            .org 0x1000
            nop
            .org 0x2000
            halt
        ");
        assert_eq!(img.sections().len(), 2);
        assert_eq!(img.sections()[0].base, Addr(0x1000));
        assert_eq!(img.sections()[1].base, Addr(0x2000));
    }
}

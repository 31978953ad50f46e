//! Flow-sensitive constant propagation over the recovered CFG.
//!
//! Tracks one lattice value per architectural register (known 32-bit
//! constant or unknown) through every basic block, meeting states at join
//! points. The transfer function mirrors the executable semantics in
//! `audo_tricore::exec` for the constant-resolvable subset (immediates,
//! address building, ALU-on-constants); everything else conservatively
//! kills the written registers via [`Instr::writes`].
//!
//! The results drive indirect-branch resolution (`la aN, handler; ji aN`),
//! static memory-access classification (base register + offset) and loop
//! trip-count inference.
//!
//! The [`Solution`] is dense: entry states by block id, edge states by
//! edge slot, in the numbering of `cfg::Graph`. The worklist pops the
//! lowest id, which is the lowest block address. Where one block has two
//! edges to one target (a `call` to the next instruction, a `jnz` to its
//! own fall-through), the state of that `(from, to)` pair is the *last*
//! edge's; [`Solution::edge_out`] and the analyses' predecessor entries
//! read that one.

use audo_tricore::isa::{Instr, RegRef};

use crate::cfg::{Cfg, EdgeKind, Graph, IdSet, Numbering};

/// Per-register lattice state: `Some(v)` = known constant, `None` = unknown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegState {
    /// Data registers `D0..D15`.
    pub d: [Option<u32>; 16],
    /// Address registers `A0..A15`.
    pub a: [Option<u32>; 16],
}

impl RegState {
    /// The bottom state: every register unknown.
    #[must_use]
    pub fn unknown() -> Self {
        RegState {
            d: [None; 16],
            a: [None; 16],
        }
    }

    /// Meets `other` into `self` (keep a constant only where both sides
    /// agree). Returns `true` when `self` changed.
    pub fn meet(&mut self, other: &RegState) -> bool {
        let mut changed = false;
        for i in 0..16 {
            if self.d[i].is_some() && self.d[i] != other.d[i] {
                self.d[i] = None;
                changed = true;
            }
            if self.a[i].is_some() && self.a[i] != other.a[i] {
                self.a[i] = None;
                changed = true;
            }
        }
        changed
    }

    /// Kills the lower context (`D0..D7`, `A2..A7`): what a full call
    /// clobbers. The upper context (`D8..D15`, `A10..A15`) is restored by
    /// the CSA and `A0`, `A1`, `A8`, `A9` are system globals.
    pub fn clobber_lower(&mut self) {
        for i in 0..8 {
            self.d[i] = None;
        }
        for i in 2..8 {
            self.a[i] = None;
        }
    }

    /// Kills everything (after a `jl` leaf-call return: no CSA spill).
    pub fn clobber_all(&mut self) {
        *self = RegState::unknown();
    }
}

fn shift_by(value: u32, amt: i32) -> u32 {
    // Matches `SH` semantics in `audo_tricore::exec` (logical shifts).
    if amt >= 0 {
        if amt >= 32 {
            0
        } else {
            value << amt
        }
    } else {
        let sh = -amt;
        if sh >= 32 {
            0
        } else {
            value >> sh
        }
    }
}

/// Applies one instruction's effect to the register state.
///
/// Mirrors `audo_tricore::exec` for the constant subset; any other
/// instruction conservatively kills its written registers.
pub fn transfer(st: &mut RegState, instr: &Instr) {
    let sext = |i: i16| i as i32 as u32;
    match *instr {
        Instr::MovD { rd, rs } => st.d[rd.0 as usize] = st.d[rs.0 as usize],
        Instr::MovAA { ad, a_src } => st.a[ad.0 as usize] = st.a[a_src.0 as usize],
        Instr::MovDtoA { ad, rs } => st.a[ad.0 as usize] = st.d[rs.0 as usize],
        Instr::MovAtoD { rd, a_src } => st.d[rd.0 as usize] = st.a[a_src.0 as usize],
        Instr::MovI { rd, imm } => st.d[rd.0 as usize] = Some(sext(imm)),
        Instr::MovH { rd, imm } => st.d[rd.0 as usize] = Some(u32::from(imm) << 16),
        Instr::MovU { rd, imm } => st.d[rd.0 as usize] = Some(u32::from(imm)),
        Instr::MovHA { ad, imm } => st.a[ad.0 as usize] = Some(u32::from(imm) << 16),
        Instr::AddIA { ad, imm } => {
            st.a[ad.0 as usize] = st.a[ad.0 as usize].map(|v| v.wrapping_add(sext(imm)));
        }
        Instr::OrIL { rd, imm } => {
            st.d[rd.0 as usize] = st.d[rd.0 as usize].map(|v| v | u32::from(imm));
        }
        Instr::Lea { ad, ab, off } => {
            st.a[ad.0 as usize] = st.a[ab.0 as usize].map(|v| v.wrapping_add(sext(off)));
        }
        Instr::Add { rd, ra, rb } => bin(st, rd.0, ra.0, rb.0, u32::wrapping_add),
        Instr::Sub { rd, ra, rb } => bin(st, rd.0, ra.0, rb.0, u32::wrapping_sub),
        Instr::And { rd, ra, rb } => bin(st, rd.0, ra.0, rb.0, |x, y| x & y),
        Instr::Or { rd, ra, rb } => bin(st, rd.0, ra.0, rb.0, |x, y| x | y),
        Instr::Xor { rd, ra, rb } => bin(st, rd.0, ra.0, rb.0, |x, y| x ^ y),
        Instr::Mul { rd, ra, rb } => bin(st, rd.0, ra.0, rb.0, u32::wrapping_mul),
        Instr::AddI { rd, ra, imm } => {
            st.d[rd.0 as usize] = st.d[ra.0 as usize].map(|v| v.wrapping_add(sext(imm)));
        }
        Instr::AndI { rd, ra, imm } => {
            st.d[rd.0 as usize] = st.d[ra.0 as usize].map(|v| v & u32::from(imm));
        }
        Instr::OrI { rd, ra, imm } => {
            st.d[rd.0 as usize] = st.d[ra.0 as usize].map(|v| v | u32::from(imm));
        }
        Instr::XorI { rd, ra, imm } => {
            st.d[rd.0 as usize] = st.d[ra.0 as usize].map(|v| v ^ u32::from(imm));
        }
        Instr::ShI { rd, ra, amount } => {
            st.d[rd.0 as usize] = st.d[ra.0 as usize].map(|v| shift_by(v, i32::from(amount)));
        }
        Instr::LdWPostInc { rd, ab, inc } => {
            st.d[rd.0 as usize] = None;
            st.a[ab.0 as usize] = st.a[ab.0 as usize].map(|v| v.wrapping_add(sext(inc)));
        }
        Instr::StWPostInc { ab, inc, .. } => {
            st.a[ab.0 as usize] = st.a[ab.0 as usize].map(|v| v.wrapping_add(sext(inc)));
        }
        Instr::Loop { aa, .. } => {
            // The hardware loop decrements before testing, on both paths.
            st.a[aa.0 as usize] = st.a[aa.0 as usize].map(|v| v.wrapping_sub(1));
        }
        ref other => {
            for r in other.writes().iter() {
                match r {
                    RegRef::D(i) => st.d[i as usize] = None,
                    RegRef::A(i) => st.a[i as usize] = None,
                }
            }
        }
    }
}

fn bin(st: &mut RegState, rd: u8, ra: u8, rb: u8, f: impl Fn(u32, u32) -> u32) {
    st.d[rd as usize] = match (st.d[ra as usize], st.d[rb as usize]) {
        (Some(x), Some(y)) => Some(f(x, y)),
        _ => None,
    };
}

/// The propagation result, stored densely: entry states by block id and
/// edge states by edge slot (see the module docs). The address accessors
/// [`Solution::entry_of`] and [`Solution::edge_out`] look the ids up.
#[derive(Debug, Clone, Default)]
pub struct Solution {
    num: Numbering,
    /// Register state at each block entry (`None`: never reached).
    entry: Vec<Option<RegState>>,
    /// Register state flowing along each edge slot, after the edge-kind
    /// adjustment (call clobbers); `None` when never propagated.
    edge_out: Vec<Option<RegState>>,
}

impl Solution {
    /// State at block entry, or all-unknown when the block was never
    /// reached by propagation.
    #[must_use]
    pub fn entry_of(&self, block: u32) -> RegState {
        self.num
            .id_of(block)
            .and_then(|id| self.entry_by_id(id).cloned())
            .unwrap_or_else(RegState::unknown)
    }

    /// State flowing along the edge `from -> to`, when propagation reached
    /// it. Where `from` has two edges to `to` (a `call` to the next
    /// instruction, a `jnz` to its own fall-through), this is the state of
    /// the *last* one.
    #[must_use]
    pub fn edge_out(&self, from: u32, to: u32) -> Option<&RegState> {
        self.edge_state(self.num.id_of(from)?, self.num.id_of(to)?)
    }

    /// State at the entry of block `id`, when propagation reached it.
    pub(crate) fn entry_by_id(&self, id: u32) -> Option<&RegState> {
        self.entry.get(id as usize)?.as_ref()
    }

    /// [`Solution::edge_out`] by block ids.
    pub(crate) fn edge_state(&self, from: u32, to: u32) -> Option<&RegState> {
        self.edge_out[self.num.state_slot(from, to)?].as_ref()
    }
}

/// Runs the worklist to a fixpoint over `cfg`.
///
/// Roots start all-unknown (interrupt handlers inherit nothing). The
/// worklist pops the lowest block id, which is the lowest address, so the
/// result is deterministic.
#[must_use]
pub fn solve(cfg: &Cfg) -> Solution {
    solve_graph(&Graph::of(cfg))
}

/// [`solve`] over blocks already numbered.
pub(crate) fn solve_graph(g: &Graph) -> Solution {
    let n = g.len();
    let mut entry: Vec<Option<RegState>> = vec![None; n];
    let mut edge_out: Vec<Option<RegState>> = vec![None; g.slot_count()];
    let mut work = IdSet::new(n);
    for root in g.roots.iter() {
        entry[root as usize] = Some(RegState::unknown());
        work.insert(root);
    }

    // Bounded by lattice height: each register can only drop to unknown
    // once per block, so the loop terminates; the explicit cap is a guard
    // against bugs, not a tuning knob.
    let mut budget = n.saturating_mul(64).max(4096);
    while let Some(b) = work.first() {
        work.remove(b);
        if budget == 0 {
            break;
        }
        budget -= 1;
        let mut st = entry[b as usize].clone().unwrap_or_else(RegState::unknown);
        for site in &g.block(b).instrs {
            transfer(&mut st, &site.instr);
        }
        for (slot, e, to) in g.edges(b) {
            let mut out = st.clone();
            match e.kind {
                EdgeKind::Flow | EdgeKind::CallTarget => {}
                EdgeKind::CallReturn => out.clobber_lower(),
                EdgeKind::JlReturn => out.clobber_all(),
            }
            match &mut entry[to as usize] {
                cur @ None => {
                    *cur = Some(out.clone());
                    work.insert(to);
                }
                Some(cur) => {
                    if cur.meet(&out) {
                        work.insert(to);
                    }
                }
            }
            edge_out[slot] = Some(out);
        }
    }

    Solution {
        num: Numbering::clone(g),
        entry,
        edge_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use audo_tricore::asm::assemble;

    fn solved(src: &str) -> (crate::cfg::Cfg, Solution) {
        cfg::recover_solved(&assemble(src).expect("test source assembles"))
    }

    #[test]
    fn li_constant_reaches_block_entry() {
        let (g, sol) = solved(
            "
    .org 0x80000000
_start:
    li d0, 0xd0000200
    j next
next:
    halt
",
        );
        let next = g
            .blocks
            .keys()
            .copied()
            .find(|&a| a != 0x8000_0000)
            .expect("next block");
        assert_eq!(sol.entry_of(next).d[0], Some(0xd000_0200));
    }

    #[test]
    fn join_of_disagreeing_values_is_unknown() {
        let (g, sol) = solved(
            "
    .org 0x80000000
_start:
    movi d1, 0
    jz d1, a_side
    movi d0, 1
    j join
a_side:
    movi d0, 2
    j join
join:
    halt
",
        );
        let join = *g.blocks.keys().max().expect("blocks");
        let st = sol.entry_of(join);
        assert_eq!(st.d[0], None, "disagreeing d0 must meet to unknown");
        assert_eq!(st.d[1], Some(0));
    }

    #[test]
    fn call_preserves_upper_context_only() {
        let (g, sol) = solved(
            "
    .org 0x80000000
_start:
    movi d2, 7
    movi d8, 9
    la a2, 0x1000
    la a12, 0x2000
    call f
after:
    halt
f:
    ret
",
        );
        let after = g
            .blocks
            .get(&0x8000_0000)
            .expect("entry block")
            .edges
            .iter()
            .find(|e| e.kind == cfg::EdgeKind::CallReturn)
            .expect("call return edge")
            .to;
        let st = sol.entry_of(after);
        assert_eq!(st.d[2], None, "lower-context d2 clobbered by call");
        assert_eq!(st.a[2], None, "lower-context a2 clobbered by call");
        assert_eq!(st.d[8], Some(9), "upper-context d8 restored");
        assert_eq!(st.a[12], Some(0x2000), "upper-context a12 restored");
    }

    #[test]
    fn duplicate_edges_keep_the_last_edges_state() {
        // `call` to the next instruction: a call-target edge and then a
        // call-return edge into the same block. The pair's state is the
        // return edge's, with the lower context clobbered.
        let (g, sol) = solved(
            "
    .org 0x80000000
_start:
    movi d2, 7
    movi d8, 9
    call next
next:
    halt
",
        );
        let next = *g.blocks.keys().last().expect("two blocks");
        let st = sol.edge_out(0x8000_0000, next).expect("edge state");
        assert_eq!(st.d[2], None, "call-return clobbers the lower context");
        assert_eq!(st.d[8], Some(9));
        assert_eq!(sol.entry_of(next).d[2], None);
        // `jl` to the next instruction: the last edge is the jl return,
        // which clobbers everything.
        let (g, sol) = solved(
            "
    .org 0x80000000
_start:
    movi d8, 9
    jl next
next:
    halt
",
        );
        let next = *g.blocks.keys().last().expect("two blocks");
        let st = sol.edge_out(0x8000_0000, next).expect("edge state");
        assert_eq!(st.d[8], None, "jl return clobbers everything");
        assert_eq!(sol.edge_out(0x8000_0000, 0x8000_0100), None, "no such edge");
    }

    #[test]
    fn loop_counter_decrements_and_joins_unknown() {
        let (g, sol) = solved(
            "
    .org 0x80000000
_start:
    la a2, 16
body:
    nop
    loop a2, body
    halt
",
        );
        // Entry to `body` meets 16 (first pass) with decremented values
        // from the back edge: unknown.
        let body = g
            .blocks
            .values()
            .find(|b| b.edges.iter().any(|e| e.to == b.start))
            .expect("self-looping body");
        assert_eq!(sol.entry_of(body.start).a[2], None);
        // But the edge from _start into the loop still carries 16.
        let entry_edge = sol
            .edge_out(0x8000_0000, body.start)
            .expect("entry edge state");
        assert_eq!(entry_edge.a[2], Some(16));
    }
}

//! Control-flow-graph recovery from a loaded [`Image`].
//!
//! Recursive-descent disassembly (reusing the TriCore decoder from
//! `audo-tricore`) from a set of roots: the image entry point plus any
//! interrupt-vector slots discovered through the `mtcr biv` write. Indirect
//! jumps (`ji`/`calli`) are resolved by the constant propagator
//! ([`crate::constprop`]); recovery iterates descent and propagation to a
//! fixpoint so vectors of the `la a15, handler; ji a15` form (scratchpad
//! handlers outside the 24-bit branch range) are followed too.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use audo_common::Addr;
use audo_tricore::encode::decode;
use audo_tricore::isa::{Csfr, Instr};
use audo_tricore::Image;

use crate::constprop;

/// One decoded instruction at its address.
#[derive(Debug, Clone)]
pub struct Site {
    /// Guest address.
    pub addr: u32,
    /// Decoded instruction.
    pub instr: Instr,
    /// Encoded length in bytes (2 or 4).
    pub len: u8,
}

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump,
    /// Conditional branch: taken edge plus fall-through edge.
    Branch,
    /// `call`/`calli`/`jl`: control returns to the fall-through.
    Call,
    /// Indirect jump (`ji`), resolved statically when possible.
    IndirectJump,
    /// `ret`/`rfe`.
    Return,
    /// `halt` — simulation stops.
    Halt,
    /// Straight-line flow into the next block (a branch target starts
    /// there).
    FallThrough,
    /// The decoder rejected the bytes that follow, or flow ran past the
    /// bytes present in the image.
    DecodeStop,
}

/// How control reaches a successor (drives register-state propagation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Jump, branch or fall-through: state flows unchanged.
    Flow,
    /// Call target: the callee sees the caller's registers.
    CallTarget,
    /// Fall-through after `call`/`calli`: the context-save architecture
    /// restores the upper context, so only the lower context is clobbered.
    CallReturn,
    /// Fall-through after `jl` (no CSA spill): everything is clobbered.
    JlReturn,
}

/// One CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Successor block start address.
    pub to: u32,
    /// Propagation semantics.
    pub kind: EdgeKind,
}

/// A basic block.
#[derive(Debug, Clone)]
pub struct Block {
    /// First instruction address.
    pub start: u32,
    /// Address one past the last instruction byte.
    pub end: u32,
    /// The instructions, in address order (never empty).
    pub instrs: Vec<Site>,
    /// Terminator kind.
    pub term: Terminator,
    /// Outgoing edges.
    pub edges: Vec<Edge>,
}

/// The recovered control-flow graph.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// Blocks keyed by start address.
    pub blocks: BTreeMap<u32, Block>,
    /// Root addresses with labels (`entry`, `vector_p10`, ...).
    pub roots: Vec<(u32, String)>,
    /// Interrupt vector table base discovered from the `mtcr biv` write.
    pub biv: Option<u32>,
    /// Addresses where descent stopped (decode error or off-image), with
    /// the reason.
    pub decode_stops: BTreeMap<u32, String>,
    /// `ji`/`calli` sites whose target the constant propagator resolved.
    pub resolved_indirect: BTreeMap<u32, u32>,
    /// `ji`/`calli` sites that stayed unresolved.
    pub unresolved_indirect: Vec<u32>,
}

impl Cfg {
    /// The block containing `addr`, if any.
    #[must_use]
    pub fn block_containing(&self, addr: u32) -> Option<&Block> {
        self.blocks
            .range(..=addr)
            .next_back()
            .map(|(_, b)| b)
            .filter(|b| addr < b.end)
    }

    /// Total decoded instruction count.
    #[must_use]
    pub fn instr_count(&self) -> usize {
        self.blocks.values().map(|b| b.instrs.len()).sum()
    }

    /// Successor map over every edge kind (block start -> successors'
    /// starts), keeping only edges into recovered blocks. The loop
    /// analyses' intra-procedural view, with its call policy, is
    /// [`crate::loopbound::flow_adjacency`].
    #[must_use]
    pub(crate) fn adjacency(&self) -> BTreeMap<u32, Vec<u32>> {
        self.blocks
            .iter()
            .map(|(&start, b)| {
                let succs = b
                    .edges
                    .iter()
                    .map(|e| e.to)
                    .filter(|t| self.blocks.contains_key(t))
                    .collect();
                (start, succs)
            })
            .collect()
    }
}

fn rel32(pc: u32, off: i32) -> u32 {
    pc.wrapping_add((off as u32).wrapping_mul(2))
}

fn rel16(pc: u32, off: i16) -> u32 {
    rel32(pc, i32::from(off))
}

struct Explorer<'a> {
    image: &'a Image,
    decoded: BTreeMap<u32, (Instr, u8)>,
    leaders: BTreeSet<u32>,
    queue: VecDeque<u32>,
    stops: BTreeMap<u32, String>,
    indirect_sites: BTreeSet<u32>,
}

impl<'a> Explorer<'a> {
    fn new(image: &'a Image) -> Self {
        Explorer {
            image,
            decoded: BTreeMap::new(),
            leaders: BTreeSet::new(),
            queue: VecDeque::new(),
            stops: BTreeMap::new(),
            indirect_sites: BTreeSet::new(),
        }
    }

    fn add_leader(&mut self, t: u32) {
        self.leaders.insert(t);
        if !self.decoded.contains_key(&t) {
            self.queue.push_back(t);
        }
    }

    fn fetch(&self, pc: u32) -> Option<Vec<u8>> {
        self.image
            .bytes_at(Addr(pc), 4)
            .or_else(|| self.image.bytes_at(Addr(pc), 2))
    }

    fn trace_all(&mut self) {
        while let Some(start) = self.queue.pop_front() {
            let mut pc = start;
            while !self.decoded.contains_key(&pc) {
                let Some(bytes) = self.fetch(pc) else {
                    self.stops
                        .entry(pc)
                        .or_insert_with(|| "control flow runs past the image bytes".to_string());
                    break;
                };
                let (instr, len) = match decode(&bytes, Addr(pc)) {
                    Ok(d) => d,
                    Err(e) => {
                        self.stops.entry(pc).or_insert_with(|| e.to_string());
                        break;
                    }
                };
                self.decoded.insert(pc, (instr, len));
                let next = pc.wrapping_add(u32::from(len));
                match instr {
                    Instr::J { off } => {
                        self.add_leader(rel32(pc, off));
                        break;
                    }
                    Instr::Jl { off } | Instr::Call { off } => {
                        self.add_leader(rel32(pc, off));
                        self.add_leader(next);
                        pc = next;
                    }
                    Instr::JCond { off, .. } => {
                        self.add_leader(rel16(pc, off));
                        self.add_leader(next);
                        pc = next;
                    }
                    Instr::Jz { off, .. } | Instr::Jnz { off, .. } | Instr::Loop { off, .. } => {
                        self.add_leader(rel16(pc, off));
                        self.add_leader(next);
                        pc = next;
                    }
                    Instr::Ji { .. } => {
                        self.indirect_sites.insert(pc);
                        break;
                    }
                    Instr::CallI { .. } => {
                        self.indirect_sites.insert(pc);
                        self.add_leader(next);
                        pc = next;
                    }
                    Instr::Ret | Instr::Rfe | Instr::Halt => break,
                    _ => pc = next,
                }
            }
        }
    }
}

fn terminator_of(
    site: &Site,
    next: u32,
    resolved: &BTreeMap<u32, u32>,
) -> Option<(Terminator, Vec<Edge>)> {
    let e = |to, kind| Edge { to, kind };
    match site.instr {
        Instr::J { off } => Some((
            Terminator::Jump,
            vec![e(rel32(site.addr, off), EdgeKind::Flow)],
        )),
        Instr::Call { off } => Some((
            Terminator::Call,
            vec![
                e(rel32(site.addr, off), EdgeKind::CallTarget),
                e(next, EdgeKind::CallReturn),
            ],
        )),
        Instr::Jl { off } => Some((
            Terminator::Call,
            vec![
                e(rel32(site.addr, off), EdgeKind::CallTarget),
                e(next, EdgeKind::JlReturn),
            ],
        )),
        Instr::CallI { .. } => {
            let mut edges = Vec::new();
            if let Some(&t) = resolved.get(&site.addr) {
                edges.push(e(t, EdgeKind::CallTarget));
            }
            edges.push(e(next, EdgeKind::CallReturn));
            Some((Terminator::Call, edges))
        }
        Instr::Ji { .. } => {
            let edges = resolved
                .get(&site.addr)
                .map(|&t| vec![e(t, EdgeKind::Flow)])
                .unwrap_or_default();
            Some((Terminator::IndirectJump, edges))
        }
        Instr::JCond { off, .. }
        | Instr::Jz { off, .. }
        | Instr::Jnz { off, .. }
        | Instr::Loop { off, .. } => Some((
            Terminator::Branch,
            vec![
                e(rel16(site.addr, off), EdgeKind::Flow),
                e(next, EdgeKind::Flow),
            ],
        )),
        Instr::Ret | Instr::Rfe => Some((Terminator::Return, vec![])),
        Instr::Halt => Some((Terminator::Halt, vec![])),
        _ => None,
    }
}

fn build_blocks(
    decoded: &BTreeMap<u32, (Instr, u8)>,
    leaders: &BTreeSet<u32>,
    stops: &BTreeMap<u32, String>,
    resolved: &BTreeMap<u32, u32>,
) -> BTreeMap<u32, Block> {
    let mut blocks = BTreeMap::new();
    let mut cur: Vec<Site> = Vec::new();

    let finalize = |cur: &mut Vec<Site>,
                    term: Terminator,
                    edges: Vec<Edge>,
                    blocks: &mut BTreeMap<u32, Block>| {
        if cur.is_empty() {
            return;
        }
        let start = cur[0].addr;
        let last = cur.last().expect("non-empty");
        let end = last.addr.wrapping_add(u32::from(last.len));
        blocks.insert(
            start,
            Block {
                start,
                end,
                instrs: std::mem::take(cur),
                term,
                edges,
            },
        );
    };

    let addrs: Vec<u32> = decoded.keys().copied().collect();
    for &addr in &addrs {
        let (instr, len) = &decoded[&addr];
        if !cur.is_empty() {
            let last = cur.last().expect("non-empty");
            let expected = last.addr.wrapping_add(u32::from(last.len));
            // A new leader or a gap in the decoded bytes starts a block.
            if addr != expected {
                finalize(&mut cur, Terminator::DecodeStop, vec![], &mut blocks);
            } else if leaders.contains(&addr) {
                finalize(
                    &mut cur,
                    Terminator::FallThrough,
                    vec![Edge {
                        to: addr,
                        kind: EdgeKind::Flow,
                    }],
                    &mut blocks,
                );
            }
        }
        let site = Site {
            addr,
            instr: *instr,
            len: *len,
        };
        let next = addr.wrapping_add(u32::from(*len));
        let term = terminator_of(&site, next, resolved);
        cur.push(site);
        if let Some((term, edges)) = term {
            finalize(&mut cur, term, edges, &mut blocks);
        } else if stops.contains_key(&next) {
            finalize(&mut cur, Terminator::DecodeStop, vec![], &mut blocks);
        }
    }
    finalize(&mut cur, Terminator::DecodeStop, vec![], &mut blocks);
    blocks
}

/// Recovers the CFG of `image`.
///
/// Iterates recursive descent and constant propagation until no new
/// indirect-branch targets or interrupt vectors appear (bounded at 8
/// rounds; real images converge in 2–3).
#[must_use]
pub fn recover(image: &Image) -> Cfg {
    let mut roots: Vec<(u32, String)> = vec![(image.entry().0, "entry".to_string())];
    let mut resolved: BTreeMap<u32, u32> = BTreeMap::new();
    let mut biv: Option<u32> = None;

    let mut round = 0;
    loop {
        let mut ex = Explorer::new(image);
        for (a, _) in &roots {
            ex.add_leader(*a);
        }
        for &t in resolved.values() {
            ex.add_leader(t);
        }
        ex.trace_all();
        let cfg = Cfg {
            blocks: build_blocks(&ex.decoded, &ex.leaders, &ex.stops, &resolved),
            roots: roots.clone(),
            biv,
            decode_stops: ex.stops,
            resolved_indirect: resolved.clone(),
            unresolved_indirect: ex
                .indirect_sites
                .iter()
                .filter(|a| !resolved.contains_key(a))
                .copied()
                .collect(),
        };
        // Bounded out: keep whatever the earlier rounds discovered.
        if round == 8 {
            return cfg;
        }
        round += 1;
        let sol = constprop::solve(&cfg);

        let mut changed = false;
        for block in cfg.blocks.values() {
            let Some(entry) = sol.entry.get(&block.start) else {
                continue;
            };
            let mut st = entry.clone();
            for site in &block.instrs {
                match site.instr {
                    Instr::Ji { aa } | Instr::CallI { aa } => {
                        if let Some(t) = st.a[aa.0 as usize] {
                            if !resolved.contains_key(&site.addr)
                                && image.byte_at(Addr(t)).is_some()
                            {
                                resolved.insert(site.addr, t);
                                changed = true;
                            }
                        }
                    }
                    Instr::Mtcr { csfr, rs } if csfr == Csfr::Biv as u16 => {
                        if let Some(v) = st.d[rs.0 as usize] {
                            if biv != Some(v) {
                                biv = Some(v);
                                changed = true;
                            }
                        }
                    }
                    _ => {}
                }
                constprop::transfer(&mut st, &site.instr);
            }
        }
        if let Some(base) = biv {
            for prio in 0u32..16 {
                let slot = base.wrapping_add(32 * prio);
                if image.bytes_at(Addr(slot), 2).is_some() && !roots.iter().any(|(a, _)| *a == slot)
                {
                    roots.push((slot, format!("vector_p{prio}")));
                    changed = true;
                }
            }
        }
        if !changed {
            return cfg;
        }
    }
}

/// Strongly connected components of the subgraph induced on `nodes`,
/// minus the `removed` edges (iterative Tarjan, deterministic order by
/// smallest member). Trivial single-node components without a self edge
/// are dropped. Pass every block as `nodes` and no `removed` edges for
/// the whole graph.
#[must_use]
pub(crate) fn cyclic_sccs(
    adj: &BTreeMap<u32, Vec<u32>>,
    nodes: &BTreeSet<u32>,
    removed: &BTreeSet<(u32, u32)>,
) -> Vec<BTreeSet<u32>> {
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<u32>,
        lowlink: u32,
        on_stack: bool,
    }
    let succs = |v: u32| -> Vec<u32> {
        adj.get(&v)
            .map(|s| {
                s.iter()
                    .filter(|&&t| nodes.contains(&t) && !removed.contains(&(v, t)))
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut state: BTreeMap<u32, NodeState> =
        nodes.iter().map(|&k| (k, NodeState::default())).collect();
    let mut index = 0u32;
    let mut stack: Vec<u32> = Vec::new();
    let mut out: Vec<BTreeSet<u32>> = Vec::new();

    enum Frame {
        Enter(u32),
        Resume(u32, usize),
    }

    for &root in nodes {
        if state[&root].index.is_some() {
            continue;
        }
        let mut work = vec![Frame::Enter(root)];
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(v) => {
                    let st = state.get_mut(&v).expect("known node");
                    if st.index.is_some() {
                        continue;
                    }
                    st.index = Some(index);
                    st.lowlink = index;
                    st.on_stack = true;
                    index += 1;
                    stack.push(v);
                    work.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut i) => {
                    let edges = succs(v);
                    let mut descended = false;
                    while i < edges.len() {
                        let w = edges[i];
                        i += 1;
                        match state[&w].index {
                            None => {
                                work.push(Frame::Resume(v, i));
                                work.push(Frame::Enter(w));
                                descended = true;
                                break;
                            }
                            Some(wi) if state[&w].on_stack => {
                                let low = state[&v].lowlink.min(wi);
                                state.get_mut(&v).expect("known").lowlink = low;
                            }
                            Some(_) => {}
                        }
                    }
                    if descended {
                        continue;
                    }
                    // All children visited: fold their lowlinks in.
                    for &w in &edges {
                        if state[&w].on_stack {
                            let low = state[&v].lowlink.min(state[&w].lowlink);
                            state.get_mut(&v).expect("known").lowlink = low;
                        }
                    }
                    if state[&v].lowlink == state[&v].index.expect("visited") {
                        let mut comp = BTreeSet::new();
                        while let Some(w) = stack.pop() {
                            state.get_mut(&w).expect("known").on_stack = false;
                            comp.insert(w);
                            if w == v {
                                break;
                            }
                        }
                        let trivial = comp.len() == 1 && {
                            let only = *comp.iter().next().expect("non-empty");
                            !succs(only).contains(&only)
                        };
                        if !trivial {
                            out.push(comp);
                        }
                    }
                }
            }
        }
    }
    out.sort_by_key(|c| *c.iter().next().expect("non-empty"));
    out
}

/// Predecessor map of an adjacency map (block start -> predecessors'
/// starts, in adjacency order).
#[must_use]
pub(crate) fn predecessors(adj: &BTreeMap<u32, Vec<u32>>) -> BTreeMap<u32, Vec<u32>> {
    let mut preds: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (&from, succs) in adj {
        for &to in succs {
            preds.entry(to).or_default().push(from);
        }
    }
    preds
}

/// Blocks reachable from `from` (inclusive) over `adj`; starts that are
/// not keys of `adj` are ignored.
#[must_use]
pub(crate) fn reachable(adj: &BTreeMap<u32, Vec<u32>>, from: &[u32]) -> BTreeSet<u32> {
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    let mut queue: VecDeque<u32> = from
        .iter()
        .filter(|a| adj.contains_key(a))
        .copied()
        .collect();
    while let Some(b) = queue.pop_front() {
        if !seen.insert(b) {
            continue;
        }
        for &s in adj.get(&b).map(Vec::as_slice).unwrap_or_default() {
            if !seen.contains(&s) {
                queue.push_back(s);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use audo_tricore::asm::assemble;

    fn cfg_of(src: &str) -> Cfg {
        recover(&assemble(src).expect("test source assembles"))
    }

    #[test]
    fn straight_line_is_one_block() {
        let cfg = cfg_of(
            "
    .org 0x80000000
_start:
    movi d0, 1
    movi d1, 2
    add d2, d0, d1
    halt
",
        );
        assert_eq!(cfg.blocks.len(), 1);
        let b = cfg.blocks.values().next().expect("one block");
        assert_eq!(b.term, Terminator::Halt);
        assert_eq!(b.instrs.len(), 4);
    }

    #[test]
    fn branch_splits_blocks_and_links_edges() {
        let cfg = cfg_of(
            "
    .org 0x80000000
_start:
    movi d0, 5
loop:
    addi d0, d0, -1
    jnz d0, loop
    halt
",
        );
        // _start, loop, halt.
        assert_eq!(cfg.blocks.len(), 3);
        let loop_block = cfg
            .blocks
            .values()
            .find(|b| b.term == Terminator::Branch)
            .expect("loop block");
        assert!(loop_block.edges.iter().any(|e| e.to == loop_block.start));
        let all: BTreeSet<u32> = cfg.blocks.keys().copied().collect();
        let comps = cyclic_sccs(&cfg.adjacency(), &all, &BTreeSet::new());
        assert_eq!(comps.len(), 1);
        assert!(comps[0].contains(&loop_block.start));
    }

    #[test]
    fn call_has_target_and_return_edges() {
        let cfg = cfg_of(
            "
    .org 0x80000000
_start:
    call f
    halt
f:
    ret
",
        );
        let entry = &cfg.blocks[&0x8000_0000];
        assert_eq!(entry.term, Terminator::Call);
        assert!(entry.edges.iter().any(|e| e.kind == EdgeKind::CallTarget));
        assert!(entry.edges.iter().any(|e| e.kind == EdgeKind::CallReturn));
    }

    #[test]
    fn indirect_jump_through_la_is_resolved() {
        let cfg = cfg_of(
            "
    .org 0x80000000
_start:
    la a15, dest
    ji a15
    .org 0x80000100
dest:
    halt
",
        );
        assert_eq!(cfg.resolved_indirect.len(), 1);
        assert!(cfg.blocks.contains_key(&0x8000_0100));
        assert!(cfg.unresolved_indirect.is_empty());
    }

    #[test]
    fn vectors_discovered_via_biv_write() {
        let cfg = cfg_of(
            "
    .org 0x80000000
_start:
    li d0, 0x80008000
    mtcr biv, d0
    enable
spin:
    wait
    j spin
    .org 0x80008000 + 4*32
    j isr
isr:
    rfe
",
        );
        assert_eq!(cfg.biv, Some(0x8000_8000));
        assert!(cfg.roots.iter().any(|(_, n)| n == "vector_p4"));
        let isr = cfg
            .blocks
            .values()
            .find(|b| b.term == Terminator::Return)
            .expect("isr block reached");
        assert_eq!(isr.instrs.len(), 1);
    }

    #[test]
    fn decode_stop_recorded_for_data_flow() {
        // Fall into data that cannot decode: descent records a stop.
        let cfg = cfg_of(
            "
    .org 0x80000000
_start:
    movi d0, 1
    .word 0xffffffff
",
        );
        assert!(!cfg.decode_stops.is_empty());
    }
}

//! Control-flow-graph recovery from a loaded [`Image`].
//!
//! Recursive-descent disassembly (reusing the TriCore decoder from
//! `audo-tricore`) from a set of roots: the image entry point plus any
//! interrupt-vector slots discovered through the `mtcr biv` write. Indirect
//! jumps (`ji`/`calli`) are resolved by the constant propagator
//! ([`crate::constprop`]); recovery iterates descent and propagation to a
//! fixpoint so vectors of the `la a15, handler; ji a15` form (scratchpad
//! handlers outside the 24-bit branch range) are followed too.
//!
//! The analyses' graph work runs on dense block ids (`Graph`): the blocks
//! of a [`Cfg`] are numbered once, in address order, so id order is
//! address order and every order-dependent result stays what it was over
//! address-keyed maps. Each block's edges own consecutive edge slots.
//! Successors and predecessors are built once per edge view (every edge,
//! or the intra-procedural flow view), as id-indexed slices; Tarjan SCC
//! and reachability run on them with `IdSet` bitsets. A recovery round
//! numbers its blocks once, solves them ([`constprop`]) and scans the
//! states by id; only the returned round assembles a full [`Cfg`].

use std::cell::OnceCell;
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

    fn trace_all(&mut self) {
        while let Some(start) = self.queue.pop_front() {
            let mut pc = start;
            while !self.decoded.contains_key(&pc) {
                let Some((word, avail)) = self.image.instr_bytes(Addr(pc)) else {
                    self.stops
                        .entry(pc)
                        .or_insert_with(|| "control flow runs past the image bytes".to_string());
                    break;
                };
                let (instr, len) = match decode(&word[..avail], Addr(pc)) {
                    Ok(d) => d,
                    Err(e) => {
                        self.stops.entry(pc).or_insert_with(|| e.to_string());
                        break;
                    }
                };
                self.decoded.insert(pc, (instr, len));
                if matches!(instr, Instr::Ji { .. } | Instr::CallI { .. }) {
                    self.indirect_sites.insert(pc);
                }
                // Direct targets are leaders; indirect ones join once resolved.
                let next = pc.wrapping_add(u32::from(len));
                let site = Site {
                    addr: pc,
                    instr,
                    len,
                };
                let Some((_, edges)) = terminator_of(&site, next, &BTreeMap::new()) else {
                    pc = next;
                    continue;
                };
                for e in &edges {
                    self.add_leader(e.to);
                }
                if !edges.iter().any(|e| e.to == next) {
                    break;
                }
                pc = next;
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
    // Blocks come out in address order, so the map is bulk-built at the end.
    let mut blocks: Vec<(u32, Block)> = Vec::new();
    let mut cur: Vec<Site> = Vec::new();

    let finalize = |cur: &mut Vec<Site>,
                    term: Terminator,
                    edges: Vec<Edge>,
                    blocks: &mut Vec<(u32, Block)>| {
        if cur.is_empty() {
            return;
        }
        let start = cur[0].addr;
        let last = cur.last().expect("non-empty");
        let end = last.addr.wrapping_add(u32::from(last.len));
        blocks.push((
            start,
            Block {
                start,
                end,
                instrs: std::mem::take(cur),
                term,
                edges,
            },
        ));
    };

    // Both walks are in address order: step the leaders alongside.
    let mut leaders = leaders.iter().copied().peekable();
    for (&addr, &(instr, len)) in decoded {
        while leaders.next_if(|&l| l < addr).is_some() {}
        if !cur.is_empty() {
            let last = cur.last().expect("non-empty");
            let expected = last.addr.wrapping_add(u32::from(last.len));
            // A new leader or a gap in the decoded bytes starts a block.
            if addr != expected {
                finalize(&mut cur, Terminator::DecodeStop, vec![], &mut blocks);
            } else if leaders.peek() == Some(&addr) {
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
        let site = Site { addr, instr, len };
        let next = addr.wrapping_add(u32::from(len));
        let term = terminator_of(&site, next, resolved);
        cur.push(site);
        if let Some((term, edges)) = term {
            finalize(&mut cur, term, edges, &mut blocks);
        } else if stops.contains_key(&next) {
            finalize(&mut cur, Terminator::DecodeStop, vec![], &mut blocks);
        }
    }
    finalize(&mut cur, Terminator::DecodeStop, vec![], &mut blocks);
    blocks.into_iter().collect()
}

/// Recovers the CFG of `image`.
///
/// Iterates recursive descent and constant propagation until no new
/// indirect-branch targets or interrupt vectors appear (bounded at 8
/// rounds; real images converge in 2–3). Use [`recover_solved`] when the
/// constant-propagation solution of the graph is needed too.
#[must_use]
pub fn recover(image: &Image) -> Cfg {
    recover_solved(image).0
}

/// Recovers the CFG of `image` together with its constant-propagation
/// solution: the one the last recovery round converged on, so the graph
/// is solved once, not once more by the caller.
///
/// Each round numbers its blocks once (`Graph`), solves them and scans
/// the entry states by block id; only the round that is returned
/// assembles a full [`Cfg`].
#[must_use]
pub fn recover_solved(image: &Image) -> (Cfg, constprop::Solution) {
    let mut roots: Vec<(u32, String)> = vec![(image.entry().0, "entry".to_string())];
    let mut resolved: BTreeMap<u32, u32> = BTreeMap::new();
    let mut biv: Option<u32> = None;

    // One explorer for every round: roots and resolved targets only grow,
    // so adding just the new ones as leaders reaches the same decoded set,
    // leaders and stops as re-tracing the image from all of them.
    let mut ex = Explorer::new(image);
    ex.add_leader(image.entry().0);
    let mut round = 0;
    loop {
        ex.trace_all();
        let blocks = build_blocks(&ex.decoded, &ex.leaders, &ex.stops, &resolved);
        let g = Graph::new(&blocks, &roots);
        let sol = constprop::solve_graph(&g);
        // Bounded out: keep whatever the earlier rounds discovered.
        let mut changed = false;
        if round < 8 {
            round += 1;
            for id in 0..g.len() as u32 {
                // Only indirect branches and `biv` writes read the state.
                let instrs = &g.block(id).instrs;
                let reads = instrs.iter().any(|s| {
                    matches!(
                        s.instr,
                        Instr::Ji { .. } | Instr::CallI { .. } | Instr::Mtcr { .. }
                    )
                });
                let (true, Some(entry)) = (reads, sol.entry_by_id(id)) else {
                    continue;
                };
                let mut st = entry.clone();
                for site in instrs {
                    match site.instr {
                        Instr::Ji { aa } | Instr::CallI { aa } => {
                            if let Some(t) = st.a[aa.0 as usize] {
                                if !resolved.contains_key(&site.addr)
                                    && image.byte_at(Addr(t)).is_some()
                                {
                                    resolved.insert(site.addr, t);
                                    ex.add_leader(t);
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
                    if image.instr_bytes(Addr(slot)).is_some()
                        && !roots.iter().any(|(a, _)| *a == slot)
                    {
                        roots.push((slot, format!("vector_p{prio}")));
                        ex.add_leader(slot);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            let unresolved_indirect = ex
                .indirect_sites
                .iter()
                .filter(|a| !resolved.contains_key(a))
                .copied()
                .collect();
            let cfg = Cfg {
                blocks,
                roots,
                biv,
                decode_stops: ex.stops,
                resolved_indirect: resolved,
                unresolved_indirect,
            };
            return (cfg, sol);
        }
    }
}

/// A set of dense block ids (see [`Graph`]), iterated in ascending id
/// order, which is address order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    /// The empty set over the ids `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        IdSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Every id in `0..n`.
    pub(crate) fn full(n: usize) -> Self {
        let mut s = IdSet::new(n);
        for id in 0..n as u32 {
            s.insert(id);
        }
        s
    }

    /// Adds `id`; `true` when it was not there yet.
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        let fresh = !self.contains(id);
        self.words[id as usize / 64] |= 1 << (id % 64);
        fresh
    }

    /// Drops `id`.
    pub(crate) fn remove(&mut self, id: u32) {
        self.words[id as usize / 64] &= !(1 << (id % 64));
    }

    /// `true` when `id` is in the set.
    pub(crate) fn contains(&self, id: u32) -> bool {
        self.words
            .get(id as usize / 64)
            .is_some_and(|w| w >> (id % 64) & 1 == 1)
    }

    /// Number of ids in the set.
    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The lowest id.
    pub(crate) fn first(&self) -> Option<u32> {
        self.iter().next()
    }

    /// The ids, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros();
                rest &= rest.wrapping_sub(1);
                (bit < 64).then_some(i as u32 * 64 + bit)
            })
        })
    }
}

/// Edge-target sentinel: the edge leaves the recovered blocks.
const NO_BLOCK: u32 = u32::MAX;

/// The dense numbering of one block map. Block ids are ranks in address
/// order. Each block's edges own consecutive *edge slots*, in
/// [`Block::edges`] order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Numbering {
    starts: Vec<u32>,
    /// First edge slot of each block, plus the slot count.
    edge_base: Vec<u32>,
    /// Target id of each edge slot, or [`NO_BLOCK`].
    edge_to: Vec<u32>,
}

impl Numbering {
    fn new(blocks: &BTreeMap<u32, Block>) -> Self {
        let mut num = Numbering {
            starts: blocks.keys().copied().collect(),
            edge_base: vec![0],
            edge_to: Vec::new(),
        };
        for b in blocks.values() {
            for e in &b.edges {
                let to = num.id_of(e.to).unwrap_or(NO_BLOCK);
                num.edge_to.push(to);
            }
            num.edge_base.push(num.edge_to.len() as u32);
        }
        num
    }

    /// Number of blocks.
    pub(crate) fn len(&self) -> usize {
        self.starts.len()
    }

    /// Start address of block `id`.
    pub(crate) fn start(&self, id: u32) -> u32 {
        self.starts[id as usize]
    }

    /// Number of edge slots.
    pub(crate) fn slot_count(&self) -> usize {
        self.edge_to.len()
    }

    /// The id of the block starting at `addr`.
    pub(crate) fn id_of(&self, addr: u32) -> Option<u32> {
        self.starts.binary_search(&addr).ok().map(|i| i as u32)
    }

    /// `(slot, target id)` of each edge of block `id`, in edge order;
    /// the target is [`NO_BLOCK`] for edges out of the recovered blocks.
    fn slots(&self, id: u32) -> impl DoubleEndedIterator<Item = (usize, u32)> + '_ {
        let range = self.edge_base[id as usize] as usize..self.edge_base[id as usize + 1] as usize;
        range.map(|k| (k, self.edge_to[k]))
    }

    /// The slot whose state the edge `from -> to` carries. Where `from`
    /// has two edges to `to` (a `call` to the next instruction, a `jnz`
    /// to its own fall-through), that is the *last* one.
    pub(crate) fn state_slot(&self, from: u32, to: u32) -> Option<usize> {
        self.slots(from)
            .rev()
            .find(|&(_, t)| t == to)
            .map(|(k, _)| k)
    }
}

/// One edge view of a [`Graph`]: successor and predecessor ids per
/// block, one entry per edge, in `(source id, edge order)` order.
#[derive(Debug, Clone)]
pub(crate) struct View {
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    pred_off: Vec<u32>,
    pred: Vec<u32>,
}

impl View {
    fn build(g: &Graph, keep: impl Fn(&Block, &Edge) -> bool) -> View {
        let n = g.len();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for id in 0..n as u32 {
            let b = g.block(id);
            edges.extend(
                g.edges(id)
                    .filter(|&(_, e, _)| keep(b, e))
                    .map(|(_, _, to)| (id, to)),
            );
        }
        let mut back: Vec<(u32, u32)> = edges.iter().map(|&(from, to)| (to, from)).collect();
        back.sort_by_key(|&(to, _)| to);
        let offsets = |pairs: &[(u32, u32)]| {
            let mut off = vec![0u32; n + 1];
            for &(k, _) in pairs {
                off[k as usize + 1] += 1;
            }
            for i in 0..n {
                off[i + 1] += off[i];
            }
            off
        };
        View {
            succ_off: offsets(&edges),
            succ: edges.iter().map(|e| e.1).collect(),
            pred_off: offsets(&back),
            pred: back.iter().map(|e| e.1).collect(),
        }
    }

    /// Number of blocks.
    fn len(&self) -> usize {
        self.succ_off.len() - 1
    }

    /// Successor ids of `id`, one per edge.
    pub(crate) fn succs(&self, id: u32) -> &[u32] {
        &self.succ[self.succ_off[id as usize] as usize..self.succ_off[id as usize + 1] as usize]
    }

    /// Predecessor ids of `id`, one per edge.
    pub(crate) fn preds(&self, id: u32) -> &[u32] {
        &self.pred[self.pred_off[id as usize] as usize..self.pred_off[id as usize + 1] as usize]
    }

    /// Blocks reachable from `from` (inclusive).
    pub(crate) fn reachable(&self, from: &[u32]) -> IdSet {
        let mut seen = IdSet::new(self.len());
        let mut stack = from.to_vec();
        while let Some(b) = stack.pop() {
            if seen.insert(b) {
                stack.extend(self.succs(b).iter().filter(|&&s| !seen.contains(s)));
            }
        }
        seen
    }

    /// Strongly connected components of the subgraph induced on `nodes`,
    /// minus the `removed` edges (iterative Tarjan), sorted by smallest
    /// member. Trivial single-node components without a self edge are
    /// dropped.
    pub(crate) fn cyclic_sccs(&self, nodes: &IdSet, removed: &[(u32, u32)]) -> Vec<IdSet> {
        const UNSEEN: u32 = u32::MAX;
        let n = self.len();
        let live = |v: u32, w: u32| nodes.contains(w) && !removed.contains(&(v, w));
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        let mut on_stack = IdSet::new(n);
        let mut stack: Vec<u32> = Vec::new();
        let mut frames: Vec<(u32, usize)> = Vec::new();
        let mut next = 0u32;
        let mut out = Vec::new();
        for root in nodes.iter() {
            if index[root as usize] == UNSEEN {
                frames.push((root, 0));
            }
            while let Some(top) = frames.last_mut() {
                let (v, i) = *top;
                if i == 0 && index[v as usize] == UNSEEN {
                    index[v as usize] = next;
                    low[v as usize] = next;
                    next += 1;
                    stack.push(v);
                    on_stack.insert(v);
                }
                if let Some(&w) = self.succs(v).get(i) {
                    top.1 += 1;
                    if !live(v, w) {
                        continue;
                    }
                    if index[w as usize] == UNSEEN {
                        frames.push((w, 0));
                    } else if on_stack.contains(w) {
                        low[v as usize] = low[v as usize].min(index[w as usize]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(u, _)) = frames.last() {
                    low[u as usize] = low[u as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    let mut comp = IdSet::new(n);
                    while let Some(w) = stack.pop() {
                        on_stack.remove(w);
                        comp.insert(w);
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() > 1 || self.succs(v).iter().any(|&w| w == v && live(v, w)) {
                        out.push(comp);
                    }
                }
            }
        }
        out.sort_by_key(|c| c.iter().next());
        out
    }
}

/// The blocks of a [`Cfg`] numbered densely ([`Numbering`], which it
/// dereferences to), with each edge view built at most once, on first
/// use.
///
/// Iterating ids (or popping the lowest id of an [`IdSet`]) visits blocks
/// in the order the address-keyed maps did, so every order-dependent
/// result stays the same.
///
/// * [`Graph::all`]: every edge into a recovered block (reachability,
///   unbounded cycles and the rate predictor).
/// * [`Graph::flow`]: the intra-procedural view of the loop and WCET
///   analyses. Full calls (`call`/`calli`) contribute their fall-through
///   (`CallReturn`) edge only: the callee body is priced separately
///   through the call graph, and cycles through a callee (recursion) stay
///   out of the flow graph so they surface as `CSA-RECURSION` instead of
///   as loops. Light calls (`jl`, no CSA spill) are *inlined*: their
///   call-target edge joins the flow graph, because the callee returns
///   via its own resolved `ji a11` flow edge, making the callee body part
///   of the caller's paths. The `JlReturn` shortcut edge is kept too,
///   which double-counts the callee when its return did resolve: sound,
///   and the only cover when it did not.
pub(crate) struct Graph<'a> {
    num: Numbering,
    blocks: Vec<&'a Block>,
    /// The ids of the blocks that start at a root.
    pub(crate) roots: IdSet,
    all: OnceCell<View>,
    flow: OnceCell<View>,
}

impl std::ops::Deref for Graph<'_> {
    type Target = Numbering;

    fn deref(&self) -> &Numbering {
        &self.num
    }
}

impl<'a> Graph<'a> {
    /// Numbers the blocks of `cfg`.
    pub(crate) fn of(cfg: &'a Cfg) -> Self {
        Graph::new(&cfg.blocks, &cfg.roots)
    }

    /// Numbers `blocks`, marking the `roots` that start one.
    pub(crate) fn new(blocks: &'a BTreeMap<u32, Block>, roots: &[(u32, String)]) -> Self {
        let num = Numbering::new(blocks);
        let mut root_ids = IdSet::new(num.len());
        for id in roots.iter().filter_map(|(a, _)| num.id_of(*a)) {
            root_ids.insert(id);
        }
        Graph {
            num,
            blocks: blocks.values().collect(),
            roots: root_ids,
            all: OnceCell::new(),
            flow: OnceCell::new(),
        }
    }

    /// Every edge into a recovered block.
    pub(crate) fn all(&self) -> &View {
        self.all.get_or_init(|| View::build(self, |_, _| true))
    }

    /// The intra-procedural flow view.
    pub(crate) fn flow(&self) -> &View {
        self.flow.get_or_init(|| {
            View::build(self, |b, e| e.kind != EdgeKind::CallTarget || ends_in_jl(b))
        })
    }

    /// The block with id `id`.
    pub(crate) fn block(&self, id: u32) -> &'a Block {
        self.blocks[id as usize]
    }

    /// `(slot, edge, target id)` of each edge of block `id` into a
    /// recovered block, in edge order.
    pub(crate) fn edges(&self, id: u32) -> impl Iterator<Item = (usize, &'a Edge, u32)> + '_ {
        let edges = &self.block(id).edges;
        self.slots(id)
            .zip(edges)
            .filter(|&((_, to), _)| to != NO_BLOCK)
            .map(|((slot, to), e)| (slot, e, to))
    }

    /// The resolved call target of block `id`, when it is a recovered
    /// block.
    pub(crate) fn call_target(&self, id: u32) -> Option<u32> {
        self.edges(id)
            .find(|(_, e, _)| e.kind == EdgeKind::CallTarget)
            .map(|(_, _, to)| to)
    }

    /// `true` when block `id` ends in a `jl` (a light call, inlined into
    /// the flow view).
    pub(crate) fn is_light_call(&self, id: u32) -> bool {
        ends_in_jl(self.block(id))
    }
}

fn ends_in_jl(b: &Block) -> bool {
    matches!(b.instrs.last().map(|s| &s.instr), Some(Instr::Jl { .. }))
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
        let g = Graph::of(&cfg);
        let comps = g.all().cyclic_sccs(&IdSet::full(g.len()), &[]);
        assert_eq!(comps.len(), 1);
        assert!(comps[0].contains(g.id_of(loop_block.start).expect("block id")));
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

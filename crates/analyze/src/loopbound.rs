//! Loop discovery and static trip-count bounds over the recovered CFG.
//!
//! Loops are the strongly connected components of the intra-procedural
//! flow graph, peeled recursively (remove each loop's back edge, re-run
//! SCC on its body) so nested loops get their own bounds. The graph is
//! peeled once per image, on dense block ids: the forest keeps each loop's
//! member ids, header, latch, trip and inner loops, and the WCET bound of
//! every function reads its loops from it. A function region is closed
//! under successors, so its cyclic SCCs are exactly the forest's SCCs
//! inside it, at every peel level. Every loop gets
//! an explicit [`TripBound`] — either an exact iteration count proven
//! from the constprop lattice, or `Unbounded` with the reason the proof
//! failed. There are no silent guesses: anything the counter analysis
//! cannot pin becomes `Unbounded` and poisons the WCET.
//!
//! `shape_of` is the crate's one counter proof: the loop forest runs it
//! on every peeled SCC, and the rate predictor runs it on the singleton
//! SCC of each self-looping block.
//!
//! A trip bound of `Exact(n)` means: each time control enters the loop
//! through its header, the header executes at most `n` times before the
//! loop exits. The two provable shapes are the counter idioms:
//!
//! * `LOOP aN, header` — the hardware loop counter, entered with a known
//!   constant, decremented only by the `LOOP` itself.
//! * `ADDI dN, dN, -1; ...; JNZ dN, header` — a software decrement
//!   counter, decremented exactly once per iteration and written by
//!   nothing else in the loop. "Once per iteration" is proven
//!   structurally: the decrement's block must lie on *every* header→latch
//!   path (a decrement behind a conditional branch can be skipped, so the
//!   loop need never terminate) and on *no* cycle of the loop body (a
//!   decrement inside an inner loop can step the counter past zero and
//!   wrap through 2^32). Either obstruction yields `Unbounded`.

use std::collections::BTreeSet;

use audo_tricore::isa::{Instr, RegRef};

use crate::cfg::{EdgeKind, Graph, IdSet, View};
use crate::constprop::Solution;

/// Ceiling on trip counts the analysis will certify; entry value zero on a
/// decrement counter means "wraps through 2^32", which is never a bound
/// worth reporting as finite, and a huge entry value is more likely an
/// address or a sign-extended constant than a count.
pub const MAX_TRIP: u32 = 16_777_216;

/// Static iteration bound of one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripBound {
    /// The header executes at most this many times per loop entry.
    Exact(u64),
    /// No finite bound could be proven; the payload names the first
    /// obstruction (stable strings, used in reports and findings).
    Unbounded(&'static str),
}

impl TripBound {
    /// The exact bound, when one was proven.
    #[must_use]
    pub fn exact(self) -> Option<u64> {
        match self {
            TripBound::Exact(n) => Some(n),
            TripBound::Unbounded(_) => None,
        }
    }
}

/// One discovered loop.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// The unique entry block (when the loop is reducible).
    pub header: u32,
    /// The unique back-edge source (when there is exactly one).
    pub latch: Option<u32>,
    /// Every block in the loop, header included.
    pub blocks: BTreeSet<u32>,
    /// Static iteration bound.
    pub trip: TripBound,
    /// Nesting depth: 0 for outermost loops.
    pub depth: usize,
}

/// Structural shape of one cyclic SCC: its header, latch, and trip bound
/// (block ids).
#[derive(Debug, Clone)]
pub(crate) struct LoopShape {
    /// Unique entry block, when reducible.
    pub(crate) header: Option<u32>,
    /// Unique back-edge source, when there is exactly one.
    pub(crate) latch: Option<u32>,
    /// Static iteration bound.
    pub(crate) trip: TripBound,
}

/// `true` when `instr` writes register `reg`.
fn writes_reg(instr: &Instr, reg: RegRef) -> bool {
    instr.writes().iter().any(|w| w == reg)
}

/// Analyzes one cyclic SCC of `view`: finds its unique header (entry from
/// outside) and latch (back-edge source), then tries to prove a trip bound
/// from the counter idiom at the latch and the constprop state on the
/// entry edges.
pub(crate) fn shape_of(g: &Graph, sol: &Solution, view: &View, scc: &IdSet) -> LoopShape {
    // Header: the unique SCC block with a predecessor outside, or a root.
    let mut headers = scc
        .iter()
        .filter(|&b| view.preds(b).iter().any(|&p| !scc.contains(p)) || g.roots.contains(b));
    let (Some(header), None) = (headers.next(), headers.next()) else {
        return LoopShape {
            header: None,
            latch: None,
            trip: TripBound::Unbounded("irreducible"),
        };
    };

    // Latch: the unique SCC block with an edge back to the header.
    let mut latches = scc.iter().filter(|&b| {
        g.edges(b)
            .any(|(_, e, to)| e.kind != EdgeKind::CallTarget && to == header)
    });
    let (Some(latch), None) = (latches.next(), latches.next()) else {
        return LoopShape {
            header: Some(header),
            latch: None,
            trip: TripBound::Unbounded("multi-latch"),
        };
    };

    let trip = trip_of(g, sol, view, scc, header, latch);
    LoopShape {
        header: Some(header),
        latch: Some(latch),
        trip,
    }
}

/// Proves the trip bound of a single-header single-latch loop, or names
/// the obstruction.
fn trip_of(
    g: &Graph,
    sol: &Solution,
    view: &View,
    scc: &IdSet,
    header: u32,
    latch: u32,
) -> TripBound {
    let Some(last) = g.block(latch).instrs.last() else {
        return TripBound::Unbounded("empty-latch");
    };

    // Identify the counter register and check the loop body leaves it
    // alone apart from the sanctioned decrement.
    let counter: RegRef = match last.instr {
        Instr::Loop { aa, .. } => {
            // Only the LOOP instruction itself may touch the counter.
            let foreign_write = scc.iter().any(|b| {
                g.block(b)
                    .instrs
                    .iter()
                    .any(|s| s.addr != last.addr && writes_reg(&s.instr, RegRef::A(aa.0)))
            });
            if foreign_write {
                return TripBound::Unbounded("counter-clobbered");
            }
            RegRef::A(aa.0)
        }
        Instr::Jnz { ra, .. } => {
            // Exactly one unit decrement of the counter in the whole
            // loop, and nothing else writes it (a non-unit or ascending
            // step has no provable bound here).
            let mut decrements = 0usize;
            let mut other_writes = 0usize;
            let mut dec_block: Option<u32> = None;
            for b in scc.iter() {
                for s in &g.block(b).instrs {
                    match s.instr {
                        Instr::AddI {
                            rd,
                            ra: src,
                            imm: -1,
                        } if rd == ra && src == ra => {
                            decrements += 1;
                            dec_block = Some(b);
                        }
                        ref i if writes_reg(i, RegRef::D(ra.0)) => other_writes += 1,
                        _ => {}
                    }
                }
            }
            if decrements != 1 || other_writes != 0 {
                return TripBound::Unbounded("counter-clobbered");
            }
            // The decrement must run exactly once per iteration. In the
            // header it runs each time the loop does; in the latch it sits
            // straight-line before the `jnz`, so every continuing
            // iteration decrements once and tests immediately (a monotone
            // -1 tested after each step cannot skip zero). Anywhere else,
            // prove it structurally: on every header→latch path (or an
            // iteration can skip it and the counter never reaches zero)
            // and on no cycle of the loop body (or an iteration can
            // decrement repeatedly, stepping past zero and wrapping).
            let dec_block = dec_block.expect("exactly one decrement");
            if dec_block != header && dec_block != latch {
                if path_avoiding(view, scc, header, latch, dec_block) {
                    return TripBound::Unbounded("conditional-decrement");
                }
                if on_body_cycle(view, scc, header, latch, dec_block) {
                    return TripBound::Unbounded("repeated-decrement");
                }
            }
            RegRef::D(ra.0)
        }
        _ => return TripBound::Unbounded("no-counter"),
    };

    // Entry value: max over every edge into the header from outside the
    // loop. All entries must carry a known constant.
    let mut entry_value: Option<u32> = None;
    for &p in view.preds(header) {
        if scc.contains(p) {
            continue;
        }
        let Some(st) = sol.edge_state(p, header) else {
            // Never reached by propagation: cannot enter at run time.
            continue;
        };
        let v = match counter {
            RegRef::A(i) => st.a[i as usize],
            RegRef::D(i) => st.d[i as usize],
        };
        match v {
            Some(v) => entry_value = Some(entry_value.map_or(v, |c| c.max(v))),
            None => return TripBound::Unbounded("entry-not-constant"),
        }
    }
    let Some(n) = entry_value else {
        return TripBound::Unbounded("no-known-entry");
    };
    // Zero wraps through 2^32 on a decrement counter; huge values are not
    // a constant worth certifying.
    if (1..=MAX_TRIP).contains(&n) {
        TripBound::Exact(u64::from(n))
    } else {
        TripBound::Unbounded("trip-out-of-range")
    }
}

/// `true` when some header→latch path through the loop body avoids
/// `avoid`: searches backward from the latch over intra-SCC predecessor
/// edges, never entering `avoid`, until the header is found. The back
/// edge is never traversed because the search stops at the header
/// instead of expanding it. No removed ancestor back edge connects two
/// blocks of a peeled inner SCC (peeling breaks the only cycle through
/// an ancestor header), so filtering the view's predecessors by SCC
/// membership is exact here.
fn path_avoiding(view: &View, scc: &IdSet, header: u32, latch: u32, avoid: u32) -> bool {
    let mut seen = scc.clone();
    let mut stack = vec![latch];
    seen.remove(latch);
    while let Some(x) = stack.pop() {
        for &p in view.preds(x) {
            if p == header {
                return true;
            }
            if p != avoid && seen.contains(p) {
                seen.remove(p);
                stack.push(p);
            }
        }
    }
    false
}

/// `true` when `node` lies on a cycle of the loop body (the SCC minus
/// its `latch`→`header` back edge): searches backward from `node` over
/// intra-SCC predecessor edges, skipping the back edge, for a path that
/// returns to `node`.
fn on_body_cycle(view: &View, scc: &IdSet, header: u32, latch: u32, node: u32) -> bool {
    let mut seen = scc.clone();
    let mut stack = vec![node];
    seen.remove(node);
    while let Some(x) = stack.pop() {
        for &p in view.preds(x) {
            if x == header && p == latch {
                continue;
            }
            if p == node {
                return true;
            }
            if seen.contains(p) {
                seen.remove(p);
                stack.push(p);
            }
        }
    }
    false
}

/// The loop forest of one image: every loop of the flow view, each
/// outermost loop followed by its peeled inner loops (pre-order).
#[derive(Default)]
pub(crate) struct Forest {
    /// The loops, as reported.
    pub(crate) loops: Vec<LoopInfo>,
    /// The same loops on block ids.
    pub(crate) nodes: Vec<ForestNode>,
    /// The outermost loops.
    pub(crate) roots: Vec<usize>,
}

/// One forest loop on block ids.
pub(crate) struct ForestNode {
    /// Block ids of the loop.
    pub(crate) members: IdSet,
    /// Header id (the smallest member when irreducible).
    pub(crate) header: u32,
    /// Latch id, when there is exactly one.
    pub(crate) latch: Option<u32>,
    /// The loops peeled directly out of this one.
    pub(crate) children: Vec<usize>,
}

/// Discovers every loop (outermost first, then peeled inner loops) over
/// the flow view, with a [`TripBound`] for each.
///
/// Peeling stops below irreducible or latch-less regions — their bodies
/// are already unbounded, so inner structure cannot tighten anything.
pub(crate) fn loop_forest(g: &Graph, sol: &Solution) -> Forest {
    let mut forest = Forest::default();
    forest.roots = peel(
        g,
        sol,
        &IdSet::full(g.len()),
        &mut Vec::new(),
        0,
        &mut forest,
    );
    forest
}

/// Peels the cyclic SCCs of `nodes`, minus the `removed` back edges of the
/// enclosing loops, into `forest`, then each loop's body without its own
/// back edge. Returns the indices of the loops found at this level.
fn peel(
    g: &Graph,
    sol: &Solution,
    nodes: &IdSet,
    removed: &mut Vec<(u32, u32)>,
    depth: usize,
    forest: &mut Forest,
) -> Vec<usize> {
    let mut level = Vec::new();
    for scc in g.flow().cyclic_sccs(nodes, removed) {
        let shape = shape_of(g, sol, g.flow(), &scc);
        let header = shape
            .header
            .unwrap_or_else(|| scc.iter().next().expect("non-empty"));
        forest.loops.push(LoopInfo {
            header: g.start(header),
            latch: shape.latch.map(|l| g.start(l)),
            blocks: scc.iter().map(|b| g.start(b)).collect(),
            trip: shape.trip,
            depth,
        });
        let i = forest.nodes.len();
        level.push(i);
        forest.nodes.push(ForestNode {
            members: IdSet::default(),
            header,
            latch: shape.latch,
            children: Vec::new(),
        });
        if let (Some(_), Some(latch)) = (shape.header, shape.latch) {
            // Peel: drop the back edge and look for inner loops.
            removed.push((latch, header));
            forest.nodes[i].children = peel(g, sol, &scc, removed, depth + 1, forest);
            removed.pop();
        }
        forest.nodes[i].members = scc;
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use audo_tricore::asm::assemble;

    fn forest(src: &str) -> Vec<LoopInfo> {
        let (g, sol) = cfg::recover_solved(&assemble(src).expect("test source assembles"));
        loop_forest(&Graph::of(&g), &sol).loops
    }

    #[test]
    fn multi_block_loop_gets_exact_trip() {
        let loops = forest(
            "
    .org 0x80000000
_start:
    la a2, 0xd0000400
    li d2, 8
head:
    ld.w d0, [a2]
    jz d0, even
    nop
even:
    addi d2, d2, -1
    jnz d2, head
    halt
",
        );
        assert_eq!(loops.len(), 1, "{loops:?}");
        let l = &loops[0];
        assert_eq!(l.trip, TripBound::Exact(8));
        assert_eq!(l.depth, 0);
        assert!(l.blocks.len() >= 3, "conditional body spans blocks: {l:?}");
    }

    #[test]
    fn nested_loops_get_independent_bounds() {
        let loops = forest(
            "
    .org 0x80000000
_start:
    li d2, 5
outer:
    li d3, 10
inner:
    addi d3, d3, -1
    jnz d3, inner
    addi d2, d2, -1
    jnz d2, outer
    halt
",
        );
        assert_eq!(loops.len(), 2, "{loops:?}");
        let outer = loops.iter().find(|l| l.depth == 0).expect("outer");
        let inner = loops.iter().find(|l| l.depth == 1).expect("inner");
        assert_eq!(outer.trip, TripBound::Exact(5));
        assert_eq!(inner.trip, TripBound::Exact(10));
        assert!(outer.blocks.contains(&inner.header), "nesting");
    }

    #[test]
    fn uncounted_cycle_is_unbounded_with_reason() {
        let loops = forest(
            "
    .org 0x80000000
main:
    nop
    j main
",
        );
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].trip, TripBound::Unbounded("no-counter"));
    }

    #[test]
    fn clobbered_counter_is_not_certified() {
        // The body reloads the counter every iteration: never terminates,
        // and must NOT be reported as bounded.
        let loops = forest(
            "
    .org 0x80000000
_start:
    li d2, 4
head:
    li d2, 4
    addi d2, d2, -1
    jnz d2, head
    halt
",
        );
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].trip, TripBound::Unbounded("counter-clobbered"));
    }

    #[test]
    fn conditional_decrement_is_not_certified() {
        // The decrement is guarded by a data-dependent branch: iterations
        // that take the `jz` skip it, so the counter need never reach
        // zero and the loop can run forever. Must NOT be Exact(4).
        let loops = forest(
            "
    .org 0x80000000
_start:
    la a2, 0xd0000400
    li d2, 4
head:
    ld.w d0, [a2]
    jz d0, skip
    addi d2, d2, -1
skip:
    jnz d2, head
    halt
",
        );
        assert_eq!(loops.len(), 1, "{loops:?}");
        assert_eq!(loops[0].trip, TripBound::Unbounded("conditional-decrement"));
    }

    #[test]
    fn decrement_inside_inner_loop_is_not_certified() {
        // The outer counter is decremented twice per outer iteration (the
        // inner loop runs twice): from 3 it steps 3 → 1 → -1 → ... and
        // wraps through 2^32 without ever being zero at the outer test.
        // The inner loop itself stays provable.
        let loops = forest(
            "
    .org 0x80000000
_start:
    li d2, 3
outer:
    li d3, 2
inner:
    addi d2, d2, -1
    addi d3, d3, -1
    jnz d3, inner
    jnz d2, outer
    halt
",
        );
        assert_eq!(loops.len(), 2, "{loops:?}");
        let outer = loops.iter().find(|l| l.depth == 0).expect("outer");
        let inner = loops.iter().find(|l| l.depth == 1).expect("inner");
        assert_eq!(outer.trip, TripBound::Unbounded("repeated-decrement"));
        assert_eq!(inner.trip, TripBound::Exact(2));
    }

    #[test]
    fn decrement_on_every_path_is_certified() {
        // The decrement sits in an interior body block (neither header
        // nor latch — branches diverge before it and after it), but both
        // arms rejoin at it: every iteration decrements exactly once, so
        // the exact trip is still provable.
        let loops = forest(
            "
    .org 0x80000000
_start:
    la a2, 0xd0000400
    li d2, 8
head:
    ld.w d0, [a2]
    jz d0, join
    nop
join:
    addi d2, d2, -1
    jz d0, tail
    nop
tail:
    jnz d2, head
    halt
",
        );
        assert_eq!(loops.len(), 1, "{loops:?}");
        assert_eq!(loops[0].trip, TripBound::Exact(8));
    }

    #[test]
    fn unknown_entry_value_is_unbounded() {
        let loops = forest(
            "
    .org 0x80000000
_start:
    la a2, 0xd0000400
    ld.w d2, [a2]
head:
    addi d2, d2, -1
    jnz d2, head
    halt
",
        );
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].trip, TripBound::Unbounded("entry-not-constant"));
    }

    #[test]
    fn hardware_loop_counter_bound_is_exact() {
        let loops = forest(
            "
    .org 0x80000000
_start:
    la a3, 100
head:
    nop
    loop a3, head
    halt
",
        );
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].trip, TripBound::Exact(100));
    }
}

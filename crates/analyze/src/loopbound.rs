//! Loop discovery and static trip-count bounds over the recovered CFG.
//!
//! Loops are the strongly connected components of the intra-procedural
//! flow graph, peeled recursively (remove each loop's back edge, re-run
//! SCC on its body) so nested loops get their own bounds. Every loop gets
//! an explicit [`TripBound`] — either an exact iteration count proven
//! from the constprop lattice, or `Unbounded` with the reason the proof
//! failed. There are no silent guesses: anything the counter analysis
//! cannot pin becomes `Unbounded` and poisons the WCET.
//!
//! [`shape_of`] is the crate's one counter proof: the WCET bound runs it
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

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use audo_tricore::isa::{Instr, RegRef};

use crate::cfg::{self, Cfg, EdgeKind};
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

/// Intra-procedural successor map.
///
/// Full calls (`call`/`calli`) contribute their fall-through
/// (`CallReturn`) edge only — the callee body is priced separately
/// through the call graph, and cycles through a callee (recursion) stay
/// out of the flow graph so they surface as `CSA-RECURSION` instead of as
/// loops. Light calls (`jl`, no CSA spill) are *inlined*: their
/// call-target edge joins the flow graph, because the callee returns via
/// its own resolved `ji a11` flow edge, making the callee body part of
/// the caller's paths. The `JlReturn` shortcut edge is kept too, which
/// double-counts the callee when its return did resolve — sound, and the
/// only cover when it did not.
#[must_use]
pub fn flow_adjacency(cfg: &Cfg) -> BTreeMap<u32, Vec<u32>> {
    cfg.blocks
        .iter()
        .map(|(&start, b)| {
            let light_call = matches!(b.instrs.last().map(|s| &s.instr), Some(Instr::Jl { .. }));
            let succs = b
                .edges
                .iter()
                .filter(|e| {
                    (e.kind != EdgeKind::CallTarget || light_call) && cfg.blocks.contains_key(&e.to)
                })
                .map(|e| e.to)
                .collect();
            (start, succs)
        })
        .collect()
}

/// Structural shape of one cyclic SCC: its header, latch, and trip bound.
#[derive(Debug, Clone)]
pub struct LoopShape {
    /// Unique entry block, when reducible.
    pub header: Option<u32>,
    /// Unique back-edge source, when there is exactly one.
    pub latch: Option<u32>,
    /// Static iteration bound.
    pub trip: TripBound,
}

/// `true` when `instr` writes register `reg`.
fn writes_reg(instr: &Instr, reg: RegRef) -> bool {
    instr.writes().iter().any(|w| w == reg)
}

/// Analyzes one cyclic SCC of the flow graph: finds its unique header
/// (entry from outside) and latch (back-edge source), then tries to prove
/// a trip bound from the counter idiom at the latch and the constprop
/// state on the entry edges.
#[must_use]
pub fn shape_of(
    cfg: &Cfg,
    sol: &Solution,
    preds: &BTreeMap<u32, Vec<u32>>,
    scc: &BTreeSet<u32>,
) -> LoopShape {
    // Header: the unique SCC block with a flow predecessor outside.
    let headers: Vec<u32> = scc
        .iter()
        .filter(|&&b| {
            preds
                .get(&b)
                .is_some_and(|ps| ps.iter().any(|p| !scc.contains(p)))
                || cfg.roots.iter().any(|(a, _)| *a == b)
        })
        .copied()
        .collect();
    let Ok([header]) = <[u32; 1]>::try_from(headers) else {
        return LoopShape {
            header: None,
            latch: None,
            trip: TripBound::Unbounded("irreducible"),
        };
    };

    // Latch: the unique SCC block with an edge back to the header.
    let latches: Vec<u32> = scc
        .iter()
        .filter(|&&b| {
            cfg.blocks[&b]
                .edges
                .iter()
                .any(|e| e.kind != EdgeKind::CallTarget && e.to == header)
        })
        .copied()
        .collect();
    let Ok([latch]) = <[u32; 1]>::try_from(latches) else {
        return LoopShape {
            header: Some(header),
            latch: None,
            trip: TripBound::Unbounded("multi-latch"),
        };
    };

    let trip = trip_of(cfg, sol, preds, scc, header, latch);
    LoopShape {
        header: Some(header),
        latch: Some(latch),
        trip,
    }
}

/// Proves the trip bound of a single-header single-latch loop, or names
/// the obstruction.
fn trip_of(
    cfg: &Cfg,
    sol: &Solution,
    preds: &BTreeMap<u32, Vec<u32>>,
    scc: &BTreeSet<u32>,
    header: u32,
    latch: u32,
) -> TripBound {
    let latch_block = &cfg.blocks[&latch];
    let Some(last) = latch_block.instrs.last() else {
        return TripBound::Unbounded("empty-latch");
    };

    // Identify the counter register and check the loop body leaves it
    // alone apart from the sanctioned decrement.
    let counter: RegRef = match last.instr {
        Instr::Loop { aa, .. } => {
            // Only the LOOP instruction itself may touch the counter.
            let foreign_write = scc.iter().any(|&b| {
                cfg.blocks[&b]
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
            for &b in scc {
                for s in &cfg.blocks[&b].instrs {
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
                if path_avoiding(preds, scc, header, latch, dec_block) {
                    return TripBound::Unbounded("conditional-decrement");
                }
                if on_body_cycle(preds, scc, header, latch, dec_block) {
                    return TripBound::Unbounded("repeated-decrement");
                }
            }
            RegRef::D(ra.0)
        }
        _ => return TripBound::Unbounded("no-counter"),
    };

    // Entry value: max over every flow edge into the header from outside
    // the loop. All entries must carry a known constant.
    let mut entry_value: Option<u32> = None;
    let empty = Vec::new();
    for &p in preds.get(&header).unwrap_or(&empty) {
        if scc.contains(&p) {
            continue;
        }
        let Some(st) = sol.edge_out.get(&(p, header)) else {
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
/// an ancestor header), so filtering the global predecessor map by SCC
/// membership is exact here.
fn path_avoiding(
    preds: &BTreeMap<u32, Vec<u32>>,
    scc: &BTreeSet<u32>,
    header: u32,
    latch: u32,
    avoid: u32,
) -> bool {
    let empty = Vec::new();
    let mut seen = BTreeSet::from([latch]);
    let mut queue = VecDeque::from([latch]);
    while let Some(x) = queue.pop_front() {
        for &p in preds.get(&x).unwrap_or(&empty) {
            if p == header {
                return true;
            }
            if scc.contains(&p) && p != avoid && seen.insert(p) {
                queue.push_back(p);
            }
        }
    }
    false
}

/// `true` when `node` lies on a cycle of the loop body (the SCC minus
/// its `latch`→`header` back edge): searches backward from `node` over
/// intra-SCC predecessor edges, skipping the back edge, for a path that
/// returns to `node`.
fn on_body_cycle(
    preds: &BTreeMap<u32, Vec<u32>>,
    scc: &BTreeSet<u32>,
    header: u32,
    latch: u32,
    node: u32,
) -> bool {
    let empty = Vec::new();
    let mut seen = BTreeSet::from([node]);
    let mut queue = VecDeque::from([node]);
    while let Some(x) = queue.pop_front() {
        for &p in preds.get(&x).unwrap_or(&empty) {
            if x == header && p == latch {
                continue;
            }
            if p == node {
                return true;
            }
            if scc.contains(&p) && seen.insert(p) {
                queue.push_back(p);
            }
        }
    }
    false
}

/// Discovers every loop (outermost first, then peeled inner loops) over
/// the intra-procedural flow graph, with a [`TripBound`] for each.
///
/// Peeling stops below irreducible or latch-less regions — their bodies
/// are already unbounded, so inner structure cannot tighten anything.
///
/// `adj` is [`flow_adjacency`]`(cfg)` and `preds` its predecessor map,
/// which the caller builds once and shares.
#[must_use]
pub fn loop_forest(
    cfg: &Cfg,
    sol: &Solution,
    adj: &BTreeMap<u32, Vec<u32>>,
    preds: &BTreeMap<u32, Vec<u32>>,
) -> Vec<LoopInfo> {
    let all: BTreeSet<u32> = cfg.blocks.keys().copied().collect();
    let mut out = Vec::new();
    let mut removed: BTreeSet<(u32, u32)> = BTreeSet::new();
    peel(cfg, sol, adj, preds, &all, &mut removed, 0, &mut out);
    out
}

#[allow(clippy::too_many_arguments)] // reason: internal recursion, not an API
fn peel(
    cfg: &Cfg,
    sol: &Solution,
    adj: &BTreeMap<u32, Vec<u32>>,
    preds: &BTreeMap<u32, Vec<u32>>,
    nodes: &BTreeSet<u32>,
    removed: &mut BTreeSet<(u32, u32)>,
    depth: usize,
    out: &mut Vec<LoopInfo>,
) {
    for scc in cfg::cyclic_sccs(adj, nodes, removed) {
        let shape = shape_of(cfg, sol, preds, &scc);
        let Some(header) = shape.header else {
            out.push(LoopInfo {
                header: *scc.iter().next().expect("non-empty"),
                latch: None,
                blocks: scc,
                trip: shape.trip,
                depth,
            });
            continue;
        };
        out.push(LoopInfo {
            header,
            latch: shape.latch,
            blocks: scc.clone(),
            trip: shape.trip,
            depth,
        });
        if let Some(latch) = shape.latch {
            // Peel: drop the back edge and look for inner loops.
            removed.insert((latch, header));
            peel(cfg, sol, adj, preds, &scc, removed, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use audo_tricore::asm::assemble;

    fn forest(src: &str) -> Vec<LoopInfo> {
        let (g, sol) = cfg::recover_solved(&assemble(src).expect("test source assembles"));
        let adj = flow_adjacency(&g);
        loop_forest(&g, &sol, &adj, &cfg::predecessors(&adj))
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

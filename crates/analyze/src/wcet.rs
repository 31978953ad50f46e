//! Static worst-case execution time (WCET) and CSA-depth bounds.
//!
//! IPET-style formulation over the recovered CFG: every block gets a
//! worst-case cycle cost from the pipeline's own exported cost model
//! ([`CostModel`] — one timing table, shared with the cycle-level
//! simulator), every loop gets a trip bound from [`crate::loopbound`],
//! and the whole-program WCET is the longest path through the
//! condensation of the flow graph, with each loop collapsed to
//! `trip × longest-single-iteration`. Calls price the callee's WCET into
//! the calling block; recursion, unresolved indirects, `wait`, `syscall`
//! and undecodable successors all poison the bound to an explicit
//! [`Bound::Unbounded`] with the obstruction named — the analyzer never
//! silently guesses.
//!
//! The same call graph yields the worst-case context-save depth: `call`/
//! `calli` spill one CSA frame each, `jl` spills none, and every
//! interrupt vector can nest once on top of the main program (TriCore
//! priority ceilings admit one live activation per priority level). A
//! finite depth beyond the platform's free-list budget is a
//! `CSA-OVERFLOW` error; recursion is `CSA-RECURSION`.
//!
//! Soundness is machine-checked, not argued: [`check_profile`] compares
//! a measured [`BlockProfile`] (exact per-block cycle attribution from
//! the pipeline tier) against the static per-block bounds, and the
//! fuzzer's `--check-wcet` mode searches generated programs for
//! violations. A measured value above a static bound is a timing-model
//! bug by definition.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use audo_common::Addr;
use audo_obs::profile::BlockProfile;
use audo_platform::config::SocConfig;
use audo_tricore::bus::CoreBus;
use audo_tricore::isa::Instr;
use audo_tricore::pipeline::{CostModel, MemCosts};

use crate::cfg::{self, Cfg, EdgeKind, Terminator};
use crate::constprop::Solution;
use crate::findings::{Finding, Severity};
use crate::loopbound::{self, LoopInfo, TripBound};

/// A worst-case bound: a finite cycle/frame count, or unbounded with the
/// first obstruction named (stable strings, reported verbatim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Proven finite bound.
    Finite(u64),
    /// No finite bound exists or could be proven.
    Unbounded(&'static str),
}

impl Bound {
    /// The finite value, when one was proven.
    #[must_use]
    pub fn finite(self) -> Option<u64> {
        match self {
            Bound::Finite(n) => Some(n),
            Bound::Unbounded(_) => None,
        }
    }

    fn add(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Unbounded(r), _) => Bound::Unbounded(r),
            (_, Bound::Unbounded(r)) => Bound::Unbounded(r),
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.saturating_add(b)),
        }
    }

    fn mul(self, n: u64) -> Bound {
        match self {
            Bound::Unbounded(r) => Bound::Unbounded(r),
            Bound::Finite(a) => Bound::Finite(a.saturating_mul(n)),
        }
    }

    fn max(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Unbounded(r), _) => Bound::Unbounded(r),
            (_, Bound::Unbounded(r)) => Bound::Unbounded(r),
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.max(b)),
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(n) => write!(f, "{n}"),
            Bound::Unbounded(r) => write!(f, "unbounded({r})"),
        }
    }
}

/// Worst-case bounds of one function (a root or full-call target).
#[derive(Debug, Clone)]
pub struct FuncBound {
    /// Entry block address.
    pub entry: u32,
    /// Root label when the entry is a root (`entry`, `vector_p4`, ...).
    pub label: Option<String>,
    /// Worst-case cycles from entry to any return/halt.
    pub wcet: Bound,
    /// Worst-case CSA frames the function can have live at once (its own
    /// deepest call chain; the frame its caller spilled is not included).
    pub csa_frames: Bound,
    /// Blocks reachable inside the function.
    pub blocks: usize,
}

/// The static worst-case report for one image.
#[derive(Debug, Clone)]
pub struct WcetReport {
    /// Image name (used in renders).
    pub image: String,
    /// Per-block body cost bound (cycles per execution, entry overhead
    /// excluded), keyed by block start.
    pub block_cost: BTreeMap<u32, u64>,
    /// Every discovered loop with its trip bound.
    pub loops: Vec<LoopInfo>,
    /// Per-function bounds, sorted by entry address.
    pub funcs: Vec<FuncBound>,
    /// Whole-program WCET from the entry root (unbounded when interrupt
    /// vectors exist: preemption has no static activation count).
    pub program_wcet: Bound,
    /// Worst-case CSA depth: entry chain plus one nesting per vector.
    pub program_csa: Bound,
    /// CSA frames available on the target (the free-list length).
    pub csa_budget: u32,
    /// Cost-model entry overhead (cycles charged around a block per
    /// execution), exported for the profile check.
    pub entry_overhead: u64,
    /// Largest per-block body cost in the image.
    pub max_block_cost: u64,
    /// `WCET-UNBOUNDED` / `CSA-RECURSION` / `CSA-OVERFLOW` findings.
    pub findings: Vec<Finding>,
}

impl WcetReport {
    /// `true` when the report contains an error-severity finding (CSA
    /// overflow or recursion): the CLI exit-2 condition.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }
}

/// Worst-case single-transaction memory costs for a full SoC, from its
/// configuration. Deliberately pessimistic: every access is priced at
/// the slowest slave behind the crossbar, plus an arbitration backlog of
/// one outstanding transaction per competing master (PCP, DMA, the
/// CPU's other port) and one in-flight data-flash program.
#[must_use]
pub fn soc_mem_costs(cfg: &SocConfig) -> MemCosts {
    let slave = cfg
        .flash
        .wait_states
        .max(cfg.dflash_read_latency)
        .max(cfg.sram_latency)
        .max(cfg.emem_latency)
        .max(cfg.periph_latency);
    let backlog = 3 * slave + cfg.dflash_write_busy;
    MemCosts {
        fetch: cfg.flash.wait_states * 2 + backlog,
        read: slave + backlog,
        write: slave + backlog,
    }
}

/// The call target of `block`, when resolved to a recovered block.
fn call_target(cfg: &Cfg, block: u32) -> Option<u32> {
    cfg.blocks[&block]
        .edges
        .iter()
        .find(|e| e.kind == EdgeKind::CallTarget && cfg.blocks.contains_key(&e.to))
        .map(|e| e.to)
}

/// `true` when `block` ends in a `jl` (light call, inlined into the flow
/// graph by [`loopbound::flow_adjacency`]).
fn is_light_call(cfg: &Cfg, block: u32) -> bool {
    matches!(
        cfg.blocks[&block].instrs.last().map(|s| &s.instr),
        Some(Instr::Jl { .. })
    )
}

/// Interrupt-vector roots that start a recovered block.
fn vector_roots(cfg: &Cfg) -> impl Iterator<Item = u32> + '_ {
    cfg.roots
        .iter()
        .filter(|(a, name)| name.starts_with("vector") && cfg.blocks.contains_key(a))
        .map(|(a, _)| *a)
}

struct Analyzer<'a> {
    cfg: &'a Cfg,
    sol: &'a Solution,
    adj: BTreeMap<u32, Vec<u32>>,
    preds: BTreeMap<u32, Vec<u32>>,
    block_cost: BTreeMap<u32, u64>,
    wcet_memo: BTreeMap<u32, Bound>,
    csa_memo: BTreeMap<u32, Bound>,
    wcet_visiting: BTreeSet<u32>,
    csa_visiting: BTreeSet<u32>,
    /// Blocks each priced function reaches (its `func_wcet` walk).
    func_blocks: BTreeMap<u32, usize>,
    /// Entries found on a cycle of the call graph.
    recursive: BTreeSet<u32>,
}

impl<'a> Analyzer<'a> {
    /// An analyzer over the intra-procedural flow graph of `cfg`, pricing
    /// blocks from `block_cost` (left empty when only CSA depth is asked).
    fn new(cfg: &'a Cfg, sol: &'a Solution, block_cost: BTreeMap<u32, u64>) -> Self {
        let adj = loopbound::flow_adjacency(cfg);
        let preds = cfg::predecessors(&adj);
        Analyzer {
            cfg,
            sol,
            adj,
            preds,
            block_cost,
            wcet_memo: BTreeMap::new(),
            csa_memo: BTreeMap::new(),
            wcet_visiting: BTreeSet::new(),
            csa_visiting: BTreeSet::new(),
            func_blocks: BTreeMap::new(),
            recursive: BTreeSet::new(),
        }
    }

    /// Worst-case whole-program CSA depth: the entry root's deepest call
    /// chain plus one nested activation per interrupt vector (priority
    /// ceilings admit one live activation per level).
    fn program_csa(&mut self) -> Bound {
        let cfg = self.cfg;
        let entry = cfg.roots.first().map(|(a, _)| *a);
        let mut depth = entry.map_or(Bound::Unbounded("no-entry"), |e| self.func_csa(e));
        for v in vector_roots(cfg) {
            depth = depth.add(Bound::Finite(1)).add(self.func_csa(v));
        }
        depth
    }

    /// Worst-case cycles one execution of `b` contributes to a path: its
    /// body cost plus, for full calls, the callee's whole WCET.
    fn block_weight(&mut self, b: u32) -> Bound {
        let cfg = self.cfg;
        let block = &cfg.blocks[&b];
        for s in &block.instrs {
            match s.instr {
                // `wait` parks the core until an interrupt: no bound.
                Instr::Wait => return Bound::Unbounded("wait"),
                // The trap handler is not in the CFG.
                Instr::Syscall { .. } => return Bound::Unbounded("syscall"),
                _ => {}
            }
        }
        let base = Bound::Finite(self.block_cost[&b]);
        match block.term {
            Terminator::Call if !is_light_call(cfg, b) => match call_target(cfg, b) {
                Some(callee) => base.add(self.func_wcet(callee)),
                None => Bound::Unbounded("unresolved-call"),
            },
            Terminator::IndirectJump if block.edges.is_empty() => {
                Bound::Unbounded("unresolved-indirect")
            }
            Terminator::DecodeStop => Bound::Unbounded("decode-stop"),
            _ => base,
        }
    }

    /// Memoized per-function WCET; a cycle in the call graph yields
    /// `unbounded(recursion)`.
    fn func_wcet(&mut self, entry: u32) -> Bound {
        if let Some(&b) = self.wcet_memo.get(&entry) {
            return b;
        }
        if !self.wcet_visiting.insert(entry) {
            self.recursive.insert(entry);
            return Bound::Unbounded("recursion");
        }
        let nodes = cfg::reachable(&self.adj, &[entry]);
        self.func_blocks.insert(entry, nodes.len());
        let w = if nodes.is_empty() {
            Bound::Unbounded("no-blocks")
        } else {
            let mut weights = BTreeMap::new();
            for &b in &nodes {
                let w = self.block_weight(b);
                weights.insert(b, w);
            }
            let mut removed = BTreeSet::new();
            self.region_longest(&nodes, &mut removed, &weights, entry)
        };
        self.wcet_visiting.remove(&entry);
        self.wcet_memo.insert(entry, w);
        w
    }

    /// Longest path from `entry` through the region `nodes` (minus the
    /// already-peeled `removed` back edges): contract every cyclic SCC to
    /// `trip × longest-single-iteration`, then sweep the condensation
    /// DAG in topological order.
    fn region_longest(
        &self,
        nodes: &BTreeSet<u32>,
        removed: &mut BTreeSet<(u32, u32)>,
        weights: &BTreeMap<u32, Bound>,
        entry: u32,
    ) -> Bound {
        let sccs = cfg::cyclic_sccs(&self.adj, nodes, removed);

        // Component ids: cyclic SCCs first, then singleton nodes.
        let mut comp_of: BTreeMap<u32, usize> = BTreeMap::new();
        let mut comp_weight: Vec<Bound> = Vec::new();
        for scc in &sccs {
            let id = comp_weight.len();
            for &b in scc {
                comp_of.insert(b, id);
            }
            let shape = loopbound::shape_of(self.cfg, self.sol, &self.preds, scc);
            let w = match (shape.trip, shape.header, shape.latch) {
                (TripBound::Exact(trip), Some(header), Some(latch)) => {
                    removed.insert((latch, header));
                    self.region_longest(scc, removed, weights, header).mul(trip)
                }
                (TripBound::Exact(_), _, _) => Bound::Unbounded("irreducible"),
                (TripBound::Unbounded(reason), _, _) => Bound::Unbounded(reason),
            };
            comp_weight.push(w);
        }
        for &b in nodes {
            if let std::collections::btree_map::Entry::Vacant(e) = comp_of.entry(b) {
                e.insert(comp_weight.len());
                comp_weight.push(weights[&b]);
            }
        }

        // Condensation DAG over the region.
        let n = comp_weight.len();
        let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut indeg = vec![0usize; n];
        for &b in nodes {
            for &s in self.adj.get(&b).map(Vec::as_slice).unwrap_or_default() {
                if !nodes.contains(&s) || removed.contains(&(b, s)) {
                    continue;
                }
                let (cb, cs) = (comp_of[&b], comp_of[&s]);
                if cb != cs && succs[cb].insert(cs) {
                    indeg[cs] += 1;
                }
            }
        }

        // Longest path from the entry component, in topological order.
        let centry = comp_of[&entry];
        let mut dist: Vec<Option<Bound>> = vec![None; n];
        dist[centry] = Some(comp_weight[centry]);
        let mut queue: VecDeque<usize> = (0..n).filter(|&c| indeg[c] == 0).collect();
        let mut best = comp_weight[centry];
        while let Some(c) = queue.pop_front() {
            if let Some(d) = dist[c] {
                best = best.max(d);
                for &s in &succs[c] {
                    let cand = d.add(comp_weight[s]);
                    dist[s] = Some(match dist[s] {
                        None => cand,
                        Some(cur) => cur.max(cand),
                    });
                }
            }
            for &s in &succs[c] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        best
    }

    /// Memoized worst-case live CSA frames of one function: the deepest
    /// chain of full calls it can have outstanding.
    fn func_csa(&mut self, entry: u32) -> Bound {
        if let Some(&b) = self.csa_memo.get(&entry) {
            return b;
        }
        if !self.csa_visiting.insert(entry) {
            self.recursive.insert(entry);
            return Bound::Unbounded("recursion");
        }
        let cfg = self.cfg;
        let nodes = cfg::reachable(&self.adj, &[entry]);
        // An entry the CFG never decoded has no claimable depth — mirror
        // `func_wcet`, never report a confident 0.
        let mut depth = if nodes.is_empty() {
            Bound::Unbounded("no-blocks")
        } else {
            Bound::Finite(0)
        };
        for &b in &nodes {
            let block = &cfg.blocks[&b];
            if block
                .instrs
                .iter()
                .any(|s| matches!(s.instr, Instr::Syscall { .. }))
            {
                // A syscall spills a frame and enters a trap handler the
                // CFG does not model.
                depth = depth.max(Bound::Unbounded("syscall"));
                continue;
            }
            let site = match block.instrs.last().map(|s| &s.instr) {
                Some(Instr::Call { .. } | Instr::CallI { .. }) => match call_target(cfg, b) {
                    Some(callee) => Bound::Finite(1).add(self.func_csa(callee)),
                    None => Bound::Unbounded("unresolved-call"),
                },
                // Code behind an unresolved successor is not in `nodes`
                // and may call: mirror `block_weight`.
                _ if block.term == Terminator::IndirectJump && block.edges.is_empty() => {
                    Bound::Unbounded("unresolved-indirect")
                }
                _ if block.term == Terminator::DecodeStop => Bound::Unbounded("decode-stop"),
                // `jl` spills nothing and its callee is inlined into
                // `nodes`, so the callee's own call sites are already
                // visited by this loop.
                _ => Bound::Finite(0),
            };
            depth = depth.max(site);
        }
        self.csa_visiting.remove(&entry);
        self.csa_memo.insert(entry, depth);
        depth
    }
}

/// Worst-case whole-program CSA depth only: the entry root's deepest
/// call chain plus one nested activation per interrupt vector. A cheap
/// subset of [`analyze_wcet`] (no per-block costs, no longest paths)
/// used by the rate predictor's fleet envelope.
#[must_use]
pub fn program_csa_bound(cfg: &Cfg, sol: &Solution) -> Bound {
    Analyzer::new(cfg, sol, BTreeMap::new()).program_csa()
}

/// Runs the whole-image WCET and CSA-depth analysis.
///
/// `model` must describe the bus the image will actually run against
/// ([`MemCosts::of_test_bus`] for fuzz-tier programs, [`soc_mem_costs`]
/// for the full SoC); `csa_budget` is the number of frames on the free
/// list (the platform default is `audo_platform::soc::CSA_AREAS`).
#[must_use]
pub fn analyze_wcet(
    cfg: &Cfg,
    sol: &Solution,
    model: &CostModel,
    csa_budget: u32,
    image: &str,
) -> WcetReport {
    let block_cost: BTreeMap<u32, u64> = cfg
        .blocks
        .iter()
        .map(|(&start, b)| (start, model.block_cost(b.instrs.iter().map(|s| &s.instr))))
        .collect();
    let max_block_cost = block_cost.values().copied().max().unwrap_or(0);
    let mut az = Analyzer::new(cfg, sol, block_cost);
    let loops = loopbound::loop_forest(cfg, sol, &az.adj, &az.preds);

    // Function entries: every root, plus every resolved full-call target
    // (`jl` targets are inlined into their callers, not functions).
    let mut entries: BTreeMap<u32, Option<String>> = cfg
        .roots
        .iter()
        .filter(|(a, _)| cfg.blocks.contains_key(a))
        .map(|(a, label)| (*a, Some(label.clone())))
        .collect();
    for (&start, block) in &cfg.blocks {
        if block.term == Terminator::Call && !is_light_call(cfg, start) {
            if let Some(t) = call_target(cfg, start) {
                entries.entry(t).or_insert(None);
            }
        }
    }

    let funcs: Vec<FuncBound> = entries
        .iter()
        .map(|(&entry, label)| {
            let wcet = az.func_wcet(entry);
            FuncBound {
                entry,
                label: label.clone(),
                wcet,
                csa_frames: az.func_csa(entry),
                blocks: az.func_blocks[&entry],
            }
        })
        .collect();

    // Whole-program bounds. Interrupt vectors make end-to-end time
    // unbounded (preemption has no static activation count), but each
    // vector still nests at most once on the CSA (priority ceilings).
    let entry_root = cfg.roots.first().map(|(a, _)| *a);
    let entry_wcet = entry_root.map_or(Bound::Unbounded("no-entry"), |e| az.func_wcet(e));
    let program_wcet = if vector_roots(cfg).next().is_none() {
        entry_wcet
    } else {
        Bound::Unbounded("interrupt-driven")
    };
    let program_csa = az.program_csa();

    let mut findings = Vec::new();
    if let Bound::Unbounded(reason) = program_wcet {
        findings.push(Finding::new(
            Severity::Warning,
            "WCET-UNBOUNDED",
            entry_root,
            format!("no finite whole-program WCET: {reason}"),
        ));
    }
    for &r in &az.recursive {
        let mut f = Finding::new(
            Severity::Error,
            "CSA-RECURSION",
            Some(r),
            "recursive call chain: CSA depth grows without bound".to_string(),
        );
        f.note = Some("every activation spills one 16-word frame; the free list is finite".into());
        findings.push(f);
    }
    if let Bound::Finite(d) = program_csa {
        if d > u64::from(csa_budget) {
            let mut f = Finding::new(
                Severity::Error,
                "CSA-OVERFLOW",
                entry_root,
                format!("worst-case CSA depth {d} exceeds the {csa_budget}-frame free list"),
            );
            f.note =
                Some("a deep enough call chain faults with `free CSA list exhausted`".to_string());
            findings.push(f);
        }
    }
    findings.sort_by(|x, y| x.sort_key().cmp(&y.sort_key()));

    WcetReport {
        image: image.to_string(),
        block_cost: az.block_cost.clone(),
        loops,
        funcs,
        program_wcet,
        program_csa,
        csa_budget,
        entry_overhead: model.entry_overhead(),
        max_block_cost,
        findings,
    }
}

/// Renders the report (fixed layout, byte-identical across runs and
/// worker counts — golden-testable).
#[must_use]
pub fn render_report(r: &WcetReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "static worst-case report for `{}`:", r.image);
    let _ = writeln!(out, "  program WCET : {} cycles", r.program_wcet);
    let _ = writeln!(
        out,
        "  CSA depth    : {} frames (budget {})",
        r.program_csa, r.csa_budget
    );
    let _ = writeln!(out, "  functions:");
    for f in &r.funcs {
        let label = f.label.as_deref().unwrap_or("-");
        let _ = writeln!(
            out,
            "    {:#010x} {:<12} blocks={:<4} csa={:<20} wcet={}",
            f.entry,
            label,
            f.blocks,
            f.csa_frames.to_string(),
            f.wcet
        );
    }
    let _ = writeln!(out, "  loops:");
    if r.loops.is_empty() {
        let _ = writeln!(out, "    (none)");
    }
    for l in &r.loops {
        let trip = match l.trip {
            TripBound::Exact(n) => n.to_string(),
            TripBound::Unbounded(reason) => format!("unbounded({reason})"),
        };
        let _ = writeln!(
            out,
            "    header={:#010x} depth={} blocks={:<4} trip={}",
            l.header,
            l.depth,
            l.blocks.len(),
            trip
        );
    }
    for f in &r.findings {
        let _ = writeln!(out, "  finding: [{}] {}", f.code, f.message);
    }
    out
}

/// One measured-exceeds-static violation found by [`check_profile`].
#[derive(Debug, Clone)]
pub struct Violation {
    /// What was violated: `block`, `end-to-end` or `csa-depth`.
    pub what: &'static str,
    /// Block start address (0 for whole-program checks).
    pub addr: u32,
    /// Measured value (cycles or frames).
    pub measured: u64,
    /// The static bound it exceeded.
    pub bound: u64,
}

/// Outcome of checking one measured profile against the static bounds.
#[derive(Debug, Clone, Default)]
pub struct ProfileCheck {
    /// Profiled blocks that were checked against a bound.
    pub checked_blocks: usize,
    /// Profiled blocks skipped (self-modified generation, `wait` inside,
    /// or bytes the static CFG never decoded).
    pub skipped_blocks: usize,
    /// Everything measured above its bound (empty = sound run).
    pub violations: Vec<Violation>,
}

impl ProfileCheck {
    /// `true` when nothing exceeded a static bound.
    #[must_use]
    pub fn sound(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Samples the write-generation stamp of every code region the static
/// CFG decoded from, as the bus reports it *right now*. Call this after
/// the image is loaded but before the run: [`check_profile`] then
/// recognizes measured blocks carrying exactly these stamps as
/// image-resident code (any later store into a region bumps its
/// generation, so modified code can never masquerade as static).
#[must_use]
pub fn code_stamps<B: CoreBus>(cfg: &Cfg, bus: &B) -> BTreeMap<u32, u64> {
    let mut out = BTreeMap::new();
    for &start in cfg.blocks.keys() {
        if let Some((region, generation)) = bus.code_region(Addr(start)) {
            out.insert(region, generation);
        }
    }
    out
}

/// Verifies a measured block profile against the static bounds: no
/// profiled block may cost more than its instruction count at the worst
/// static per-instruction rate plus per-entry overhead, the whole run
/// must fit the program WCET (when finite), and the measured CSA peak
/// must not exceed the static depth (when finite).
///
/// `stamps` is the load-time region-generation snapshot from
/// [`code_stamps`]; profiled blocks whose stamp differs executed bytes
/// the static image no longer describes (self-modified or runtime-written
/// code) and are skipped, never checked against a stale bound.
///
/// The tiers carve their own blocks (capped at
/// [`audo_tricore::decode_cache::MAX_BLOCK_LEN`], split on runtime events),
/// so measured block boundaries need not match static ones; the check
/// therefore prices a measured block at `instructions × max instruction
/// cost over its address span`. `irqs_accepted` loosens each per-block
/// bound by one entry overhead per accepted interrupt (an interrupt
/// discards in-flight work whose wait cycles were already charged).
#[must_use]
#[allow(clippy::too_many_arguments)] // reason: each input is one independent measured signal
pub fn check_profile(
    cfg: &Cfg,
    model: &CostModel,
    report: &WcetReport,
    profile: &BlockProfile,
    stamps: &BTreeMap<u32, u64>,
    total_cycles: u64,
    irqs_accepted: u64,
    csa_peak: u32,
) -> ProfileCheck {
    // Statically decoded instruction sites, by address.
    let mut sites: BTreeMap<u32, (&Instr, u8)> = BTreeMap::new();
    for block in cfg.blocks.values() {
        for s in &block.instrs {
            sites.insert(s.addr, (&s.instr, s.len));
        }
    }

    let mut out = ProfileCheck::default();
    for (key, counts) in profile.blocks() {
        // Self-modified code executes under a bumped generation; the
        // static image no longer describes those bytes.
        if stamps.get(&key.region) != Some(&key.generation) || counts.span == 0 {
            out.skipped_blocks += 1;
            continue;
        }
        let start = key.addr();
        let end = start.wrapping_add(counts.span);
        let mut pc = start;
        let mut cmax: Option<u64> = None;
        while pc < end {
            let Some(&(instr, len)) = sites.get(&pc) else {
                // The static CFG never decoded these bytes (code behind
                // an unresolved indirect): nothing to check against.
                cmax = None;
                break;
            };
            if matches!(instr, Instr::Wait) {
                // Idle time is unbounded by construction.
                cmax = None;
                break;
            }
            let c = model.instr_cost(instr);
            cmax = Some(cmax.map_or(c, |m| m.max(c)));
            pc = pc.wrapping_add(u32::from(len));
        }
        let Some(cmax) = cmax else {
            out.skipped_blocks += 1;
            continue;
        };
        out.checked_blocks += 1;
        let bound = counts.instructions.saturating_mul(cmax).saturating_add(
            (counts.executions + 1 + irqs_accepted).saturating_mul(report.entry_overhead),
        );
        if counts.cycles() > bound {
            out.violations.push(Violation {
                what: "block",
                addr: start,
                measured: counts.cycles(),
                bound,
            });
        }
    }

    if let Bound::Finite(w) = report.program_wcet {
        let bound = w.saturating_add(report.entry_overhead);
        if total_cycles > bound {
            out.violations.push(Violation {
                what: "end-to-end",
                addr: 0,
                measured: total_cycles,
                bound,
            });
        }
    }
    if let Bound::Finite(d) = report.program_csa {
        if u64::from(csa_peak) > d {
            out.violations.push(Violation {
                what: "csa-depth",
                addr: 0,
                measured: u64::from(csa_peak),
                bound: d,
            });
        }
    }
    out
}

/// Renders a profile-check outcome (deterministic).
#[must_use]
pub fn render_check(image: &str, check: &ProfileCheck) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "wcet soundness check for `{image}`: {} block(s) checked, {} skipped: {}",
        check.checked_blocks,
        check.skipped_blocks,
        if check.sound() { "sound" } else { "VIOLATED" }
    );
    for v in &check.violations {
        let _ = writeln!(
            out,
            "  VIOLATION {:<10} at {:#010x}: measured {} > static bound {}",
            v.what, v.addr, v.measured, v.bound
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cfg, constprop};
    use audo_tricore::asm::assemble;
    use audo_tricore::pipeline::CoreConfig;

    fn report(src: &str) -> WcetReport {
        let image = assemble(src).expect("test source assembles");
        let g = cfg::recover(&image);
        let sol = constprop::solve(&g);
        let model = CostModel::new(CoreConfig::default(), soc_mem_costs(&SocConfig::tc1797()));
        analyze_wcet(&g, &sol, &model, 48, "test")
    }

    #[test]
    fn straight_line_program_has_finite_wcet() {
        let r = report(
            "
    .org 0x80000000
_start:
    movi d0, 1
    movi d1, 2
    add d2, d0, d1
    halt
",
        );
        let w = r.program_wcet.finite().expect("finite");
        assert!(w > 0);
        assert_eq!(r.program_csa, Bound::Finite(0));
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn loop_trip_scales_the_wcet() {
        let small = report(
            "
    .org 0x80000000
_start:
    li d2, 10
head:
    addi d2, d2, -1
    jnz d2, head
    halt
",
        );
        let large = report(
            "
    .org 0x80000000
_start:
    li d2, 1000
head:
    addi d2, d2, -1
    jnz d2, head
    halt
",
        );
        let ws = small.program_wcet.finite().expect("finite small");
        let wl = large.program_wcet.finite().expect("finite large");
        assert!(
            wl > ws * 50,
            "trip 1000 must dominate trip 10: {ws} vs {wl}"
        );
    }

    #[test]
    fn unbounded_loop_poisons_the_program_bound() {
        let r = report(
            "
    .org 0x80000000
main:
    nop
    j main
",
        );
        assert_eq!(r.program_wcet, Bound::Unbounded("no-counter"));
        assert!(
            r.findings.iter().any(|f| f.code == "WCET-UNBOUNDED"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn calls_price_the_callee_and_one_csa_frame() {
        let r = report(
            "
    .org 0x80000000
_start:
    call outer
    halt
outer:
    call inner
    ret
inner:
    movi d0, 7
    ret
",
        );
        assert_eq!(r.program_csa, Bound::Finite(2));
        let w = r.program_wcet.finite().expect("finite");
        let inner = r
            .funcs
            .iter()
            .filter(|f| f.label.is_none())
            .map(|f| f.wcet.finite().expect("finite callee"))
            .min()
            .expect("callee entries");
        assert!(w > inner, "caller includes callee: {w} vs {inner}");
    }

    #[test]
    fn recursion_is_flagged_with_stable_code() {
        let r = report(
            "
    .org 0x80000000
_start:
    call f
    halt
f:
    call f
    ret
",
        );
        assert_eq!(r.program_csa, Bound::Unbounded("recursion"));
        assert!(
            r.findings.iter().any(|f| f.code == "CSA-RECURSION"),
            "{:?}",
            r.findings
        );
        assert!(r.has_errors());
    }

    #[test]
    fn deep_call_chain_overflows_the_budget() {
        // 61 nested calls against a 48-frame budget.
        let mut src = String::from("\n    .org 0x80000000\n_start:\n    call f0\n    halt\n");
        for i in 0..60 {
            src.push_str(&format!("f{i}:\n    call f{}\n    ret\n", i + 1));
        }
        src.push_str("f60:\n    ret\n");
        let image = assemble(&src).expect("assembles");
        let g = cfg::recover(&image);
        let sol = constprop::solve(&g);
        let model = CostModel::new(CoreConfig::default(), soc_mem_costs(&SocConfig::tc1797()));
        let r = analyze_wcet(&g, &sol, &model, 48, "deep");
        assert_eq!(r.program_csa, Bound::Finite(61));
        assert!(
            r.findings.iter().any(|f| f.code == "CSA-OVERFLOW"),
            "{:?}",
            r.findings
        );
        assert!(r.has_errors());
    }

    #[test]
    fn interrupt_vectors_make_wcet_unbounded_but_csa_finite() {
        let r = report(
            "
    .org 0x80000000
_start:
    li d0, 0x80008000
    mtcr biv, d0
    halt
    .org 0x80008000 + 4*32
    addi d7, d7, 1
    rfe
",
        );
        assert_eq!(r.program_wcet, Bound::Unbounded("interrupt-driven"));
        // Main chain 0 frames + one nested activation of the vector.
        assert_eq!(r.program_csa, Bound::Finite(1));
    }

    #[test]
    fn undecodable_entry_claims_no_csa_depth() {
        // The entry root is pure data: the CFG decodes no block there, so
        // neither bound may claim anything — in particular the CSA depth
        // must not be a confident 0.
        let r = report(
            "
    .org 0x80000000
_start:
    .word 0xffffffff, 0xffffffff
",
        );
        assert_eq!(r.program_wcet, Bound::Unbounded("no-blocks"));
        assert_eq!(r.program_csa, Bound::Unbounded("no-blocks"));
    }

    #[test]
    fn unresolved_indirect_hop_claims_no_csa_depth() {
        // Shrunk fuzz reproducer (seed 0xc6e6415d455db97d, case 38): the
        // constant propagator gives up on the `ji` chain before the
        // `call`, so the depth behind the last resolved hop is unknown
        // and must not be a confident 0 (the run reaches depth 1).
        let mut src = String::from("\n    .org 0x80000000\n_start:\n");
        for hop in 0..10 {
            src.push_str(&format!("    la a6, join_{hop}\n    ji a6\njoin_{hop}:\n"));
        }
        src.push_str("    call leaf\n    halt\nleaf:\n    ret\n");
        let r = report(&src);
        assert!(r.program_csa.finite().is_none(), "{:?}", r.program_csa);
        let g = cfg::recover(&assemble(&src).expect("assembles"));
        let sol = constprop::solve(&g);
        assert!(program_csa_bound(&g, &sol).finite().is_none());
    }

    #[test]
    fn report_renders_deterministically() {
        let src = "
    .org 0x80000000
_start:
    li d2, 8
head:
    addi d2, d2, -1
    jnz d2, head
    halt
";
        let a = render_report(&report(src));
        let b = render_report(&report(src));
        assert_eq!(a, b);
        assert!(a.contains("trip=8"), "{a}");
    }
}

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

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use audo_common::Addr;
use audo_obs::profile::BlockProfile;
use audo_platform::config::SocConfig;
use audo_tricore::bus::CoreBus;
use audo_tricore::isa::Instr;
use audo_tricore::pipeline::{CostModel, MemCosts};

use crate::cfg::{Cfg, Graph, IdSet, Site, Terminator};
use crate::constprop::Solution;
use crate::findings::{Finding, Severity};
use crate::loopbound::{self, Forest, LoopInfo, TripBound};

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

/// Interrupt-vector roots that start a recovered block.
fn vector_roots<'c>(cfg: &'c Cfg, g: &'c Graph) -> impl Iterator<Item = u32> + 'c {
    cfg.roots
        .iter()
        .filter(|(_, name)| name.starts_with("vector"))
        .filter_map(|(a, _)| g.id_of(*a))
}

/// Function entries by id, ascending, with their root labels: every
/// root, plus every resolved full-call target (`jl` targets are inlined
/// into their callers, not functions).
fn function_entries<'c>(cfg: &'c Cfg, g: &Graph) -> Vec<(u32, Option<&'c str>)> {
    let mut entries: Vec<Option<Option<&str>>> = vec![None; g.len()];
    for (a, label) in &cfg.roots {
        if let Some(id) = g.id_of(*a) {
            entries[id as usize] = Some(Some(label));
        }
    }
    for id in 0..g.len() as u32 {
        if g.block(id).term == Terminator::Call && !g.is_light_call(id) {
            if let Some(t) = g.call_target(id) {
                entries[t as usize].get_or_insert(None);
            }
        }
    }
    (0..g.len() as u32)
        .filter_map(|id| Some((id, entries[id as usize]?)))
        .collect()
}

/// Per-function bounds over one numbered graph. Everything is indexed by
/// block id and lives only as long as the analysis.
struct Analyzer<'g, 'a> {
    cfg: &'a Cfg,
    g: &'g Graph<'a>,
    forest: &'g Forest,
    block_cost: Vec<u64>,
    wcet_memo: Vec<Option<Bound>>,
    csa_memo: Vec<Option<Bound>>,
    wcet_visiting: IdSet,
    csa_visiting: IdSet,
    /// Blocks each priced function reaches (its `func_wcet` walk).
    func_blocks: Vec<usize>,
    /// Entries found on a cycle of the call graph.
    recursive: IdSet,
}

impl<'g, 'a> Analyzer<'g, 'a> {
    /// An analyzer over the flow view of `g`, reading loops from `forest`
    /// and pricing blocks from `block_cost` (both left empty when only
    /// CSA depth is asked).
    fn new(cfg: &'a Cfg, g: &'g Graph<'a>, forest: &'g Forest, block_cost: Vec<u64>) -> Self {
        let n = g.len();
        Analyzer {
            cfg,
            g,
            forest,
            block_cost,
            wcet_memo: vec![None; n],
            csa_memo: vec![None; n],
            wcet_visiting: IdSet::new(n),
            csa_visiting: IdSet::new(n),
            func_blocks: vec![0; n],
            recursive: IdSet::new(n),
        }
    }

    /// Worst-case whole-program CSA depth: the entry root's deepest call
    /// chain plus one nested activation per interrupt vector (priority
    /// ceilings admit one live activation per level).
    fn program_csa(&mut self) -> Bound {
        let entry = self.cfg.roots.first().map(|(a, _)| *a);
        let mut depth = match entry {
            None => Bound::Unbounded("no-entry"),
            // An entry the CFG never decoded has no claimable depth:
            // never report a confident 0.
            Some(e) => self
                .g
                .id_of(e)
                .map_or(Bound::Unbounded("no-blocks"), |id| self.func_csa(id)),
        };
        for v in vector_roots(self.cfg, self.g) {
            depth = depth.add(Bound::Finite(1)).add(self.func_csa(v));
        }
        depth
    }

    /// Worst-case cycles one execution of `b` contributes to a path: its
    /// body cost plus, for full calls, the callee's whole WCET.
    fn block_weight(&mut self, b: u32) -> Bound {
        let block = self.g.block(b);
        for s in &block.instrs {
            match s.instr {
                // `wait` parks the core until an interrupt: no bound.
                Instr::Wait => return Bound::Unbounded("wait"),
                // The trap handler is not in the CFG.
                Instr::Syscall { .. } => return Bound::Unbounded("syscall"),
                _ => {}
            }
        }
        let base = Bound::Finite(self.block_cost[b as usize]);
        match block.term {
            Terminator::Call if !self.g.is_light_call(b) => match self.g.call_target(b) {
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
        if let Some(b) = self.wcet_memo[entry as usize] {
            return b;
        }
        if !self.wcet_visiting.insert(entry) {
            self.recursive.insert(entry);
            return Bound::Unbounded("recursion");
        }
        let nodes = self.g.flow().reachable(&[entry]);
        self.func_blocks[entry as usize] = nodes.len();
        let mut weights = vec![Bound::Finite(0); self.g.len()];
        for b in nodes.iter() {
            weights[b as usize] = self.block_weight(b);
        }
        // The region is closed under flow successors, so its cyclic SCCs
        // are exactly the outermost forest loops inside it.
        let forest = self.forest;
        let loops = forest.roots.iter().copied();
        let loops = loops.filter(|&i| nodes.contains(forest.nodes[i].header));
        let w = self.region_longest(&nodes, loops, &mut Vec::new(), &weights, entry);
        self.wcet_visiting.remove(entry);
        self.wcet_memo[entry as usize] = Some(w);
        w
    }

    /// Longest path from `entry` through the region `nodes` (minus the
    /// `removed` back edges of the enclosing loops): contract each of the
    /// region's `loops` (forest indices) to `trip × longest-single-iteration`,
    /// then sweep the condensation DAG in topological order.
    fn region_longest(
        &self,
        nodes: &IdSet,
        loops: impl Iterator<Item = usize>,
        removed: &mut Vec<(u32, u32)>,
        weights: &[Bound],
        entry: u32,
    ) -> Bound {
        const NO_COMP: usize = usize::MAX;
        let forest = self.forest;

        // Component ids: loops first, then singleton nodes.
        let mut comp_of = vec![NO_COMP; self.g.len()];
        let mut comp_weight: Vec<Bound> = Vec::new();
        for i in loops {
            let id = comp_weight.len();
            let node = &forest.nodes[i];
            for b in node.members.iter() {
                comp_of[b as usize] = id;
            }
            let w = match forest.loops[i].trip {
                TripBound::Exact(trip) => {
                    let latch = node.latch.expect("an exact trip has a latch");
                    removed.push((latch, node.header));
                    let inner = node.children.iter().copied();
                    let body =
                        self.region_longest(&node.members, inner, removed, weights, node.header);
                    removed.pop();
                    body.mul(trip)
                }
                TripBound::Unbounded(reason) => Bound::Unbounded(reason),
            };
            comp_weight.push(w);
        }
        for b in nodes.iter() {
            if comp_of[b as usize] == NO_COMP {
                comp_of[b as usize] = comp_weight.len();
                comp_weight.push(weights[b as usize]);
            }
        }

        // Condensation DAG over the region.
        let n = comp_weight.len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for b in nodes.iter() {
            for &s in self.g.flow().succs(b) {
                if !nodes.contains(s) || removed.contains(&(b, s)) {
                    continue;
                }
                let (cb, cs) = (comp_of[b as usize], comp_of[s as usize]);
                if cb != cs && !succs[cb].contains(&cs) {
                    succs[cb].push(cs);
                    indeg[cs] += 1;
                }
            }
        }
        for s in &mut succs {
            s.sort_unstable();
        }

        // Longest path from the entry component, in topological order.
        let centry = comp_of[entry as usize];
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
        if let Some(b) = self.csa_memo[entry as usize] {
            return b;
        }
        if !self.csa_visiting.insert(entry) {
            self.recursive.insert(entry);
            return Bound::Unbounded("recursion");
        }
        let mut depth = Bound::Finite(0);
        for b in self.g.flow().reachable(&[entry]).iter() {
            let block = self.g.block(b);
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
                Some(Instr::Call { .. } | Instr::CallI { .. }) => match self.g.call_target(b) {
                    Some(callee) => Bound::Finite(1).add(self.func_csa(callee)),
                    None => Bound::Unbounded("unresolved-call"),
                },
                // Code behind an unresolved successor is not in the region
                // and may call: mirror `block_weight`.
                _ if block.term == Terminator::IndirectJump && block.edges.is_empty() => {
                    Bound::Unbounded("unresolved-indirect")
                }
                _ if block.term == Terminator::DecodeStop => Bound::Unbounded("decode-stop"),
                // `jl` spills nothing and its callee is inlined into the
                // region, so the callee's own call sites are already
                // visited by this loop.
                _ => Bound::Finite(0),
            };
            depth = depth.max(site);
        }
        self.csa_visiting.remove(entry);
        self.csa_memo[entry as usize] = Some(depth);
        depth
    }
}

/// Worst-case whole-program CSA depth only: the entry root's deepest
/// call chain plus one nested activation per interrupt vector. A cheap
/// subset of [`analyze_wcet`] (no per-block costs, no loops, no longest
/// paths) used by the rate predictor's fleet envelope.
/// `g` is `cfg` numbered.
#[must_use]
pub(crate) fn program_csa_bound(cfg: &Cfg, g: &Graph) -> Bound {
    Analyzer::new(cfg, g, &Forest::default(), Vec::new()).program_csa()
}

/// Runs the whole-image WCET and CSA-depth analysis.
///
/// `model` must describe the bus the image will actually run against
/// ([`MemCosts::of_test_bus`] for fuzz-tier programs, [`soc_mem_costs`]
/// for the full SoC); `csa_budget` is the number of frames on the free
/// list (the platform default is `audo_platform::soc::CSA_AREAS`).
///
/// The blocks are numbered once and the loops are peeled once: each
/// function's bound reads its loops' headers, latches, trips and inner
/// loops from the one forest.
#[must_use]
pub fn analyze_wcet(
    cfg: &Cfg,
    sol: &Solution,
    model: &CostModel,
    csa_budget: u32,
    image: &str,
) -> WcetReport {
    let g = Graph::of(cfg);
    let n = g.len();
    let block_cost: Vec<u64> = (0..n as u32)
        .map(|id| model.block_cost(g.block(id).instrs.iter().map(|s| &s.instr)))
        .collect();
    let max_block_cost = block_cost.iter().copied().max().unwrap_or(0);
    let forest = loopbound::loop_forest(&g, sol);
    let mut az = Analyzer::new(cfg, &g, &forest, block_cost);

    let funcs: Vec<FuncBound> = function_entries(cfg, &g)
        .into_iter()
        .map(|(id, label)| {
            let wcet = az.func_wcet(id);
            FuncBound {
                entry: g.start(id),
                label: label.map(str::to_string),
                wcet,
                csa_frames: az.func_csa(id),
                blocks: az.func_blocks[id as usize],
            }
        })
        .collect();

    // Whole-program bounds. Interrupt vectors make end-to-end time
    // unbounded (preemption has no static activation count), but each
    // vector still nests at most once on the CSA (priority ceilings).
    let entry_root = cfg.roots.first().map(|(a, _)| *a);
    let entry_wcet = entry_root.map_or(Bound::Unbounded("no-entry"), |e| {
        g.id_of(e)
            .map_or(Bound::Unbounded("no-blocks"), |id| az.func_wcet(id))
    });
    let program_wcet = if vector_roots(cfg, &g).next().is_none() {
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
    for r in az.recursive.iter() {
        let mut f = Finding::new(
            Severity::Error,
            "CSA-RECURSION",
            Some(g.start(r)),
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
        block_cost: (0..n as u32)
            .map(|id| g.start(id))
            .zip(az.block_cost)
            .collect(),
        loops: forest.loops,
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
        // The statically decoded sites from `pc` to the end of the block
        // holding it; consecutive sites of a block are contiguous.
        let mut sites: &[Site] = &[];
        while pc < end {
            if sites.first().map(|s| s.addr) != Some(pc) {
                sites = sites_from(cfg, pc);
            }
            let Some((site, rest)) = sites.split_first() else {
                // The static CFG never decoded these bytes (code behind
                // an unresolved indirect): nothing to check against.
                cmax = None;
                break;
            };
            if matches!(site.instr, Instr::Wait) {
                // Idle time is unbounded by construction.
                cmax = None;
                break;
            }
            let c = model.instr_cost(&site.instr);
            cmax = Some(cmax.map_or(c, |m| m.max(c)));
            pc = pc.wrapping_add(u32::from(site.len));
            sites = rest;
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

/// The decoded sites of the block holding `pc`, from the one at `pc` on;
/// empty when no block decoded an instruction starting there.
fn sites_from(cfg: &Cfg, pc: u32) -> &[Site] {
    cfg.block_containing(pc)
        .and_then(|b| {
            let i = b.instrs.binary_search_by_key(&pc, |s| s.addr).ok()?;
            Some(&b.instrs[i..])
        })
        .unwrap_or_default()
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
    use crate::cfg;
    use audo_tricore::asm::assemble;
    use audo_tricore::pipeline::CoreConfig;

    fn report(src: &str) -> WcetReport {
        let image = assemble(src).expect("test source assembles");
        let (g, sol) = cfg::recover_solved(&image);
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
    fn nested_trips_multiply_in_the_bound() {
        let nested = |inner: u32| {
            let src = format!(
                "
    .org 0x80000000
_start:
    li d2, 5
outer:
    li d3, {inner}
inner:
    addi d3, d3, -1
    jnz d3, inner
    addi d2, d2, -1
    jnz d2, outer
    halt
"
            );
            report(&src).program_wcet.finite().expect("finite")
        };
        let (w10, w20) = (nested(10), nested(20));
        // Five outer iterations, each running the inner body ten more
        // times, and every iteration costs at least one cycle.
        assert!(
            w20 >= w10 + 50,
            "inner trip must scale per outer iteration: {w10} vs {w20}"
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
        let (g, sol) = cfg::recover_solved(&image);
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
        let (g, _) = cfg::recover_solved(&assemble(&src).expect("assembles"));
        assert!(program_csa_bound(&g, &Graph::of(&g)).finite().is_none());
    }

    /// Checks, for every function region of `image` at every peel level,
    /// that the cyclic SCCs recomputed on the region are exactly the
    /// forest loops inside it, with the same shape; returns how many
    /// loops were compared.
    fn regions_match_forest(image: &audo_tricore::Image, name: &str) -> usize {
        let (cfg, sol) = cfg::recover_solved(image);
        let g = Graph::of(&cfg);
        let forest = loopbound::loop_forest(&g, &sol);
        let mut compared = 0;
        for (entry, _) in function_entries(&cfg, &g) {
            let nodes = g.flow().reachable(&[entry]);
            let loops: Vec<usize> = (forest.roots.iter().copied())
                .filter(|&i| nodes.contains(forest.nodes[i].header))
                .collect();
            compared += level_matches(&g, &sol, &forest, &nodes, &loops, &mut Vec::new(), name);
        }
        compared
    }

    fn level_matches(
        g: &Graph,
        sol: &Solution,
        forest: &Forest,
        nodes: &IdSet,
        loops: &[usize],
        removed: &mut Vec<(u32, u32)>,
        name: &str,
    ) -> usize {
        let sccs = g.flow().cyclic_sccs(nodes, removed);
        let members: Vec<&IdSet> = loops.iter().map(|&i| &forest.nodes[i].members).collect();
        assert_eq!(
            sccs.iter().collect::<Vec<_>>(),
            members,
            "{name}: SCCs of a region"
        );
        let mut compared = loops.len();
        for (&i, scc) in loops.iter().zip(&sccs) {
            let shape = loopbound::shape_of(g, sol, g.flow(), scc);
            let (l, node) = (&forest.loops[i], &forest.nodes[i]);
            assert_eq!(shape.trip, l.trip, "{name}: trip of loop {:#x}", l.header);
            assert_eq!(shape.latch, node.latch, "{name}: latch of {:#x}", l.header);
            if let Some(header) = shape.header {
                assert_eq!(header, node.header, "{name}: header");
            }
            if let (Some(header), Some(latch)) = (shape.header, shape.latch) {
                removed.push((latch, header));
                compared += level_matches(g, sol, forest, scc, &node.children, removed, name);
                removed.pop();
            }
        }
        compared
    }

    #[test]
    fn function_regions_see_exactly_the_forest_loops_of_generated_programs_and_corpus() {
        let mut compared = 0;
        for seed in 0..150 {
            let src = audo_fuzz::gen::generate(seed, &[]);
            let image = assemble(&src).expect("generated program assembles");
            compared += regions_match_forest(&image, &format!("gen_{seed}"));
        }
        let corpus = audo_asm::load_corpus(&audo_asm::default_corpus_dir()).expect("corpus");
        for e in &corpus {
            compared += regions_match_forest(&e.image, &e.file_name);
        }
        assert!(compared > 500, "too few loops compared: {compared}");
    }

    #[test]
    fn function_regions_see_exactly_the_forest_loops_of_hand_written_shapes() {
        let cases = [
            (
                "jl callee inlined into two callers",
                "
    .org 0x80000000
_start:
    call f
    call g
    halt
f:
    li d2, 3
f_loop:
    jl leaf
    addi d2, d2, -1
    jnz d2, f_loop
    ret
g:
    li d3, 4
g_loop:
    jl leaf
    addi d3, d3, -1
    jnz d3, g_loop
    ret
leaf:
    li d4, 2
leaf_loop:
    addi d4, d4, -1
    jnz d4, leaf_loop
    ji a11
",
                3,
            ),
            (
                "nested loops in a callee",
                "
    .org 0x80000000
_start:
    call f
    halt
f:
    li d2, 5
outer:
    li d3, 10
inner:
    addi d3, d3, -1
    jnz d3, inner
    addi d2, d2, -1
    jnz d2, outer
    ret
",
                2,
            ),
            (
                "irreducible loop",
                "
    .org 0x80000000
_start:
    call f
    halt
f:
    la a2, 0xd0000400
    ld.w d0, [a2]
    jz d0, side
top:
    ld.w d1, [a2]
    jz d1, done
side:
    ld.w d1, [a2]
    jnz d1, top
done:
    ret
",
                1,
            ),
            (
                "unbounded outer loop around a bounded inner one",
                "
    .org 0x80000000
_start:
    nop
outer:
    li d3, 10
inner:
    addi d3, d3, -1
    jnz d3, inner
    j outer
",
                2,
            ),
        ];
        for (name, src, loops) in cases {
            let image = assemble(src).expect("test source assembles");
            // Each loop is seen once per function region that holds it.
            assert!(regions_match_forest(&image, name) >= loops, "{name}");
        }
        let irreducible = report(cases[2].1);
        assert!(
            irreducible
                .loops
                .iter()
                .any(|l| l.trip == TripBound::Unbounded("irreducible")),
            "{:?}",
            irreducible.loops
        );
        let outer = report(cases[3].1);
        assert_eq!(
            outer
                .loops
                .iter()
                .map(|l| (l.depth, l.trip))
                .collect::<Vec<_>>(),
            [
                (0, TripBound::Unbounded("no-counter")),
                (1, TripBound::Exact(10))
            ]
        );
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

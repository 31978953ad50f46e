//! Block-level sampling-profile model.
//!
//! The execution tiers' decode caches already know basic-block
//! boundaries, so a low-overhead profiler falls out of bookkeeping they
//! do anyway: the functional ISS counts block *executions* and the
//! cycle-level pipeline additionally charges every one of its cycles —
//! retire cycles and per-cause stall cycles — to the block that owns the
//! retiring/stalled instruction. This module is the deterministic data
//! model those counters land in: [`BlockProfile`] (keyed, mergeable
//! counters plus an explicit unattributed bucket so cycle totals always
//! balance), [`SymbolMap`] symbolization, folded-stack flamegraph
//! synthesis from a static [`CallGraph`] (no trace needed), and the
//! text/JSON renderers the `profile` CLI and the fleet service share.
//!
//! Everything here is contractually byte-identical across runs and
//! worker counts: ordered containers only, no wall clock, and every
//! renderer sorts with total, documented tie-breaks.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use audo_common::events::StallReason;

/// Identity of one profiled basic block.
///
/// Blocks are keyed by the base address of the memory region their bytes
/// live in, the block's byte offset inside that region, and the region's
/// write-generation counter at decode time. The generation stamp keeps
/// self-modified or overlay-swapped code distinct: after a store into
/// the region, re-executions of the same addresses profile under a new
/// key instead of polluting the stale one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BlockKey {
    /// Base address of the containing memory region.
    pub region: u32,
    /// Byte offset of the block start within the region.
    pub offset: u32,
    /// Write generation of the region when the block was decoded.
    pub generation: u64,
}

impl BlockKey {
    /// Absolute address of the block start.
    #[must_use]
    pub fn addr(&self) -> u32 {
        self.region.wrapping_add(self.offset)
    }
}

/// Counters attributed to one block (or to the unattributed bucket).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCounts {
    /// Times execution entered the block at its first instruction.
    pub executions: u64,
    /// Instructions retired while executing the block.
    pub instructions: u64,
    /// Bytes from the block start covered by recorded instructions (the
    /// furthest `instruction end - block start` seen), for disassembly.
    pub span: u32,
    /// Cycles in which an instruction of this block retired
    /// (cycle-level tier only; zero on the functional tier).
    pub retire_cycles: u64,
    /// Stall cycles charged to this block, by cause
    /// (indexed by [`StallReason::index`]).
    pub stall_cycles: [u64; StallReason::COUNT],
}

impl BlockCounts {
    /// Total stall cycles across all causes.
    #[must_use]
    pub fn stall_total(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// Total cycles attributed to the block: `retire + Σ stalls`. Zero on
    /// the functional tier, which has no notion of time.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.retire_cycles + self.stall_total()
    }

    /// The stall cause with the most cycles charged, if any cycles were
    /// charged at all. Ties break toward the lower [`StallReason::index`].
    #[must_use]
    pub fn dominant_stall(&self) -> Option<StallReason> {
        let mut best: Option<StallReason> = None;
        for reason in StallReason::ALL {
            let c = self.stall_cycles[reason.index()];
            if c > 0 && best.is_none_or(|b| c > self.stall_cycles[b.index()]) {
                best = Some(reason);
            }
        }
        best
    }

    /// Adds another set of counters into this one (`span` takes the max).
    pub fn merge(&mut self, other: &BlockCounts) {
        self.executions += other.executions;
        self.instructions += other.instructions;
        self.span = self.span.max(other.span);
        self.retire_cycles += other.retire_cycles;
        for (a, b) in self.stall_cycles.iter_mut().zip(other.stall_cycles) {
            *a += b;
        }
    }

    /// The deterministic hotness ordering used by every renderer: cycles,
    /// then instructions, then executions (all descending).
    #[must_use]
    pub fn weight(&self) -> (u64, u64, u64) {
        (self.cycles(), self.instructions, self.executions)
    }
}

/// A deterministic per-block profile.
///
/// The recording methods are branch-free on the disabled path by
/// construction — the tiers hold an `Option<Box<BlockProfile>>` and only
/// call in when profiling is on — and on the enabled path cost a key
/// compare per event; one index lookup when the block changes. Counters
/// live in slots in first-seen order, an ordered index maps each key to
/// its slot, and a one-entry memo of the last key's slot serves every
/// event that hits the same block as the one before it. Slots are never
/// removed, so the memo can never go stale.
///
/// Slot order is bookkeeping only: equality, [`BlockProfile::blocks`]
/// and every renderer see the blocks in [`BlockKey`] order.
#[derive(Clone, Default)]
pub struct BlockProfile {
    /// Per-block counters in first-seen order.
    slots: Vec<(BlockKey, BlockCounts)>,
    /// Each key's index into `slots`.
    index: BTreeMap<BlockKey, u32>,
    /// The last key recorded and its slot.
    last: Option<(BlockKey, u32)>,
    /// Cycles (and instructions) that could not be tied to a block:
    /// cold-start fetch before any block identity exists, interrupt-entry
    /// serialization, and instructions carved from unstamped bytes. Kept
    /// explicit so `Σ per-block cycles + unattributed == retire + Σ
    /// stalls == cycles` holds exactly.
    pub unattributed: BlockCounts,
}

impl PartialEq for BlockProfile {
    fn eq(&self, other: &BlockProfile) -> bool {
        self.unattributed == other.unattributed
            && self.len() == other.len()
            && self.blocks().eq(other.blocks())
    }
}

impl Eq for BlockProfile {}

impl std::fmt::Debug for BlockProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Blocks<'a>(&'a BlockProfile);
        impl std::fmt::Debug for Blocks<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_map().entries(self.0.blocks()).finish()
            }
        }
        f.debug_struct("BlockProfile")
            .field("blocks", &Blocks(self))
            .field("unattributed", &self.unattributed)
            .finish()
    }
}

impl BlockProfile {
    /// Creates an empty profile.
    #[must_use]
    pub fn new() -> BlockProfile {
        BlockProfile::default()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty() && self.unattributed == BlockCounts::default()
    }

    /// Number of distinct blocks recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Per-block counters, ordered by [`BlockKey`].
    pub fn blocks(&self) -> impl Iterator<Item = (&BlockKey, &BlockCounts)> + '_ {
        self.index
            .iter()
            .map(|(key, &slot)| (key, &self.slots[slot as usize].1))
    }

    /// The counters of one block, if it was recorded.
    #[must_use]
    pub fn get(&self, key: &BlockKey) -> Option<&BlockCounts> {
        self.index
            .get(key)
            .map(|&slot| &self.slots[slot as usize].1)
    }

    /// Sets one block's counters, replacing any recorded before.
    pub fn insert(&mut self, key: BlockKey, counts: BlockCounts) {
        *self.slot_mut(key) = counts;
    }

    #[inline]
    fn slot_mut(&mut self, key: BlockKey) -> &mut BlockCounts {
        let slot = match self.last {
            Some((last, slot)) if last == key => slot,
            _ => self.slot_miss(key),
        };
        &mut self.slots[slot as usize].1
    }

    /// The memo missed: looks `key` up in the index (giving a new key the
    /// next slot) and makes it the memo.
    #[cold]
    #[inline(never)]
    fn slot_miss(&mut self, key: BlockKey) -> u32 {
        let slots = &mut self.slots;
        let slot = *self.index.entry(key).or_insert_with(|| {
            let slot = u32::try_from(slots.len()).expect("fewer than 2^32 blocks");
            slots.push((key, BlockCounts::default()));
            slot
        });
        self.last = Some((key, slot));
        slot
    }

    #[inline]
    fn counts_mut(&mut self, key: Option<BlockKey>) -> &mut BlockCounts {
        match key {
            Some(k) => self.slot_mut(k),
            None => &mut self.unattributed,
        }
    }

    /// Records one entry into the block (execution reached its first
    /// instruction).
    #[inline]
    pub fn record_entry(&mut self, key: BlockKey) {
        self.slot_mut(key).executions += 1;
    }

    /// Records one retired instruction whose encoding ends `end_offset`
    /// bytes after the block start (`None` = unattributable).
    #[inline]
    pub fn record_instr(&mut self, key: Option<BlockKey>, end_offset: u32) {
        let c = self.counts_mut(key);
        c.instructions += 1;
        c.span = c.span.max(end_offset);
    }

    /// Charges one retire cycle to the block owning the first instruction
    /// retired this cycle (`None` = unattributable).
    #[inline]
    pub fn record_retire_cycle(&mut self, key: Option<BlockKey>) {
        self.counts_mut(key).retire_cycles += 1;
    }

    /// Charges one stall cycle to the block owning the instruction that
    /// caused the stall (`None` = unattributable).
    #[inline]
    pub fn record_stall_cycle(&mut self, key: Option<BlockKey>, reason: StallReason) {
        self.counts_mut(key).stall_cycles[reason.index()] += 1;
    }

    /// Merges another profile into this one. Merging is associative and
    /// commutative, so shard-folded aggregates equal serial folds.
    pub fn merge(&mut self, other: &BlockProfile) {
        for (key, counts) in &other.slots {
            self.slot_mut(*key).merge(counts);
        }
        self.unattributed.merge(&other.unattributed);
    }

    /// Sums every bucket (blocks plus unattributed) into one counter set.
    #[must_use]
    pub fn total(&self) -> BlockCounts {
        let mut t = self.unattributed;
        for (_, counts) in &self.slots {
            t.merge(counts);
        }
        t
    }

    /// The `n` hottest blocks by [`BlockCounts::weight`], ties broken by
    /// ascending key — a total, deterministic order.
    #[must_use]
    pub fn top_blocks(&self, n: usize) -> Vec<(&BlockKey, &BlockCounts)> {
        let mut v: Vec<_> = self.slots.iter().map(|(k, c)| (k, c)).collect();
        v.sort_by(|(ka, ca), (kb, cb)| cb.weight().cmp(&ca.weight()).then(ka.cmp(kb)));
        v.truncate(n);
        v
    }
}

/// Address-to-name symbolization built from static analysis.
///
/// Function starts come from the recovered CFG (entry root, interrupt
/// vector roots, call-edge targets); named address ranges (the platform
/// memory map) act as a fallback so every block resolves to *something*
/// stable.
#[derive(Debug, Clone, Default)]
pub struct SymbolMap {
    /// `(start, name)` function entries, sorted by start address.
    funcs: Vec<(u32, String)>,
    /// `(base, len, name)` fallback ranges, sorted by base.
    regions: Vec<(u32, u32, String)>,
}

impl SymbolMap {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> SymbolMap {
        SymbolMap::default()
    }

    /// Registers a function entry point. The first name registered for an
    /// address wins (register roots before synthetic call targets).
    pub fn add_func(&mut self, start: u32, name: impl Into<String>) {
        match self.funcs.binary_search_by_key(&start, |&(s, _)| s) {
            Ok(_) => {}
            Err(at) => self.funcs.insert(at, (start, name.into())),
        }
    }

    /// Registers a named fallback address range.
    pub fn add_region(&mut self, base: u32, len: u32, name: impl Into<String>) {
        let at = self
            .regions
            .binary_search_by_key(&base, |&(b, _, _)| b)
            .unwrap_or_else(|e| e);
        self.regions.insert(at, (base, len, name.into()));
    }

    /// Registered function entries, sorted by start address.
    #[must_use]
    pub fn funcs(&self) -> &[(u32, String)] {
        &self.funcs
    }

    fn region_of(&self, addr: u32) -> Option<&(u32, u32, String)> {
        self.regions
            .iter()
            .find(|(base, len, _)| addr.wrapping_sub(*base) < *len)
    }

    /// Resolves an address to the containing function name, falling back
    /// to the named range and finally to `"?"`. A function only claims
    /// addresses inside its own fallback range, so code in one memory
    /// never inherits a symbol from another.
    #[must_use]
    pub fn resolve(&self, addr: u32) -> &str {
        let func = match self.funcs.binary_search_by_key(&addr, |&(s, _)| s) {
            Ok(i) => Some(&self.funcs[i]),
            Err(0) => None,
            Err(i) => Some(&self.funcs[i - 1]),
        };
        let region = self.region_of(addr);
        if let Some((start, name)) = func {
            let same_range = match (region, self.region_of(*start)) {
                (Some(a), Some(b)) => std::ptr::eq(a, b),
                (None, None) => true,
                _ => false,
            };
            if same_range {
                return name;
            }
        }
        region.map_or("?", |(_, _, name)| name.as_str())
    }
}

/// A static call graph over symbol names, used to synthesize folded
/// stacks from flat block counts without any execution trace.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Stack roots in discovery-priority order (entry first, then
    /// vectors); earlier roots claim reachable functions first.
    roots: Vec<String>,
    calls: BTreeMap<String, BTreeSet<String>>,
}

impl CallGraph {
    /// Creates an empty call graph.
    #[must_use]
    pub fn new() -> CallGraph {
        CallGraph::default()
    }

    /// Registers a stack root (ignored if already present).
    pub fn add_root(&mut self, name: impl Into<String>) {
        let name = name.into();
        if !self.roots.contains(&name) {
            self.roots.push(name);
        }
    }

    /// Registers a caller → callee edge.
    pub fn add_call(&mut self, caller: impl Into<String>, callee: impl Into<String>) {
        self.calls
            .entry(caller.into())
            .or_default()
            .insert(callee.into());
    }

    /// One deterministic stack path per reachable function: each root in
    /// order claims everything it can reach (breadth-first, callees in
    /// name order) before the next root starts, the first discoverer
    /// fixing the path. Recursion cannot loop — a function already
    /// assigned a path is never reassigned.
    #[must_use]
    pub fn stack_paths(&self) -> BTreeMap<String, Vec<String>> {
        let mut paths: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<String> = std::collections::VecDeque::new();
        for root in &self.roots {
            if paths.contains_key(root) {
                continue;
            }
            paths.insert(root.clone(), vec![root.clone()]);
            queue.push_back(root.clone());
            while let Some(caller) = queue.pop_front() {
                let Some(callees) = self.calls.get(&caller) else {
                    continue;
                };
                let base = paths[&caller].clone();
                for callee in callees {
                    if !paths.contains_key(callee) {
                        let mut p = base.clone();
                        p.push(callee.clone());
                        paths.insert(callee.clone(), p);
                        queue.push_back(callee.clone());
                    }
                }
            }
        }
        paths
    }
}

/// Synthesizes a folded-stack flamegraph from flat block counts: each
/// block's weight (cycles on the cycle tier, retired instructions on the
/// functional tier) lands on its function's [`CallGraph::stack_paths`]
/// path. Unattributed weight folds under `[unattributed]`.
#[must_use]
pub fn flame_stacks(
    profile: &BlockProfile,
    symbols: &SymbolMap,
    calls: &CallGraph,
) -> crate::FoldedStacks {
    let paths = calls.stack_paths();
    let mut stacks = crate::FoldedStacks::new();
    let weight_of = |c: &BlockCounts| {
        if c.cycles() > 0 {
            c.cycles()
        } else {
            c.instructions
        }
    };
    for (key, counts) in profile.blocks() {
        let w = weight_of(counts);
        if w == 0 {
            continue;
        }
        let sym = symbols.resolve(key.addr());
        match paths.get(sym) {
            Some(path) => stacks.add(path, w),
            None => stacks.add(&[sym.to_string()], w),
        }
    }
    let w = weight_of(&profile.unattributed);
    if w > 0 {
        stacks.add(&["[unattributed]".to_string()], w);
    }
    stacks
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        #[allow(clippy::cast_precision_loss)] // reason: display-only percentage
        {
            part as f64 * 100.0 / whole as f64
        }
    }
}

/// Renders the top-`n` hot-block table. On the cycle tier rows rank and
/// percentage by attributed cycles; on the functional tier (no cycles
/// recorded anywhere) by retired instructions.
#[must_use]
pub fn render_hot_blocks(profile: &BlockProfile, symbols: &SymbolMap, n: usize) -> String {
    let total = profile.total();
    let timed = total.cycles() > 0;
    let (metric, whole) = if timed {
        ("cycles", total.cycles())
    } else {
        ("instructions", total.instructions)
    };
    let mut out = format!(
        "hot blocks: top {} of {} ({} {} total, {} unattributed)\n",
        n.min(profile.len()),
        profile.len(),
        whole,
        metric,
        if timed {
            profile.unattributed.cycles()
        } else {
            profile.unattributed.instructions
        },
    );
    out.push_str(
        "rank  addr        gen  symbol                  exec    instrs    cycles  share  dominant-stall\n",
    );
    for (rank, (key, c)) in profile.top_blocks(n).iter().enumerate() {
        let part = if timed { c.cycles() } else { c.instructions };
        let stall = c
            .dominant_stall()
            .map_or("-", audo_common::events::StallReason::key);
        let _ = writeln!(
            out,
            "{:>4}  0x{:08x} {:>4}  {:<22} {:>5} {:>9} {:>9}  {:>4.1}%  {}",
            rank + 1,
            key.addr(),
            key.generation,
            symbols.resolve(key.addr()),
            c.executions,
            c.instructions,
            c.cycles(),
            pct(part, whole),
            stall,
        );
    }
    out
}

/// Renders the top-`n` blocks with per-instruction disassembly.
///
/// `lister` maps `(block start address, span in bytes)` to disassembled
/// `(address, text)` lines; the caller owns the image and the
/// disassembler, keeping this crate free of ISA dependencies.
pub fn render_annotated<F>(
    profile: &BlockProfile,
    symbols: &SymbolMap,
    n: usize,
    mut lister: F,
) -> String
where
    F: FnMut(u32, u32) -> Vec<(u32, String)>,
{
    let total = profile.total();
    let timed = total.cycles() > 0;
    let whole = if timed {
        total.cycles()
    } else {
        total.instructions
    };
    let mut out = String::new();
    for (rank, (key, c)) in profile.top_blocks(n).iter().enumerate() {
        let part = if timed { c.cycles() } else { c.instructions };
        let stall = c
            .dominant_stall()
            .map_or("-", audo_common::events::StallReason::key);
        let _ = writeln!(
            out,
            "-- #{} {} @ 0x{:08x} gen {} — exec {}, instrs {}, cycles {} ({:.1}%), dominant stall {}",
            rank + 1,
            symbols.resolve(key.addr()),
            key.addr(),
            key.generation,
            c.executions,
            c.instructions,
            c.cycles(),
            pct(part, whole),
            stall,
        );
        for (addr, text) in lister(key.addr(), c.span) {
            let _ = writeln!(out, "   0x{addr:08x}  {text}");
        }
    }
    out
}

/// A serializable profile run: the profile plus identifying metadata and
/// pre-resolved symbols, round-trippable through deterministic JSON for
/// the `profile` CLI's `--json` / `--compare` modes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileDoc {
    /// Workload name the profile was taken from.
    pub workload: String,
    /// Execution tier (`"iss"` or `"pipeline"`).
    pub tier: String,
    /// Total simulated cycles of the run (zero on the functional tier).
    pub total_cycles: u64,
    /// Total instructions retired by the run.
    pub total_instructions: u64,
    /// The profile itself.
    pub profile: BlockProfile,
    /// Symbol per block, resolved at capture time.
    pub symbols: BTreeMap<BlockKey, String>,
}

impl ProfileDoc {
    /// Builds a document from a profile, resolving every block's symbol.
    #[must_use]
    pub fn new(
        workload: &str,
        tier: &str,
        total_cycles: u64,
        total_instructions: u64,
        profile: BlockProfile,
        symbols: &SymbolMap,
    ) -> ProfileDoc {
        let resolved = profile
            .blocks()
            .map(|(k, _)| (*k, symbols.resolve(k.addr()).to_string()))
            .collect();
        ProfileDoc {
            workload: workload.to_string(),
            tier: tier.to_string(),
            total_cycles,
            total_instructions,
            profile,
            symbols: resolved,
        }
    }

    /// Deterministic JSON rendering (one block per line, keys in order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(out, "  \"tier\": \"{}\",", self.tier);
        let _ = writeln!(out, "  \"total_cycles\": {},", self.total_cycles);
        let _ = writeln!(
            out,
            "  \"total_instructions\": {},",
            self.total_instructions
        );
        let _ = writeln!(
            out,
            "  \"unattributed\": {},",
            counts_json(&self.profile.unattributed)
        );
        out.push_str("  \"blocks\": [\n");
        let last = self.profile.len();
        for (i, (key, c)) in self.profile.blocks().enumerate() {
            let sym = self.symbols.get(key).map_or("?", String::as_str);
            let _ = writeln!(
                out,
                "    {{\"region\": {}, \"offset\": {}, \"generation\": {}, \
                 \"symbol\": \"{}\", \"counts\": {}}}{}",
                key.region,
                key.offset,
                key.generation,
                sym,
                counts_json(c),
                if i + 1 < last { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the JSON produced by [`ProfileDoc::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_json(text: &str) -> Result<ProfileDoc, String> {
        let mut doc = ProfileDoc::default();
        for line in text.lines() {
            let t = line.trim();
            if let Some(v) = str_field(t, "workload") {
                doc.workload = v;
            } else if let Some(v) = str_field(t, "tier") {
                doc.tier = v;
            } else if let Some(v) = u64_field(t, "total_cycles") {
                doc.total_cycles = v;
            } else if let Some(v) = u64_field(t, "total_instructions") {
                doc.total_instructions = v;
            } else if t.starts_with("\"unattributed\"") {
                doc.profile.unattributed = counts_from_json(t)?;
            } else if t.contains("\"region\"") {
                let key = BlockKey {
                    // reason: serialized from a u32
                    #[allow(clippy::cast_possible_truncation)]
                    region: u64_field(t, "region").ok_or_else(|| bad(t, "region"))? as u32,
                    // reason: serialized from a u32
                    #[allow(clippy::cast_possible_truncation)]
                    offset: u64_field(t, "offset").ok_or_else(|| bad(t, "offset"))? as u32,
                    generation: u64_field(t, "generation").ok_or_else(|| bad(t, "generation"))?,
                };
                let sym = str_field(t, "symbol").ok_or_else(|| bad(t, "symbol"))?;
                doc.profile.insert(key, counts_from_json(t)?);
                doc.symbols.insert(key, sym);
            }
        }
        Ok(doc)
    }

    /// Renders the per-block delta table between two profile documents
    /// (`self` = before, `after` = after): union of keys, sorted by
    /// descending absolute cycle delta (then instruction delta, then
    /// key), at most `top` changed rows. A run compared against itself
    /// reports `0 of N blocks differ`.
    #[must_use]
    pub fn delta_table(&self, after: &ProfileDoc, top: usize) -> String {
        let keys: BTreeSet<BlockKey> = self
            .profile
            .blocks()
            .chain(after.profile.blocks())
            .map(|(k, _)| *k)
            .collect();
        let zero = BlockCounts::default();
        let mut rows: Vec<(BlockKey, i128, i128, i128)> = Vec::new();
        for key in &keys {
            let a = self.profile.get(key).unwrap_or(&zero);
            let b = after.profile.get(key).unwrap_or(&zero);
            let dc = i128::from(b.cycles()) - i128::from(a.cycles());
            let di = i128::from(b.instructions) - i128::from(a.instructions);
            let de = i128::from(b.executions) - i128::from(a.executions);
            if dc != 0 || di != 0 || de != 0 {
                rows.push((*key, dc, di, de));
            }
        }
        rows.sort_by(|x, y| {
            (y.1.abs(), y.2.abs(), y.3.abs())
                .cmp(&(x.1.abs(), x.2.abs(), x.3.abs()))
                .then(x.0.cmp(&y.0))
        });
        let mut out = format!(
            "profile delta: {} ({}) -> {} ({}): {} of {} blocks differ, \
             cycles {} -> {}, instructions {} -> {}\n",
            self.workload,
            self.tier,
            after.workload,
            after.tier,
            rows.len(),
            keys.len(),
            self.total_cycles,
            after.total_cycles,
            self.total_instructions,
            after.total_instructions,
        );
        if !rows.is_empty() {
            out.push_str("addr        gen  symbol                  Δcycles   Δinstrs    Δexec\n");
        }
        for (key, dc, di, de) in rows.iter().take(top) {
            let sym = after
                .symbols
                .get(key)
                .or_else(|| self.symbols.get(key))
                .map_or("?", String::as_str);
            let _ = writeln!(
                out,
                "0x{:08x} {:>4}  {:<22} {:>+8} {:>+9} {:>+8}",
                key.addr(),
                key.generation,
                sym,
                dc,
                di,
                de,
            );
        }
        if rows.len() > top {
            let _ = writeln!(out, "... {} more changed block(s)", rows.len() - top);
        }
        out
    }
}

fn counts_json(c: &BlockCounts) -> String {
    let stalls: Vec<String> = c.stall_cycles.iter().map(u64::to_string).collect();
    format!(
        "{{\"executions\": {}, \"instructions\": {}, \"span\": {}, \
         \"retire_cycles\": {}, \"stall_cycles\": [{}]}}",
        c.executions,
        c.instructions,
        c.span,
        c.retire_cycles,
        stalls.join(", ")
    )
}

fn bad(line: &str, what: &str) -> String {
    format!("missing/malformed {what:?} in line: {line}")
}

fn str_field(line: &str, name: &str) -> Option<String> {
    let pat = format!("\"{name}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

fn u64_field(line: &str, name: &str) -> Option<u64> {
    let pat = format!("\"{name}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn counts_from_json(line: &str) -> Result<BlockCounts, String> {
    let mut c = BlockCounts {
        executions: u64_field(line, "executions").ok_or_else(|| bad(line, "executions"))?,
        instructions: u64_field(line, "instructions").ok_or_else(|| bad(line, "instructions"))?,
        #[allow(clippy::cast_possible_truncation)] // reason: serialized from a u32
        span: u64_field(line, "span").ok_or_else(|| bad(line, "span"))? as u32,
        retire_cycles: u64_field(line, "retire_cycles")
            .ok_or_else(|| bad(line, "retire_cycles"))?,
        stall_cycles: [0; StallReason::COUNT],
    };
    let pat = "\"stall_cycles\": [";
    let start = line.find(pat).ok_or_else(|| bad(line, "stall_cycles"))? + pat.len();
    let end = line[start..]
        .find(']')
        .ok_or_else(|| bad(line, "stall_cycles"))?;
    for (i, part) in line[start..start + end].split(',').enumerate() {
        if i >= StallReason::COUNT {
            return Err(bad(line, "stall_cycles length"));
        }
        c.stall_cycles[i] = part
            .trim()
            .parse()
            .map_err(|_| bad(line, "stall_cycles entry"))?;
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(offset: u32) -> BlockKey {
        BlockKey {
            region: 0x8000_0000,
            offset,
            generation: 0,
        }
    }

    #[test]
    fn merge_is_associative_and_matches_serial() {
        let mut a = BlockProfile::new();
        a.record_entry(key(0));
        a.record_instr(Some(key(0)), 4);
        a.record_retire_cycle(Some(key(0)));
        let mut b = BlockProfile::new();
        b.record_entry(key(0));
        b.record_stall_cycle(Some(key(8)), StallReason::Data);
        b.record_stall_cycle(None, StallReason::Fetch);
        let mut c = BlockProfile::new();
        c.record_entry(key(8));

        let mut serial = BlockProfile::new();
        serial.merge(&a);
        serial.merge(&b);
        serial.merge(&c);
        let mut left = a.clone();
        left.merge(&b);
        let mut grouped = BlockProfile::new();
        grouped.merge(&left);
        grouped.merge(&c);
        assert_eq!(serial, grouped);
        assert_eq!(serial.total().cycles(), 3);
        assert_eq!(
            serial.unattributed.stall_cycles[StallReason::Fetch.index()],
            1
        );
    }

    #[test]
    fn top_blocks_order_is_total_and_deterministic() {
        let mut p = BlockProfile::new();
        p.record_retire_cycle(Some(key(0)));
        p.record_retire_cycle(Some(key(0)));
        p.record_retire_cycle(Some(key(8)));
        // Same weight as key(8): tie must break by ascending key.
        p.record_retire_cycle(Some(key(4)));
        let top: Vec<u32> = p.top_blocks(10).iter().map(|(k, _)| k.offset).collect();
        assert_eq!(top, vec![0, 4, 8]);
    }

    #[test]
    fn dominant_stall_picks_heaviest_cause() {
        let mut c = BlockCounts::default();
        assert_eq!(c.dominant_stall(), None);
        c.stall_cycles[StallReason::Data.index()] = 3;
        c.stall_cycles[StallReason::Branch.index()] = 5;
        assert_eq!(c.dominant_stall(), Some(StallReason::Branch));
    }

    #[test]
    fn symbol_map_resolves_functions_then_regions() {
        let mut s = SymbolMap::new();
        s.add_region(0x8000_0000, 0x1000, "pflash");
        s.add_region(0xD000_0000, 0x1000, "dspr");
        s.add_func(0x8000_0010, "entry");
        s.add_func(0x8000_0100, "fn_0x80000100");
        assert_eq!(s.resolve(0x8000_0010), "entry");
        assert_eq!(s.resolve(0x8000_00FE), "entry");
        assert_eq!(s.resolve(0x8000_0100), "fn_0x80000100");
        // Below the first function: region fallback.
        assert_eq!(s.resolve(0x8000_0000), "pflash");
        // Another region never inherits a flash function.
        assert_eq!(s.resolve(0xD000_0004), "dspr");
        assert_eq!(s.resolve(0x7000_0000), "?");
    }

    #[test]
    fn stack_paths_are_bfs_from_roots() {
        let mut g = CallGraph::new();
        g.add_root("entry");
        g.add_root("vector_p3");
        g.add_call("entry", "helper");
        g.add_call("helper", "leaf");
        g.add_call("vector_p3", "leaf"); // discovered second: entry's path wins
        let p = g.stack_paths();
        assert_eq!(p["leaf"], vec!["entry", "helper", "leaf"]);
        assert_eq!(p["vector_p3"], vec!["vector_p3"]);
    }

    #[test]
    fn flame_stacks_fold_block_weight_onto_call_paths() {
        let mut profile = BlockProfile::new();
        profile.record_retire_cycle(Some(key(0x10)));
        profile.record_retire_cycle(Some(key(0x10)));
        profile.record_stall_cycle(None, StallReason::Fetch);
        let mut symbols = SymbolMap::new();
        symbols.add_region(0x8000_0000, 0x1000, "pflash");
        symbols.add_func(0x8000_0000, "entry");
        let mut calls = CallGraph::new();
        calls.add_root("entry");
        let stacks = flame_stacks(&profile, &symbols, &calls);
        assert_eq!(stacks.count("entry"), 2);
        assert_eq!(stacks.count("[unattributed]"), 1);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut p = BlockProfile::new();
        p.record_entry(key(0x20));
        p.record_instr(Some(key(0x20)), 8);
        p.record_retire_cycle(Some(key(0x20)));
        p.record_stall_cycle(Some(key(0x20)), StallReason::StoreBuffer);
        p.record_stall_cycle(None, StallReason::Fetch);
        let mut symbols = SymbolMap::new();
        symbols.add_func(0x8000_0020, "entry");
        let doc = ProfileDoc::new("engine", "pipeline", 3, 1, p, &symbols);
        let json = doc.to_json();
        let back = ProfileDoc::from_json(&json).expect("parses");
        assert_eq!(doc, back);
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn self_compare_reports_zero_deltas() {
        let mut p = BlockProfile::new();
        p.record_retire_cycle(Some(key(0)));
        let doc = ProfileDoc::new("engine", "pipeline", 1, 1, p, &SymbolMap::new());
        let table = doc.delta_table(&doc.clone(), 10);
        assert!(table.contains("0 of 1 blocks differ"), "{table}");
    }

    #[test]
    fn delta_table_ranks_by_absolute_cycle_change() {
        let mut before = BlockProfile::new();
        before.record_retire_cycle(Some(key(0)));
        let mut after = BlockProfile::new();
        for _ in 0..5 {
            after.record_retire_cycle(Some(key(4)));
        }
        let a = ProfileDoc::new("a", "pipeline", 1, 1, before, &SymbolMap::new());
        let b = ProfileDoc::new("b", "pipeline", 5, 5, after, &SymbolMap::new());
        let table = a.delta_table(&b, 10);
        let gained = table.find("0x80000004").expect("gained block listed");
        let lost = table.find("0x80000000").expect("lost block listed");
        assert!(gained < lost, "largest |Δcycles| first:\n{table}");
        assert!(table.contains("2 of 2 blocks differ"), "{table}");
    }

    #[test]
    fn hot_block_table_uses_instruction_share_on_functional_tier() {
        let mut p = BlockProfile::new();
        p.record_entry(key(0));
        p.record_instr(Some(key(0)), 4);
        p.record_instr(Some(key(0)), 8);
        p.record_instr(Some(key(0x40)), 4);
        p.record_instr(None, 0);
        let mut s = SymbolMap::new();
        s.add_func(0x8000_0000, "entry");
        let table = render_hot_blocks(&p, &s, 5);
        assert!(table.contains("instructions total"), "{table}");
        assert!(table.contains("entry"), "{table}");
    }

    #[test]
    fn annotated_rendering_lists_instructions_via_callback() {
        let mut p = BlockProfile::new();
        p.record_entry(key(0));
        p.record_instr(Some(key(0)), 4);
        p.record_retire_cycle(Some(key(0)));
        let out = render_annotated(&p, &SymbolMap::new(), 5, |addr, span| {
            assert_eq!(addr, 0x8000_0000);
            assert_eq!(span, 4);
            vec![(addr, "movi d0, 1".to_string())]
        });
        assert!(out.contains("movi d0, 1"), "{out}");
        assert!(out.contains("cycles 1"), "{out}");
    }

    /// The plain ordered-map profile the slot storage must agree with.
    #[derive(Default)]
    struct Reference {
        blocks: BTreeMap<BlockKey, BlockCounts>,
        unattributed: BlockCounts,
    }

    impl Reference {
        fn counts(&mut self, key: Option<BlockKey>) -> &mut BlockCounts {
            match key {
                Some(k) => self.blocks.entry(k).or_default(),
                None => &mut self.unattributed,
            }
        }

        fn merge(&mut self, other: &Reference) {
            for (k, c) in &other.blocks {
                self.blocks.entry(*k).or_default().merge(c);
            }
            self.unattributed.merge(&other.unattributed);
        }

        /// The same contents recorded in key order, so slot order and key
        /// order coincide.
        fn profile(&self) -> BlockProfile {
            let mut p = BlockProfile::new();
            for (k, c) in &self.blocks {
                p.insert(*k, *c);
            }
            p.unattributed = self.unattributed;
            p
        }
    }

    fn json(p: &BlockProfile) -> String {
        ProfileDoc::new("model", "pipeline", 0, 0, p.clone(), &SymbolMap::new()).to_json()
    }

    fn check_against(p: &BlockProfile, r: &Reference) {
        let want: Vec<(BlockKey, BlockCounts)> = r.blocks.iter().map(|(k, c)| (*k, *c)).collect();
        let got: Vec<(BlockKey, BlockCounts)> = p.blocks().map(|(k, c)| (*k, *c)).collect();
        assert_eq!(got, want, "blocks() is the reference in key order");
        assert_eq!(p.len(), r.blocks.len());
        assert_eq!(p.unattributed, r.unattributed);
        for (k, c) in &r.blocks {
            assert_eq!(p.get(k), Some(c));
        }
        let mut total = r.unattributed;
        for c in r.blocks.values() {
            total.merge(c);
        }
        assert_eq!(p.total(), total);
        let mut top = want;
        top.sort_by(|(ka, ca), (kb, cb)| cb.weight().cmp(&ca.weight()).then(ka.cmp(kb)));
        top.truncate(3);
        let got_top: Vec<(BlockKey, BlockCounts)> =
            p.top_blocks(3).into_iter().map(|(k, c)| (*k, *c)).collect();
        assert_eq!(got_top, top);
        let in_key_order = r.profile();
        assert_eq!(*p, in_key_order);
        assert_eq!(json(p), json(&in_key_order));
        // The memo, when set, names a slot holding its key.
        if let Some((k, slot)) = p.last {
            assert_eq!(p.slots[slot as usize].0, k, "memo points at its key's slot");
        }
    }

    #[test]
    fn random_recording_matches_an_ordered_map_reference() {
        // Keys that differ in one field only, so a memo compare that
        // skipped a field would charge the wrong block.
        let keys = [
            key(0),
            key(0x10),
            BlockKey {
                generation: 1,
                ..key(0x10)
            },
            BlockKey {
                region: 0xD000_0000,
                ..key(0x10)
            },
            key(0x24),
            BlockKey {
                region: 0xA000_0000,
                offset: 0,
                generation: 3,
            },
        ];
        let mut rng = 0xB10C_u64;
        let mut next = |n: u64| {
            rng = audo_common::splitmix64(rng);
            rng % n
        };
        for _ in 0..200 {
            let mut p = BlockProfile::new();
            let mut r = Reference::default();
            // Keys come in runs of one block, alternate between the last
            // two blocks, or jump anywhere (`None` = unattributed).
            let (mut cur, mut prev) = (0usize, 1usize);
            for _ in 0..64 {
                let pick = match next(8) {
                    0..=3 => cur,
                    4 | 5 => prev,
                    _ => next(keys.len() as u64 + 1) as usize,
                };
                if pick != cur {
                    prev = cur;
                    cur = pick;
                }
                let k = keys.get(cur).copied();
                let reason = StallReason::ALL[next(StallReason::COUNT as u64) as usize];
                let end = next(64) as u32;
                let recorded = match next(10) {
                    0 => {
                        let k = k.unwrap_or(keys[0]);
                        p.record_entry(k);
                        r.counts(Some(k)).executions += 1;
                        Some(k)
                    }
                    1..=3 => {
                        p.record_instr(k, end);
                        let c = r.counts(k);
                        c.instructions += 1;
                        c.span = c.span.max(end);
                        k
                    }
                    4 => {
                        p.record_retire_cycle(k);
                        r.counts(k).retire_cycles += 1;
                        k
                    }
                    5 => {
                        p.record_stall_cycle(k, reason);
                        r.counts(k).stall_cycles[reason.index()] += 1;
                        k
                    }
                    6 => {
                        let k = k.unwrap_or(keys[1]);
                        let mut c = BlockCounts {
                            executions: next(5),
                            instructions: next(50),
                            span: end,
                            retire_cycles: next(80),
                            ..BlockCounts::default()
                        };
                        c.stall_cycles[reason.index()] = next(9);
                        p.insert(k, c);
                        r.blocks.insert(k, c);
                        None
                    }
                    7 => {
                        let mut other = BlockProfile::new();
                        let mut other_ref = Reference::default();
                        for _ in 0..next(5) {
                            let k = keys.get(next(keys.len() as u64 + 1) as usize).copied();
                            other.record_stall_cycle(k, reason);
                            other_ref.counts(k).stall_cycles[reason.index()] += 1;
                            other.record_instr(k, end);
                            let c = other_ref.counts(k);
                            c.instructions += 1;
                            c.span = c.span.max(end);
                        }
                        p.merge(&other);
                        r.merge(&other_ref);
                        None
                    }
                    8 => {
                        // Record on a clone from here on; the original
                        // must not see it.
                        let original = p.clone();
                        p = original.clone();
                        p.record_retire_cycle(k);
                        check_against(&original, &r);
                        r.counts(k).retire_cycles += 1;
                        k
                    }
                    _ => {
                        // Profiling re-enabled: a fresh profile.
                        p = BlockProfile::new();
                        r = Reference::default();
                        None
                    }
                };
                check_against(&p, &r);
                if let Some(k) = recorded {
                    assert_eq!(
                        p.last.map(|(last, _)| last),
                        Some(k),
                        "memo follows the block"
                    );
                }
            }
        }
    }

    #[test]
    fn first_seen_order_does_not_show() {
        let mut a = BlockProfile::new();
        let mut b = BlockProfile::new();
        let order = [key(0x40), key(0), key(0x20)];
        for (i, k) in order.iter().enumerate() {
            for _ in 0..=i {
                a.record_retire_cycle(Some(*k));
            }
        }
        for (i, k) in order.iter().enumerate().rev() {
            b.record_instr(Some(*k), 4);
            for _ in 0..=i {
                b.record_retire_cycle(Some(*k));
            }
        }
        for k in &order {
            a.record_instr(Some(*k), 4);
        }
        assert_ne!(a.slots[0].0, b.slots[0].0, "different first-seen orders");
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(json(&a), json(&b));
        let keys: Vec<u32> = a.blocks().map(|(k, _)| k.offset).collect();
        assert_eq!(keys, vec![0, 0x20, 0x40]);
    }
}

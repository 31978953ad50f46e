//! Static per-block rate predictions and static-vs-measured divergence
//! checking.
//!
//! The paper's methodology reduces measured traces to characteristic rates
//! (flash accesses per 100 instructions, scratchpad accesses per 100
//! instructions, IPC). This module derives *static* bounds for the same
//! rates from the recovered CFG so a measured run can be checked against
//! them:
//!
//! * The **steady-state set** — the blocks that dominate a long run — is
//!   everything reachable from an interrupt vector plus everything in an
//!   unbounded cycle (the background loop). One-shot init code, such as a
//!   table-copy loop with a statically known trip count that no steady
//!   block can reach again, is excluded.
//! * Self-looping blocks with a provable trip count (hardware `LOOP`
//!   counters, `addi -1; jnz` counters, proven by
//!   `loopbound::shape_of` on the singleton loop) are weighted by
//!   that count, which is what makes the mix "trip-weighted".
//! * The **IPC upper bound** comes from the tri-issue bundle model: at
//!   most one instruction per pipe (Ip/Ls/Lp) per cycle, no intra-bundle
//!   RAW dependencies, serializing instructions issue alone.
//! * The **IPC lower bound** assumes every data access pays its region's
//!   uncached worst-case latency, then halves the result as a safety
//!   margin (fetch stalls and arbitration are not modelled statically).
//! * The flash-rate bound assumes no data cache (sound worst case: the
//!   TC1767 has none, and the TC1797's can be defeated by large working
//!   sets).

use std::collections::BTreeMap;

use audo_platform::config::{Region, SocConfig};
use audo_tricore::isa::Instr;
use audo_tricore::pipeline::CostModel;

use crate::access;
use crate::cfg::{self, Cfg, Graph, IdSet};
use crate::constprop::{RegState, Solution};
use crate::{loopbound, wcet};

/// Static rate prediction for one steady-state block.
#[derive(Debug, Clone)]
pub struct BlockPredict {
    /// Block start address.
    pub start: u32,
    /// Instruction count.
    pub instrs: u32,
    /// Trip weight (1 unless a self-loop trip count was inferred).
    pub weight: u64,
    /// Issue bundles under the tri-issue model.
    pub bundles: u32,
    /// Data-side accesses per iteration that statically hit program or
    /// data flash.
    pub flash_data: u32,
    /// Data-side accesses hitting a scratchpad (DSPR/PSPR).
    pub spr_data: u32,
    /// Data-side accesses hitting other known regions (SRAM/EMEM/periph).
    pub other_data: u32,
    /// Data-side accesses whose target could not be resolved.
    pub unknown_data: u32,
    /// Worst-case cycles per iteration: fully serial issue plus uncached
    /// data stalls plus a pipeline-redirect penalty when the block ends
    /// in a branch.
    pub worst_cycles: u64,
}

impl BlockPredict {
    /// Per-block IPC upper bound (instructions per bundle-cycle).
    #[must_use]
    pub fn ipc_ub(&self) -> f64 {
        f64::from(self.instrs) / f64::from(self.bundles.max(1))
    }
}

/// Whole-image static prediction.
#[derive(Debug, Clone, Default)]
pub struct Prediction {
    /// Steady-state blocks, sorted by start address.
    pub blocks: Vec<BlockPredict>,
    /// IPC cannot exceed this (best block bound + slack).
    pub ipc_ub: f64,
    /// IPC cannot fall below this (worst-stall model with safety factor).
    pub ipc_lb: f64,
    /// Static trip-weighted flash accesses per 100 instructions
    /// (data side, no-dcache assumption).
    pub flash_per_100: f64,
    /// Static trip-weighted scratchpad accesses per 100 instructions.
    pub spr_per_100: f64,
    /// Upper bound on the cycles any single carved block can cost per
    /// execution (from the shared pipeline cost model, at the SoC's
    /// worst-case memory latencies). Fleet envelope for the measured
    /// block profiler.
    pub block_cycles_ub: u64,
    /// Worst-case whole-program CSA depth, when the call graph is
    /// recursion-free and fully resolved. Fleet envelope for the
    /// measured `csa_depth_peak` gauge.
    pub csa_depth_ub: Option<u64>,
}

/// Meet of the register states flowing into block `id` from outside
/// itself (i.e. excluding its own back edge), over every edge. For a loop
/// block this is the first-iteration entry state, which is what resolves
/// the base address of a post-increment sweep.
fn outside_entry(g: &Graph, sol: &Solution, id: u32) -> RegState {
    let mut st: Option<RegState> = None;
    let mut found_pred = false;
    for &p in g.all().preds(id) {
        if p == id {
            continue;
        }
        found_pred = true;
        let Some(out) = sol.edge_state(p, id) else {
            continue;
        };
        match &mut st {
            None => st = Some(out.clone()),
            Some(cur) => {
                cur.meet(out);
            }
        }
    }
    // Roots have no predecessors; everything else falls back to the
    // (already met) solution entry.
    if !found_pred && g.roots.contains(id) {
        return RegState::unknown();
    }
    st.unwrap_or_else(|| sol.entry_of(g.start(id)))
}

/// Trip weight of a self-looping block: the loop counter proof
/// (`loopbound::shape_of`) run on the singleton SCC `{id}`, over every
/// edge. `None` when the block has no self edge or no trip is provable.
fn self_loop_weight(g: &Graph, sol: &Solution, id: u32) -> Option<u64> {
    let mut scc = IdSet::new(g.len());
    scc.insert(id);
    loopbound::shape_of(g, sol, g.all(), &scc).trip.exact()
}

/// Greedy tri-issue bundle count: at most three instructions per bundle,
/// one per pipe, no intra-bundle RAW dependency, serializing instructions
/// alone, control flow closes the bundle it joins.
#[must_use]
pub fn bundle_count(instrs: &[Instr]) -> u32 {
    let mut bundles = 0u32;
    let mut in_bundle = 0usize;
    let mut pipes_used: Vec<audo_tricore::isa::Pipe> = Vec::with_capacity(3);
    let mut writes: Vec<audo_tricore::isa::RegRef> = Vec::new();

    for instr in instrs {
        let pipe = instr.pipe();
        let raw = instr.reads().iter().any(|r| writes.contains(&r));
        let fits = in_bundle > 0
            && in_bundle < 3
            && !pipes_used.contains(&pipe)
            && !raw
            && !instr.is_serializing();
        if !fits {
            bundles += 1;
            in_bundle = 0;
            pipes_used.clear();
            writes.clear();
        }
        in_bundle += 1;
        pipes_used.push(pipe);
        for w in instr.writes().iter() {
            writes.push(w);
        }
        if instr.is_control_flow() || instr.is_serializing() {
            // Close the bundle: nothing issues alongside past a redirect.
            in_bundle = 3;
        }
    }
    bundles.max(1)
}

fn data_penalty(soc: &SocConfig, region: Option<Region>) -> u64 {
    match region {
        Some(Region::PflashCached | Region::PflashUncached) => soc.flash.wait_states,
        // EEPROM programming stalls are real but rare; charging the full
        // write-busy time would swamp the model, so charge a read.
        Some(Region::Dflash) => soc.dflash_read_latency,
        Some(Region::Dspr | Region::Pspr) => 0,
        Some(Region::Sram) => soc.sram_latency,
        Some(Region::Emem) => soc.emem_latency,
        Some(Region::Periph) => soc.periph_latency,
        Some(Region::Unmapped) => soc.flash.wait_states,
        None => soc.flash.wait_states.max(soc.sram_latency),
    }
}

/// Computes the steady-state block set with trip weights over `g`, the
/// numbered `cfg`. Returns `(block start -> weight)`; see the module docs
/// for the rules.
#[must_use]
pub(crate) fn steady_set(cfg: &Cfg, g: &Graph, sol: &Solution) -> BTreeMap<u32, u64> {
    // Roots of the steady region: interrupt vectors, plus every block in
    // a cycle whose iteration count is NOT statically bounded.
    let mut seeds: Vec<u32> = cfg
        .roots
        .iter()
        .filter(|(_, name)| name.starts_with("vector"))
        .map(|(a, _)| *a)
        .collect();
    for comp in g.all().cyclic_sccs(&IdSet::full(g.len()), &[]) {
        let bounded = comp.len() == 1 && {
            let only = comp.iter().next().expect("non-empty");
            self_loop_weight(g, sol, only).is_some()
        };
        if !bounded {
            seeds.extend(comp.iter().map(|b| g.start(b)));
        }
    }
    // A program with no interrupts and no unbounded loop (straight-line
    // test images): every reachable block is "steady".
    if seeds.is_empty() {
        seeds = cfg.roots.iter().map(|(a, _)| *a).collect();
    }
    let seeds: Vec<u32> = seeds.iter().filter_map(|&a| g.id_of(a)).collect();

    g.all()
        .reachable(&seeds)
        .iter()
        .map(|b| (g.start(b), self_loop_weight(g, sol, b).unwrap_or(1)))
        .collect()
}

/// Builds the whole-image prediction; `g` is `cfg` numbered.
#[must_use]
pub(crate) fn predict(cfg: &Cfg, g: &Graph, sol: &Solution, soc: &SocConfig) -> Prediction {
    let weights = steady_set(cfg, g, sol);
    // One timing table: the same exported cost model the WCET analyzer
    // and the cycle-level pipeline share.
    let model = CostModel::new(soc.cpu.clone(), wcet::soc_mem_costs(soc));

    let mut blocks = Vec::new();
    let mut accesses = Vec::new();
    for (&start, &weight) in &weights {
        let id = g.id_of(start).expect("steady blocks are recovered blocks");
        let block = g.block(id);
        // Resolve accesses in the first-iteration state: a post-increment
        // sweep is classified by the region its base starts in.
        accesses.clear();
        access::extract_block(block, outside_entry(g, sol, id), soc, &mut accesses);

        let mut flash_data = 0u32;
        let mut spr_data = 0u32;
        let mut other_data = 0u32;
        let mut unknown_data = 0u32;
        let mut stall = 0u64;
        for a in &accesses {
            match a.region {
                Some(r) if r.is_pflash() || r == Region::Dflash => flash_data += 1,
                Some(Region::Dspr | Region::Pspr) => spr_data += 1,
                Some(_) => other_data += 1,
                None => unknown_data += 1,
            }
            stall += data_penalty(soc, a.region);
        }

        let instr_list: Vec<Instr> = block.instrs.iter().map(|s| s.instr).collect();
        let bundles = bundle_count(&instr_list);
        let redirect = match block.term {
            cfg::Terminator::Jump
            | cfg::Terminator::Branch
            | cfg::Terminator::Call
            | cfg::Terminator::IndirectJump
            | cfg::Terminator::Return => model.redirect_penalty(),
            cfg::Terminator::Halt | cfg::Terminator::FallThrough | cfg::Terminator::DecodeStop => 0,
        };
        blocks.push(BlockPredict {
            start,
            instrs: block.instrs.len() as u32,
            weight,
            bundles,
            flash_data,
            spr_data,
            other_data,
            unknown_data,
            worst_cycles: block.instrs.len() as u64 + stall + redirect,
        });
    }

    let wi: f64 = blocks
        .iter()
        .map(|b| b.weight as f64 * f64::from(b.instrs))
        .sum();
    let wc: f64 = blocks
        .iter()
        .map(|b| b.weight as f64 * b.worst_cycles as f64)
        .sum();
    let wflash: f64 = blocks
        .iter()
        .map(|b| b.weight as f64 * f64::from(b.flash_data))
        .sum();
    let wspr: f64 = blocks
        .iter()
        .map(|b| b.weight as f64 * f64::from(b.spr_data))
        .sum();

    let best_block = blocks
        .iter()
        .map(BlockPredict::ipc_ub)
        .fold(0.0f64, f64::max);
    Prediction {
        ipc_ub: if blocks.is_empty() {
            3.05
        } else {
            best_block + 0.05
        },
        // Halve the stall-model IPC: static analysis cannot see fetch
        // stalls, arbitration or CSA traffic, so leave generous room.
        ipc_lb: if wc > 0.0 { wi / wc * 0.5 } else { 0.0 },
        flash_per_100: if wi > 0.0 { wflash * 100.0 / wi } else { 0.0 },
        spr_per_100: if wi > 0.0 { wspr * 100.0 / wi } else { 0.0 },
        block_cycles_ub: model.carved_block_cost_ub(),
        csa_depth_ub: wcet::program_csa_bound(cfg, g).finite(),
        blocks,
    }
}

/// One row of the static-vs-measured divergence table.
#[derive(Debug, Clone)]
pub struct CheckRow {
    /// Human-readable rate name.
    pub name: &'static str,
    /// Measured value, when the snapshot contained the needed metrics.
    pub measured: Option<f64>,
    /// Inclusive static lower bound.
    pub lo: f64,
    /// Inclusive static upper bound.
    pub hi: f64,
}

impl CheckRow {
    /// `true` when the measurement is absent or inside the bounds.
    #[must_use]
    pub fn ok(&self) -> bool {
        match self.measured {
            None => true,
            Some(m) => m >= self.lo && m <= self.hi,
        }
    }
}

/// Parses a Prometheus text snapshot (`# `-prefixed comments skipped)
/// into `name -> value`. Labelled series keep their label block in the
/// key.
///
/// A duplicate key is an error, not last-write-wins: the registry never
/// emits the same series twice, so a duplicate means the snapshot was
/// concatenated or truncated-and-retried, and silently keeping either
/// value would check rates against corrupt data.
///
/// # Errors
///
/// Returns the first duplicated series name.
pub fn parse_snapshot(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        if let Ok(v) = value.parse::<f64>() {
            if out.insert(name.to_string(), v).is_some() {
                return Err(format!("duplicate metric series `{name}` in snapshot"));
            }
        }
    }
    Ok(out)
}

fn lookup(snapshot: &BTreeMap<String, f64>, suffix: &str) -> Option<f64> {
    snapshot
        .iter()
        .find(|(k, _)| k.ends_with(suffix))
        .map(|(_, v)| *v)
}

/// Checks a measured snapshot against the static prediction.
///
/// The flash rate uses the flash *buffer* traffic (hits + misses) — every
/// flash-destined access reaches the buffers whether or not it hits —
/// normalized per 100 retired instructions, matching the paper's
/// characteristic-rate units.
#[must_use]
pub fn check(pred: &Prediction, snapshot: &BTreeMap<String, f64>) -> Vec<CheckRow> {
    let retired = lookup(snapshot, "soc_tricore_instructions_retired");
    let flash = match (
        lookup(snapshot, "soc_flash_buffer_hits"),
        lookup(snapshot, "soc_flash_buffer_misses"),
        retired,
    ) {
        (Some(h), Some(m), Some(r)) if r > 0.0 => Some((h + m) / r * 100.0),
        _ => None,
    };
    let ipc = lookup(snapshot, "soc_tricore_ipc");
    let csa = lookup(snapshot, "soc_tricore_csa_depth_peak");

    vec![
        CheckRow {
            name: "ipc",
            measured: ipc,
            lo: pred.ipc_lb,
            hi: pred.ipc_ub,
        },
        CheckRow {
            name: "flash_per_100_instrs",
            measured: flash,
            // Factor 2 + absolute slack: the static mix is a worst-case
            // no-dcache model, not a cycle-accurate trace.
            lo: 0.0,
            hi: pred.flash_per_100 * 2.0 + 0.5,
        },
        CheckRow {
            name: "csa_depth",
            measured: csa,
            lo: 0.0,
            // No finite static depth (recursion, unresolved calls):
            // nothing to hold the measurement to.
            // reason: CSA depths are tiny integers; exact in f64.
            #[allow(clippy::cast_precision_loss)]
            hi: pred.csa_depth_ub.map_or(f64::INFINITY, |d| d as f64),
        },
    ]
}

/// Renders the divergence table (fixed-width, deterministic).
#[must_use]
pub fn render_check(image: &str, rows: &[CheckRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "static-vs-measured divergence for `{image}`:");
    let _ = writeln!(
        out,
        "  {:<22} {:>12} {:>12} {:>12}  verdict",
        "rate", "measured", "static lo", "static hi"
    );
    for r in rows {
        let measured = match r.measured {
            Some(m) => format!("{m:.3}"),
            None => "n/a".to_string(),
        };
        let _ = writeln!(
            out,
            "  {:<22} {:>12} {:>12.3} {:>12.3}  {}",
            r.name,
            measured,
            r.lo,
            r.hi,
            if r.ok() { "ok" } else { "DIVERGED" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use audo_tricore::asm::assemble;
    use audo_tricore::isa::{AReg, DReg};

    fn predicted(src: &str) -> Prediction {
        let (g, sol) = cfg::recover_solved(&assemble(src).expect("test source assembles"));
        predict(&g, &Graph::of(&g), &sol, &SocConfig::tc1797())
    }

    #[test]
    fn bundle_model_packs_distinct_pipes() {
        // Ip (movi) + Ls (lea) can dual-issue; the dependent add cannot
        // join the bundle that writes its source.
        let instrs = [
            Instr::MovI {
                rd: DReg(0),
                imm: 1,
            },
            Instr::Lea {
                ad: AReg(2),
                ab: AReg(2),
                off: 4,
            },
            Instr::Add {
                rd: DReg(1),
                ra: DReg(0),
                rb: DReg(0),
            },
        ];
        assert_eq!(bundle_count(&instrs), 2);
        // Three independent same-pipe ALU ops: three bundles.
        let same_pipe = [
            Instr::MovI {
                rd: DReg(0),
                imm: 1,
            },
            Instr::MovI {
                rd: DReg(1),
                imm: 2,
            },
            Instr::MovI {
                rd: DReg(2),
                imm: 3,
            },
        ];
        assert_eq!(bundle_count(&same_pipe), 3);
    }

    #[test]
    fn init_loop_excluded_hot_loop_weighted() {
        let p = predicted(
            "
    .org 0x80000000
_start:
    li d0, 0x80008000
    mtcr biv, d0
    la a2, 0xd0000400
    li d1, 272
copy:
    st.w d3, [a2+]4
    addi d1, d1, -1
    jnz d1, copy
main:
    li d2, 64
bg:
    ld.w d3, [a4+]4
    addi d2, d2, -1
    jnz d2, bg
    j main
    .org 0x80008000 + 32*4
    j isr
isr:
    rfe
",
        );
        // The copy loop is init-only: bounded trip (272), unreachable from
        // the steady seeds — its weight must not appear.
        assert!(
            p.blocks.iter().all(|b| b.weight != 272),
            "init copy loop must not be steady: {:?}",
            p.blocks
        );
        // The bg loop sits in the unbounded main cycle and carries its
        // inferred trip weight.
        let bg = p
            .blocks
            .iter()
            .find(|b| b.weight == 64)
            .expect("weighted bg loop");
        assert_eq!(bg.instrs, 3);
        // The ISR is steady via its vector root.
        assert!(p.blocks.iter().any(|b| b.start >= 0x8000_8000));
    }

    #[test]
    fn flash_sweep_is_classified_from_its_base() {
        let p = predicted(
            "
    .org 0x80000000
_start:
    la a2, 0x80001000
    li d2, 128
bg:
    ld.w d3, [a2+]4
    addi d2, d2, -1
    jnz d2, bg
    j _start
",
        );
        let bg = p.blocks.iter().find(|b| b.weight == 128).expect("bg loop");
        assert_eq!(bg.flash_data, 1, "sweep base resolves to pflash");
        assert_eq!(bg.unknown_data, 0);
        assert!(p.flash_per_100 > 20.0, "flash-dominated mix: {p:?}");
        assert!(p.ipc_lb > 0.0 && p.ipc_lb < p.ipc_ub);
    }

    #[test]
    fn scratchpad_sweep_has_low_flash_rate() {
        let p = predicted(
            "
    .org 0x80000000
_start:
    la a2, 0xd0000400
    li d2, 128
bg:
    ld.w d3, [a2+]4
    addi d2, d2, -1
    jnz d2, bg
    j _start
",
        );
        assert!(p.flash_per_100 < 1.0, "{p:?}");
        assert!(p.spr_per_100 > 20.0, "{p:?}");
    }

    #[test]
    fn check_flags_out_of_bounds_rates() {
        let p = predicted(
            "
    .org 0x80000000
_start:
    la a2, 0xd0000400
    li d2, 128
bg:
    ld.w d3, [a2+]4
    addi d2, d2, -1
    jnz d2, bg
    j _start
",
        );
        let good = parse_snapshot(
            "# HELP audo_soc_tricore_ipc ipc\n\
             audo_soc_tricore_ipc 0.7\n\
             audo_soc_flash_buffer_hits 10\n\
             audo_soc_flash_buffer_misses 0\n\
             audo_soc_tricore_instructions_retired 10000\n",
        )
        .expect("clean snapshot parses");
        assert!(check(&p, &good).iter().all(CheckRow::ok));

        // A flash-heavy measurement cannot come from this scratchpad-
        // resident image.
        let bad = parse_snapshot(
            "audo_soc_tricore_ipc 0.7\n\
             audo_soc_flash_buffer_hits 2400\n\
             audo_soc_flash_buffer_misses 100\n\
             audo_soc_tricore_instructions_retired 10000\n",
        )
        .expect("clean snapshot parses");
        let rows = check(&p, &bad);
        assert!(!rows.iter().all(CheckRow::ok));
        let table = render_check("img", &rows);
        assert!(table.contains("DIVERGED"), "{table}");
    }

    #[test]
    fn duplicate_metric_series_is_rejected() {
        let err = parse_snapshot(
            "audo_soc_tricore_ipc 0.7\n\
             audo_soc_tricore_ipc 0.9\n",
        )
        .expect_err("duplicate must not be last-write-wins");
        assert!(err.contains("audo_soc_tricore_ipc"), "{err}");
        // Comments and blank lines never count as series.
        let ok = parse_snapshot(
            "# HELP x y\n\
             \n\
             # HELP x y\n\
             audo_soc_tricore_ipc 0.7\n",
        )
        .expect("comments are not duplicates");
        assert_eq!(ok.len(), 1);
    }

    /// The unique self-looping block of `g`.
    fn self_loop_of(g: &Cfg) -> u32 {
        let looping: Vec<u32> = g
            .blocks
            .values()
            .filter(|b| b.edges.iter().any(|e| e.to == b.start))
            .map(|b| b.start)
            .collect();
        assert_eq!(looping.len(), 1, "expected one self-loop: {looping:x?}");
        looping[0]
    }

    /// Finds the unique self-looping block of `src` and returns its
    /// inferred trip count.
    fn trip_of(src: &str) -> Option<u64> {
        let (g, sol) = cfg::recover_solved(&assemble(src).expect("test source assembles"));
        let dense = Graph::of(&g);
        let id = dense.id_of(self_loop_of(&g)).expect("block id");
        self_loop_weight(&dense, &sol, id)
    }

    /// The steady-state weights of `src` and its self-looping block.
    fn steady_of(src: &str) -> (BTreeMap<u32, u64>, u32) {
        let (g, sol) = cfg::recover_solved(&assemble(src).expect("test source assembles"));
        (steady_set(&g, &Graph::of(&g), &sol), self_loop_of(&g))
    }

    #[test]
    fn clobbered_counter_self_loop_is_steady_with_unit_weight() {
        // The body reloads its counter every pass, so the loop never ends:
        // no trip weight, and as an unbounded cycle it seeds the steady
        // set even though no vector reaches it.
        let (weights, spin) = steady_of(
            "
    .org 0x80000000
_start:
    li d0, 0x80008000
    mtcr biv, d0
    li d2, 4
spin:
    li d2, 4
    addi d2, d2, -1
    jnz d2, spin
    halt
    .org 0x80008000 + 32*4
    j isr
isr:
    rfe
",
        );
        assert_eq!(weights.get(&spin), Some(&1), "{weights:x?}");
    }

    #[test]
    fn two_entry_constants_weight_by_the_larger() {
        // Entered with 3 along the taken `jz` and with 9 along the
        // fall-through: the loop runs at most 9 times per entry.
        let (weights, head) = steady_of(
            "
    .org 0x80000000
_start:
    la a2, 0xd0000400
    ld.w d0, [a2]
    li d2, 3
    jz d0, head
    li d2, 9
head:
    addi d2, d2, -1
    jnz d2, head
    halt
",
        );
        assert_eq!(weights.get(&head), Some(&9), "{weights:x?}");
    }

    #[test]
    fn zero_counter_is_not_a_trip_bound() {
        // A decrement counter entered at 0 wraps and loops 2^32 times;
        // certifying trip 0 (or anything) would be unsound.
        assert_eq!(
            trip_of(
                "
    .org 0x80000000
_start:
    li d2, 0
bg:
    addi d2, d2, -1
    jnz d2, bg
    halt
"
            ),
            None
        );
    }

    #[test]
    fn non_unit_step_is_not_certified() {
        // Stepping by -2 from an odd start never hits zero: the `addi -1`
        // pattern must not match a -2 decrement.
        assert_eq!(
            trip_of(
                "
    .org 0x80000000
_start:
    li d2, 7
bg:
    addi d2, d2, -2
    jnz d2, bg
    halt
"
            ),
            None
        );
        // An ascending counter never terminates by decrement either.
        assert_eq!(
            trip_of(
                "
    .org 0x80000000
_start:
    li d2, 7
bg:
    addi d2, d2, 1
    jnz d2, bg
    halt
"
            ),
            None
        );
    }

    #[test]
    fn wraparound_entry_value_is_not_certified() {
        // Entered with a negative (huge unsigned) value: the loop runs
        // ~2^32 iterations; the trip clamp must reject it.
        assert_eq!(
            trip_of(
                "
    .org 0x80000000
_start:
    li d2, 0xfffffff0
bg:
    addi d2, d2, -1
    jnz d2, bg
    halt
"
            ),
            None
        );
    }

    #[test]
    fn prediction_exports_fleet_envelope_bounds() {
        let p = predicted(
            "
    .org 0x80000000
_start:
    call helper
    halt
helper:
    movi d0, 1
    ret
",
        );
        assert!(p.block_cycles_ub > 0);
        assert_eq!(p.csa_depth_ub, Some(1));
    }

    #[test]
    fn missing_metrics_are_not_divergence() {
        let p = predicted(
            "
    .org 0x80000000
_start:
    halt
",
        );
        let rows = check(&p, &BTreeMap::new());
        assert!(rows.iter().all(CheckRow::ok));
        assert!(render_check("img", &rows).contains("n/a"));
    }
}

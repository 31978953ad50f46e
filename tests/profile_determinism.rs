//! Block-profiler determinism suite.
//!
//! The profiler's contract has three legs, each pinned here:
//!
//! 1. **Worker-count byte-identity** — a profile report is a pure
//!    function of the workload and tier; running the same workload set
//!    through the bench scheduler at `--jobs 1` and `--jobs 4` must
//!    produce byte-identical artifacts (table, JSON document, folded
//!    stacks).
//! 2. **Exact cycle attribution** — on the cycle-level pipeline, the sum
//!    of per-block cycles plus the unattributed bucket equals the
//!    pipeline's own `retire + Σ stalls == cycles` totals, per cause,
//!    with nothing lost and nothing double-counted.
//! 3. **Generation-stamped block identity** — self-modified code
//!    re-executes under a *new* block key (the region's write generation
//!    bumps), so stale and patched copies of the same addresses never
//!    pollute each other's counters.
//!
//! A committed golden pins the symbolized hot-block report for a seeded
//! engine workload. To refresh after an intentional change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test profile_determinism
//! ```
//!
//! and commit the updated files under `tests/golden/`.

use audo_analyze::{cfg, symbols};
use audo_bench::run_jobs;
use audo_common::events::StallReason;
use audo_common::{Addr, Cycle, EventSink, SourceId};
use audo_obs::profile::{flame_stacks, render_hot_blocks, BlockProfile, ProfileDoc};
use audo_platform::config::SocConfig;
use audo_platform::Soc;
use audo_tricore::arch::init_csa_list;
use audo_tricore::asm::assemble;
use audo_tricore::bus::TestBus;
use audo_tricore::{Core, CoreConfig, PipelineStats};
use audo_workloads::engine::{engine_control, EngineParams};
use audo_workloads::Workload;

/// A small, fully deterministic engine workload (same scale as the
/// observability goldens) with per-variant placement flags.
fn small_engine(tables_in_dspr: bool, isrs_in_pspr: bool) -> Workload {
    let p = EngineParams {
        rpm: 6_000,
        target_teeth: 5,
        target_bg_passes: 3,
        tables_in_dspr,
        isrs_in_pspr,
        ..EngineParams::default()
    };
    engine_control(&p)
}

/// Runs a workload on the full-SoC pipeline tier with block profiling on
/// (and the predecode fast path on or off) and returns the profile next
/// to the pipeline's own ground truth.
fn profile_on_soc(w: &Workload, fast: bool) -> (BlockProfile, PipelineStats, u64) {
    let mut soc = Soc::new(SocConfig::tc1797());
    w.install(&mut soc).expect("workload installs");
    soc.tricore.set_fast_path(fast);
    soc.tricore.set_profile_observation(true);
    soc.run_to_halt(w.max_cycles).expect("workload completes");
    let profile = soc
        .tricore
        .block_profile()
        .cloned()
        .expect("profiling was enabled");
    let stats = *soc.tricore.stats();
    let retired = soc.tricore.retired_total();
    (profile, stats, retired)
}

/// Renders every deterministic artifact the profile CLI derives from one
/// workload — hot-block table, JSON document, folded stacks — as one
/// string, for byte comparison.
fn full_artifacts(w: &Workload) -> String {
    let (profile, stats, retired) = profile_on_soc(w, true);
    let soc_cfg = SocConfig::tc1797();
    let graph = cfg::recover(&w.image);
    let symbol_map = symbols::symbol_map(&graph, &soc_cfg);
    let calls = symbols::call_graph(&graph, &symbol_map);
    let stacks = flame_stacks(&profile, &symbol_map, &calls);
    let table = render_hot_blocks(&profile, &symbol_map, 10);
    let doc = ProfileDoc::new(
        &w.name,
        "pipeline",
        stats.retire_cycles + stats.stall_total(),
        retired,
        profile,
        &symbol_map,
    );
    format!("{table}\n{}\n{}", doc.to_json(), stacks.render())
}

#[test]
fn report_is_byte_identical_at_any_worker_count() {
    let specs: [(bool, bool); 3] = [(false, false), (true, false), (false, true)];
    let run = |jobs: usize| -> Vec<String> {
        run_jobs(specs.len(), jobs, |i| {
            let (tables, isrs) = specs[i];
            full_artifacts(&small_engine(tables, isrs))
        })
        .into_iter()
        .map(|j| j.output)
        .collect()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel, "--jobs must not leak into the artifacts");
    for s in &serial {
        assert!(s.contains("hot blocks"), "table rendered: {s}");
    }
}

/// With the fast path off the carve stage still tags blocks (the cache
/// just stores none), so attribution must balance exactly either way.
#[test]
fn attribution_accounts_every_cycle_exactly() {
    for fast in [true, false] {
        check_attribution(fast);
    }
}

fn check_attribution(fast: bool) {
    let w = small_engine(false, false);
    let (profile, stats, retired) = profile_on_soc(&w, fast);
    let cycles = stats.retire_cycles + stats.stall_total();

    // The machine check: Σ per-block cycles + unattributed == retire +
    // Σ stalls == cycles, recomputed from the raw buckets (not via the
    // profile's own total() helper).
    let mut sum_retire = profile.unattributed.retire_cycles;
    let mut sum_stall = [0u64; StallReason::COUNT];
    let mut sum_instrs = profile.unattributed.instructions;
    let mut attributed = 0u64;
    for (reason, slot) in StallReason::ALL.iter().zip(sum_stall.iter_mut()) {
        *slot += profile.unattributed.stall_cycles[reason.index()];
    }
    for (_, c) in profile.blocks() {
        sum_retire += c.retire_cycles;
        sum_instrs += c.instructions;
        attributed += c.cycles();
        for (reason, slot) in StallReason::ALL.iter().zip(sum_stall.iter_mut()) {
            *slot += c.stall_cycles[reason.index()];
        }
    }
    assert_eq!(
        sum_retire, stats.retire_cycles,
        "retire cycles balance (fast={fast})"
    );
    for reason in StallReason::ALL {
        assert_eq!(
            sum_stall[reason.index()],
            stats.stall_cycles[reason.index()],
            "stall cycles balance for {reason:?} (fast={fast})"
        );
    }
    assert_eq!(
        sum_retire + sum_stall.iter().sum::<u64>(),
        cycles,
        "every cycle is attributed exactly once (fast={fast})"
    );
    assert_eq!(
        sum_instrs, retired,
        "every retired instruction is counted (fast={fast})"
    );
    assert!(attributed > 0, "blocks own cycles with fast={fast}");
}

/// Assembles a single instruction and returns its encoding bytes.
fn encoding_of(line: &str) -> Vec<u8> {
    let img = assemble(&format!(".org 0x80001000\n    {line}\n")).unwrap();
    img.bytes_at(Addr(0x8000_1000), img.size()).unwrap()
}

/// Emits assembly that stores `enc` (a 2- or 4-byte instruction encoding)
/// over the code at the address held in `a2`, via halfword stores.
fn emit_patch_stores(enc: &[u8]) -> String {
    let lo = u16::from_le_bytes([enc[0], enc[1]]);
    let mut s = format!("    li d14, {lo}\n    st.h d14, [a2+0]\n");
    if enc.len() == 4 {
        let hi = u16::from_le_bytes([enc[2], enc[3]]);
        s.push_str(&format!("    li d14, {hi}\n    st.h d14, [a2+2]\n"));
    }
    s
}

#[test]
fn smc_generation_bump_keeps_stale_blocks_distinct() {
    // The self-modifying loop from the pipeline-invalidation suite: pass
    // 1 executes the original `movi d1, 11`, a store patches it to
    // `movi d1, 99`, pass 2 executes the patched copy (d3 == 110).
    let patched = encoding_of("movi d1, 99");
    let src = format!(
        "
        .org 0x80000000
    _start:
        la a2, victim
        movi d3, 0
        movi d15, 2
        mov.a a5, d15
        j L0            ; force a block boundary at the loop head, so
                        ; every pass enters the body at the same offset
    L0:
    victim:
        movi d1, 11
        add d3, d3, d1
{patch}
        loop a5, L0
        halt
    ",
        patch = emit_patch_stores(&patched),
    );
    let image = assemble(&src).expect("assembles");
    let mut bus = TestBus::new();
    bus.mem.add_region(Addr(0x8000_0000), 0x1_0000);
    bus.mem.add_region(Addr(0xD000_0000), 0x1_0000);
    image.load_into(&mut bus.mem).unwrap();
    let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
    core.set_fast_path(true);
    core.set_profile_observation(true);
    core.arch_mut().fcx = init_csa_list(&mut bus.mem, Addr(0xD000_8000), 32).unwrap();
    let mut sink = EventSink::new();
    let mut cyc = 0u64;
    while !core.is_halted() {
        assert!(cyc < 1_000_000, "program did not halt");
        core.step(Cycle(cyc), &mut bus, None, &mut sink)
            .expect("no fault");
        cyc += 1;
    }
    assert_eq!(core.arch().d[3], 110, "patched loop body executed");

    let profile = core.block_profile().cloned().expect("profiling was on");
    // The loop body must appear under at least two distinct generations
    // of the same (region, offset): the pre-patch copy and the patched
    // one, each with its own execution count.
    let mut generations: std::collections::BTreeMap<(u32, u32), Vec<u64>> =
        std::collections::BTreeMap::new();
    for (key, counts) in profile.blocks() {
        if counts.executions > 0 {
            generations
                .entry((key.region, key.offset))
                .or_default()
                .push(key.generation);
        }
    }
    let multi: Vec<_> = generations.values().filter(|g| g.len() >= 2).collect();
    assert!(
        !multi.is_empty(),
        "self-modified code must profile under distinct generations: {:?}",
        profile.blocks().map(|(k, _)| k).collect::<Vec<_>>()
    );
    // And the profile still balances: the pipeline's stall accounting
    // invariant survives invalidation traffic.
    let stats = core.stats();
    assert_eq!(
        profile.total().cycles(),
        stats.retire_cycles + stats.stall_total(),
        "attribution stays exact across the generation bump"
    );
}

fn check_golden(name: &str, actual: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    audo_common::golden::check(&dir.join(name), actual);
}

#[test]
fn hot_block_report_matches_committed_golden() {
    let w = small_engine(false, false);
    let (profile, stats, retired) = profile_on_soc(&w, true);
    let soc_cfg = SocConfig::tc1797();
    let graph = cfg::recover(&w.image);
    let symbol_map = symbols::symbol_map(&graph, &soc_cfg);
    check_golden(
        "profile_engine_hot.txt",
        &render_hot_blocks(&profile, &symbol_map, 10),
    );
    check_golden(
        "profile_engine_doc.json",
        &ProfileDoc::new(
            &w.name,
            "pipeline",
            stats.retire_cycles + stats.stall_total(),
            retired,
            profile,
            &symbol_map,
        )
        .to_json(),
    );
}

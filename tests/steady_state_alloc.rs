//! The per-cycle observation path allocates nothing in steady state.
//!
//! A counting global allocator (per-thread counter, so the test
//! harness's own threads do not interfere) watches
//! `EmulationDevice::advance` — SoC step, interrupt routing, MCDS
//! observation and EMEM trace write — on the fleet's engine-stock cohort
//! under two MCDS programs: the fleet's single IPC rate probe, and the
//! trace benchmark's four metrics (six probes) plus program flow trace,
//! whose stream wraps the EMEM trace ring. After a warm-up that grows
//! every reusable buffer to its per-cycle peak, a long stretch of
//! simulated cycles must not touch the heap.
//!
//! The one allocation the simulation itself needs is the TriCore's
//! predecoded-block cache filling with a block it has never run: the
//! engine's interrupt returns and rarely taken paths keep reaching new
//! block starts until late in the session (the last one near cycle
//! 70,000 of ~105,000). So the strict zero is checked with that cache
//! off, and with it on (the fleet's configuration) the observing device
//! must allocate exactly as often as a production device that observes
//! nothing: the observation path adds no allocation of its own. The
//! fleet also runs with block profiling on; a profile allocates only for
//! a block it has never seen, so once the set of blocks stops growing,
//! profiling adds no allocation either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use audo_ed::{EdConfig, EmulationDevice, TraceMode};
use audo_fleet::cohort::build_artifacts;
use audo_profiler::metrics::Metric;
use audo_profiler::spec::ProfileSpec;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone during thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const WARMUP_CYCLES: u64 = 20_000;
const MEASURED_CYCLES: u64 = 50_000;

/// What the measured stretch saw.
struct Stretch {
    /// Heap allocations during the stretch.
    allocs: u64,
    /// Trace bytes the MCDS wrote during the stretch.
    trace_bytes: u64,
    /// Distinct profiled blocks before and after the stretch (`None`
    /// with profiling off).
    profiled_blocks: Option<(usize, usize)>,
}

/// The fleet's MCDS program: one IPC rate probe.
fn ipc_spec() -> ProfileSpec {
    ProfileSpec::new()
        .metric(Metric::Ipc, 2_000)
        .with_timestamp_shift(4)
}

/// The trace benchmark's MCDS program: four metrics on six probes plus
/// ungated program flow trace.
fn trace_spec() -> ProfileSpec {
    ProfileSpec::new()
        .metric(Metric::Ipc, 2_000)
        .metric(Metric::IcacheHitRatio, 2_000)
        .metric(Metric::DcacheHitRatio, 2_000)
        .metric(Metric::InterruptsPerKilocycle, 2_000)
        .with_program_trace()
}

/// A trace region the flow trace wraps several times in the measured
/// stretch (about 28 KB of trace).
const SMALL_RING: EdConfig = EdConfig {
    trace_bytes: 4 * 1024,
    trace_mode: TraceMode::Ring,
};

/// Warms up, then advances `MEASURED_CYCLES` engine-stock cycles on a
/// device with trace region `ed_cfg` and block profiling off. With a
/// `spec`, the device runs that MCDS program on the full observation
/// stream; without, it is a production part (observation off, no MCDS).
fn measure(fast_path: bool, spec: Option<&ProfileSpec>, ed_cfg: EdConfig) -> Stretch {
    measure_in(
        (WARMUP_CYCLES, MEASURED_CYCLES),
        fast_path,
        false,
        spec,
        ed_cfg,
    )
}

/// [`measure`] over a `(warm-up, measured)` cycle window, with block
/// profiling on or off.
fn measure_in(
    (warmup, measured): (u64, u64),
    fast_path: bool,
    profile: bool,
    spec: Option<&ProfileSpec>,
    ed_cfg: EdConfig,
) -> Stretch {
    let art = build_artifacts()
        .into_iter()
        .find(|a| a.spec.name == "engine-stock")
        .expect("the fleet has an engine-stock cohort");
    let mut ed = EmulationDevice::new(art.config.clone(), ed_cfg);
    art.workload.install_ed(&mut ed).expect("installs");
    ed.soc.tricore.set_fast_path(fast_path);
    ed.soc.tricore.set_profile_observation(profile);
    if let Some(spec) = spec {
        let (mcds, _) = spec.compile().expect("the program fits the MCDS");
        ed.program_mcds(mcds);
    } else {
        ed.soc.set_observation(false);
    }

    for _ in 0..warmup {
        let (_, halted) = ed.advance().expect("warm-up runs");
        assert!(!halted, "the session outlasts the warm-up");
    }
    let blocks = |ed: &EmulationDevice| ed.soc.tricore.block_profile().map(|p| p.len());
    let blocks_before = blocks(&ed);
    let (written, before) = (ed.trace.total_written(), allocs());
    for _ in 0..measured {
        let (_, halted) = ed.advance().expect("steady state runs");
        assert!(!halted, "the session outlasts the measured stretch");
    }
    Stretch {
        allocs: allocs() - before,
        trace_bytes: ed.trace.total_written() - written,
        profiled_blocks: blocks_before.zip(blocks(&ed)),
    }
}

#[test]
fn advance_without_predecode_cache_never_allocates() {
    let s = measure(false, Some(&ipc_spec()), EdConfig::default());
    assert!(s.trace_bytes > 0, "the rate probe wrote trace");
    assert_eq!(
        s.allocs, 0,
        "heap allocations in {MEASURED_CYCLES} steady-state cycles"
    );
}

#[test]
fn traced_advance_without_predecode_cache_never_allocates() {
    let s = measure(false, Some(&trace_spec()), SMALL_RING);
    assert!(
        s.trace_bytes > 2 * u64::from(SMALL_RING.trace_bytes),
        "the flow trace wraps the EMEM ring ({} bytes)",
        s.trace_bytes
    );
    assert_eq!(
        s.allocs, 0,
        "heap allocations in {MEASURED_CYCLES} traced steady-state cycles"
    );
}

#[test]
fn observation_adds_no_allocation_to_the_fleet_configuration() {
    let observed = measure(true, Some(&ipc_spec()), EdConfig::default());
    let production = measure(true, None, EdConfig::default());
    assert!(observed.trace_bytes > 0, "the rate probe wrote trace");
    assert_eq!(production.trace_bytes, 0);
    assert_eq!(
        observed.allocs, production.allocs,
        "the observing device allocates beyond the predecode-cache fills"
    );
    assert!(
        production.allocs < 100,
        "{} allocations: the predecode cache is not warming up",
        production.allocs
    );
}

/// A stretch of the profiled engine-stock session that meets no block it
/// has not run before: new blocks arrive until cycle ~25,400 (start-up
/// and the first interrupts), then not again until ~70,200.
const BETWEEN_NEW_BLOCKS: (u64, u64) = (30_000, 35_000);

#[test]
fn profiled_fleet_configuration_allocates_only_for_new_blocks() {
    let window = BETWEEN_NEW_BLOCKS;
    let profiled = measure_in(window, true, true, Some(&ipc_spec()), EdConfig::default());
    let production = measure_in(window, true, false, None, EdConfig::default());
    let (before, after) = profiled.profiled_blocks.expect("profiling is on");
    assert!(before > 0, "the warm-up profiled blocks");
    assert_eq!(
        before, after,
        "no new block is profiled in the measured stretch"
    );
    assert_eq!(
        profiled.allocs, production.allocs,
        "profiling allocates beyond the predecode-cache fills"
    );
}

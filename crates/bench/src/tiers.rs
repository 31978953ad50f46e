//! The two execution tiers as benchmark subjects: the functional ISS and
//! the cycle-level pipeline over a scratchpad-like [`TestBus`] (so
//! host-side decode work, not memory latency, dominates a measurement),
//! both under the differential fuzzer's memory map, plus the
//! cycle-identity checks that the pipeline's predecoded fast path must
//! pass before it is timed, bare and on the full [`Soc`].

use audo_common::{Addr, Cycle, EventRecord, EventSink, SourceId};
use audo_fuzz::tiers::{mcds_trace_bytes, CSA_BASE, CSA_FRAMES, REGIONS};
use audo_obs::{metrics_text, Registry};
use audo_platform::config::SocConfig;
use audo_platform::{CycleObservation, Soc};
use audo_tricore::arch::init_csa_list;
use audo_tricore::bus::TestBus;
use audo_tricore::iss::Iss;
use audo_tricore::{ArchState, Core, CoreConfig, PipelineStats};
use audo_workloads::Workload;

/// A functional ISS with `w` loaded and the decode-cache fast path on or
/// off.
///
/// # Panics
///
/// Panics if the image does not fit the memory map.
#[must_use]
pub fn iss(w: &Workload, fast: bool) -> Iss {
    let mut iss = Iss::new();
    for &(base, len) in REGIONS {
        iss.map_region(Addr(base), len);
    }
    iss.init_csa(Addr(CSA_BASE), CSA_FRAMES)
        .expect("CSA pool fits");
    iss.load(&w.image).expect("image fits");
    iss.set_fast_path(fast);
    iss
}

/// A cycle-level core at `w`'s entry over a bus holding its image, with
/// the predecoded-block fast path on or off.
///
/// # Panics
///
/// Panics if the image does not fit the memory map.
#[must_use]
pub fn pipeline(w: &Workload, fast: bool) -> (Core, TestBus) {
    let mut bus = TestBus::new();
    for &(base, len) in REGIONS {
        bus.mem.add_region(Addr(base), len);
    }
    w.image.load_into(&mut bus.mem).expect("image fits");
    let mut core = Core::new(CoreConfig::default(), w.image.entry(), SourceId::TRICORE);
    core.set_fast_path(fast);
    core.arch_mut().fcx =
        init_csa_list(&mut bus.mem, Addr(CSA_BASE), CSA_FRAMES).expect("CSA pool fits");
    (core, bus)
}

/// Steps `core` until it halts and returns the cycle count.
///
/// # Errors
///
/// Returns an error on a fault or when `max_cycles` pass without a halt.
pub fn step_to_halt(
    core: &mut Core,
    bus: &mut TestBus,
    sink: &mut EventSink,
    max_cycles: u64,
    mut each: impl FnMut(&mut EventSink),
) -> Result<u64, String> {
    let mut cyc = 0u64;
    while !core.is_halted() {
        if cyc >= max_cycles {
            return Err(format!("no halt within {max_cycles} cycles"));
        }
        core.step(Cycle(cyc), bus, None, sink)
            .map_err(|e| format!("fault at cycle {cyc}: {e}"))?;
        each(sink);
        cyc += 1;
    }
    Ok(cyc)
}

/// Everything a toolchain can see of one observed pipeline run.
#[derive(Debug, Clone, PartialEq)]
struct PipelineRun {
    /// Cycles to halt.
    cycles: u64,
    /// Retired instructions.
    retired: u64,
    /// Per-cause stall decomposition.
    stats: PipelineStats,
    /// Architectural state at halt.
    arch: ArchState,
    /// The complete event stream.
    events: Vec<EventRecord>,
}

/// Runs `w` to halt on the pipeline with event observation on.
///
/// # Errors
///
/// Returns an error on a fault or a missing halt.
fn observed_pipeline_run(w: &Workload, fast: bool) -> Result<PipelineRun, String> {
    let (mut core, mut bus) = pipeline(w, fast);
    let mut sink = EventSink::new();
    let mut events = Vec::new();
    let cycles = step_to_halt(&mut core, &mut bus, &mut sink, w.max_cycles, |s| {
        events.append(&mut s.drain());
    })
    .map_err(|e| format!("{}: {e}", w.name))?;
    Ok(PipelineRun {
        cycles,
        retired: core.retired_total(),
        stats: *core.stats(),
        arch: core.arch().clone(),
        events,
    })
}

/// Compares an uncached and a cached run: they must be indistinguishable
/// in everything but wall time (the predecode cache's own hit/miss
/// counters describe the mechanism itself and are exempt).
///
/// # Errors
///
/// Returns an error naming the first observable that differs.
fn compare_pipeline_runs(slow: &PipelineRun, fast: &PipelineRun) -> Result<(), String> {
    let mut normalized = fast.stats;
    normalized.predecode = slow.stats.predecode;
    let mismatch = if fast.cycles != slow.cycles {
        "cycle count"
    } else if fast.retired != slow.retired {
        "retired count"
    } else if fast.arch != slow.arch {
        "architectural state"
    } else if normalized != slow.stats {
        "stall decomposition"
    } else if fast.events != slow.events {
        "event stream"
    } else if mcds_trace_bytes(&fast.events) != mcds_trace_bytes(&slow.events) {
        "MCDS trace bytes"
    } else {
        return Ok(());
    };
    Err(format!("cached and uncached pipeline differ in {mismatch}"))
}

/// Runs `w` uncached and cached with observation on and requires the
/// runs to be cycle-identical: state, cycles, stall decomposition, events
/// and MCDS trace bytes. Returns `(cycles, retired)`.
///
/// # Errors
///
/// Returns an error naming the workload and the first mismatch.
pub fn check_cycle_identity(w: &Workload) -> Result<(u64, u64), String> {
    let slow = observed_pipeline_run(w, false)?;
    let fast = observed_pipeline_run(w, true)?;
    compare_pipeline_runs(&slow, &fast).map_err(|e| format!("{}: {e}", w.name))?;
    Ok((slow.cycles, slow.retired))
}

/// The first per-cycle observable in which `cached` differs from
/// `uncached`, if any.
fn cycle_mismatch(uncached: &CycleObservation, cached: &CycleObservation) -> Option<&'static str> {
    if cached.events != uncached.events {
        Some("events")
    } else if cached.bus != uncached.bus {
        Some("bus transactions")
    } else if cached.tricore_retired != uncached.tricore_retired {
        Some("retired count")
    } else if cached.halted != uncached.halted {
        Some("halt")
    } else {
        None
    }
}

/// The SoC's rendered metrics snapshot without the predecode cache's own
/// counters (they describe the mechanism, and differ by design).
fn soc_metrics(soc: &Soc) -> String {
    let mut reg = Registry::new();
    soc.export_obs(&mut reg);
    metrics_text::render(&reg, "audo")
        .lines()
        .filter(|l| !l.contains("predecode"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Drives an uncached and a cached full [`Soc`] running `w` in lockstep,
/// observation on, and requires every cycle to match in events, bus
/// transactions, retired count and halt; at halt the architectural state
/// and the rendered metrics (predecode counters excluded) must match too.
/// Returns `(cycles, retired)`.
///
/// # Errors
///
/// Returns an error naming the workload and the first mismatch, with its
/// cycle where it is a per-cycle observable.
pub fn check_soc_identity(w: &Workload) -> Result<(u64, u64), String> {
    let fail = |e: String| format!("{}: {e}", w.name);
    let soc = |fast: bool| {
        let mut soc = Soc::new(SocConfig::default());
        soc.tricore.set_fast_path(fast);
        w.install(&mut soc).map_err(|e| fail(e.to_string()))?;
        soc.set_observation(true);
        Ok::<Soc, String>(soc)
    };
    let (mut uncached, mut cached) = (soc(false)?, soc(true)?);
    let mut cycles = 0u64;
    loop {
        if cycles >= w.max_cycles {
            return Err(fail(format!("no halt within {} cycles", w.max_cycles)));
        }
        let a = uncached.advance().map_err(|e| fail(e.to_string()))?;
        let b = cached.advance().map_err(|e| fail(e.to_string()))?;
        cycles += 1;
        if let Some(what) = cycle_mismatch(a, b) {
            return Err(fail(format!(
                "cached and uncached SoC differ in {what} at cycle {}",
                a.cycle.0
            )));
        }
        if a.halted {
            break;
        }
    }
    let mismatch = if cached.tricore.arch() != uncached.tricore.arch() {
        "architectural state"
    } else if soc_metrics(&cached) != soc_metrics(&uncached) {
        "rendered metrics"
    } else {
        return Ok((cycles, uncached.tricore.retired_total()));
    };
    Err(fail(format!(
        "cached and uncached SoC differ in {mismatch} at halt"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use audo_common::{AccessKind, BusTransaction};
    use audo_workloads::micro::{div_kernel, mac_kernel, random_mix, stream_copy};

    #[test]
    fn small_workloads_are_cycle_identical() {
        for w in [
            mac_kernel(50),
            stream_copy(64),
            div_kernel(20),
            random_mix(3, 60, 4),
        ] {
            let (cycles, retired) = check_cycle_identity(&w).unwrap();
            assert!(cycles > 0 && retired > 0, "{}", w.name);
            // The functional tier retires the same instructions.
            let mut iss = iss(&w, true);
            iss.run_resumable(w.max_cycles).unwrap();
            assert_eq!(iss.instr_count(), retired, "{}", w.name);
        }
    }

    #[test]
    fn comparison_names_the_first_differing_observable() {
        let w = mac_kernel(20);
        let slow = observed_pipeline_run(&w, false).unwrap();
        let fast = observed_pipeline_run(&w, true).unwrap();
        assert_ne!(slow.stats.predecode, fast.stats.predecode);
        compare_pipeline_runs(&slow, &fast).expect("predecode counters are exempt");

        let differs = |edit: &dyn Fn(&mut PipelineRun)| {
            let mut bad = fast.clone();
            edit(&mut bad);
            compare_pipeline_runs(&slow, &bad).unwrap_err()
        };
        assert!(differs(&|r| r.cycles += 1).contains("cycle count"));
        assert!(differs(&|r| r.retired += 1).contains("retired count"));
        assert!(differs(&|r| r.arch.d[2] ^= 1).contains("architectural state"));
        assert!(differs(&|r| r.arch.psw ^= 1).contains("architectural state"));
        assert!(differs(&|r| r.stats.flushes += 1).contains("stall decomposition"));
        assert!(differs(&|r| {
            r.events.pop();
        })
        .contains("event stream"));
    }

    #[test]
    fn soc_identity_holds_and_names_the_differing_observable() {
        let w = mac_kernel(50);
        let (cycles, retired) = check_soc_identity(&w).unwrap();
        let mut soc = Soc::new(SocConfig::default());
        w.install(&mut soc).unwrap();
        assert_eq!(soc.run_to_halt(w.max_cycles).unwrap(), cycles);
        assert_eq!(soc.tricore.retired_total(), retired);

        let obs = soc.last_observation().clone();
        assert_eq!(cycle_mismatch(&obs, &obs), None);
        let differs = |edit: &dyn Fn(&mut CycleObservation)| {
            let mut bad = obs.clone();
            edit(&mut bad);
            cycle_mismatch(&obs, &bad)
        };
        assert_eq!(differs(&|o| o.events.clear()), Some("events"));
        let fetch = BusTransaction {
            cycle: obs.cycle,
            master: SourceId::TRICORE,
            addr: w.image.entry(),
            kind: AccessKind::Fetch,
            size: 8,
        };
        assert_eq!(differs(&|o| o.bus.push(fetch)), Some("bus transactions"));
        assert_eq!(differs(&|o| o.tricore_retired += 1), Some("retired count"));
        assert_eq!(differs(&|o| o.halted ^= true), Some("halt"));
    }

    #[test]
    fn mcds_bytes_depend_on_the_event_stream() {
        let w = mac_kernel(20);
        let run = observed_pipeline_run(&w, true).unwrap();
        let bytes = mcds_trace_bytes(&run.events);
        assert!(!bytes.is_empty());
        assert_eq!(bytes, mcds_trace_bytes(&run.events));
        assert_ne!(bytes, mcds_trace_bytes(&run.events[..run.events.len() / 2]));
    }
}

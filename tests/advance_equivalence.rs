//! `advance` and `step` are one code path.
//!
//! `Soc::advance` and `EmulationDevice::advance` refill reused buffers
//! in place; `step` returns owned copies. On the fleet's engine and
//! engine-pcp cohorts (the PCP one exercises the interrupt router's
//! PCP dispatch every CAN frame), two devices driven one way each must
//! agree cycle by cycle on everything observable: events in order, bus
//! transactions, retired instructions, halt, and the trace bytes the
//! MCDS writes to EMEM.

use audo_ed::{EdConfig, EmulationDevice};
use audo_fleet::cohort::{build_artifacts, CohortArtifacts};
use audo_platform::soc::{CycleObservation, Soc};
use audo_profiler::metrics::Metric;
use audo_profiler::spec::ProfileSpec;

const COHORTS: [&str; 2] = ["engine-stock", "engine-pcp"];

fn cohorts() -> Vec<CohortArtifacts> {
    build_artifacts()
        .into_iter()
        .filter(|a| COHORTS.contains(&a.spec.name))
        .collect()
}

fn assert_same(a: &CycleObservation, b: &CycleObservation, what: &str) {
    let at = a.cycle.0;
    assert_eq!(a.cycle, b.cycle, "{what}: cycle");
    assert_eq!(a.events, b.events, "{what}: events at cycle {at}");
    assert_eq!(a.bus, b.bus, "{what}: bus at cycle {at}");
    assert_eq!(
        a.tricore_retired, b.tricore_retired,
        "{what}: retired at cycle {at}"
    );
    assert_eq!(a.halted, b.halted, "{what}: halted at cycle {at}");
}

#[test]
fn soc_step_and_advance_match_cycle_by_cycle() {
    for art in cohorts() {
        let name = art.spec.name;
        let mut stepped = Soc::new(art.config.clone());
        let mut advanced = Soc::new(art.config.clone());
        art.workload.install(&mut stepped).expect("installs");
        art.workload.install(&mut advanced).expect("installs");
        let (mut cycles, mut events, mut bus) = (0u64, 0usize, 0usize);
        loop {
            let owned = stepped.step().expect("steps");
            let borrowed = advanced.advance().expect("advances");
            assert_same(&owned, borrowed, name);
            assert_same(&owned, stepped.last_observation(), name);
            cycles += 1;
            events += owned.events.len();
            bus += owned.bus.len();
            if owned.halted {
                break;
            }
            assert!(cycles < art.budget, "{name}: no halt within budget");
        }
        assert!(events > 0 && bus > 0, "{name}: observed nothing");
        assert_eq!(
            stepped.tricore.arch().d,
            advanced.tricore.arch().d,
            "{name}"
        );
        assert_eq!(stepped.irqs_taken, advanced.irqs_taken, "{name}");
    }
}

#[test]
fn ed_step_and_advance_write_the_same_trace() {
    let spec = ProfileSpec::new()
        .metric(Metric::Ipc, 500)
        .with_program_trace()
        .with_timestamp_shift(4);
    for art in cohorts() {
        let name = art.spec.name;
        let ed = || {
            let mut ed = EmulationDevice::new(art.config.clone(), EdConfig::default());
            art.workload.install_ed(&mut ed).expect("installs");
            ed.program_mcds(spec.compile().expect("compiles").0);
            ed
        };
        let (mut stepped, mut advanced) = (ed(), ed());
        let mut produced = 0u64;
        loop {
            let step = stepped.step().expect("steps");
            let (trace_bytes, halted) = advanced.advance().expect("advances");
            assert_eq!(step.trace_bytes, trace_bytes, "{name}: trace bytes");
            assert_eq!(step.halted, halted, "{name}: halted");
            assert_same(&step.obs, advanced.soc.last_observation(), name);
            produced += u64::from(trace_bytes);
            // Drain both regions alike so the ring never wraps over data.
            let level = stepped.trace.level();
            assert_eq!(level, advanced.trace.level(), "{name}: trace level");
            if level > 4096 || halted {
                let a = stepped.drain_trace(level as u32).expect("drains");
                let b = advanced.drain_trace(level as u32).expect("drains");
                assert_eq!(a, b, "{name}: EMEM trace bytes");
            }
            if halted {
                break;
            }
        }
        assert!(produced > 0, "{name}: the MCDS wrote trace");
        assert_eq!(stepped.trace.lost(), 0, "{name}");
        assert_eq!(advanced.trace.lost(), 0, "{name}");
    }
}

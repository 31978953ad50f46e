//! The correctness gates can fail: a corrupted tier makes `fuzz` fail,
//! and a mis-stated plant count makes the `fleet` veto check trip.

use audo_perfbench::{fleet, fuzz, RunConfig, Workload};

fn cfg(workload: Workload) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        seconds: 0.0,
        traced: false,
        jobs: 1,
    }
}

#[test]
fn a_corrupted_tier_fails_fuzz() {
    let mul = audo_tricore::opcodes::opcode_by_name("mul").expect("mul has a slot");
    let faulty = fuzz::run_with_fault(&cfg(Workload::Fuzz), Some(mul)).expect("runs");
    let clean = fuzz::run(&cfg(Workload::Fuzz)).expect("runs");
    assert!(faulty.fail_rate() > clean.fail_rate(), "{:?}", faulty.notes);
}

#[test]
fn a_mis_stated_plant_count_trips_the_veto_check() {
    let c = cfg(Workload::Fleet);
    // The fleet plants one unit in 16; claiming one in 8 expects vetoes
    // on units that were never planted.
    let r = fleet::run_with_claim(&c, Some(fleet::PLANT_EVERY / 2)).expect("runs");
    assert!(r.fail_rate() > 0.0, "{:?}", r.notes);
    // Claiming no plants turns every planted unit into a false veto.
    let r = fleet::run_with_claim(&c, None).expect("runs");
    assert!(r.fail_rate() > 0.0, "{:?}", r.notes);
}

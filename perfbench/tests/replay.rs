//! Replay equivalence: the traced rebuilds of `profile`, `run_session`
//! and the fuzz tiers reproduce the library calls exactly, so the spans
//! measure the same program.

use audo_ed::{EdConfig, EmulationDevice};
use audo_fleet::session::run_session;
use audo_fleet::{fold, plan, FleetOptions};
use audo_perfbench::fleet::{self, run_session_traced};
use audo_perfbench::fuzz::{self, Tiering};
use audo_perfbench::replay::profile_traced;
use audo_perfbench::span::{Layer, Spans};
use audo_perfbench::{trace, ExactCounts};
use audo_profiler::session::profile;

#[test]
fn fleet_sessions_and_reports_replay_exactly() {
    let p = plan(FleetOptions {
        sessions: fleet::SHARD_SIZE,
        ..fleet::options(3)
    });
    let mut spans = Spans::new();
    let mut exact = ExactCounts::default();
    let mut planted = 0;
    for index in 0..fleet::SHARD_SIZE {
        let spec = p.vehicle(index);
        let art = &p.cohorts[spec.cohort];
        let lib = run_session(art, &p.rogue, &spec, &p.opts).expect("session runs");
        let replay = run_session_traced(art, &p.rogue, &spec, &p.opts, &mut spans, &mut exact)
            .expect("replay runs");
        assert_eq!(format!("{lib:?}"), format!("{replay:?}"), "session {index}");
        assert_eq!(
            lib.vetoed, spec.miscalibrated,
            "veto verdict of session {index}"
        );
        planted += u64::from(spec.miscalibrated);
    }
    assert!(planted > 0, "the shard holds a planted unit");
    assert!(spans.seconds(Layer::SocStep) > 0.0);
    assert_eq!(spans.call_count(Layer::SocStep), exact.cycles);

    // Shard level: the benchmark's loop over the same vehicles, untraced
    // and traced, folds to the report `FleetPlan::run_shard` folds to.
    let library = fold(&p, &[p.run_shard(0)]).expect("folds").to_json();
    let vehicles: Vec<u64> = (0..fleet::SHARD_SIZE).collect();
    let ours = fleet::run_vehicles(&p, &vehicles, true, p.opts.miscalibrate);
    assert_eq!(ours.failed, 0);
    let traced = ours.traced.expect("traced shard");
    assert_eq!(traced.mismatches, 0);
    assert_eq!(
        fleet::report_json(&p, &[ours.outcome], ours.planted).expect("folds"),
        library
    );
    assert_eq!(
        fold(&p, &[traced.outcome]).expect("folds").to_json(),
        library
    );
}

#[test]
fn fleet_shards_hold_the_cohort_mix_exactly() {
    let p = plan(fleet::options(9));
    let mut seen = std::collections::BTreeSet::new();
    for shard in 0..3 {
        let vehicles = fleet::shard_vehicles(&p, shard);
        assert_eq!(vehicles.len() as u64, fleet::SHARD_SIZE);
        let mut counts = vec![0u64; audo_fleet::cohort::COHORTS.len()];
        for &v in &vehicles {
            counts[p.vehicle(v).cohort] += 1;
            assert!(seen.insert(v), "vehicle {v} sampled twice");
        }
        let weights: Vec<u64> = audo_fleet::cohort::COHORTS
            .iter()
            .map(|c| c.weight * 2)
            .collect();
        assert_eq!(counts, weights, "shard {shard}");
    }
}

#[test]
fn trace_sessions_replay_bytes_messages_and_link_exactly() {
    let s = trace::setup();
    let opts = trace::session_options(&s, 5, 0);
    let device = || {
        let mut ed = EmulationDevice::new(
            audo_platform::config::SocConfig::default(),
            EdConfig {
                trace_bytes: trace::TRACE_BYTES,
                trace_mode: audo_ed::TraceMode::Ring,
            },
        );
        s.program.install_ed(&mut ed).expect("installs");
        ed
    };
    let mut a = device();
    let lib = profile(&mut a, &s.spec, &opts).expect("profiles");
    let mut b = device();
    let mut spans = Spans::new();
    let (replay, grants) = profile_traced(&mut b, &s.spec, &opts, &mut spans).expect("replays");
    assert_eq!(lib.cycles, replay.cycles);
    assert_eq!(lib.produced_bytes, replay.produced_bytes);
    assert_eq!(lib.downloaded_bytes, replay.downloaded_bytes);
    assert_eq!(lib.lost_bytes, 0);
    assert_eq!(
        lib.downloaded_bytes, lib.produced_bytes,
        "the drain is lossless"
    );
    assert_eq!(lib.messages, replay.messages);
    assert_eq!(lib.tool, replay.tool);
    assert!(lib.tool.expect("link report").complete);
    assert!(grants.useful > 0 && grants.useful <= grants.grants);
    assert_eq!(a.soc.tricore.retired_total(), b.soc.tricore.retired_total());

    let lib = trace::run_session(&s, 5, 1).expect("session runs");
    let replay = trace::run_session_traced(&s, 5, 1, &mut spans, &mut ExactCounts::default())
        .expect("replay runs");
    assert!(lib.ok(), "{lib:?}");
    assert_eq!(lib, replay);
}

#[test]
fn fuzz_sessions_replay_the_library_report_exactly() {
    let corpus = audo_asm::load_corpus(&audo_asm::default_corpus_dir()).expect("corpus loads");
    for k in 0..2 {
        let opts = fuzz::session_options(11, k, None);
        let library = audo_fuzz::run_fuzz(&opts, audo_fuzz::serial_schedule)
            .expect("session runs")
            .render();
        let ours = fuzz::run_session(&opts, &corpus, &mut Tiering::Library);
        let mut spans = Spans::new();
        let mut exact = ExactCounts::default();
        let replay =
            fuzz::run_session(&opts, &corpus, &mut Tiering::Traced(&mut spans, &mut exact));
        assert_eq!(ours.report.render(), library, "session {k}");
        assert_eq!(replay.report.render(), library, "session {k}");
        assert!(library.contains("result: CLEAN"));
        assert!(spans.seconds(Layer::IssSlow) > 0.0 && exact.cycles > 0);
    }
}

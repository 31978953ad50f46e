//! Times both execution tiers and the full SoC with their fast paths and
//! instrumentation on and off, in one process, and writes
//! `BENCH_tiers.json`.
//!
//! ```text
//! tier_bench [--json PATH] [--trace-out PATH] [--metrics-out PATH]
//! ```
//!
//! Variants, per workload:
//!
//! * ISS: `slow` (decode every instruction), `fast` (decode cache),
//!   `fast+mix` (instruction-mix counter on), `fast+profile` (block
//!   profiling on). Timed region: `Iss::run_resumable`.
//! * pipeline: `uncached`, `cached` (predecoded blocks), `cached+profile`.
//!   Timed region: the stepping loop, event observation off. Before
//!   timing, the uncached and cached runs must be cycle-identical: state,
//!   cycles, stall decomposition, events and MCDS trace bytes.
//! * soc (the full chip on `mac_kernel` and a short engine run):
//!   `uncached` and `cached` (`Soc::run_to_halt`, observation off, as a
//!   production chip), `emulation` (`Soc::run`, observation on) and `ed`
//!   (an Emulation Device running a four-rate-probe `session::profile` to
//!   halt, trace download and decode included). Timed region: the run,
//!   chip construction and image load excluded. Before timing,
//!   `tiers::check_soc_identity` steps an uncached and a cached SoC in
//!   lockstep, observation on, and names the first cycle whose events,
//!   bus transactions, retired count or halt differ.
//!
//! The variants of a tier are interleaved rep by rep (see
//! `audo_bench::harness`), every timed run must return the same retired
//! count (ISS) or the same cycles and retired count (pipeline, soc; so
//! every soc rep also checks that observation and the EEC never change
//! what the chip does), and each ratio is the median of per-rep paired
//! ratios against the tier's plain variant (`fast`, `cached`). Gates, on
//! each tier's geomean of those ratios over the workloads: the fast path
//! must be faster (> 1.0), and every instrumentation overhead must lie in
//! `[0.97, ceiling]` — 1.25 for the mix counter, 1.4 for profiling, 1.3
//! for soc emulation mode and 2.1 for the soc ED session.
//!
//! `--trace-out`/`--metrics-out` write observability exports of one
//! instrumented ISS run per workload (fast path, mix counter on). Their
//! timestamps are retired-instruction counts, so the files are
//! byte-identical across runs.
//!
//! Exit status: 0 pass, 1 a gate failed, 2 invalid command line, an
//! outcome mismatch or a cycle-identity failure.

use audo_bench::harness::{measure, time, BenchDoc};
use audo_bench::{cli, tiers};
use audo_common::EventSink;
use audo_ed::{EdConfig, EmulationDevice};
use audo_platform::config::SocConfig;
use audo_platform::Soc;
use audo_profiler::metrics::Metric;
use audo_profiler::session::{profile, SessionOptions};
use audo_profiler::spec::ProfileSpec;
use audo_workloads::engine::{engine_control, EngineParams};
use audo_workloads::micro::{div_kernel, mac_kernel, random_mix, stream_copy};
use audo_workloads::Workload;

/// Reps per variant: a multiple of every tier's variant count, so every
/// variant leads a rep equally often.
const REPS: usize = 24;
/// Lowest accepted instrumentation overhead: anything faster than its
/// uninstrumented twin by more than noise is a measurement fault.
const OVERHEAD_FLOOR: f64 = 0.97;
/// Highest accepted overhead of the ISS instruction-mix counter.
const MIX_CEIL: f64 = 1.25;
/// Highest accepted overhead of block profiling, on either tier.
const PROFILE_CEIL: f64 = 1.4;
/// Highest accepted overhead of SoC observation (emulation mode).
const EMU_CEIL: f64 = 1.3;
/// Highest accepted overhead of an ED profiling session over the SoC.
const ED_CEIL: f64 = 2.1;
/// ISS retire budget; every workload halts well inside it.
const MAX_INSTRS: u64 = 50_000_000;

const ISS: [&str; 4] = ["slow", "fast", "fast+mix", "fast+profile"];
const PIPELINE: [&str; 3] = ["uncached", "cached", "cached+profile"];
const SOC: [&str; 4] = ["uncached", "cached", "emulation", "ed"];

/// The band a tier's geomean of paired ratios must lie in.
enum Band {
    /// A fast-path speedup: strictly above 1.0.
    Speedup,
    /// An instrumentation overhead: in `[OVERHEAD_FLOOR, ceiling]`.
    Overhead(f64),
}

impl Band {
    fn admits(&self, g: f64) -> bool {
        match *self {
            Band::Speedup => g > 1.0,
            Band::Overhead(ceil) => (OVERHEAD_FLOOR..=ceil).contains(&g),
        }
    }

    fn describe(&self) -> String {
        match self {
            Band::Speedup => "> 1.0".to_string(),
            Band::Overhead(ceil) => format!("in [{OVERHEAD_FLOOR:.2}, {ceil:.2}]"),
        }
    }
}

/// The gated ratios, `(tier, of, over, band)`; they are also the ratios
/// the JSON records.
const GATES: [(&str, &str, &str, Band); 8] = [
    ("iss", "slow", "fast", Band::Speedup),
    ("iss", "fast+mix", "fast", Band::Overhead(MIX_CEIL)),
    ("iss", "fast+profile", "fast", Band::Overhead(PROFILE_CEIL)),
    ("pipeline", "uncached", "cached", Band::Speedup),
    (
        "pipeline",
        "cached+profile",
        "cached",
        Band::Overhead(PROFILE_CEIL),
    ),
    ("soc", "uncached", "cached", Band::Speedup),
    ("soc", "emulation", "cached", Band::Overhead(EMU_CEIL)),
    ("soc", "ed", "cached", Band::Overhead(ED_CEIL)),
];

/// One timed ISS run of variant `v` (an index into [`ISS`]).
fn iss_run(w: &Workload, v: usize) -> (u64, u64) {
    let mut iss = tiers::iss(w, v != 0);
    iss.set_mix_observation(v == 2);
    iss.set_profile_observation(v == 3);
    let (ns, run) = time(|| iss.run_resumable(MAX_INSTRS));
    run.expect("workload completes");
    (ns, iss.instr_count())
}

/// One timed pipeline run of variant `v` (an index into [`PIPELINE`]),
/// returning `(ns, (cycles, retired))`.
fn pipeline_run(w: &Workload, v: usize) -> (u64, (u64, u64)) {
    let (mut core, mut bus) = tiers::pipeline(w, v != 0);
    core.set_profile_observation(v == 2);
    let mut sink = EventSink::new();
    sink.set_enabled(false);
    let (ns, cycles) =
        time(|| tiers::step_to_halt(&mut core, &mut bus, &mut sink, w.max_cycles, |_| {}));
    let cycles = cycles.expect("workload completes");
    (ns, (cycles, core.retired_total()))
}

/// One timed SoC run of variant `v` (an index into [`SOC`]), returning
/// `(ns, (cycles, retired))`.
fn soc_run(w: &Workload, v: usize) -> (u64, (u64, u64)) {
    if SOC[v] == "ed" {
        return ed_run(w);
    }
    let mut soc = Soc::new(SocConfig::default());
    soc.tricore.set_fast_path(SOC[v] != "uncached");
    w.install(&mut soc).expect("workload installs");
    let observe = SOC[v] == "emulation";
    soc.set_observation(observe);
    let mut events = 0u64;
    let (ns, cycles) = time(|| {
        if observe {
            soc.run(w.max_cycles, |obs| events += obs.events.len() as u64)
        } else {
            soc.run_to_halt(w.max_cycles)
        }
    });
    let cycles = cycles.expect("workload completes");
    std::hint::black_box(events);
    (ns, (cycles, soc.tricore.retired_total()))
}

/// One timed ED session: four rate probes, run to halt.
fn ed_run(w: &Workload) -> (u64, (u64, u64)) {
    let mut ed = EmulationDevice::new(SocConfig::default(), EdConfig::default());
    w.install_ed(&mut ed).expect("workload installs");
    let spec = ProfileSpec::new()
        .metric(Metric::Ipc, 1000)
        .metric(Metric::IcacheMissPerInstr, 1000)
        .metric(Metric::DcacheMissPerInstr, 1000)
        .metric(Metric::InterruptsPerKilocycle, 1000);
    let opts = SessionOptions {
        max_cycles: w.max_cycles,
        run_to_halt: true,
        ..SessionOptions::default()
    };
    let (ns, out) = time(|| profile(&mut ed, &spec, &opts));
    let out = out.expect("session completes");
    (ns, (out.cycles, ed.soc.tricore.retired_total()))
}

/// [`measure`] over `names` whose agreed `(cycles, retired)` must also
/// be `expected`, the outcome of the observed identity-check runs.
fn measure_against(
    names: &[&str],
    expected: (u64, u64),
    run: impl FnMut(usize) -> (u64, (u64, u64)),
) -> Result<Vec<Vec<u64>>, String> {
    let (ns, outcome) = measure(REPS, names, run)?;
    if outcome != expected {
        return Err(format!(
            "timed runs returned (cycles, retired) {outcome:?}, observed runs {expected:?}"
        ));
    }
    Ok(ns)
}

/// Records one tier's wall times of one workload, `ns[variant][rep]`: a
/// row per variant and that tier's gated ratios.
fn record(
    doc: &mut BenchDoc,
    tier: &str,
    w: &Workload,
    names: &[&str],
    work: (u64, &'static str),
    ns: &[Vec<u64>],
) {
    let name = format!("{tier}/{}", w.name);
    let (work, unit) = work;
    for (v, samples) in names.iter().zip(ns) {
        doc.row(&name, v, work, unit, samples);
        let row = doc.rows.last().expect("just pushed");
        println!(
            "{name:<22} {v:<15} {:>9.3} ms  ±{:>6.3}  {:>8.2} M{unit}/s",
            row.ns.median / 1e6,
            row.ns.mad / 1e6,
            row.per_sec() / 1e6
        );
    }
    let of = |v: &str| ns[names.iter().position(|n| *n == v).expect("known variant")].as_slice();
    for (_, a, b, _) in GATES.iter().filter(|g| g.0 == tier) {
        let r = doc.ratio(&name, (a, of(a)), (b, of(b)));
        println!("{name:<22} {a} / {b} = {:.3}x ±{:.3}", r.median, r.mad);
    }
}

/// One instrumented ISS run per workload, merged into one registry and
/// written as a Chrome trace and/or a metrics snapshot.
fn write_obs_exports(
    workloads: &[Workload],
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) -> Result<(), String> {
    let mut merged = audo_obs::Registry::new();
    let mut tracks = Vec::new();
    for (track, w) in (1u32..).zip(workloads) {
        let mut iss = tiers::iss(w, true);
        iss.set_mix_observation(true);
        let mut reg = audo_obs::Registry::new();
        reg.begin_span("run", 0);
        iss.run_resumable(MAX_INSTRS)
            .map_err(|e| format!("{}: {e}", w.name))?;
        iss.export_obs(&mut reg);
        let retired = reg.counter("iss.instructions_retired");
        reg.end_span(retired);
        reg.stamp(retired);
        merged.merge_from(&format!("{}.", w.name), &reg, track);
        tracks.push((track, w.name.clone()));
    }
    let write = |path: &str, body: String| {
        std::fs::write(path, body).map_err(|e| format!("could not write {path}: {e}"))?;
        println!("wrote {path}");
        Ok::<(), String>(())
    };
    if let Some(path) = trace_out {
        write(
            path,
            audo_obs::chrome::trace_json(&merged, "audo tier_bench", &tracks),
        )?;
    }
    if let Some(path) = metrics_out {
        write(path, audo_obs::metrics_text::render(&merged, "audo_"))?;
    }
    Ok(())
}

fn run() -> Result<i32, String> {
    let mut json = "BENCH_tiers.json".to_string();
    let (mut trace_out, mut metrics_out) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let slot = match arg.as_str() {
            "--json" => &mut json,
            "--trace-out" => trace_out.insert(String::new()),
            "--metrics-out" => metrics_out.insert(String::new()),
            other => {
                return Err(format!(
                    "unknown argument {other:?} (usage: tier_bench [--json PATH] \
                     [--trace-out PATH] [--metrics-out PATH])"
                ))
            }
        };
        *slot = it.next().ok_or(format!("{arg} needs a path"))?;
    }

    // Sized so each timed run takes milliseconds to tens of milliseconds.
    // stream_copy is capped by the source/destination region sizes (it
    // moves words*4 bytes through each).
    let workloads = [
        mac_kernel(200_000),
        stream_copy(25_000),
        div_kernel(50_000),
        random_mix(7, 400, 1_000),
    ];
    let mut doc = BenchDoc::new("tiers", 1, REPS);
    for w in &workloads {
        let tag = |tier: &'static str| move |e: String| format!("{tier}/{}: {e}", w.name);
        let (ns, retired) = measure(REPS, &ISS, |v| iss_run(w, v)).map_err(tag("iss"))?;
        record(&mut doc, "iss", w, &ISS, (retired, "instr"), &ns);

        let expected = tiers::check_cycle_identity(w)?;
        let ns = measure_against(&PIPELINE, expected, |v| pipeline_run(w, v))
            .map_err(tag("pipeline"))?;
        record(
            &mut doc,
            "pipeline",
            w,
            &PIPELINE,
            (expected.0, "cycle"),
            &ns,
        );
    }
    // The full chip: a MAC loop and a short interrupt-driven engine run.
    let mut engine = engine_control(&EngineParams {
        rpm: 12_000,
        target_teeth: 10,
        target_bg_passes: 8,
        ..EngineParams::default()
    });
    engine.name = "engine".into();
    for w in &[mac_kernel(50_000), engine] {
        let expected = tiers::check_soc_identity(w)?;
        let ns = measure_against(&SOC, expected, |v| soc_run(w, v))
            .map_err(|e| format!("soc/{}: {e}", w.name))?;
        record(&mut doc, "soc", w, &SOC, (expected.0, "cycle"), &ns);
    }

    let mut failed = false;
    for (tier, of, over, band) in &GATES {
        let ln: Vec<f64> = doc
            .ratios
            .iter()
            .filter(|r| r.name.starts_with(&format!("{tier}/")) && r.of == *of && r.over == *over)
            .map(|r| r.value.median.ln())
            .collect();
        let g = (ln.iter().sum::<f64>() / ln.len() as f64).exp();
        let ok = band.admits(g);
        failed |= !ok;
        println!(
            "gate {tier:<8} {of} / {over} geomean {g:.3}x {}: {}",
            band.describe(),
            if ok { "ok" } else { "FAILED" }
        );
    }
    doc.write(&json)?;
    println!("wrote {json}");
    if trace_out.is_some() || metrics_out.is_some() {
        write_obs_exports(&workloads, trace_out.as_deref(), metrics_out.as_deref())?;
    }
    Ok(i32::from(failed))
}

fn main() {
    cli::main_with("tier_bench", 2, run);
}

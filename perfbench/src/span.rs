//! Host-time spans around calls into each layer's public entry points.
//!
//! Per-session and per-case calls are timed on every call. Per-cycle
//! calls (`Soc::step`, `Mcds::observe`, the EMEM trace write and
//! `HostTool::pump`) run hundreds of thousands of times per session and
//! cost a few hundred nanoseconds each, about as much as a clock read:
//! timing all of them would distort what they measure. They are timed on
//! a fixed pseudo-random sample of cycles ([`CycleSampler`]); the
//! measured wall time of the whole per-cycle loop is split between them
//! by their shares of the sampled time.

use std::time::Instant;

/// A layer entry point that the traced run times. The metric names are
/// `<crate>.<entry point>`; every span is a leaf (spans never nest), so
/// a span's duration is its self time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Soc::step` (per cycle, sampled).
    SocStep,
    /// `Mcds::observe` (per cycle, sampled).
    McdsObserve,
    /// `TraceController::push` plus the EMEM `Fabric::poke`s (per cycle,
    /// sampled).
    EdTraceWrite,
    /// `HostTool::pump` (per cycle, sampled).
    DapPump,
    /// `HostTool::finish_drain` and `take_collected`.
    DapFinishDrain,
    /// `decode_stream_lossy_shifted_sized`.
    McdsDecode,
    /// `Timeline::from_messages`.
    CoreTimeline,
    /// `reconstruct_flow` plus `flat_profile`.
    CoreReconstruct,
    /// `EmulationDevice::new`, `Workload::install_ed` and
    /// `ProfileSpec::compile`.
    EdInstall,
    /// `export_obs` of the ED and the DAP session plus the session's
    /// registry samples.
    ObsExport,
    /// `predict::check` and the hot-block WCET envelope.
    AnalyzeVeto,
    /// `CohortAggregate::fold_session`, `fold` and the report render.
    FleetFold,
    /// `fuzz::gen::generate` / `mutate` (case program construction).
    FuzzGen,
    /// `asm::assemble` of a case program.
    AsmAssemble,
    /// ISS without the decode cache.
    IssSlow,
    /// ISS with the decode-cache fast path.
    IssFast,
    /// Pipeline `Core::step` loop without predecode.
    PipelineUncached,
    /// Pipeline `Core::step` loop with predecode.
    PipelineCached,
    /// `disassemble_range` → `assemble` → `decode` round trip.
    DisasmRoundtrip,
    /// MCDS encode (`Mcds::observe` over the event stream) + `decode_stream`.
    McdsCodec,
    /// `cfg::recover`, `constprop::solve`, `analyze_wcet`, the profiled
    /// pipeline run and `check_profile`.
    AnalyzeWcet,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 21] = [
        Layer::SocStep,
        Layer::McdsObserve,
        Layer::EdTraceWrite,
        Layer::DapPump,
        Layer::DapFinishDrain,
        Layer::McdsDecode,
        Layer::CoreTimeline,
        Layer::CoreReconstruct,
        Layer::EdInstall,
        Layer::ObsExport,
        Layer::AnalyzeVeto,
        Layer::FleetFold,
        Layer::FuzzGen,
        Layer::AsmAssemble,
        Layer::IssSlow,
        Layer::IssFast,
        Layer::PipelineUncached,
        Layer::PipelineCached,
        Layer::DisasmRoundtrip,
        Layer::McdsCodec,
        Layer::AnalyzeWcet,
    ];

    /// Metric-name prefix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::SocStep => "platform.soc_step",
            Layer::McdsObserve => "mcds.observe",
            Layer::EdTraceWrite => "ed.trace_write",
            Layer::DapPump => "dap.pump",
            Layer::DapFinishDrain => "dap.finish_drain",
            Layer::McdsDecode => "mcds.decode",
            Layer::CoreTimeline => "core.timeline",
            Layer::CoreReconstruct => "core.reconstruct",
            Layer::EdInstall => "ed.install",
            Layer::ObsExport => "obs.export",
            Layer::AnalyzeVeto => "analyze.veto",
            Layer::FleetFold => "fleet.fold",
            Layer::FuzzGen => "fuzz.gen",
            Layer::AsmAssemble => "asm.assemble",
            Layer::IssSlow => "tricore.iss_slow",
            Layer::IssFast => "tricore.iss_fast",
            Layer::PipelineUncached => "tricore.pipeline_uncached",
            Layer::PipelineCached => "tricore.pipeline_cached",
            Layer::DisasmRoundtrip => "tricore.disasm_roundtrip",
            Layer::McdsCodec => "mcds.codec",
            Layer::AnalyzeWcet => "analyze.wcet",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed in ALL")
    }
}

const LAYERS: usize = Layer::ALL.len();

/// Accumulated span times of a traced run.
#[derive(Debug, Clone)]
pub struct Spans {
    ns: [f64; LAYERS],
    calls: [u64; LAYERS],
    samples: [u64; LAYERS],
    clock_ns: f64,
}

/// Median cost of one `Instant::now()` read on this host, in ns.
fn clock_read_ns() -> f64 {
    let mut d: Vec<f64> = (0..2_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    d.sort_by(f64::total_cmp);
    d[d.len() / 2]
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    /// Empty spans, with the clock-read cost calibrated (it is taken off
    /// every sampled per-cycle span, where it is not negligible).
    #[must_use]
    pub fn new() -> Spans {
        Spans {
            ns: [0.0; LAYERS],
            calls: [0; LAYERS],
            samples: [0; LAYERS],
            clock_ns: clock_read_ns(),
        }
    }

    /// Times one call of `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let i = layer.index();
        self.ns[i] += t.elapsed().as_nanos() as f64;
        self.calls[i] += 1;
        self.samples[i] += 1;
        out
    }

    /// Adds a per-cycle loop of `cycles` cycles that took `loop_ns` in
    /// total: each of `layers` gets the share of `loop_ns` that its
    /// sampled time holds of the summed sampled time, so the loop's
    /// measured wall time is split, not extrapolated.
    pub fn per_cycle(&mut self, layers: &[Layer], t: &CycleTimes, cycles: u64, loop_ns: f64) {
        let total: f64 = t.ns.iter().sum();
        for (k, &layer) in layers.iter().enumerate() {
            let i = layer.index();
            if total > 0.0 {
                self.ns[i] += loop_ns * t.ns[k] / total;
            }
            self.calls[i] += cycles;
            self.samples[i] += t.samples;
        }
    }

    /// Time of the span between clock reads `a` and `b`, less the cost of
    /// one clock read.
    #[must_use]
    pub fn span_ns(&self, a: Instant, b: Instant) -> f64 {
        ((b - a).as_nanos() as f64 - self.clock_ns).max(0.0)
    }

    /// Self time of `layer` in seconds.
    #[must_use]
    pub fn seconds(&self, layer: Layer) -> f64 {
        self.ns[layer.index()] * 1e-9
    }

    /// Calls of `layer`.
    #[must_use]
    pub fn call_count(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Timed calls of `layer` (equal to the call count except for the
    /// sampled per-cycle layers).
    #[must_use]
    pub fn sample_count(&self, layer: Layer) -> u64 {
        self.samples[layer.index()]
    }

    /// Sum of every layer's self time.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        Layer::ALL.iter().map(|&l| self.seconds(l)).sum()
    }

    /// Adds another run's spans.
    pub fn merge(&mut self, other: &Spans) {
        for i in 0..LAYERS {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
            self.samples[i] += other.samples[i];
        }
    }
}

/// Sampled span times of the per-cycle layers of one loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleTimes {
    /// Summed sampled time per layer, in the loop's layer order.
    pub ns: [f64; 4],
    /// Sampled cycles.
    pub samples: u64,
}

/// Mean gap between sampled cycles.
pub const SAMPLE_EVERY: u64 = 64;

/// Picks the cycles whose per-cycle calls are timed: gaps drawn uniformly
/// from `1..2 * SAMPLE_EVERY` by a fixed splitmix64 stream, so the sample
/// is the same on every run and does not alias with periodic guest loops.
#[derive(Debug, Clone)]
pub struct CycleSampler {
    state: u64,
    countdown: u64,
}

impl Default for CycleSampler {
    fn default() -> CycleSampler {
        CycleSampler {
            state: 0x5EED_F00D_5A3B,
            countdown: 0,
        }
    }
}

impl CycleSampler {
    /// Whether the current cycle is sampled; advances by one cycle.
    pub fn hit(&mut self) -> bool {
        if self.countdown > 0 {
            self.countdown -= 1;
            return false;
        }
        self.state = audo_fleet::derive::splitmix64(self.state);
        self.countdown = self.state % (2 * SAMPLE_EVERY - 1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_rate_is_close_to_its_mean() {
        let mut s = CycleSampler::default();
        let hits = (0..640_000).filter(|_| s.hit()).count();
        assert!((9_000..11_000).contains(&hits), "{hits} samples");
    }

    #[test]
    fn per_cycle_loops_split_their_wall_time_by_sampled_share() {
        let mut s = Spans::new();
        let t = CycleTimes {
            ns: [300.0, 100.0, 0.0, 0.0],
            samples: 2,
        };
        let layers = [
            Layer::SocStep,
            Layer::McdsObserve,
            Layer::EdTraceWrite,
            Layer::DapPump,
        ];
        s.per_cycle(&layers, &t, 10, 1000.0);
        assert!((s.seconds(Layer::SocStep) - 750e-9).abs() < 1e-15);
        assert!((s.seconds(Layer::McdsObserve) - 250e-9).abs() < 1e-15);
        assert_eq!(s.call_count(Layer::SocStep), 10);
        assert_eq!(s.sample_count(Layer::DapPump), 2);
    }
}

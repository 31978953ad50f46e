//! The traced rebuild of `audo_profiler::session::profile` for the
//! framed-session drain, from public calls only.
//!
//! `profile` hides the per-cycle `EmulationDevice::step` (SoC step, MCDS
//! observation, EMEM trace write) and the `HostTool::pump` behind one
//! call; the rebuild makes the same calls in the same order with spans
//! around each. The benchmark's tests and every traced run check that
//! the rebuild reproduces `profile` exactly (cycles, produced and drained
//! bytes, decoded messages, the observability snapshot), so the spans
//! measure the program users run.

use std::time::Instant;

use audo_common::SimError;
use audo_dap::session::{DapSession, HostTool};
use audo_ed::EmulationDevice;
use audo_mcds::msg::decode_stream_lossy_shifted_sized;
use audo_platform::config::EMEM_BASE;
use audo_profiler::session::{DrainPolicy, SessionOptions, SessionOutcome, ToolLinkReport};
use audo_profiler::spec::ProfileSpec;
use audo_profiler::timeline::Timeline;

use crate::span::{CycleSampler, CycleTimes, Layer, Spans};

/// The per-cycle layers, in call order.
const CYCLE_LAYERS: [Layer; 4] = [
    Layer::SocStep,
    Layer::McdsObserve,
    Layer::EdTraceWrite,
    Layer::DapPump,
];

/// Drain-grant bookkeeping of one traced session.
#[derive(Debug, Clone, Copy, Default)]
pub struct DrainGrants {
    /// Pumps that granted the link to a trace drain.
    pub grants: u64,
    /// Of those, grants that returned trace bytes.
    pub useful: u64,
}

/// The EMEM write half of `EmulationDevice::step`: reserve ring space in
/// the trace controller and store the bytes through the fabric.
fn write_trace(ed: &mut EmulationDevice, bytes: &[u8]) -> Result<(), SimError> {
    if bytes.is_empty() {
        return Ok(());
    }
    let mut consumed = 0usize;
    let len = u32::try_from(bytes.len()).expect("one cycle's trace fits u32");
    for p in ed.trace.push(len) {
        for i in 0..p.len {
            let b = bytes[consumed + i as usize];
            ed.soc
                .fabric
                .poke(EMEM_BASE.offset(p.region_offset + i), 1, u32::from(b))?;
        }
        consumed += p.len as usize;
    }
    Ok(())
}

/// `profile(ed, spec, opts)` with spans; `opts.drain` must be
/// [`DrainPolicy::Session`].
///
/// # Errors
///
/// Exactly the errors `profile` returns.
///
/// # Panics
///
/// Panics on another drain policy (the benchmark uses only the framed
/// session).
pub fn profile_traced(
    ed: &mut EmulationDevice,
    spec: &ProfileSpec,
    opts: &SessionOptions,
    spans: &mut Spans,
) -> Result<(SessionOutcome, DrainGrants), SimError> {
    let DrainPolicy::Session(tl) = &opts.drain else {
        panic!("the traced replay covers the framed-session drain only");
    };
    let (mcds, probe_map) = spans.time(Layer::EdInstall, || spec.compile())?;
    ed.program_mcds(mcds);
    let mut tool = HostTool::new(
        DapSession::new(tl.dap.clone(), tl.session.clone(), tl.faults.clone()),
        tl.policy,
    );
    let mut host_buf: Vec<u8> = Vec::new();
    let mut produced: u64 = 0;
    let mut halted = false;
    let start = ed.now();
    let mut obs = if opts.observe {
        audo_obs::Registry::new()
    } else {
        audo_obs::Registry::disabled()
    };
    obs.begin_span("session", start.0);
    obs.begin_span("target.run", start.0);

    let mut scratch = Vec::new();
    let mut sampler = CycleSampler::default();
    let mut grants = DrainGrants::default();
    let mut cycles = 0u64;
    let mut sampled = CycleTimes::default();
    let loop_start = Instant::now();
    while ed.now().saturating_sub(start) < opts.max_cycles {
        let drain_grants = tool.session.stats().drain_grants;
        let collected = tool.collected().len();
        let step_halted = if sampler.hit() {
            let t0 = Instant::now();
            let step = ed.soc.step()?;
            let t1 = Instant::now();
            scratch.clear();
            if let Some(mcds) = &mut ed.mcds {
                mcds.observe(step.cycle, &step.events, &step.bus, &mut scratch);
            }
            let t2 = Instant::now();
            write_trace(ed, &scratch)?;
            let t3 = Instant::now();
            tool.pump(ed);
            let t4 = Instant::now();
            for (k, (a, b)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4)]
                .into_iter()
                .enumerate()
            {
                sampled.ns[k] += spans.span_ns(a, b);
            }
            sampled.samples += 1;
            step.halted
        } else {
            let step = ed.soc.step()?;
            scratch.clear();
            if let Some(mcds) = &mut ed.mcds {
                mcds.observe(step.cycle, &step.events, &step.bus, &mut scratch);
            }
            write_trace(ed, &scratch)?;
            tool.pump(ed);
            step.halted
        };
        cycles += 1;
        produced += scratch.len() as u64;
        if tool.session.stats().drain_grants > drain_grants {
            grants.grants += 1;
            grants.useful += u64::from(tool.collected().len() > collected);
        }
        if step_halted {
            halted = true;
            break;
        }
    }
    let loop_ns = loop_start.elapsed().as_nanos() as f64;
    spans.per_cycle(&CYCLE_LAYERS, &sampled, cycles, loop_ns);
    if !halted && opts.run_to_halt {
        return Err(SimError::LimitExceeded {
            what: "cycles",
            limit: opts.max_cycles,
        });
    }
    let run_end = ed.now().0;
    obs.end_span(run_end);

    let link_before = tool.session.link().now().0;
    obs.begin_span("drain.finish", run_end);
    let complete = spans.time(Layer::DapFinishDrain, || {
        let complete = tool.finish_drain(ed, tl.finish_budget_cycles);
        host_buf.extend_from_slice(&tool.take_collected());
        complete
    });
    let link_spent = tool.session.link().now().0.saturating_sub(link_before);
    obs.end_span(run_end + link_spent);
    spans.time(Layer::ObsExport, || tool.session.export_obs(&mut obs));
    let tool_report = Some(ToolLinkReport {
        stats: *tool.session.stats(),
        faults: tool.session.fault_stats(),
        complete,
    });

    let lost = ed.trace.lost();
    let mut msg_sizes = Vec::new();
    let (messages, decode_error) = spans.time(Layer::McdsDecode, || {
        decode_stream_lossy_shifted_sized(&host_buf, spec.timestamp_shift(), &mut msg_sizes)
    });
    let timeline = spans.time(Layer::CoreTimeline, || {
        Timeline::from_messages(&messages, &probe_map)
    });
    spans.time(Layer::ObsExport, || {
        ed.export_obs(&mut obs);
        let mut size_hist = audo_obs::Histogram::default();
        for s in &msg_sizes {
            size_hist.record(*s as u64);
        }
        obs.observe_histogram("mcds.message_bytes", &size_hist);
        obs.sample("session.trace_bytes_produced", produced);
        obs.sample("session.trace_bytes_downloaded", host_buf.len() as u64);
        obs.sample("session.trace_bytes_lost", lost);
        obs.sample("session.messages_decoded", messages.len() as u64);
        let end = obs.stamped();
        obs.end_span(end);
    });
    Ok((
        SessionOutcome {
            timeline,
            messages,
            cycles: ed.now() - start,
            produced_bytes: produced,
            downloaded_bytes: host_buf.len() as u64,
            lost_bytes: lost,
            decode_error,
            probe_map,
            halted,
            tool: tool_report,
            obs,
        },
        grants,
    ))
}

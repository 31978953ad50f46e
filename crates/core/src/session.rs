//! Profiling sessions: program the Emulation Device, run the target,
//! download the trace, decode the timeline.
//!
//! A session ties the whole tool stack together the way the paper's Fig. 4
//! wires the silicon: the SoC runs *unchanged*; the MCDS computes rates and
//! qualifies traces on chip; the EMEM buffers messages; the DAP link drains
//! them with its fixed, CPU-frequency-independent bandwidth. The
//! [`DrainPolicy`] selects between offline capture (fill EMEM, download
//! after the run) and concurrent drain through a modeled [`DapLink`].

use audo_common::{Cycle, SimError};
use audo_dap::session::{ArbitrationPolicy, DapSession, DapSessionStats, HostTool, SessionConfig};
use audo_dap::{DapConfig, DapLink, FaultConfig, FaultStats};
use audo_ed::EmulationDevice;
use audo_mcds::msg::decode_stream_lossy_shifted_sized;
use audo_mcds::TraceMessage;

use crate::spec::{ProbeMap, ProfileSpec};
use crate::timeline::Timeline;

/// Options of the framed tool-link session (the robust protocol path of
/// [`DrainPolicy::Session`]).
#[derive(Debug, Clone)]
pub struct ToolLinkOptions {
    /// Link bandwidth model.
    pub dap: DapConfig,
    /// Session protocol knobs (timeouts, retry, chunk sizes).
    pub session: SessionConfig,
    /// Deterministic link-fault injection.
    pub faults: FaultConfig,
    /// Who wins when trace drain and calibration writes contend.
    pub policy: ArbitrationPolicy,
    /// Extra link cycles granted after the run to finish draining.
    pub finish_budget_cycles: u64,
}

impl Default for ToolLinkOptions {
    fn default() -> ToolLinkOptions {
        ToolLinkOptions {
            dap: DapConfig::default(),
            session: SessionConfig::default(),
            faults: FaultConfig::lossless(),
            policy: ArbitrationPolicy::default(),
            finish_budget_cycles: 4_000_000,
        }
    }
}

/// What the framed tool link observed during a session — the graceful
/// degradation report surfaced instead of a panic on a bad link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToolLinkReport {
    /// Session transaction statistics (retries, timeouts, truncation …).
    pub stats: DapSessionStats,
    /// What the fault injector actually did to the wire.
    pub faults: FaultStats,
    /// The trace stream was fully recovered (otherwise `stats` flags the
    /// truncation and the downloaded bytes are an exact prefix).
    pub complete: bool,
}

/// How trace bytes leave the chip.
#[derive(Debug, Clone)]
pub enum DrainPolicy {
    /// Idealised host: the trace is downloaded as fast as it is produced
    /// (no bandwidth limit, no overflow). Use this to study the target,
    /// not the tool link.
    Offline,
    /// Drain concurrently through a DAP link budget while the target runs;
    /// EMEM overflow (and the resulting trace loss) is faithfully modeled.
    /// The protocol itself is idealised (no frames, no loss).
    Dap(DapConfig),
    /// Drain through the full framed session protocol
    /// ([`audo_dap::DapSession`]): CRC-protected frames, timeouts, retries
    /// and (optionally) injected link faults, with trace readout arbitrated
    /// against calibration writes. The tool's view is reported in
    /// [`SessionOutcome::tool`].
    Session(ToolLinkOptions),
}

/// Session run options.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Stop after this many cycles even without `HALT`.
    pub max_cycles: u64,
    /// Trace download policy.
    pub drain: DrainPolicy,
    /// Treat the cycle limit as a normal end of measurement rather than an
    /// error (profiling sessions usually observe a fixed time window).
    pub run_to_halt: bool,
    /// Record the session into an observability registry
    /// ([`SessionOutcome::obs`]): a cycle-stamped span tree of the session
    /// phases plus counter samples from every layer (SoC, EEC, tool link).
    /// Off by default; when off the outcome's registry stays empty and the
    /// run does no extra work.
    pub observe: bool,
}

impl Default for SessionOptions {
    fn default() -> SessionOptions {
        SessionOptions {
            max_cycles: 2_000_000,
            drain: DrainPolicy::Offline,
            run_to_halt: false,
            observe: false,
        }
    }
}

/// Everything a profiling session produced.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The decoded metric timelines.
    pub timeline: Timeline,
    /// All decoded trace messages (flows, data, counters, …).
    pub messages: Vec<(Cycle, TraceMessage)>,
    /// Cycles executed.
    pub cycles: u64,
    /// Trace bytes the MCDS produced.
    pub produced_bytes: u64,
    /// Trace bytes downloaded to the host.
    pub downloaded_bytes: u64,
    /// Trace bytes lost to EMEM overflow.
    pub lost_bytes: u64,
    /// First decode error, if the (damaged) stream did not fully decode.
    pub decode_error: Option<SimError>,
    /// Metric → probe mapping used.
    pub probe_map: ProbeMap,
    /// The target executed `HALT`.
    pub halted: bool,
    /// Tool-link session report (only for [`DrainPolicy::Session`]).
    pub tool: Option<ToolLinkReport>,
    /// Observability registry (populated only with
    /// [`SessionOptions::observe`]; disabled and empty otherwise).
    pub obs: audo_obs::Registry,
}

impl SessionOutcome {
    /// Average bytes of tool bandwidth per 1000 cycles the session needed.
    #[must_use]
    pub fn bytes_per_kilocycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.produced_bytes as f64 * 1000.0 / self.cycles as f64
        }
    }
}

/// Programs the ED with `spec`, runs the target and returns the decoded
/// session outcome.
///
/// # Errors
///
/// Propagates compile errors (resource exhaustion) and target faults.
/// Hitting `max_cycles` is an error only when `run_to_halt` is set.
pub fn profile(
    ed: &mut EmulationDevice,
    spec: &ProfileSpec,
    opts: &SessionOptions,
) -> Result<SessionOutcome, SimError> {
    let (mcds, probe_map) = spec.compile()?;
    ed.program_mcds(mcds);

    enum Drainer {
        Offline,
        Dap(DapLink),
        Session(Box<HostTool>, u64),
    }
    let mut drainer = match &opts.drain {
        DrainPolicy::Offline => Drainer::Offline,
        DrainPolicy::Dap(cfg) => Drainer::Dap(DapLink::new(cfg.clone())),
        DrainPolicy::Session(tl) => Drainer::Session(
            Box::new(HostTool::new(
                DapSession::new(tl.dap.clone(), tl.session.clone(), tl.faults.clone()),
                tl.policy,
            )),
            tl.finish_budget_cycles,
        ),
    };
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

    while ed.now().saturating_sub(start) < opts.max_cycles {
        let (trace_bytes, step_halted) = ed.advance()?;
        produced += u64::from(trace_bytes);
        match &mut drainer {
            Drainer::Offline => {
                let level = ed.trace.level();
                if level > 0 {
                    host_buf.extend_from_slice(&ed.drain_trace(level as u32)?);
                }
            }
            Drainer::Dap(link) => {
                link.advance_cycles(1);
                let level = ed.trace.level();
                let budget = link.available() as u64;
                let want = level.min(budget);
                if want > 0 {
                    let got = ed.drain_trace(want as u32)?;
                    link.take(got.len());
                    host_buf.extend_from_slice(&got);
                }
            }
            Drainer::Session(tool, _) => tool.pump(ed),
        }
        if step_halted {
            halted = true;
            break;
        }
    }
    if !halted && opts.run_to_halt {
        return Err(SimError::LimitExceeded {
            what: "cycles",
            limit: opts.max_cycles,
        });
    }
    let run_end = ed.now().0;
    obs.end_span(run_end);
    // Post-run download of whatever is still buffered.
    let tool_report = match drainer {
        Drainer::Session(mut tool, finish_budget) => {
            // The finish drain advances only the link clock; its span is
            // placed after the target run, with the link cycles it spent.
            let link_before = tool.session.link().now().0;
            obs.begin_span("drain.finish", run_end);
            let complete = tool.finish_drain(ed, finish_budget);
            let link_spent = tool.session.link().now().0.saturating_sub(link_before);
            obs.end_span(run_end + link_spent);
            host_buf.extend_from_slice(&tool.take_collected());
            tool.session.export_obs(&mut obs);
            Some(ToolLinkReport {
                stats: *tool.session.stats(),
                faults: tool.session.fault_stats(),
                complete,
            })
        }
        _ => {
            let rest = ed.trace.level();
            obs.begin_span("drain.finish", run_end);
            host_buf.extend_from_slice(&ed.drain_trace(rest as u32)?);
            obs.end_span(run_end);
            None
        }
    };

    let lost = ed.trace.lost();
    // Overflow (ring overwrite / linear drop) can cut the stream
    // mid-message; decode leniently and surface the first error.
    let mut msg_sizes = Vec::new();
    let (messages, decode_error) =
        decode_stream_lossy_shifted_sized(&host_buf, spec.timestamp_shift(), &mut msg_sizes);
    let timeline = Timeline::from_messages(&messages, &probe_map);
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
    Ok(SessionOutcome {
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;
    use audo_ed::EdConfig;
    use audo_platform::config::SocConfig;
    use audo_tricore::asm::assemble;

    fn ed_with(src: &str) -> EmulationDevice {
        let image = assemble(src).expect("assembles");
        let mut ed = EmulationDevice::new(SocConfig::default(), EdConfig::default());
        ed.soc.load_image(&image).expect("loads");
        ed
    }

    /// Two phases: a tight loop (decent IPC), then a pointer chase through
    /// *uncached* flash data spread over 8 lines — more lines than the
    /// flash read buffers hold, so every access pays wait states.
    const PHASED: &str = "
        .equ UNCACHED, 0x20000000
        .org 0x80000000
    _start:
        movi d0, 0
        li d1, 3000
    p1:
        addi d0, d0, 1
        jne d0, d1, p1
        la a2, chain0 + UNCACHED
        movi d3, 0
        li d4, 400
    p2:
        ld.a a2, [a2]
        addi d3, d3, 1
        jne d3, d4, p2
        halt
        .align 64
    chain0: .word chain1 + UNCACHED
        .space 60
    chain1: .word chain2 + UNCACHED
        .space 60
    chain2: .word chain3 + UNCACHED
        .space 60
    chain3: .word chain4 + UNCACHED
        .space 60
    chain4: .word chain5 + UNCACHED
        .space 60
    chain5: .word chain6 + UNCACHED
        .space 60
    chain6: .word chain7 + UNCACHED
        .space 60
    chain7: .word chain0 + UNCACHED
    ";

    #[test]
    fn parallel_metrics_in_one_run() {
        let mut ed = ed_with(PHASED);
        let spec = ProfileSpec::new()
            .metric(Metric::Ipc, 500)
            .metric(Metric::IcacheHitRatio, 500)
            .metric(Metric::FlashDataAccessPerInstr, 500);
        let out = profile(&mut ed, &spec, &SessionOptions::default()).unwrap();
        assert!(out.halted);
        assert!(out.decode_error.is_none());
        assert_eq!(out.lost_bytes, 0);
        assert!(!out.timeline.series(Metric::Ipc).is_empty());
        assert!(!out.timeline.series(Metric::IcacheHitRatio).is_empty());
        // Phase 2 chases pointers through flash: its flash-data-access rate
        // must exceed phase 1's (which has none).
        let flash = out.timeline.series(Metric::FlashDataAccessPerInstr);
        let first = flash.first().unwrap().value;
        let last = flash.last().unwrap().value;
        assert!(
            last > first,
            "flash access rate must rise in phase 2 ({first} -> {last})"
        );
        // IPC must drop from phase 1 to phase 2.
        let ipc = out.timeline.series(Metric::Ipc);
        let early = ipc[1].value;
        let late = ipc[ipc.len() - 2].value;
        assert!(
            late < early,
            "IPC must degrade in the pointer chase ({early} -> {late})"
        );
    }

    #[test]
    fn dap_drain_keeps_up_with_rate_messages() {
        let mut ed = ed_with(PHASED);
        let spec = ProfileSpec::new().metric(Metric::Ipc, 1000);
        let out = profile(
            &mut ed,
            &spec,
            &SessionOptions {
                drain: DrainPolicy::Dap(DapConfig::default()),
                ..SessionOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            out.lost_bytes, 0,
            "coarse rate messages fit easily in DAP bandwidth"
        );
        assert_eq!(out.downloaded_bytes, out.produced_bytes);
        assert!(out.bytes_per_kilocycle() < 20.0);
    }

    #[test]
    fn cascade_increases_detail_only_in_bad_phases() {
        let mut ed = ed_with(PHASED);
        let spec = ProfileSpec::new().metric(Metric::Ipc, 200).cascade(
            Metric::Ipc,
            0.5,
            vec![crate::spec::MetricRequest {
                metric: Metric::FlashDataAccessPerInstr,
                window: 50,
            }],
        );
        let out = profile(&mut ed, &spec, &SessionOptions::default()).unwrap();
        let fine = out.timeline.series(Metric::FlashDataAccessPerInstr);
        assert!(!fine.is_empty(), "cascade must arm in the bad phase");
        // All fine samples must fall in the second (low-IPC) half of the run.
        let midpoint = out.cycles / 2;
        assert!(
            fine.iter().all(|s| s.cycle.0 > midpoint),
            "fine samples only during the pointer chase"
        );
    }

    #[test]
    fn session_drain_lossless_matches_offline_and_reports() {
        let run = |drain: DrainPolicy| {
            let mut ed = ed_with(PHASED);
            let spec = ProfileSpec::new().metric(Metric::Ipc, 500);
            profile(
                &mut ed,
                &spec,
                &SessionOptions {
                    drain,
                    ..SessionOptions::default()
                },
            )
            .unwrap()
        };
        let offline = run(DrainPolicy::Offline);
        let session = run(DrainPolicy::Session(ToolLinkOptions::default()));
        let report = session.tool.expect("session policy reports");
        assert!(report.complete);
        assert!(!report.stats.trace_truncated);
        assert_eq!(report.stats.retries, 0, "lossless link never retries");
        assert_eq!(session.downloaded_bytes, offline.downloaded_bytes);
        assert_eq!(
            session.timeline.series(Metric::Ipc).len(),
            offline.timeline.series(Metric::Ipc).len()
        );
        assert!(offline.tool.is_none());
    }

    #[test]
    fn session_drain_survives_a_noisy_link() {
        let mut ed = ed_with(PHASED);
        let spec = ProfileSpec::new().metric(Metric::Ipc, 500);
        let out = profile(
            &mut ed,
            &spec,
            &SessionOptions {
                drain: DrainPolicy::Session(ToolLinkOptions {
                    faults: FaultConfig::uniform(1e-3, 7),
                    ..ToolLinkOptions::default()
                }),
                ..SessionOptions::default()
            },
        )
        .unwrap();
        let report = out.tool.expect("report present");
        // Whatever the noise did, the outcome is explicit: either the
        // stream is complete, or the truncation is flagged — never silent.
        assert_eq!(report.complete, !report.stats.trace_truncated);
        assert!(out.halted);
    }

    #[test]
    fn observe_records_spans_and_counters_deterministically() {
        let run = || {
            let mut ed = ed_with(PHASED);
            let spec = ProfileSpec::new().metric(Metric::Ipc, 500);
            profile(
                &mut ed,
                &spec,
                &SessionOptions {
                    observe: true,
                    ..SessionOptions::default()
                },
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert!(a.obs.counter("soc.cycles") > 0);
        assert!(
            a.obs.counter("iss.instructions_retired") == 0,
            "no ISS in a SoC session"
        );
        assert!(a.obs.counter("soc.tricore.instructions_retired") > 0);
        assert_eq!(a.obs.counter("session.trace_bytes_lost"), 0);
        let names: Vec<&str> = a.obs.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["session", "target.run", "drain.finish"]);
        // Byte-identical exports across identical runs.
        assert_eq!(
            audo_obs::chrome::trace_json(&a.obs, "audo", &[]),
            audo_obs::chrome::trace_json(&b.obs, "audo", &[]),
        );
        assert_eq!(
            audo_obs::metrics_text::render(&a.obs, "audo_"),
            audo_obs::metrics_text::render(&b.obs, "audo_"),
        );
        // Off by default: the registry stays disabled and empty.
        let mut ed = ed_with(PHASED);
        let spec = ProfileSpec::new().metric(Metric::Ipc, 500);
        let quiet = profile(&mut ed, &spec, &SessionOptions::default()).unwrap();
        assert!(!quiet.obs.is_enabled());
        assert!(quiet.obs.is_empty());
    }

    #[test]
    fn cycle_limited_session_is_not_an_error() {
        let mut ed = ed_with(".org 0x80000000\nspin: j spin\n");
        let spec = ProfileSpec::new().metric(Metric::Ipc, 100);
        let out = profile(
            &mut ed,
            &spec,
            &SessionOptions {
                max_cycles: 5_000,
                ..SessionOptions::default()
            },
        )
        .unwrap();
        assert!(!out.halted);
        assert_eq!(out.cycles, 5_000);
        assert!(!out.timeline.series(Metric::Ipc).is_empty());
    }
}

#[cfg(test)]
mod timestamp_shift_tests {
    use super::*;
    use crate::metrics::Metric;
    use audo_ed::EdConfig;
    use audo_platform::config::SocConfig;
    use audo_tricore::asm::assemble;

    #[test]
    fn timestamp_shift_reduces_trace_volume_end_to_end() {
        let run = |shift: u8| {
            let image = assemble(
                ".org 0x80000000\n_start: movi d0, 0\n li d1, 20000\nh: addi d0, d0, 1\n jne d0, d1, h\n halt\n",
            )
            .unwrap();
            let mut ed = EmulationDevice::new(SocConfig::default(), EdConfig::default());
            ed.soc.load_image(&image).unwrap();
            let spec = ProfileSpec::new()
                .metric(Metric::Ipc, 500)
                .with_timestamp_shift(shift);
            profile(&mut ed, &spec, &SessionOptions::default()).unwrap()
        };
        let fine = run(0);
        let coarse = run(8);
        assert!(fine.decode_error.is_none() && coarse.decode_error.is_none());
        assert_eq!(
            fine.timeline.series(Metric::Ipc).len(),
            coarse.timeline.series(Metric::Ipc).len(),
            "same samples either way"
        );
        assert!(
            coarse.produced_bytes < fine.produced_bytes,
            "coarse stamps must shrink the stream ({} vs {})",
            coarse.produced_bytes,
            fine.produced_bytes
        );
        // Values are unaffected — only the time axis is quantized.
        let fa = fine.timeline.average(Metric::Ipc);
        let ca = coarse.timeline.average(Metric::Ipc);
        assert!((fa - ca).abs() < 1e-12);
    }
}

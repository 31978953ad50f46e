//! Profile specifications: what to measure, at which resolution, with which
//! cascade — compiled onto finite MCDS resources.
//!
//! This is the "configurable resolution and number of measured parameters"
//! knob of §5: "first the system situation where analysis has to be done
//! (e.g. poor IPC rate …) and then go on with a more detailed measurement
//! (more parameters, higher resolution)".

use audo_common::SourceId;
use audo_common::{Addr, SimError};
use audo_mcds::mcds::DataQualifier;
use audo_mcds::trigger::{Action, Comparator, Cond, TraceUnit, Transition};
use audo_mcds::{Mcds, McdsBuilder, McdsResources};

use crate::metrics::Metric;

/// The probe-group id of the first cascade (further cascades use
/// consecutive ids).
pub const CASCADE_GROUP: u8 = 1;

/// One requested measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricRequest {
    /// The metric.
    pub metric: Metric,
    /// Basis window (cycles for IPC-class, instructions for rate-class).
    pub window: u32,
}

/// Cascaded second-stage measurement, armed while a watched coarse metric
/// is below a threshold.
#[derive(Debug, Clone)]
pub struct Cascade {
    /// Fine-grained requests (usually higher resolution / more metrics).
    pub fine: Vec<MetricRequest>,
    /// Which coarse metric arms the cascade.
    pub watch: Metric,
    /// Arm while the watched metric's last window is strictly below this.
    pub below: f64,
}

/// Mapping from metrics back to the probe indices that implement them.
#[derive(Debug, Clone, Default)]
pub struct ProbeMap {
    entries: Vec<(Metric, Vec<u8>, bool)>,
}

impl ProbeMap {
    /// Iterates `(metric, probe indices, is_cascaded)`.
    pub fn iter(&self) -> impl Iterator<Item = (Metric, &[u8], bool)> + '_ {
        self.entries.iter().map(|(m, p, c)| (*m, p.as_slice(), *c))
    }

    /// Number of mapped metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is mapped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A complete profiling specification.
#[derive(Debug, Clone, Default)]
pub struct ProfileSpec {
    metrics: Vec<MetricRequest>,
    cascades: Vec<Cascade>,
    program_trace: bool,
    gated_trace: Option<(Addr, Addr, Addr, Addr)>,
    sync_every: Option<u32>,
    timestamp_shift: u8,
    data_trace: Option<DataQualifier>,
    bus_trace: Option<Option<SourceId>>,
    pcp_trace: bool,
    resources: Option<McdsResources>,
}

impl ProfileSpec {
    /// Starts an empty specification.
    #[must_use]
    pub fn new() -> ProfileSpec {
        ProfileSpec::default()
    }

    /// Adds a metric at the given basis window.
    #[must_use]
    pub fn metric(mut self, metric: Metric, window: u32) -> ProfileSpec {
        self.metrics.push(MetricRequest { metric, window });
        self
    }

    /// Adds several metrics at one window.
    #[must_use]
    pub fn metrics(mut self, metrics: &[Metric], window: u32) -> ProfileSpec {
        for &metric in metrics {
            self.metrics.push(MetricRequest { metric, window });
        }
        self
    }

    /// Installs a cascade: `fine` requests armed while `watch < below`.
    ///
    /// `watch` must also be requested as a coarse metric. Several cascades
    /// may be installed (each watches its own metric); they arm and disarm
    /// independently.
    #[must_use]
    pub fn cascade(mut self, watch: Metric, below: f64, fine: Vec<MetricRequest>) -> ProfileSpec {
        self.cascades.push(Cascade { fine, watch, below });
        self
    }

    /// Enables program-flow trace.
    #[must_use]
    pub fn with_program_trace(mut self) -> ProfileSpec {
        self.program_trace = true;
        self
    }

    /// Enables *trigger-gated* program-flow trace: recording starts when a
    /// change-of-flow lands in `[on_lo, on_hi]` and stops when one lands in
    /// `[off_lo, off_hi]` — "trigger close to the point of interest" (§3).
    ///
    /// Composes with cascades: rate-probe arming is level-sensitive and
    /// does not use the trigger state machine.
    #[must_use]
    pub fn with_gated_program_trace(
        mut self,
        on_lo: Addr,
        on_hi: Addr,
        off_lo: Addr,
        off_hi: Addr,
    ) -> ProfileSpec {
        self.gated_trace = Some((on_lo, on_hi, off_lo, off_hi));
        self
    }

    /// Sets the program-trace sync interval.
    #[must_use]
    pub fn with_sync_every(mut self, n: u32) -> ProfileSpec {
        self.sync_every = Some(n);
        self
    }

    /// Scalable time-stamping (§3): record timestamps in `2^shift`-cycle
    /// units, trading intra-quantum time resolution for trace bandwidth.
    #[must_use]
    pub fn with_timestamp_shift(mut self, shift: u8) -> ProfileSpec {
        self.timestamp_shift = shift.min(20);
        self
    }

    /// The configured timestamp shift (needed to decode the stream).
    #[must_use]
    pub fn timestamp_shift(&self) -> u8 {
        self.timestamp_shift
    }

    /// Enables qualified data trace.
    #[must_use]
    pub fn with_data_trace(mut self, q: DataQualifier) -> ProfileSpec {
        self.data_trace = Some(q);
        self
    }

    /// Enables bus trace (optionally filtered to one master).
    #[must_use]
    pub fn with_bus_trace(mut self, master: Option<SourceId>) -> ProfileSpec {
        self.bus_trace = Some(master);
        self
    }

    /// Enables PCP channel trace.
    #[must_use]
    pub fn with_pcp_trace(mut self) -> ProfileSpec {
        self.pcp_trace = true;
        self
    }

    /// Overrides the assumed MCDS silicon resources.
    #[must_use]
    pub fn with_resources(mut self, r: McdsResources) -> ProfileSpec {
        self.resources = Some(r);
        self
    }

    /// The requested coarse metrics.
    #[must_use]
    pub fn requests(&self) -> &[MetricRequest] {
        &self.metrics
    }

    /// Compiles the specification into a programmed MCDS and the probe map.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ResourceExhausted`] if the request needs more
    /// probes/transitions than the silicon provides, or
    /// [`SimError::InvalidConfig`] for inconsistent cascades.
    pub fn compile(&self) -> Result<(Mcds, ProbeMap), SimError> {
        let mut builder: McdsBuilder = Mcds::builder();
        if let Some(r) = self.resources {
            builder = builder.resources(r);
        }
        let mut map = ProbeMap::default();
        let mut next_probe: u8 = 0;

        let mut coarse_probe_of: Vec<Option<u8>> = vec![None; self.cascades.len()];
        for req in &self.metrics {
            let probes = req.metric.probes(req.window, None);
            let mut ids = Vec::new();
            for p in probes {
                builder = builder.probe(p);
                ids.push(next_probe);
                next_probe += 1;
            }
            for (ci, c) in self.cascades.iter().enumerate() {
                if c.watch == req.metric {
                    coarse_probe_of[ci] = Some(ids[0]);
                }
            }
            map.entries.push((req.metric, ids, false));
        }

        for (ci, cascade) in self.cascades.iter().enumerate() {
            let Some(watch_idx) = coarse_probe_of[ci] else {
                return Err(SimError::InvalidConfig {
                    message: format!(
                        "cascade watches {:?} which is not a requested coarse metric",
                        cascade.watch
                    ),
                });
            };
            let group = CASCADE_GROUP + ci as u8;
            for req in &cascade.fine {
                let probes = req.metric.probes(req.window, Some(group));
                let mut ids = Vec::new();
                for p in probes {
                    builder = builder.probe(p);
                    ids.push(next_probe);
                    next_probe += 1;
                }
                map.entries.push((req.metric, ids, true));
            }
            // Threshold as a rational with millesimal precision. The scale
            // of the watched metric must be undone: probes report raw
            // num/den.
            let thresh = cascade.below / cascade.watch.scale();
            let num = (thresh * 1000.0).round().max(0.0) as u64;
            builder = builder.arm_group_when(
                Cond::RateBelow {
                    probe: watch_idx,
                    num,
                    den: 1000,
                },
                group,
            );
        }

        if self.program_trace {
            builder = builder.program_trace();
        }
        if let Some((on_lo, on_hi, off_lo, off_hi)) = self.gated_trace {
            builder = builder
                .comparator(Comparator::FlowTarget {
                    lo: on_lo,
                    hi: on_hi,
                    source: Some(SourceId::TRICORE),
                })
                .comparator(Comparator::FlowTarget {
                    lo: off_lo,
                    hi: off_hi,
                    source: Some(SourceId::TRICORE),
                })
                .transition(Transition {
                    from: 0,
                    cond: Cond::Comp(0),
                    to: 1,
                    actions: vec![Action::TraceOn(TraceUnit::ProgramTricore)],
                })
                .transition(Transition {
                    from: 1,
                    cond: Cond::Comp(1),
                    to: 0,
                    actions: vec![Action::TraceOff(TraceUnit::ProgramTricore)],
                });
        }
        if let Some(n) = self.sync_every {
            builder = builder.sync_every(n);
        }
        if self.timestamp_shift > 0 {
            builder = builder.timestamp_shift(self.timestamp_shift);
        }
        if let Some(q) = self.data_trace {
            builder = builder.data_trace(q);
        }
        if let Some(master) = self.bus_trace {
            builder = builder.bus_trace(master);
        }
        if self.pcp_trace {
            builder = builder.pcp_trace();
        }
        Ok((builder.build()?, map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ALL_BASIC_METRICS;

    #[test]
    fn compile_counts_probes_correctly() {
        let spec = ProfileSpec::new()
            .metric(Metric::Ipc, 1000)
            .metric(Metric::IcacheHitRatio, 500);
        let (_, map) = spec.compile().unwrap();
        let probes: Vec<_> = map.iter().map(|(m, p, _)| (m, p.to_vec())).collect();
        assert_eq!(
            probes,
            [(Metric::Ipc, vec![0]), (Metric::IcacheHitRatio, vec![1, 2])]
        );
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn everything_spec_exceeds_default_silicon() {
        // All basic metrics need more than 8 probes (ratios cost two) —
        // the allocator must refuse, mirroring the real resource trade-off.
        let spec = ProfileSpec::new().metrics(ALL_BASIC_METRICS, 1000);
        let err = spec.compile().unwrap_err();
        assert!(matches!(
            err,
            SimError::ResourceExhausted {
                resource: "rate probes",
                ..
            }
        ));
        // With bigger silicon it compiles.
        let big = ProfileSpec::new()
            .metrics(ALL_BASIC_METRICS, 1000)
            .with_resources(McdsResources {
                rate_probes: 32,
                counters: 8,
                comparators: 8,
                transitions: 16,
            });
        assert!(big.compile().is_ok());
    }

    #[test]
    fn cascade_requires_watched_metric() {
        let spec = ProfileSpec::new()
            .metric(Metric::IcacheHitRatio, 100)
            .cascade(
                Metric::Ipc,
                0.8,
                vec![MetricRequest {
                    metric: Metric::DcacheMissPerInstr,
                    window: 50,
                }],
            );
        let err = spec.compile().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    fn cascade_compiles_with_group_and_transitions() {
        let spec = ProfileSpec::new().metric(Metric::Ipc, 1000).cascade(
            Metric::Ipc,
            0.8,
            vec![MetricRequest {
                metric: Metric::IcacheMissPerInstr,
                window: 100,
            }],
        );
        let (mcds, map) = spec.compile().unwrap();
        assert_eq!(map.len(), 2);
        let cascaded: Vec<bool> = map.iter().map(|(_, _, c)| c).collect();
        assert_eq!(cascaded, vec![false, true]);
        assert_eq!(mcds.trigger_state(), 0);
    }
}

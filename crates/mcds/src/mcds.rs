//! The assembled MCDS: observation in, trace bytes out.
//!
//! One [`Mcds`] instance corresponds to the Multi-Core Debug Solution block
//! on the Emulation Extension Chip (Fig. 5 of the paper): observation
//! adapters for the cores and buses feed comparators, counters, rate probes
//! and the trigger state machine; qualified trace streams are compressed
//! into messages. Resources are finite and configurable — programming more
//! probes or comparators than the silicon has fails, which is exactly the
//! trade-off ("number of measured parameters" vs. resolution) §5 describes.

use audo_common::{BusTransaction, Cycle, EventRecord, PerfEvent, SimError, SourceId};

use crate::msg::{Encoder, TraceMessage};
use crate::rates::{ProbeState, RateProbe};
use crate::select::{EventClass, EventSelector, Kind};
use crate::trigger::{Action, Comparator, StateMachine, TraceUnit, Transition, TriggerFacts};

/// Silicon resource capacities of one MCDS instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McdsResources {
    /// Rate-probe counter pairs.
    pub rate_probes: usize,
    /// Trigger counters.
    pub counters: usize,
    /// Comparators.
    pub comparators: usize,
    /// State-machine transitions.
    pub transitions: usize,
}

impl Default for McdsResources {
    /// The AUDO FUTURE-class default: 8 probes, 8 counters, 8 comparators.
    fn default() -> McdsResources {
        McdsResources {
            rate_probes: 8,
            counters: 8,
            comparators: 8,
            transitions: 16,
        }
    }
}

/// Data-trace qualification window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataQualifier {
    /// Lowest traced address.
    pub lo: audo_common::Addr,
    /// Highest traced address (inclusive).
    pub hi: audo_common::Addr,
    /// Restrict to one master (`None` = all).
    pub source: Option<SourceId>,
    /// Restrict to reads or writes (`None` = both).
    pub kind: Option<audo_common::AccessKind>,
}

/// Builder for a programmed MCDS.
#[derive(Debug, Default)]
pub struct McdsBuilder {
    resources: Option<McdsResources>,
    probes: Vec<RateProbe>,
    counters: Vec<EventSelector>,
    comparators: Vec<Comparator>,
    transitions: Vec<Transition>,
    arm_rules: Vec<(crate::trigger::Cond, u8)>,
    ptrace_tricore: bool,
    pcp_trace: bool,
    bus_trace: bool,
    bus_master_filter: Option<SourceId>,
    data_qual: Option<DataQualifier>,
    sync_every: u32,
    timestamp_shift: u8,
}

impl McdsBuilder {
    /// Starts a fresh configuration.
    #[must_use]
    pub fn new() -> McdsBuilder {
        McdsBuilder {
            sync_every: 16,
            ..McdsBuilder::default()
        }
    }

    /// Overrides the silicon resource capacities.
    #[must_use]
    pub fn resources(mut self, r: McdsResources) -> McdsBuilder {
        self.resources = Some(r);
        self
    }

    /// Adds a rate probe; returns its index via the builder order.
    #[must_use]
    pub fn probe(mut self, p: RateProbe) -> McdsBuilder {
        self.probes.push(p);
        self
    }

    /// Adds a trigger counter.
    #[must_use]
    pub fn counter(mut self, sel: EventSelector) -> McdsBuilder {
        self.counters.push(sel);
        self
    }

    /// Adds a comparator.
    #[must_use]
    pub fn comparator(mut self, c: Comparator) -> McdsBuilder {
        self.comparators.push(c);
        self
    }

    /// Adds a state-machine transition.
    #[must_use]
    pub fn transition(mut self, t: Transition) -> McdsBuilder {
        self.transitions.push(t);
        self
    }

    /// Arms probe group `group` whenever `cond` holds (level-sensitive
    /// cascading, evaluated every cycle); the group is disarmed — and its
    /// in-progress windows discarded — whenever `cond` does not hold.
    ///
    /// Unlike state-machine [`Action::ArmGroup`], rules are independent of
    /// each other and of the state machine, so several cascades compose.
    ///
    /// This is the cascaded-measurement primitive of §5: a coarse,
    /// always-armed probe steers when a fine-grained group is allowed to
    /// burn trace bandwidth. Here a per-cycle stall probe (group 1) only
    /// samples while the coarse IPC probe reads below 1.0:
    ///
    /// ```
    /// use audo_common::{Cycle, EventRecord, PerfEvent, SourceId};
    /// use audo_common::events::StallReason;
    /// use audo_mcds::{Basis, Cond, EventClass, EventSelector, Mcds, RateProbe};
    ///
    /// let mut mcds = Mcds::builder()
    ///     .probe(RateProbe {
    ///         // Probe 0: coarse IPC over 10-cycle windows, always armed.
    ///         event: EventSelector::of(EventClass::InstrRetired).from(SourceId::TRICORE),
    ///         basis: Basis::Cycles(10),
    ///         group: None,
    ///     })
    ///     .probe(RateProbe {
    ///         // Probe 1: fine stall rate, only while group 1 is armed.
    ///         event: EventSelector::of(EventClass::Stall(None)),
    ///         basis: Basis::Cycles(2),
    ///         group: Some(1),
    ///     })
    ///     .arm_group_when(Cond::RateBelow { probe: 0, num: 1, den: 1 }, 1)
    ///     .build()?;
    ///
    /// let mut out = Vec::new();
    /// // Cycles 0..40: IPC 2.0 — the fine probe stays disarmed.
    /// for c in 0..40u64 {
    ///     let ev = [EventRecord {
    ///         cycle: Cycle(c),
    ///         source: SourceId::TRICORE,
    ///         event: PerfEvent::InstrRetired { count: 2 },
    ///     }];
    ///     mcds.observe(Cycle(c), &ev, &[], &mut out);
    /// }
    /// assert_eq!(mcds.probe_window(1), None, "fine probe gated off");
    ///
    /// // Cycles 40..80: stalls only — coarse IPC hits 0, group 1 arms.
    /// for c in 40..80u64 {
    ///     let ev = [EventRecord {
    ///         cycle: Cycle(c),
    ///         source: SourceId::TRICORE,
    ///         event: PerfEvent::Stall { reason: StallReason::Data },
    ///     }];
    ///     mcds.observe(Cycle(c), &ev, &[], &mut out);
    /// }
    /// assert_eq!(mcds.probe_window(1), Some((2, 2)), "stalling every cycle");
    /// # Ok::<(), audo_common::SimError>(())
    /// ```
    #[must_use]
    pub fn arm_group_when(mut self, cond: crate::trigger::Cond, group: u8) -> McdsBuilder {
        self.arm_rules.push((cond, group));
        self
    }

    /// Enables TriCore program-flow trace from the start.
    #[must_use]
    pub fn program_trace(mut self) -> McdsBuilder {
        self.ptrace_tricore = true;
        self
    }

    /// Enables PCP channel-activity trace.
    #[must_use]
    pub fn pcp_trace(mut self) -> McdsBuilder {
        self.pcp_trace = true;
        self
    }

    /// Enables bus-transaction trace (optionally filtered to one master).
    #[must_use]
    pub fn bus_trace(mut self, master: Option<SourceId>) -> McdsBuilder {
        self.bus_trace = true;
        self.bus_master_filter = master;
        self
    }

    /// Enables qualified data trace.
    #[must_use]
    pub fn data_trace(mut self, q: DataQualifier) -> McdsBuilder {
        self.data_qual = Some(q);
        self
    }

    /// Sets the program-trace sync interval (absolute target every N flows).
    #[must_use]
    pub fn sync_every(mut self, n: u32) -> McdsBuilder {
        self.sync_every = n.max(1);
        self
    }

    /// Scalable time-stamping (§3): quantize message timestamps to
    /// `2^shift`-cycle granularity. Coarser stamps make most deltas zero
    /// (one byte) at the cost of intra-quantum ordering resolution;
    /// cross-message *order* is always preserved.
    #[must_use]
    pub fn timestamp_shift(mut self, shift: u8) -> McdsBuilder {
        self.timestamp_shift = shift.min(20);
        self
    }

    /// Validates resource usage and builds the MCDS.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ResourceExhausted`] when the configuration needs
    /// more probes/counters/comparators/transitions than the silicon has.
    pub fn build(self) -> Result<Mcds, SimError> {
        let res = self.resources.unwrap_or_default();
        let checks: [(&'static str, usize, usize); 4] = [
            ("rate probes", self.probes.len(), res.rate_probes),
            ("counters", self.counters.len(), res.counters),
            ("comparators", self.comparators.len(), res.comparators),
            (
                "state-machine transitions",
                self.transitions.len() + self.arm_rules.len(),
                res.transitions,
            ),
        ];
        for (name, used, avail) in checks {
            if used > avail {
                return Err(SimError::ResourceExhausted {
                    resource: name,
                    requested: used,
                    available: avail,
                });
            }
        }
        let n_probes = self.probes.len();
        let mut taps = Taps::default();
        let probe_taps = self
            .probes
            .iter()
            .map(|p| (taps.index(p.event), taps.index(p.basis.selector())))
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|&sel| (taps.index(sel), 0))
            .collect();
        let retire_tap =
            taps.index(EventSelector::of(EventClass::InstrRetired).from(SourceId::TRICORE));
        Ok(Mcds {
            probes: self.probes,
            probe_taps,
            probe_state: vec![ProbeState::default(); n_probes],
            taps,
            retire_tap,
            counters,
            comparators: self.comparators,
            arm_rules: self.arm_rules,
            sm: StateMachine::new(self.transitions),
            ptrace_tricore: self.ptrace_tricore,
            pcp_trace: self.pcp_trace,
            bus_trace: self.bus_trace,
            bus_master_filter: self.bus_master_filter,
            data_qual: self.data_qual,
            data_gate: true,
            sync_every: self.sync_every,
            enc: Encoder::with_shift(self.timestamp_shift),
            armed_groups: 0,
            icnt: 0,
            flows_since_sync: 0,
            need_sync: true,
            stopped: false,
            watchpoints: Vec::new(),
            scratch: Scratch::default(),
        })
    }
}

/// One event selector of the MCDS and its sum over the current cycle.
#[derive(Debug)]
struct Tap {
    sel: EventSelector,
    /// `sel.kind_mask()`.
    mask: u32,
    /// `sel.per_cycle_weight()`: the sum before any event.
    base: u64,
    /// This cycle's weight.
    sum: u64,
}

/// The distinct event selectors behind every probe numerator, probe
/// denominator, trigger counter and the program-trace retire count,
/// compiled once at [`McdsBuilder::build`] so that [`Mcds::observe`]
/// walks a cycle's events once for all of them.
#[derive(Debug, Default)]
struct Taps {
    taps: Vec<Tap>,
    /// Union of the kind masks: an event outside it weighs zero
    /// everywhere.
    any: u32,
}

impl Taps {
    /// The tap of `sel`, added on first use.
    fn index(&mut self, sel: EventSelector) -> usize {
        self.taps
            .iter()
            .position(|t| t.sel == sel)
            .unwrap_or_else(|| {
                self.taps.push(Tap {
                    sel,
                    mask: sel.kind_mask(),
                    base: sel.per_cycle_weight(),
                    sum: 0,
                });
                self.any |= sel.kind_mask();
                self.taps.len() - 1
            })
    }

    /// Sums one cycle's weight per tap; returns the [`Kind`] bits of
    /// every event present.
    fn walk(&mut self, events: &[EventRecord]) -> u32 {
        for t in &mut self.taps {
            t.sum = t.base;
        }
        let mut present = 0;
        for e in events {
            let bit = Kind::of(&e.event).bit();
            present |= bit;
            if bit & self.any == 0 {
                continue;
            }
            for t in &mut self.taps {
                if t.mask & bit != 0 {
                    t.sum += t.sel.weight(e);
                }
            }
        }
        present
    }

    /// Tap `i`'s sum over the last walked cycle.
    fn sum(&self, i: usize) -> u64 {
        self.taps[i].sum
    }
}

/// Per-cycle trigger facts, kept across cycles so [`Mcds::observe`] reuses
/// their capacity instead of allocating.
#[derive(Debug, Default)]
struct Scratch {
    comp_matches: Vec<bool>,
    last_rates: Vec<Option<(u64, u64)>>,
    counter_values: Vec<u64>,
    actions: Vec<Action>,
}

/// A programmed, running MCDS instance.
#[derive(Debug)]
pub struct Mcds {
    probes: Vec<RateProbe>,
    /// `(numerator, denominator)` tap of each probe.
    probe_taps: Vec<(usize, usize)>,
    probe_state: Vec<ProbeState>,
    taps: Taps,
    /// Tap of the TriCore's retired instructions (program trace `icnt`).
    retire_tap: usize,
    /// `(tap, value)` of each trigger counter.
    counters: Vec<(usize, u64)>,
    comparators: Vec<Comparator>,
    arm_rules: Vec<(crate::trigger::Cond, u8)>,
    sm: StateMachine,
    ptrace_tricore: bool,
    pcp_trace: bool,
    bus_trace: bool,
    bus_master_filter: Option<SourceId>,
    data_qual: Option<DataQualifier>,
    data_gate: bool,
    sync_every: u32,
    enc: Encoder,
    armed_groups: u32,
    icnt: u32,
    flows_since_sync: u32,
    need_sync: bool,
    stopped: bool,
    watchpoints: Vec<(Cycle, u8)>,
    scratch: Scratch,
}

impl Mcds {
    /// Starts building a configuration.
    #[must_use]
    pub fn builder() -> McdsBuilder {
        McdsBuilder::new()
    }

    /// Watchpoints fired so far (cycle, code).
    #[must_use]
    pub fn watchpoints(&self) -> &[(Cycle, u8)] {
        &self.watchpoints
    }

    /// Messages emitted so far.
    #[must_use]
    pub fn message_count(&self) -> u64 {
        self.enc.message_count()
    }

    /// Current trigger state.
    #[must_use]
    pub fn trigger_state(&self) -> u8 {
        self.sm.state()
    }

    /// Last completed window of probe `idx`.
    #[must_use]
    pub fn probe_window(&self, idx: usize) -> Option<(u64, u64)> {
        self.probe_state.get(idx).and_then(|s| s.last_window)
    }

    fn group_armed(&self, group: Option<u8>) -> bool {
        match group {
            None => true,
            Some(g) => self.armed_groups & (1 << g) != 0,
        }
    }

    /// Feeds one cycle of observations; compressed messages are appended to
    /// `out`.
    pub fn observe(
        &mut self,
        cycle: Cycle,
        events: &[EventRecord],
        bus: &[BusTransaction],
        out: &mut Vec<u8>,
    ) {
        // 1. One walk over the events: every tap's weight this cycle.
        let present = self.taps.walk(events);

        // 2. Trigger counters.
        for (tap, value) in &mut self.counters {
            *value += self.taps.sum(*tap);
        }

        // 3. Comparators, state machine and arm rules, when programmed:
        //    only transitions and arm rules read what they compute.
        if !self.sm.transitions.is_empty() || !self.arm_rules.is_empty() {
            self.trigger(cycle, events, bus, out);
        }

        // 4. Rate probes (cascade-aware).
        for (idx, (cfg, &(num_tap, den_tap))) in
            self.probes.iter().zip(&self.probe_taps).enumerate()
        {
            if !self.group_armed(cfg.group) {
                continue;
            }
            let (n, d) = (self.taps.sum(num_tap), self.taps.sum(den_tap));
            if let Some((num, den)) = self.probe_state[idx].accumulate(cfg, n, d) {
                if !self.stopped {
                    self.enc.emit(
                        cycle,
                        &TraceMessage::Counter {
                            probe: idx as u8,
                            num,
                            den,
                        },
                        out,
                    );
                }
            }
        }

        if self.stopped {
            return;
        }

        // 5. Program trace (TriCore).
        if self.ptrace_tricore {
            // At most three instructions retire per cycle.
            self.icnt += self.taps.sum(self.retire_tap) as u32;
        }
        if self.ptrace_tricore && present & Kind::FlowChange.bit() != 0 {
            for e in events {
                if e.source != SourceId::TRICORE {
                    continue;
                }
                if let PerfEvent::FlowChange { kind, to, .. } = e.event {
                    use audo_common::events::FlowKind as FK;
                    let needs_target = matches!(
                        kind,
                        FK::Indirect | FK::Return | FK::Exception | FK::ExceptionReturn
                    );
                    // After a trace gap (lock-on), the instruction count is
                    // not walkable by the host: emit icnt = 0 so the decoder
                    // jumps straight to the target.
                    let lock_on = self.need_sync;
                    let sync_due = lock_on || self.flows_since_sync + 1 >= self.sync_every;
                    let msg = if needs_target || sync_due {
                        self.flows_since_sync = 0;
                        self.need_sync = false;
                        TraceMessage::FlowTarget {
                            source: SourceId::TRICORE,
                            kind,
                            icnt: if lock_on { 0 } else { self.icnt },
                            target: to,
                            sync: !needs_target || lock_on,
                        }
                    } else {
                        self.flows_since_sync += 1;
                        TraceMessage::FlowDirect {
                            source: SourceId::TRICORE,
                            icnt: self.icnt,
                        }
                    };
                    self.enc.emit(cycle, &msg, out);
                    self.icnt = 0;
                }
            }
        }

        // 6. PCP channel trace.
        let pcp_kinds = Kind::PcpChannelStart.bit() | Kind::PcpChannelExit.bit();
        if self.pcp_trace && present & pcp_kinds != 0 {
            for e in events {
                match e.event {
                    PerfEvent::PcpChannelStart { channel } => self.enc.emit(
                        cycle,
                        &TraceMessage::PcpChannel {
                            channel,
                            start: true,
                        },
                        out,
                    ),
                    PerfEvent::PcpChannelExit { channel } => self.enc.emit(
                        cycle,
                        &TraceMessage::PcpChannel {
                            channel,
                            start: false,
                        },
                        out,
                    ),
                    _ => {}
                }
            }
        }

        // 7. Qualified data trace.
        let data_present = present & Kind::DataValue.bit() != 0;
        if let (true, true, Some(q)) = (self.data_gate, data_present, self.data_qual) {
            for e in events {
                if let PerfEvent::DataValue {
                    addr,
                    value,
                    kind,
                    size,
                } = e.event
                {
                    let matches = addr >= q.lo
                        && addr <= q.hi
                        && q.source.is_none_or(|s| e.source == s)
                        && q.kind.is_none_or(|k| k == kind);
                    if matches {
                        self.enc.emit(
                            cycle,
                            &TraceMessage::Data {
                                source: e.source,
                                kind,
                                size,
                                addr,
                                value,
                            },
                            out,
                        );
                    }
                }
            }
        }

        // 8. Bus trace.
        if self.bus_trace {
            for t in bus {
                if self.bus_master_filter.is_none_or(|m| t.master == m) {
                    self.enc.emit(
                        cycle,
                        &TraceMessage::Bus {
                            master: t.master,
                            kind: t.kind,
                            size: t.size,
                            addr: t.addr,
                        },
                        out,
                    );
                }
            }
        }
    }

    /// Evaluates the comparators, steps the trigger state machine and
    /// applies its actions, then the arm rules.
    fn trigger(
        &mut self,
        cycle: Cycle,
        events: &[EventRecord],
        bus: &[BusTransaction],
        out: &mut Vec<u8>,
    ) {
        let Scratch {
            mut comp_matches,
            mut last_rates,
            mut counter_values,
            mut actions,
        } = std::mem::take(&mut self.scratch);

        // Comparators.
        comp_matches.clear();
        comp_matches.extend(self.comparators.iter().map(|c| c.matches(events, bus)));

        // State machine.
        last_rates.clear();
        last_rates.extend(self.probe_state.iter().map(|s| s.last_window));
        counter_values.clear();
        counter_values.extend(self.counters.iter().map(|(_, v)| *v));
        actions.clear();
        actions.extend_from_slice(self.sm.step(&TriggerFacts {
            comp_matches: &comp_matches,
            counter_values: &counter_values,
            last_rates: &last_rates,
        }));
        for &a in &actions {
            match a {
                Action::TraceOn(u) => self.set_trace(u, true),
                Action::TraceOff(u) => self.set_trace(u, false),
                Action::EmitWatchpoint(code) => {
                    self.watchpoints.push((cycle, code));
                    if !self.stopped {
                        self.enc
                            .emit(cycle, &TraceMessage::Watchpoint { code }, out);
                    }
                }
                Action::ArmGroup(g) => self.armed_groups |= 1 << g,
                Action::DisarmGroup(g) => {
                    self.armed_groups &= !(1 << g);
                    for (cfg, st) in self.probes.iter().zip(&mut self.probe_state) {
                        if cfg.group == Some(g) {
                            st.reset_window();
                        }
                    }
                }
                Action::ResetCounter(i) => {
                    if let Some(c) = self.counters.get_mut(i) {
                        c.1 = 0;
                    }
                }
                Action::StopCapture => self.stopped = true,
            }
        }

        // Level-sensitive arm rules (independent cascades).
        for i in 0..self.arm_rules.len() {
            let hold = {
                let facts = TriggerFacts {
                    comp_matches: &comp_matches,
                    counter_values: &counter_values,
                    last_rates: &last_rates,
                };
                self.arm_rules[i].0.eval(&facts)
            };
            let g = self.arm_rules[i].1;
            let was = self.armed_groups & (1 << g) != 0;
            if hold && !was {
                self.armed_groups |= 1 << g;
            } else if !hold && was {
                self.armed_groups &= !(1 << g);
                for (cfg, st) in self.probes.iter().zip(&mut self.probe_state) {
                    if cfg.group == Some(g) {
                        st.reset_window();
                    }
                }
            }
        }

        self.scratch = Scratch {
            comp_matches,
            last_rates,
            counter_values,
            actions,
        };
    }

    fn set_trace(&mut self, unit: TraceUnit, on: bool) {
        match unit {
            TraceUnit::ProgramTricore => {
                if on && !self.ptrace_tricore {
                    self.icnt = 0;
                    self.need_sync = true;
                }
                self.ptrace_tricore = on;
            }
            TraceUnit::Data => self.data_gate = on,
            TraceUnit::Bus => self.bus_trace = on,
            TraceUnit::Pcp => self.pcp_trace = on,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::decode_stream;
    use crate::rates::Basis;
    use crate::select::EventClass;
    use crate::trigger::Cond;
    use audo_common::events::FlowKind;
    use audo_common::Addr;

    fn retire(cycle: u64, n: u8) -> EventRecord {
        EventRecord {
            cycle: Cycle(cycle),
            source: SourceId::TRICORE,
            event: PerfEvent::InstrRetired { count: n },
        }
    }

    fn flow(cycle: u64, kind: FlowKind, to: u32) -> EventRecord {
        EventRecord {
            cycle: Cycle(cycle),
            source: SourceId::TRICORE,
            event: PerfEvent::FlowChange {
                kind,
                from: Addr(0x8000_0000),
                to: Addr(to),
            },
        }
    }

    #[test]
    fn resource_limits_enforced() {
        let mut b = Mcds::builder().resources(McdsResources {
            rate_probes: 1,
            counters: 8,
            comparators: 8,
            transitions: 16,
        });
        for _ in 0..2 {
            b = b.probe(RateProbe {
                event: EventSelector::of(EventClass::InstrRetired),
                basis: Basis::Cycles(100),
                group: None,
            });
        }
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            SimError::ResourceExhausted {
                resource: "rate probes",
                ..
            }
        ));
    }

    #[test]
    fn ipc_probe_stream_decodes() {
        let mut mcds = Mcds::builder()
            .probe(RateProbe {
                event: EventSelector::of(EventClass::InstrRetired).from(SourceId::TRICORE),
                basis: Basis::Cycles(10),
                group: None,
            })
            .build()
            .unwrap();
        let mut out = Vec::new();
        for c in 0..30u64 {
            let events = [retire(c, 2)];
            mcds.observe(Cycle(c), &events, &[], &mut out);
        }
        let msgs = decode_stream(&out).unwrap();
        let counters: Vec<_> = msgs
            .iter()
            .filter_map(|(_, m)| match m {
                TraceMessage::Counter { probe, num, den } => Some((*probe, *num, *den)),
                _ => None,
            })
            .collect();
        assert_eq!(
            counters,
            vec![(0, 20, 10), (0, 20, 10), (0, 20, 10)],
            "IPC 2.0"
        );
    }

    /// The one walk over a cycle's events closes exactly the windows the
    /// per-probe reference, `rates::cycle_contribution`, closes.
    #[test]
    fn one_walk_matches_the_per_probe_reference() {
        use crate::rates::{cycle_contribution, ProbeState};
        use audo_common::events::{CacheId, FlashPort, StallReason};
        let instr = |source| Basis::Instructions { source, n: 40 };
        let probe = |sel: EventSelector, basis| RateProbe {
            event: sel,
            basis,
            group: None,
        };
        let probes = [
            probe(
                EventSelector::of(EventClass::InstrRetired).from(SourceId::TRICORE),
                Basis::Cycles(7),
            ),
            probe(
                EventSelector::of(EventClass::IcacheMiss),
                instr(SourceId::TRICORE),
            ),
            probe(
                EventSelector::of(EventClass::Stall(Some(StallReason::Data))),
                instr(SourceId::TRICORE),
            ),
            probe(
                EventSelector::of(EventClass::FlashBufferHit(None)).from(SourceId::PMU),
                Basis::Cycles(11),
            ),
            probe(
                EventSelector::of(EventClass::InstrRetired),
                instr(SourceId::PCP),
            ),
            probe(
                EventSelector::of(EventClass::Cycles),
                instr(SourceId::TRICORE),
            ),
        ];
        let templates = [
            (SourceId::TRICORE, PerfEvent::InstrRetired { count: 1 }),
            (SourceId::TRICORE, PerfEvent::InstrRetired { count: 3 }),
            (SourceId::PCP, PerfEvent::InstrRetired { count: 1 }),
            (
                SourceId::TRICORE,
                PerfEvent::CacheMiss {
                    cache: CacheId::Instruction,
                },
            ),
            (
                SourceId::TRICORE,
                PerfEvent::CacheMiss {
                    cache: CacheId::Data,
                },
            ),
            (
                SourceId::TRICORE,
                PerfEvent::Stall {
                    reason: StallReason::Data,
                },
            ),
            (
                SourceId::PCP,
                PerfEvent::Stall {
                    reason: StallReason::Data,
                },
            ),
            (
                SourceId::PMU,
                PerfEvent::FlashBufferHit {
                    port: FlashPort::Code,
                },
            ),
            (
                SourceId::DMA,
                PerfEvent::FlashBufferHit {
                    port: FlashPort::Data,
                },
            ),
            (SourceId::DMA, PerfEvent::DmaBeat { channel: 0 }),
        ];
        let mut builder = Mcds::builder().program_trace();
        for p in probes {
            builder = builder.probe(p);
        }
        let mut mcds = builder.build().unwrap();
        let mut reference = [ProbeState::default(); 6];
        let (mut out, mut expected) = (Vec::new(), Vec::new());
        let mut rng = 0x5EED;
        for c in 0..5_000u64 {
            rng = audo_common::splitmix64(rng);
            let events: Vec<EventRecord> = (0..rng % 5)
                .map(|k| {
                    let (source, event) =
                        templates[(rng >> (8 + 4 * k)) as usize % templates.len()];
                    EventRecord {
                        cycle: Cycle(c),
                        source,
                        event,
                    }
                })
                .collect();
            mcds.observe(Cycle(c), &events, &[], &mut out);
            for (i, (cfg, st)) in probes.iter().zip(&mut reference).enumerate() {
                let (n, d) = cycle_contribution(cfg, &events);
                if let Some((num, den)) = st.accumulate(cfg, n, d) {
                    expected.push((i as u8, num, den));
                }
            }
        }
        let seen: Vec<_> = decode_stream(&out)
            .unwrap()
            .into_iter()
            .filter_map(|(_, m)| match m {
                TraceMessage::Counter { probe, num, den } => Some((probe, num, den)),
                _ => None,
            })
            .collect();
        assert!(expected.len() > 500, "{} windows", expected.len());
        assert_eq!(seen, expected);
    }

    #[test]
    fn cascaded_group_armed_by_low_ipc() {
        // Probe 0: coarse IPC (10-cycle windows). Probe 1: fine-grain
        // stall-rate probe in group 1, armed while probe 0's IPC < 1.0.
        let mut mcds = Mcds::builder()
            .probe(RateProbe {
                event: EventSelector::of(EventClass::InstrRetired).from(SourceId::TRICORE),
                basis: Basis::Cycles(10),
                group: None,
            })
            .probe(RateProbe {
                event: EventSelector::of(EventClass::Stall(None)),
                basis: Basis::Cycles(2),
                group: Some(1),
            })
            .transition(Transition {
                from: 0,
                cond: Cond::RateBelow {
                    probe: 0,
                    num: 1,
                    den: 1,
                },
                to: 1,
                actions: vec![Action::ArmGroup(1)],
            })
            .transition(Transition {
                from: 1,
                cond: Cond::not(Cond::RateBelow {
                    probe: 0,
                    num: 1,
                    den: 1,
                }),
                to: 0,
                actions: vec![Action::DisarmGroup(1)],
            })
            .build()
            .unwrap();
        let mut out = Vec::new();
        // Phase A (cycles 0..40): IPC 2 -> group stays disarmed.
        for c in 0..40u64 {
            let events = [retire(c, 2)];
            mcds.observe(Cycle(c), &events, &[], &mut out);
        }
        let before = decode_stream(&out)
            .unwrap()
            .iter()
            .filter(|(_, m)| matches!(m, TraceMessage::Counter { probe: 1, .. }))
            .count();
        assert_eq!(before, 0, "fine probe must be disarmed during good IPC");
        // Phase B (cycles 40..80): stalls only -> coarse IPC drops to 0,
        // group arms, fine probe samples appear.
        for c in 40..80u64 {
            let events = [EventRecord {
                cycle: Cycle(c),
                source: SourceId::TRICORE,
                event: PerfEvent::Stall {
                    reason: audo_common::events::StallReason::Data,
                },
            }];
            mcds.observe(Cycle(c), &events, &[], &mut out);
        }
        let fine_samples = decode_stream(&out)
            .unwrap()
            .iter()
            .filter(|(_, m)| matches!(m, TraceMessage::Counter { probe: 1, .. }))
            .count();
        assert!(
            fine_samples >= 10,
            "fine probe must sample during bad IPC ({fine_samples})"
        );
    }

    #[test]
    fn program_trace_syncs_then_compresses() {
        let mut mcds = Mcds::builder()
            .program_trace()
            .sync_every(4)
            .build()
            .unwrap();
        let mut out = Vec::new();
        for c in 0..12u64 {
            let events = [
                retire(c, 1),
                flow(c, FlowKind::BranchTaken, 0x8000_0100 + (c as u32) * 2),
            ];
            mcds.observe(Cycle(c), &events, &[], &mut out);
        }
        let msgs = decode_stream(&out).unwrap();
        // First flow must be a sync (absolute target), then direct flows.
        assert!(
            matches!(msgs[0].1, TraceMessage::FlowTarget { sync: true, .. }),
            "first flow is a sync: {:?}",
            msgs[0].1
        );
        let direct = msgs
            .iter()
            .filter(|(_, m)| matches!(m, TraceMessage::FlowDirect { .. }))
            .count();
        let syncs = msgs
            .iter()
            .filter(|(_, m)| matches!(m, TraceMessage::FlowTarget { sync: true, .. }))
            .count();
        assert!(direct >= 8, "most flows travel compressed ({direct})");
        assert!(syncs >= 3, "periodic resync ({syncs})");
    }

    #[test]
    fn indirect_flows_carry_targets() {
        let mut mcds = Mcds::builder().program_trace().build().unwrap();
        let mut out = Vec::new();
        let events = [retire(0, 1), flow(0, FlowKind::Return, 0x8000_4444)];
        mcds.observe(Cycle(0), &events, &[], &mut out);
        let msgs = decode_stream(&out).unwrap();
        assert_eq!(msgs.len(), 1);
        assert!(matches!(
            msgs[0].1,
            TraceMessage::FlowTarget {
                kind: FlowKind::Return,
                target: Addr(0x8000_4444),
                ..
            }
        ));
    }

    #[test]
    fn watchpoint_on_debug_marker_and_stop() {
        let mut mcds = Mcds::builder()
            .comparator(Comparator::DebugCode(9))
            .transition(Transition {
                from: 0,
                cond: Cond::Comp(0),
                to: 1,
                actions: vec![Action::EmitWatchpoint(77), Action::StopCapture],
            })
            .probe(RateProbe {
                event: EventSelector::of(EventClass::Cycles),
                basis: Basis::Cycles(1),
                group: None,
            })
            .build()
            .unwrap();
        let mut out = Vec::new();
        for c in 0..10u64 {
            let mut events = vec![retire(c, 1)];
            if c == 5 {
                events.push(EventRecord {
                    cycle: Cycle(c),
                    source: SourceId::TRICORE,
                    event: PerfEvent::DebugMarker { code: 9 },
                });
            }
            mcds.observe(Cycle(c), &events, &[], &mut out);
        }
        // Stopped: a further cycle's probe emits nothing.
        let len = out.len();
        mcds.observe(Cycle(10), &[retire(10, 1)], &[], &mut out);
        assert_eq!(out.len(), len);
        assert_eq!(mcds.watchpoints(), &[(Cycle(5), 77)]);
        let msgs = decode_stream(&out).unwrap();
        // Per-cycle probe messages stop after the trigger at cycle 5.
        let last_cycle = msgs.last().unwrap().0;
        assert!(last_cycle <= Cycle(5), "capture frozen at the trigger");
        assert!(msgs
            .iter()
            .any(|(_, m)| matches!(m, TraceMessage::Watchpoint { code: 77 })));
    }

    #[test]
    fn trigger_gated_program_trace_window() {
        // Trace only between debug markers 1 and 2.
        let mut mcds = Mcds::builder()
            .comparator(Comparator::DebugCode(1))
            .comparator(Comparator::DebugCode(2))
            .transition(Transition {
                from: 0,
                cond: Cond::Comp(0),
                to: 1,
                actions: vec![Action::TraceOn(TraceUnit::ProgramTricore)],
            })
            .transition(Transition {
                from: 1,
                cond: Cond::Comp(1),
                to: 2,
                actions: vec![Action::TraceOff(TraceUnit::ProgramTricore)],
            })
            .build()
            .unwrap();
        let mut out = Vec::new();
        let mark = |c: u64, code: u8| EventRecord {
            cycle: Cycle(c),
            source: SourceId::TRICORE,
            event: PerfEvent::DebugMarker { code },
        };
        for c in 0..30u64 {
            let mut events = vec![retire(c, 1), flow(c, FlowKind::BranchTaken, 0x8000_0010)];
            if c == 10 {
                events.push(mark(c, 1));
            }
            if c == 20 {
                events.push(mark(c, 2));
            }
            mcds.observe(Cycle(c), &events, &[], &mut out);
        }
        let msgs = decode_stream(&out).unwrap();
        let flow_cycles: Vec<u64> = msgs
            .iter()
            .filter(|(_, m)| {
                matches!(
                    m,
                    TraceMessage::FlowDirect { .. } | TraceMessage::FlowTarget { .. }
                )
            })
            .map(|(c, _)| c.0)
            .collect();
        assert!(!flow_cycles.is_empty());
        assert!(
            flow_cycles.iter().all(|&c| (10..=20).contains(&c)),
            "{flow_cycles:?}"
        );
    }

    #[test]
    fn data_trace_qualification() {
        let mut mcds = Mcds::builder()
            .data_trace(DataQualifier {
                lo: Addr(0xD000_0100),
                hi: Addr(0xD000_01FF),
                source: None,
                kind: Some(audo_common::AccessKind::Write),
            })
            .build()
            .unwrap();
        let mut out = Vec::new();
        let dv = |c: u64, addr: u32, kind: audo_common::AccessKind| EventRecord {
            cycle: Cycle(c),
            source: SourceId::TRICORE,
            event: PerfEvent::DataValue {
                addr: Addr(addr),
                value: 42,
                kind,
                size: 4,
            },
        };
        use audo_common::AccessKind::{Read, Write};
        mcds.observe(Cycle(0), &[dv(0, 0xD000_0104, Write)], &[], &mut out);
        mcds.observe(Cycle(1), &[dv(1, 0xD000_0104, Read)], &[], &mut out); // kind filtered
        mcds.observe(Cycle(2), &[dv(2, 0xD000_0300, Write)], &[], &mut out); // range filtered
        let msgs = decode_stream(&out).unwrap();
        assert_eq!(msgs.len(), 1);
        assert!(matches!(
            msgs[0].1,
            TraceMessage::Data {
                addr: Addr(0xD000_0104),
                ..
            }
        ));
    }
}

#[cfg(test)]
mod watchdog_tests {
    use super::*;
    use crate::select::EventClass;
    use crate::trigger::Cond;
    use audo_common::events::FlowKind;
    use audo_common::Addr;

    /// §3: "It is for instance possible to trigger on events not happening
    /// in a defined time window." Expressed with the stock primitives: a
    /// cycle counter that is reset whenever the watched event occurs, and a
    /// transition that fires when the counter reaches the window length.
    #[test]
    fn trigger_on_event_absence_watchdog() {
        let window = 50u64;
        let mut mcds = Mcds::builder()
            .counter(EventSelector::of(EventClass::Cycles)) // counter 0: cycles since last event
            .comparator(Comparator::Event(EventSelector::of(EventClass::FlowChange)))
            // Watched event seen: reset the watchdog counter, stay armed.
            .transition(Transition {
                from: 0,
                cond: Cond::Comp(0),
                to: 0,
                actions: vec![Action::ResetCounter(0)],
            })
            // Window expired without the event: trip.
            .transition(Transition {
                from: 0,
                cond: Cond::CounterAtLeast {
                    counter: 0,
                    value: window,
                },
                to: 1,
                actions: vec![Action::EmitWatchpoint(0xAB)],
            })
            .build()
            .unwrap();
        let mut out = Vec::new();
        let flow = |c: u64| EventRecord {
            cycle: Cycle(c),
            source: SourceId::TRICORE,
            event: PerfEvent::FlowChange {
                kind: FlowKind::BranchTaken,
                from: Addr(0x100),
                to: Addr(0x200),
            },
        };
        // Phase 1: the event keeps arriving every 20 cycles — no trip.
        for c in 0..200u64 {
            let events = if c % 20 == 0 { vec![flow(c)] } else { vec![] };
            mcds.observe(Cycle(c), &events, &[], &mut out);
        }
        assert!(
            mcds.watchpoints().is_empty(),
            "watchdog must not trip while fed"
        );
        // Phase 2: the event stops; the watchdog trips ~window later.
        for c in 200..400u64 {
            mcds.observe(Cycle(c), &[], &[], &mut out);
        }
        assert_eq!(mcds.watchpoints().len(), 1, "one trip");
        let (at, _) = mcds.watchpoints()[0];
        assert!(
            (200..=200 + window + 25).contains(&at.0),
            "tripped near the window expiry, at {at}"
        );
    }
}

#[cfg(test)]
mod timestamp_tests {
    use super::*;
    use crate::rates::Basis;
    use crate::select::EventClass;

    fn run_with_shift(shift: u8) -> (Vec<u8>, Vec<Cycle>) {
        let mut mcds = Mcds::builder()
            .probe(RateProbe {
                event: EventSelector::of(EventClass::InstrRetired),
                basis: Basis::Cycles(300),
                group: None,
            })
            .timestamp_shift(shift)
            .build()
            .unwrap();
        let mut out = Vec::new();
        for c in 0..30_000u64 {
            let events = [EventRecord {
                cycle: Cycle(c),
                source: SourceId::TRICORE,
                event: PerfEvent::InstrRetired { count: 1 },
            }];
            mcds.observe(Cycle(c), &events, &[], &mut out);
        }
        let (msgs, err) =
            crate::msg::decode_stream_lossy_shifted_sized(&out, shift, &mut Vec::new());
        assert!(err.is_none(), "shifted stream decodes cleanly: {err:?}");
        let stamps = msgs.into_iter().map(|(c, _)| c).collect();
        (out, stamps)
    }

    #[test]
    fn coarser_stamps_shrink_the_stream_but_keep_order() {
        let (fine, fine_stamps) = run_with_shift(0);
        let (coarse, coarse_stamps) = run_with_shift(6);
        assert!(
            coarse.len() < fine.len(),
            "{} !< {}",
            coarse.len(),
            fine.len()
        );
        assert_eq!(fine_stamps.len(), coarse_stamps.len(), "same message count");
        assert!(
            coarse_stamps.windows(2).all(|w| w[0] <= w[1]),
            "order preserved"
        );
        // Quantized stamps are multiples of 64 and within one quantum of
        // the exact stamp.
        for (f, c) in fine_stamps.iter().zip(&coarse_stamps) {
            assert_eq!(c.0 % 64, 0);
            assert!(f.0 - c.0 < 64, "{f} vs {c}");
        }
        // 300-cycle deltas need two varint bytes exactly; quantized deltas
        // (4..5 units) need one: ~1 byte saved per message.
        assert!(
            fine.len() >= coarse.len() + 90,
            "{} vs {}",
            fine.len(),
            coarse.len()
        );
    }
}

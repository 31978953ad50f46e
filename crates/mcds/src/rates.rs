//! On-chip rate measurement: the core of the Enhanced System Profiling
//! method.
//!
//! §5 of the paper defines the scheme this module implements:
//!
//! * the **IPC rate** is measured with two counters — instructions executed
//!   and a cycle-based resolution basis; "every x clock cycles, the number
//!   of executed instructions is saved as a trace message",
//! * **all other event rates** are measured *per executed instruction*,
//!   because "an instruction cache miss in clock cycle x is not a meaningful
//!   information" — 4 misses per 100 executed instructions is,
//! * probes can be grouped and **cascaded**: a high-resolution group is only
//!   armed while a trigger condition (e.g. low-resolution IPC below a
//!   threshold) holds, trading tool bandwidth for detail exactly where it
//!   is needed.

use audo_common::{EventRecord, SourceId};

use crate::select::{EventClass, EventSelector};

/// The resolution basis of a rate probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Sample every `n` clock cycles (used for IPC).
    Cycles(u32),
    /// Sample every `n` instructions retired by `source` (used for event
    /// rates, per §5).
    Instructions {
        /// Whose retirement stream forms the basis.
        source: SourceId,
        /// Window length in instructions.
        n: u32,
    },
}

impl Basis {
    /// The nominal window length.
    #[must_use]
    pub fn window(&self) -> u32 {
        match *self {
            Basis::Cycles(n) => n,
            Basis::Instructions { n, .. } => n,
        }
    }

    /// The denominator as a selector: one per cycle, or the instructions
    /// `source` retired.
    #[must_use]
    pub fn selector(&self) -> EventSelector {
        match *self {
            Basis::Cycles(_) => EventSelector::of(EventClass::Cycles),
            Basis::Instructions { source, .. } => {
                EventSelector::of(EventClass::InstrRetired).from(source)
            }
        }
    }
}

/// Configuration of one rate probe.
///
/// A probe pairs an event selector (the numerator) with a [`Basis`] (the
/// denominator). §5's worked example — "4 instruction cache misses during
/// the last 100 executed instructions respond to an instruction cache hit
/// rate of 96%" — is one probe with an instruction basis:
///
/// ```
/// use audo_common::{Cycle, EventRecord, PerfEvent, SourceId};
/// use audo_common::events::CacheId;
/// use audo_mcds::{Basis, EventClass, EventSelector, Mcds, RateProbe, TraceMessage};
///
/// let mut mcds = Mcds::builder()
///     .probe(RateProbe {
///         event: EventSelector::of(EventClass::IcacheMiss),
///         // Event rates are measured per executed instruction, not per
///         // cycle — "an instruction cache miss in clock cycle x is not a
///         // meaningful information".
///         basis: Basis::Instructions { source: SourceId::TRICORE, n: 100 },
///         group: None,
///     })
///     .build()?;
///
/// // 50 cycles retiring 2 instructions each; 4 misses along the way.
/// let mut out = Vec::new();
/// for c in 0..50u64 {
///     let mut ev = vec![EventRecord {
///         cycle: Cycle(c),
///         source: SourceId::TRICORE,
///         event: PerfEvent::InstrRetired { count: 2 },
///     }];
///     if c % 25 == 0 {
///         let miss = PerfEvent::CacheMiss { cache: CacheId::Instruction };
///         ev.push(EventRecord { cycle: Cycle(c), source: SourceId::TRICORE, event: miss });
///         ev.push(EventRecord { cycle: Cycle(c), source: SourceId::TRICORE, event: miss });
///     }
///     mcds.observe(Cycle(c), &ev, &[], &mut out);
/// }
///
/// // One trace message per completed window: 4 misses / 100 instructions,
/// // i.e. a 96% instruction-cache hit rate.
/// let msgs = audo_mcds::decode_stream(&out)?;
/// assert!(matches!(msgs[0].1, TraceMessage::Counter { num: 4, den: 100, .. }));
/// # Ok::<(), audo_common::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateProbe {
    /// What to count (the numerator).
    pub event: EventSelector,
    /// The resolution basis (the denominator).
    pub basis: Basis,
    /// Probe group for cascaded arming (`None` = always armed).
    pub group: Option<u8>,
}

/// Live state of one probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeState {
    num: u64,
    den: u64,
    /// Last completed window, for trigger conditions and inspection.
    pub last_window: Option<(u64, u64)>,
    /// Completed windows.
    pub samples: u64,
}

impl ProbeState {
    /// Resets the in-progress window (used when a group is disarmed).
    pub fn reset_window(&mut self) {
        self.num = 0;
        self.den = 0;
    }

    /// Accumulates one cycle's contribution; returns `Some((num, den))`
    /// when the window completed.
    pub fn accumulate(
        &mut self,
        cfg: &RateProbe,
        num_add: u64,
        den_add: u64,
    ) -> Option<(u64, u64)> {
        self.num += num_add;
        self.den += den_add;
        if self.den >= u64::from(cfg.basis.window()) && cfg.basis.window() > 0 {
            let window = (self.num, self.den);
            self.last_window = Some(window);
            self.samples += 1;
            self.num = 0;
            self.den = 0;
            Some(window)
        } else {
            None
        }
    }
}

/// Computes one cycle's (numerator, denominator) contributions for a probe.
///
/// [`crate::Mcds`] sums every probe in one walk over the events instead;
/// this per-probe form is the reference its tests compare against.
#[must_use]
pub fn cycle_contribution(cfg: &RateProbe, events: &[EventRecord]) -> (u64, u64) {
    let sum = |sel: EventSelector| {
        events.iter().map(|e| sel.weight(e)).sum::<u64>() + sel.per_cycle_weight()
    };
    (sum(cfg.event), sum(cfg.basis.selector()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::EventClass;
    use audo_common::{Cycle, PerfEvent};

    fn retire(n: u8) -> EventRecord {
        EventRecord {
            cycle: Cycle(0),
            source: SourceId::TRICORE,
            event: PerfEvent::InstrRetired { count: n },
        }
    }

    fn miss() -> EventRecord {
        EventRecord {
            cycle: Cycle(0),
            source: SourceId::TRICORE,
            event: PerfEvent::CacheMiss {
                cache: audo_common::events::CacheId::Instruction,
            },
        }
    }

    #[test]
    fn ipc_probe_emits_every_n_cycles() {
        let cfg = RateProbe {
            event: EventSelector::of(EventClass::InstrRetired).from(SourceId::TRICORE),
            basis: Basis::Cycles(10),
            group: None,
        };
        let mut st = ProbeState::default();
        let mut windows = Vec::new();
        for c in 0..35 {
            let events = if c % 2 == 0 { vec![retire(2)] } else { vec![] };
            let (n, d) = cycle_contribution(&cfg, &events);
            if let Some(w) = st.accumulate(&cfg, n, d) {
                windows.push(w);
            }
        }
        assert_eq!(
            windows,
            vec![(10, 10), (10, 10), (10, 10)],
            "IPC 1.0 per 10-cycle window"
        );
        assert_eq!(st.samples, 3);
    }

    #[test]
    fn instruction_basis_normalises_to_retires() {
        // "4 instruction cache misses during the last 100 executed
        // instructions respond to an instruction cache hit rate of 96%".
        let cfg = RateProbe {
            event: EventSelector::of(EventClass::IcacheMiss),
            basis: Basis::Instructions {
                source: SourceId::TRICORE,
                n: 100,
            },
            group: None,
        };
        let mut st = ProbeState::default();
        let mut window = None;
        // 50 cycles × 2 instructions, a miss every 25 cycles (4 total).
        for c in 0..50 {
            let mut events = vec![retire(2)];
            if c % 25 == 0 {
                events.push(miss());
                events.push(miss());
            }
            let (n, d) = cycle_contribution(&cfg, &events);
            if let Some(w) = st.accumulate(&cfg, n, d) {
                window = Some(w);
            }
        }
        let (num, den) = window.expect("one window");
        assert_eq!(den, 100);
        assert_eq!(num, 4);
        let hit_rate = 100.0 * (1.0 - num as f64 / den as f64);
        assert_eq!(hit_rate, 96.0);
    }

    #[test]
    fn window_den_may_overshoot_with_wide_retires() {
        let cfg = RateProbe {
            event: EventSelector::of(EventClass::IcacheMiss),
            basis: Basis::Instructions {
                source: SourceId::TRICORE,
                n: 10,
            },
            group: None,
        };
        let mut st = ProbeState::default();
        // 4 cycles × 3 retires = 12 ≥ 10: window reports den = 12 exactly.
        let mut w = None;
        for _ in 0..4 {
            let (n, d) = cycle_contribution(&cfg, &[retire(3)]);
            if let Some(win) = st.accumulate(&cfg, n, d) {
                w = Some(win);
            }
        }
        assert_eq!(w, Some((0, 12)));
    }

    #[test]
    fn stall_cycles_do_not_advance_instruction_basis() {
        let cfg = RateProbe {
            event: EventSelector::of(EventClass::IcacheMiss),
            basis: Basis::Instructions {
                source: SourceId::TRICORE,
                n: 10,
            },
            group: None,
        };
        // A cycle with only a stall event contributes nothing to the basis.
        let stall = EventRecord {
            cycle: Cycle(0),
            source: SourceId::TRICORE,
            event: PerfEvent::Stall {
                reason: audo_common::events::StallReason::Fetch,
            },
        };
        let (n, d) = cycle_contribution(&cfg, &[stall]);
        assert_eq!((n, d), (0, 0));
    }

    #[test]
    fn reset_window_discards_partials() {
        let cfg = RateProbe {
            event: EventSelector::of(EventClass::IcacheMiss),
            basis: Basis::Cycles(10),
            group: Some(1),
        };
        let mut st = ProbeState::default();
        st.accumulate(&cfg, 3, 5);
        st.reset_window();
        // After 10 fresh cycles the window holds only post-reset counts.
        let mut w = None;
        for _ in 0..10 {
            if let Some(win) = st.accumulate(&cfg, 0, 1) {
                w = Some(win);
            }
        }
        assert_eq!(w, Some((0, 10)));
    }
}

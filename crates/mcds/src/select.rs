//! Event selectors: which hardware events a counter or probe taps.
//!
//! The AUDO FUTURE MCDS "taps directly performance relevant event sources
//! like cache hits/misses, bus contentions, etc." (§3). An
//! [`EventSelector`] is the programmable mux in front of a counter: it
//! picks an event class and optionally restricts the emitting block.

use audo_common::events::{CacheId, FlashPort, StallReason};
use audo_common::{AccessKind, EventRecord, PerfEvent, SourceId};

/// Event classes a counter can count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EventClass {
    /// Every cycle (the resolution basis for IPC).
    Cycles,
    /// Instructions retired (weighted by per-cycle retire count).
    InstrRetired,
    /// Instruction-cache hits.
    IcacheHit,
    /// Instruction-cache misses.
    IcacheMiss,
    /// Data-cache hits.
    DcacheHit,
    /// Data-cache misses.
    DcacheMiss,
    /// Flash read-buffer hits on a port (`None` = both ports).
    FlashBufferHit(Option<FlashPort>),
    /// Flash read-buffer misses on a port (`None` = both ports).
    FlashBufferMiss(Option<FlashPort>),
    /// Code fetches that reached the flash array path.
    FlashCodeFetch,
    /// Flash port-arbitration conflicts.
    FlashPortConflict,
    /// Data accesses to a region (`None` kind = reads and writes).
    DataAccess {
        /// Memory region the selector matches on.
        region: audo_common::events::MemRegion,
        /// Restrict to reads or writes; `None` counts both.
        kind: Option<AccessKind>,
    },
    /// Crossbar contention events.
    BusContention,
    /// Crossbar grants.
    BusGrant,
    /// Service requests raised.
    IrqRaised,
    /// Interrupts accepted by the CPU.
    IrqTaken,
    /// DMA beats moved.
    DmaBeat,
    /// Pipeline stall cycles (`None` = any reason).
    Stall(Option<StallReason>),
    /// Control-flow discontinuities retired.
    FlowChange,
    /// Software debug markers (`None` = any code).
    DebugMarker(Option<u8>),
}

/// A programmable event selector: class plus optional source filter.
///
/// # Examples
///
/// ```
/// use audo_common::{Cycle, EventRecord, PerfEvent, SourceId};
/// use audo_mcds::select::{EventClass, EventSelector};
///
/// let sel = EventSelector::of(EventClass::InstrRetired).from(SourceId::TRICORE);
/// let rec = EventRecord {
///     cycle: Cycle(1),
///     source: SourceId::TRICORE,
///     event: PerfEvent::InstrRetired { count: 3 },
/// };
/// assert_eq!(sel.weight(&rec), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventSelector {
    /// The event class to count.
    pub class: EventClass,
    /// Restrict to one emitting block (`None` = any).
    pub source: Option<SourceId>,
}

impl EventSelector {
    /// Selector for `class` from any source.
    #[must_use]
    pub fn of(class: EventClass) -> EventSelector {
        EventSelector {
            class,
            source: None,
        }
    }

    /// Restricts the selector to events emitted by `source`.
    #[must_use]
    pub fn from(mut self, source: SourceId) -> EventSelector {
        self.source = Some(source);
        self
    }

    /// How much `rec` contributes to a counter with this selector
    /// (0 = no match; `InstrRetired` contributes its retire count).
    #[must_use]
    // Inlined into the MCDS's one walk over a cycle's events, where a
    // call per matching event cost as much as the rest of the walk.
    #[inline(always)]
    pub fn weight(&self, rec: &EventRecord) -> u64 {
        if let Some(src) = self.source {
            if rec.source != src {
                return 0;
            }
        }
        use EventClass as C;
        use PerfEvent as E;
        match (self.class, &rec.event) {
            (C::Cycles, _) => 0, // cycles are counted by the clock, not events
            (C::InstrRetired, E::InstrRetired { count }) => u64::from(*count),
            (
                C::IcacheHit,
                E::CacheHit {
                    cache: CacheId::Instruction,
                },
            ) => 1,
            (
                C::IcacheMiss,
                E::CacheMiss {
                    cache: CacheId::Instruction,
                },
            ) => 1,
            (
                C::DcacheHit,
                E::CacheHit {
                    cache: CacheId::Data,
                },
            ) => 1,
            (
                C::DcacheMiss,
                E::CacheMiss {
                    cache: CacheId::Data,
                },
            ) => 1,
            (C::FlashBufferHit(want), E::FlashBufferHit { port }) => {
                u64::from(want.is_none() || want == Some(*port))
            }
            (C::FlashBufferMiss(want), E::FlashBufferMiss { port }) => {
                u64::from(want.is_none() || want == Some(*port))
            }
            (C::FlashCodeFetch, E::FlashCodeFetch) => 1,
            (C::FlashPortConflict, E::FlashPortConflict { .. }) => 1,
            (C::DataAccess { region, kind }, E::DataAccess { region: r, kind: k }) => {
                u64::from(region == *r && (kind.is_none() || kind == Some(*k)))
            }
            (C::BusContention, E::BusContention { .. }) => 1,
            (C::BusGrant, E::BusGrant { .. }) => 1,
            (C::IrqRaised, E::IrqRaised { .. }) => 1,
            (C::IrqTaken, E::IrqTaken { .. }) => 1,
            (C::DmaBeat, E::DmaBeat { .. }) => 1,
            (C::Stall(want), E::Stall { reason }) => {
                u64::from(want.is_none() || want == Some(*reason))
            }
            (C::FlowChange, E::FlowChange { .. }) => 1,
            (C::DebugMarker(want), E::DebugMarker { code }) => {
                u64::from(want.is_none() || want == Some(*code))
            }
            _ => 0,
        }
    }

    /// Contribution per cycle independent of events (only `Cycles` has one).
    #[must_use]
    pub fn per_cycle_weight(&self) -> u64 {
        u64::from(self.class == EventClass::Cycles)
    }

    /// The [`Kind`] bits of every event this selector can weigh above
    /// zero: a superset prefilter of [`EventSelector::weight`], which
    /// stays the one definition of what matches.
    pub(crate) fn kind_mask(&self) -> u32 {
        use EventClass as C;
        use Kind as K;
        match self.class {
            C::Cycles => 0,
            C::InstrRetired => K::InstrRetired.bit(),
            C::IcacheHit | C::DcacheHit => K::CacheHit.bit(),
            C::IcacheMiss | C::DcacheMiss => K::CacheMiss.bit(),
            C::FlashBufferHit(_) => K::FlashBufferHit.bit(),
            C::FlashBufferMiss(_) => K::FlashBufferMiss.bit(),
            C::FlashCodeFetch => K::FlashCodeFetch.bit(),
            C::FlashPortConflict => K::FlashPortConflict.bit(),
            C::DataAccess { .. } => K::DataAccess.bit(),
            C::BusContention => K::BusContention.bit(),
            C::BusGrant => K::BusGrant.bit(),
            C::IrqRaised => K::IrqRaised.bit(),
            C::IrqTaken => K::IrqTaken.bit(),
            C::DmaBeat => K::DmaBeat.bit(),
            C::Stall(_) => K::Stall.bit(),
            C::FlowChange => K::FlowChange.bit(),
            C::DebugMarker(_) => K::DebugMarker.bit(),
        }
    }
}

/// The variant of a [`PerfEvent`], one bit each in a `u32` mask: the MCDS
/// skips an event before any [`EventSelector::weight`] call when its bit
/// is in no selector's [`EventSelector::kind_mask`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    InstrRetired,
    FlowChange,
    BranchNotTaken,
    CacheHit,
    CacheMiss,
    DataAccess,
    FlashCodeFetch,
    FlashBufferHit,
    FlashBufferMiss,
    FlashPrefetch,
    FlashPortConflict,
    BusContention,
    BusGrant,
    IrqRaised,
    IrqTaken,
    DmaBeat,
    DmaDone,
    PcpChannelStart,
    PcpChannelExit,
    Stall,
    DataValue,
    DebugMarker,
}

const _: () = assert!(
    (Kind::DebugMarker as u32) < u32::BITS,
    "one mask bit per kind"
);

impl Kind {
    /// The variant of `event`.
    pub(crate) fn of(event: &PerfEvent) -> Kind {
        use PerfEvent as E;
        match event {
            E::InstrRetired { .. } => Kind::InstrRetired,
            E::FlowChange { .. } => Kind::FlowChange,
            E::BranchNotTaken { .. } => Kind::BranchNotTaken,
            E::CacheHit { .. } => Kind::CacheHit,
            E::CacheMiss { .. } => Kind::CacheMiss,
            E::DataAccess { .. } => Kind::DataAccess,
            E::FlashCodeFetch => Kind::FlashCodeFetch,
            E::FlashBufferHit { .. } => Kind::FlashBufferHit,
            E::FlashBufferMiss { .. } => Kind::FlashBufferMiss,
            E::FlashPrefetch => Kind::FlashPrefetch,
            E::FlashPortConflict { .. } => Kind::FlashPortConflict,
            E::BusContention { .. } => Kind::BusContention,
            E::BusGrant { .. } => Kind::BusGrant,
            E::IrqRaised { .. } => Kind::IrqRaised,
            E::IrqTaken { .. } => Kind::IrqTaken,
            E::DmaBeat { .. } => Kind::DmaBeat,
            E::DmaDone { .. } => Kind::DmaDone,
            E::PcpChannelStart { .. } => Kind::PcpChannelStart,
            E::PcpChannelExit { .. } => Kind::PcpChannelExit,
            E::Stall { .. } => Kind::Stall,
            E::DataValue { .. } => Kind::DataValue,
            E::DebugMarker { .. } => Kind::DebugMarker,
        }
    }

    /// This kind's mask bit.
    pub(crate) const fn bit(self) -> u32 {
        1 << self as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audo_common::Cycle;

    fn rec(source: SourceId, event: PerfEvent) -> EventRecord {
        EventRecord {
            cycle: Cycle(0),
            source,
            event,
        }
    }

    #[test]
    fn source_filter_applies() {
        let sel = EventSelector::of(EventClass::InstrRetired).from(SourceId::TRICORE);
        assert_eq!(
            sel.weight(&rec(
                SourceId::TRICORE,
                PerfEvent::InstrRetired { count: 2 }
            )),
            2
        );
        assert_eq!(
            sel.weight(&rec(SourceId::PCP, PerfEvent::InstrRetired { count: 2 })),
            0
        );
        let any = EventSelector::of(EventClass::InstrRetired);
        assert_eq!(
            any.weight(&rec(SourceId::PCP, PerfEvent::InstrRetired { count: 2 })),
            2
        );
    }

    #[test]
    fn cache_selectors_distinguish_caches() {
        let ihit = EventSelector::of(EventClass::IcacheHit);
        let dhit = EventSelector::of(EventClass::DcacheHit);
        let e = rec(
            SourceId::TRICORE,
            PerfEvent::CacheHit {
                cache: CacheId::Instruction,
            },
        );
        assert_eq!(ihit.weight(&e), 1);
        assert_eq!(dhit.weight(&e), 0);
    }

    #[test]
    fn port_and_kind_filters() {
        let code_miss = EventSelector::of(EventClass::FlashBufferMiss(Some(FlashPort::Code)));
        let any_miss = EventSelector::of(EventClass::FlashBufferMiss(None));
        let e = rec(
            SourceId::PMU,
            PerfEvent::FlashBufferMiss {
                port: FlashPort::Data,
            },
        );
        assert_eq!(code_miss.weight(&e), 0);
        assert_eq!(any_miss.weight(&e), 1);

        use audo_common::events::MemRegion;
        let reads = EventSelector::of(EventClass::DataAccess {
            region: MemRegion::PFlash,
            kind: Some(AccessKind::Read),
        });
        let e = rec(
            SourceId::TRICORE,
            PerfEvent::DataAccess {
                region: MemRegion::PFlash,
                kind: AccessKind::Read,
            },
        );
        assert_eq!(reads.weight(&e), 1);
        let e2 = rec(
            SourceId::TRICORE,
            PerfEvent::DataAccess {
                region: MemRegion::Sram,
                kind: AccessKind::Read,
            },
        );
        assert_eq!(reads.weight(&e2), 0);
    }

    #[test]
    fn cycles_counts_per_cycle_not_per_event() {
        let sel = EventSelector::of(EventClass::Cycles);
        assert_eq!(sel.per_cycle_weight(), 1);
        assert_eq!(
            sel.weight(&rec(
                SourceId::TRICORE,
                PerfEvent::InstrRetired { count: 1 }
            )),
            0
        );
        assert_eq!(
            EventSelector::of(EventClass::InstrRetired).per_cycle_weight(),
            0
        );
    }

    /// One sample of every `PerfEvent` variant, several for variants a
    /// sub-filter can tell apart.
    fn every_event() -> Vec<PerfEvent> {
        use audo_common::events::{FlowKind, MemRegion, StallReason};
        use audo_common::Addr;
        let regions = [
            MemRegion::PFlash,
            MemRegion::DFlash,
            MemRegion::Sram,
            MemRegion::Pspr,
            MemRegion::Dspr,
            MemRegion::Emem,
            MemRegion::Periph,
        ];
        let kinds = [AccessKind::Fetch, AccessKind::Read, AccessKind::Write];
        let ports = [FlashPort::Code, FlashPort::Data];
        let caches = [CacheId::Instruction, CacheId::Data];
        let mut v = vec![
            PerfEvent::InstrRetired { count: 2 },
            PerfEvent::FlowChange {
                kind: FlowKind::Call,
                from: Addr(0x8000_0000),
                to: Addr(0x8000_0100),
            },
            PerfEvent::BranchNotTaken {
                at: Addr(0x8000_0004),
            },
            PerfEvent::FlashCodeFetch,
            PerfEvent::FlashPrefetch,
            PerfEvent::FlashPortConflict {
                loser: FlashPort::Data,
                waited: 1,
            },
            PerfEvent::BusContention {
                master: SourceId::DMA,
                waited: 2,
            },
            PerfEvent::BusGrant {
                master: SourceId::TRICORE,
            },
            PerfEvent::IrqRaised { srn: 1, prio: 4 },
            PerfEvent::IrqTaken { prio: 4 },
            PerfEvent::DmaBeat { channel: 0 },
            PerfEvent::DmaDone { channel: 0 },
            PerfEvent::PcpChannelStart { channel: 1 },
            PerfEvent::PcpChannelExit { channel: 1 },
            PerfEvent::DataValue {
                addr: Addr(0xD000_0000),
                value: 7,
                kind: AccessKind::Write,
                size: 4,
            },
            PerfEvent::DebugMarker { code: 3 },
            PerfEvent::DebugMarker { code: 9 },
        ];
        v.extend(caches.map(|cache| PerfEvent::CacheHit { cache }));
        v.extend(caches.map(|cache| PerfEvent::CacheMiss { cache }));
        v.extend(ports.map(|port| PerfEvent::FlashBufferHit { port }));
        v.extend(ports.map(|port| PerfEvent::FlashBufferMiss { port }));
        v.extend(StallReason::ALL.map(|reason| PerfEvent::Stall { reason }));
        for region in regions {
            v.extend(kinds.map(|kind| PerfEvent::DataAccess { region, kind }));
        }
        v
    }

    /// Every `EventClass`, with each value of its `Option` sub-filter.
    fn every_class() -> Vec<EventClass> {
        use audo_common::events::{MemRegion, StallReason};
        let mut v = vec![
            EventClass::Cycles,
            EventClass::InstrRetired,
            EventClass::IcacheHit,
            EventClass::IcacheMiss,
            EventClass::DcacheHit,
            EventClass::DcacheMiss,
            EventClass::FlashCodeFetch,
            EventClass::FlashPortConflict,
            EventClass::BusContention,
            EventClass::BusGrant,
            EventClass::IrqRaised,
            EventClass::IrqTaken,
            EventClass::DmaBeat,
            EventClass::FlowChange,
            EventClass::Stall(None),
            EventClass::DebugMarker(None),
            EventClass::DebugMarker(Some(9)),
        ];
        for port in [None, Some(FlashPort::Code), Some(FlashPort::Data)] {
            v.push(EventClass::FlashBufferHit(port));
            v.push(EventClass::FlashBufferMiss(port));
        }
        v.extend(StallReason::ALL.map(|r| EventClass::Stall(Some(r))));
        for kind in [None, Some(AccessKind::Read), Some(AccessKind::Write)] {
            for region in [MemRegion::PFlash, MemRegion::Dspr, MemRegion::Periph] {
                v.push(EventClass::DataAccess { region, kind });
            }
        }
        v
    }

    #[test]
    fn kind_masks_are_a_superset_of_weight() {
        let events = every_event();
        let mut seen = 0u32;
        for e in &events {
            seen |= Kind::of(e).bit();
        }
        assert_eq!(
            seen,
            (Kind::DebugMarker.bit() << 1) - 1,
            "the samples cover every kind"
        );
        for class in every_class() {
            for source in [None, Some(SourceId::TRICORE), Some(SourceId::PMU)] {
                let sel = EventSelector { class, source };
                let mut matched = 0;
                for &event in &events {
                    for emitter in [SourceId::TRICORE, SourceId::PMU, SourceId::DMA] {
                        let w = sel.weight(&rec(emitter, event));
                        if w > 0 {
                            matched += 1;
                            assert_ne!(
                                sel.kind_mask() & Kind::of(&event).bit(),
                                0,
                                "{sel:?} weighs {event:?} but its mask skips it"
                            );
                        }
                    }
                }
                assert_eq!(
                    matched == 0,
                    class == EventClass::Cycles,
                    "{sel:?} matched {matched} samples"
                );
            }
        }
    }

    #[test]
    fn stall_reason_filter() {
        use audo_common::events::StallReason;
        let any = EventSelector::of(EventClass::Stall(None));
        let fetch = EventSelector::of(EventClass::Stall(Some(StallReason::Fetch)));
        let e = rec(
            SourceId::TRICORE,
            PerfEvent::Stall {
                reason: StallReason::Data,
            },
        );
        assert_eq!(any.weight(&e), 1);
        assert_eq!(fetch.weight(&e), 0);
    }
}

//! The interrupt router: service request nodes (SRNs) with priority and
//! destination routing.
//!
//! As on AUDO-class devices, every peripheral event raises a *service
//! request node*, and each SRN is programmed with a priority and a service
//! provider: the TriCore CPU, a PCP channel, or a DMA channel. That routing
//! flexibility is exactly what enables the HW/SW-partitioning experiments:
//! the same ADC event can interrupt the CPU, start a PCP program, or kick a
//! DMA transfer, without the peripheral knowing the difference.

use audo_common::{Cycle, EventSink, PerfEvent, SourceId};

/// Number of service request nodes.
pub const N_SRN: usize = 32;

// The pending set is one `u32` bit per SRN.
const _: () = assert!(N_SRN <= 32);

/// Well-known SRN assignments.
pub mod srn {
    /// System timer compare 0.
    pub const STM0: u8 = 0;
    /// System timer compare 1.
    pub const STM1: u8 = 1;
    /// ADC conversion complete.
    pub const ADC: u8 = 2;
    /// CAN message received.
    pub const CAN: u8 = 3;
    /// Crank-wheel tooth event.
    pub const CRANK: u8 = 4;
    /// Crank-wheel full-revolution (TDC) event.
    pub const TDC: u8 = 5;
    /// DMA channel `n` done (8 channels).
    pub const DMA_DONE0: u8 = 8;
    /// First software SRN (raised by `SRQ` on the PCP or by MMIO).
    pub const SOFT0: u8 = 16;
}

/// Who services a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// Interrupt the TriCore CPU at the SRN's priority.
    Cpu,
    /// Trigger a PCP channel.
    Pcp { channel: u8 },
    /// Trigger a DMA channel.
    Dma { channel: u8 },
}

/// One service request node's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrnConfig {
    /// Arbitration priority (1..=255; higher wins; 0 never dispatches).
    pub prio: u8,
    /// Enable flag.
    pub enabled: bool,
    /// Routing destination.
    pub service: Service,
}

impl Default for SrnConfig {
    fn default() -> SrnConfig {
        SrnConfig {
            prio: 0,
            enabled: false,
            service: Service::Cpu,
        }
    }
}

/// The interrupt router.
#[derive(Debug, Clone)]
pub struct IrqRouter {
    cfg: [SrnConfig; N_SRN],
    /// Pending requests, bit `i` = SRN `i`.
    pending: u32,
}

impl Default for IrqRouter {
    fn default() -> IrqRouter {
        IrqRouter::new()
    }
}

impl IrqRouter {
    /// Creates a router with all SRNs disabled.
    #[must_use]
    pub fn new() -> IrqRouter {
        IrqRouter {
            cfg: [SrnConfig::default(); N_SRN],
            pending: 0,
        }
    }

    /// Programs one SRN.
    ///
    /// # Panics
    ///
    /// Panics if `srn` is out of range.
    pub fn configure(&mut self, srn: u8, cfg: SrnConfig) {
        self.cfg[srn as usize] = cfg;
    }

    /// Returns one SRN's configuration.
    #[must_use]
    pub fn config(&self, srn: u8) -> SrnConfig {
        self.cfg[srn as usize]
    }

    /// Raises a service request (idempotent while pending).
    ///
    /// A number past the last SRN raises nothing: guests name SRNs in
    /// 8-bit fields (a DMA channel's done SRN, the PCP's `SRQ`), and a
    /// write to a missing SRC register is ignored the same way.
    pub fn raise(&mut self, srn: u8, now: Cycle, sink: &mut EventSink) {
        let Some(&c) = self.cfg.get(usize::from(srn)) else {
            return;
        };
        if !c.enabled {
            return;
        }
        let bit = 1u32 << srn;
        if self.pending & bit == 0 {
            self.pending |= bit;
            sink.emit(
                now,
                SourceId::IRQ,
                PerfEvent::IrqRaised { srn, prio: c.prio },
            );
        }
    }

    /// Resolves non-CPU routings: consumes every pending request
    /// destined for a PCP or DMA channel and hands its destination to
    /// `route`, in ascending SRN order. Walks only the pending bits; call
    /// once per cycle.
    pub fn dispatch(&mut self, mut route: impl FnMut(Service)) {
        for i in set_bits(self.pending) {
            let service = self.cfg[i].service;
            if service != Service::Cpu {
                self.pending &= !(1 << i);
                route(service);
            }
        }
    }

    /// The highest-priority pending CPU interrupt, if any.
    #[must_use]
    pub fn cpu_pending(&self) -> Option<u8> {
        self.iter_cpu_pending().map(|(_, prio)| prio).max()
    }

    /// Acknowledges (clears) the pending CPU request of priority `prio`.
    /// If several share the priority, the lowest-numbered SRN wins.
    pub fn acknowledge_cpu(&mut self, prio: u8) {
        let hit = self.iter_cpu_pending().find(|&(_, p)| p == prio);
        if let Some((idx, _)) = hit {
            self.pending &= !(1 << idx);
        }
    }

    /// Pending CPU requests as `(srn, prio)`, in ascending SRN order.
    fn iter_cpu_pending(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        set_bits(self.pending).filter_map(|i| {
            let c = self.cfg[i];
            (c.prio > 0 && matches!(c.service, Service::Cpu)).then_some((i, c.prio))
        })
    }
}

/// Indices of the set bits of `mask`, ascending; empty (no work) when
/// `mask` is 0.
fn set_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> EventSink {
        EventSink::new()
    }

    /// Requests that were raised (each emits one `IrqRaised` event).
    fn raised(s: &EventSink) -> usize {
        s.records()
            .iter()
            .filter(|r| matches!(r.event, PerfEvent::IrqRaised { .. }))
            .count()
    }

    /// Consumes the pending PCP/DMA requests, in dispatch order.
    fn dispatched(r: &mut IrqRouter) -> Vec<Service> {
        let mut out = Vec::new();
        r.dispatch(|s| out.push(s));
        out
    }

    #[test]
    fn disabled_srn_ignores_raise() {
        let mut r = IrqRouter::new();
        let mut s = sink();
        r.raise(3, Cycle(0), &mut s);
        assert_eq!(r.cpu_pending(), None);
        assert_eq!(raised(&s), 0);
    }

    #[test]
    fn highest_priority_wins() {
        let mut r = IrqRouter::new();
        let mut s = sink();
        r.configure(
            0,
            SrnConfig {
                prio: 5,
                enabled: true,
                service: Service::Cpu,
            },
        );
        r.configure(
            1,
            SrnConfig {
                prio: 9,
                enabled: true,
                service: Service::Cpu,
            },
        );
        r.raise(0, Cycle(0), &mut s);
        r.raise(1, Cycle(0), &mut s);
        assert_eq!(r.cpu_pending(), Some(9));
        r.acknowledge_cpu(9);
        assert_eq!(r.cpu_pending(), Some(5));
        r.acknowledge_cpu(5);
        assert_eq!(r.cpu_pending(), None);
    }

    #[test]
    fn raise_is_idempotent_while_pending() {
        let mut r = IrqRouter::new();
        let mut s = sink();
        r.configure(
            0,
            SrnConfig {
                prio: 1,
                enabled: true,
                service: Service::Cpu,
            },
        );
        r.raise(0, Cycle(0), &mut s);
        r.raise(0, Cycle(1), &mut s);
        assert_eq!(raised(&s), 1);
        r.acknowledge_cpu(1);
        r.raise(0, Cycle(2), &mut s);
        assert_eq!(raised(&s), 2);
    }

    #[test]
    fn pcp_and_dma_routing_dispatches() {
        let mut r = IrqRouter::new();
        let mut s = sink();
        r.configure(
            2,
            SrnConfig {
                prio: 3,
                enabled: true,
                service: Service::Pcp { channel: 4 },
            },
        );
        r.configure(
            3,
            SrnConfig {
                prio: 3,
                enabled: true,
                service: Service::Dma { channel: 1 },
            },
        );
        r.raise(2, Cycle(0), &mut s);
        r.raise(3, Cycle(0), &mut s);
        assert_eq!(
            dispatched(&mut r),
            [Service::Pcp { channel: 4 }, Service::Dma { channel: 1 }]
        );
        assert_eq!(
            r.cpu_pending(),
            None,
            "non-CPU requests never reach the CPU"
        );
        assert_eq!(dispatched(&mut r), [], "consumed");
    }

    fn cpu(prio: u8) -> SrnConfig {
        SrnConfig {
            prio,
            enabled: true,
            service: Service::Cpu,
        }
    }

    #[test]
    fn mask_edges_srn_0_and_31() {
        let mut r = IrqRouter::new();
        let mut s = sink();
        r.configure(0, cpu(2));
        r.configure(31, cpu(9));
        r.raise(0, Cycle(0), &mut s);
        r.raise(31, Cycle(0), &mut s);
        assert_eq!(raised(&s), 2);
        assert_eq!(r.cpu_pending(), Some(9));
        r.acknowledge_cpu(9);
        assert_eq!(r.cpu_pending(), Some(2));
        r.acknowledge_cpu(2);
        assert_eq!(r.cpu_pending(), None);
        // Both bits are clear again: a new raise counts and emits.
        r.raise(31, Cycle(1), &mut s);
        assert_eq!(raised(&s), 3);
        assert_eq!(s.records().len(), 3);
    }

    #[test]
    fn equal_priority_acknowledges_lowest_srn_first() {
        let mut r = IrqRouter::new();
        let mut s = sink();
        r.configure(20, cpu(4));
        r.configure(6, cpu(4));
        r.raise(20, Cycle(0), &mut s);
        r.raise(6, Cycle(0), &mut s);
        r.acknowledge_cpu(4);
        // SRN 6 was consumed: raising it again counts, SRN 20 does not.
        r.raise(20, Cycle(1), &mut s);
        assert_eq!(raised(&s), 2, "SRN 20 still pending");
        r.raise(6, Cycle(1), &mut s);
        assert_eq!(raised(&s), 3, "SRN 6 was acknowledged");
        r.acknowledge_cpu(4);
        r.acknowledge_cpu(4);
        assert_eq!(r.cpu_pending(), None);
    }

    #[test]
    fn pcp_and_dma_triggers_come_out_in_ascending_srn_order() {
        let mut r = IrqRouter::new();
        let mut s = sink();
        let routes = [
            (31, Service::Pcp { channel: 1 }),
            (5, Service::Dma { channel: 7 }),
            (17, Service::Pcp { channel: 6 }),
            (0, Service::Pcp { channel: 3 }),
            (30, Service::Dma { channel: 2 }),
            (12, Service::Cpu),
        ];
        for (srn, service) in routes {
            r.configure(
                srn,
                SrnConfig {
                    prio: 1,
                    enabled: true,
                    service,
                },
            );
        }
        // Raise in an order unrelated to the SRN numbers.
        for srn in [17, 30, 12, 31, 0, 5] {
            r.raise(srn, Cycle(0), &mut s);
        }
        assert_eq!(
            dispatched(&mut r),
            [
                Service::Pcp { channel: 3 },
                Service::Dma { channel: 7 },
                Service::Pcp { channel: 6 },
                Service::Dma { channel: 2 },
                Service::Pcp { channel: 1 },
            ]
        );
        assert_eq!(r.cpu_pending(), Some(1), "the CPU request stays pending");
        assert_eq!(dispatched(&mut r), []);
    }

    #[test]
    fn disabled_srn_never_sets_a_bit() {
        let mut r = IrqRouter::new();
        let mut s = sink();
        for srn in [0, 9, 31] {
            r.configure(
                srn,
                SrnConfig {
                    enabled: false,
                    ..cpu(5)
                },
            );
            r.raise(srn, Cycle(0), &mut s);
        }
        r.configure(
            10,
            SrnConfig {
                prio: 1,
                enabled: false,
                service: Service::Pcp { channel: 0 },
            },
        );
        r.raise(10, Cycle(0), &mut s);
        assert_eq!(r.pending, 0);
        assert_eq!(raised(&s), 0);
        assert!(s.records().is_empty());
        // Enabling later does not resurrect the dropped requests.
        r.configure(9, cpu(5));
        assert_eq!(r.cpu_pending(), None);
        assert_eq!(dispatched(&mut r), []);
    }

    #[test]
    fn events_report_raises() {
        let mut r = IrqRouter::new();
        let mut s = sink();
        r.configure(
            7,
            SrnConfig {
                prio: 2,
                enabled: true,
                service: Service::Cpu,
            },
        );
        r.raise(7, Cycle(42), &mut s);
        assert!(matches!(
            s.records()[0].event,
            PerfEvent::IrqRaised { srn: 7, prio: 2 }
        ));
    }
}

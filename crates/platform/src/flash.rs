//! Program-flash timing: wait states, read/prefetch buffers, and code/data
//! port arbitration.
//!
//! The paper (§4) singles the CPU→flash path out as "the main lever to
//! increase the CPU system performance for the real application" and lists
//! its complexity drivers: caches, pre-fetch buffers *for*, and arbitration
//! *between*, the code and data ports of the flash. This module models
//! exactly those mechanisms:
//!
//! * a single flash bank that needs [`FlashConfig::wait_states`] cycles per
//!   line read and can serve one read at a time,
//! * [`FlashConfig::read_buffers`] line buffers with LRU replacement,
//! * optional sequential next-line prefetch launched when the bank is idle,
//! * a configurable arbitration policy between the code and data ports.

use audo_common::events::FlashPort;
use audo_common::{Addr, Cycle, EventSink, PerfEvent, SourceId};

use crate::config::{FlashConfig, PortArbitration};

#[derive(Debug, Clone, Copy, Default)]
struct LineBuf {
    tag: u32,
    valid: bool,
    lru: u64,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    tag: u32,
    ready_at: Cycle,
    /// Launched by the prefetcher; abortable by a demand miss.
    speculative: bool,
}

/// Timing model of the embedded program flash (the PMU).
#[derive(Debug, Clone)]
pub struct FlashTiming {
    cfg: FlashConfig,
    bufs: Vec<LineBuf>,
    in_flight: Option<InFlight>,
    bank_busy_until: Cycle,
    last_data_activity: Cycle,
    last_code_activity: Cycle,
    last_winner: Option<FlashPort>,
    tick: u64,
    /// The most recently touched or installed line (the valid buffer with
    /// the highest `lru`, since every touch and install takes a new tick).
    mru_tag: Option<u32>,
    /// The first cycle at which [`FlashTiming::step`] can act: the
    /// in-flight fill's completion, the end of a busy bank, or never once
    /// nothing is left to prefetch (the MRU line's successor buffered, or
    /// prefetch off). Only `access` changes the fill, the bank or the
    /// buffers outside `step`, and it sets this to the fill's completion
    /// or the bank's free cycle.
    step_due: Cycle,
    // Ground-truth counters.
    buffer_hits: u64,
    buffer_misses: u64,
    prefetches: u64,
}

impl FlashTiming {
    /// Creates the timing model.
    #[must_use]
    pub fn new(cfg: FlashConfig) -> FlashTiming {
        let n = cfg.read_buffers.max(1);
        FlashTiming {
            cfg,
            bufs: vec![LineBuf::default(); n],
            in_flight: None,
            bank_busy_until: Cycle::ZERO,
            last_data_activity: Cycle::ZERO,
            last_code_activity: Cycle::ZERO,
            last_winner: None,
            tick: 0,
            mru_tag: None,
            step_due: Cycle::ZERO,
            buffer_hits: 0,
            buffer_misses: 0,
            prefetches: 0,
        }
    }

    fn tag_of(&self, addr: Addr) -> u32 {
        addr.0 / self.cfg.line_bytes
    }

    fn find_buf(&mut self, tag: u32) -> Option<usize> {
        self.bufs.iter().position(|b| b.valid && b.tag == tag)
    }

    fn touch(&mut self, idx: usize) {
        self.tick += 1;
        self.bufs[idx].lru = self.tick;
        self.mru_tag = Some(self.bufs[idx].tag);
    }

    fn install(&mut self, tag: u32) {
        self.mru_tag = Some(tag);
        self.tick += 1;
        let tick = self.tick;
        let victim = self
            .bufs
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| if b.valid { b.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("at least one buffer");
        self.bufs[victim] = LineBuf {
            tag,
            valid: true,
            lru: tick,
        };
    }

    /// Completes a finished in-flight fill (call once per access/cycle).
    fn retire_fill(&mut self, now: Cycle) {
        if let Some(f) = self.in_flight {
            if f.ready_at <= now {
                self.install(f.tag);
                self.in_flight = None;
            }
        }
    }

    /// Extra start delay the arbitration policy imposes on `port`.
    ///
    /// The request/response interface cannot retroactively preempt a fill
    /// that already promised a completion time, so policies are modeled as
    /// a deferral of the *disfavored* port while the favored port was
    /// recently active (within one wait-state window): the favored port's
    /// next request then wins the bank. Directionally faithful; absolute
    /// magnitudes are approximate (documented model limit).
    fn arbitration_penalty(&self, now: Cycle, port: FlashPort) -> u64 {
        const DEFER: u64 = 2;
        match self.cfg.arbitration {
            PortArbitration::CodeFirst => {
                if port == FlashPort::Data
                    && now.saturating_sub(self.last_code_activity) < self.cfg.wait_states
                {
                    DEFER
                } else {
                    0
                }
            }
            PortArbitration::DataFirst => {
                if port == FlashPort::Code
                    && now.saturating_sub(self.last_data_activity) < self.cfg.wait_states
                {
                    DEFER
                } else {
                    0
                }
            }
            PortArbitration::RoundRobin => {
                if self.last_winner == Some(port) {
                    1
                } else {
                    0
                }
            }
        }
    }

    /// Requests the line containing `addr` on the given port at cycle `now`.
    ///
    /// Returns the cycle the requested data is available. Emits buffer
    /// hit/miss, prefetch and port-conflict events into `sink` (attributed
    /// to the PMU).
    pub fn access(
        &mut self,
        now: Cycle,
        addr: Addr,
        port: FlashPort,
        sink: &mut EventSink,
    ) -> Cycle {
        let ready = self.serve(now, addr, port, sink);
        // The fill and the bank may have changed and the buffers have: no
        // step can act before the fill lands or the bank frees up.
        self.step_due = self.in_flight.map_or(self.bank_busy_until, |f| f.ready_at);
        ready
    }

    fn serve(&mut self, now: Cycle, addr: Addr, port: FlashPort, sink: &mut EventSink) -> Cycle {
        self.retire_fill(now);
        match port {
            FlashPort::Data => self.last_data_activity = now,
            FlashPort::Code => self.last_code_activity = now,
        }
        let tag = self.tag_of(addr);

        // Buffer hit: data already on the fast side.
        if let Some(idx) = self.find_buf(tag) {
            self.touch(idx);
            self.buffer_hits += 1;
            sink.emit(now, SourceId::PMU, PerfEvent::FlashBufferHit { port });
            self.maybe_prefetch(now, tag);
            self.last_winner = Some(port);
            return now;
        }

        // Hit on an in-flight (possibly speculative) fill: wait for it.
        if let Some(f) = self.in_flight {
            if f.tag == tag {
                self.buffer_hits += 1;
                sink.emit(now, SourceId::PMU, PerfEvent::FlashBufferHit { port });
                self.last_winner = Some(port);
                // The fill completes and installs; data flows through.
                return f.ready_at;
            }
        }

        // Miss: pay wait states behind whatever occupies the bank. A
        // speculative (prefetch) fill in flight is aborted immediately —
        // demand traffic always wins the bank.
        self.buffer_misses += 1;
        sink.emit(now, SourceId::PMU, PerfEvent::FlashBufferMiss { port });
        if self
            .in_flight
            .is_some_and(|f| f.speculative && f.ready_at > now)
        {
            self.in_flight = None;
            self.bank_busy_until = now;
        }
        let penalty = self.arbitration_penalty(now, port);
        let start = self.bank_busy_until.max(now) + penalty;
        let waited = start.saturating_sub(now);
        if waited > 0 && self.bank_busy_until > now {
            sink.emit(
                now,
                SourceId::PMU,
                PerfEvent::FlashPortConflict {
                    loser: port,
                    waited: waited.min(255) as u8,
                },
            );
        }
        // The bank serializes fills, so an earlier in-flight fill always
        // completes before this one starts; install it now rather than
        // losing it when we overwrite the in-flight slot.
        if let Some(old) = self.in_flight.take() {
            self.install(old.tag);
        }
        let ready = start + self.cfg.wait_states;
        self.bank_busy_until = ready;
        self.in_flight = Some(InFlight {
            tag,
            ready_at: ready,
            speculative: false,
        });
        self.last_winner = Some(port);
        ready
    }

    /// Launches a next-line prefetch now if the bank is idle.
    fn maybe_prefetch(&mut self, now: Cycle, tag: u32) {
        if !self.cfg.prefetch || self.in_flight.is_some() || self.bank_busy_until > now {
            return;
        }
        let next = tag + 1;
        if self.find_buf(next).is_some() {
            return;
        }
        let ready = now + self.cfg.wait_states;
        self.bank_busy_until = ready;
        self.in_flight = Some(InFlight {
            tag: next,
            ready_at: ready,
            speculative: true,
        });
        self.prefetches += 1;
    }

    /// Emits a [`PerfEvent::FlashPrefetch`] accounting event and runs the
    /// lazy prefetch engine; call once per cycle from the fabric. Before
    /// its due cycle a step does nothing: until a fill completes or the
    /// bank frees up, every step would find the bank occupied.
    #[inline]
    pub fn step(&mut self, now: Cycle, sink: &mut EventSink) {
        if now >= self.step_due {
            self.step_prefetch(now, sink);
        }
    }

    fn step_prefetch(&mut self, now: Cycle, sink: &mut EventSink) {
        self.retire_fill(now);
        if let Some(f) = self.in_flight {
            self.step_due = f.ready_at;
            return;
        }
        if self.bank_busy_until > now {
            self.step_due = self.bank_busy_until;
            return;
        }
        // Lazy sequential prefetch: if the bank is idle and the most
        // recently used buffer's successor line is absent, fetch it.
        // Otherwise nothing changes until the next `access`.
        self.step_due = Cycle(u64::MAX);
        if !self.cfg.prefetch {
            return;
        }
        let Some(mru) = self.mru_tag else {
            return;
        };
        let next = mru + 1;
        if self.find_buf(next).is_some() {
            return;
        }
        let ready = now + self.cfg.wait_states;
        self.bank_busy_until = ready;
        self.in_flight = Some(InFlight {
            tag: next,
            ready_at: ready,
            speculative: true,
        });
        self.step_due = ready;
        self.prefetches += 1;
        sink.emit(now, SourceId::PMU, PerfEvent::FlashPrefetch);
    }

    /// Lifetime `(buffer_hits, buffer_misses, prefetches)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.buffer_hits, self.buffer_misses, self.prefetches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FlashConfig {
        FlashConfig {
            wait_states: 5,
            line_bytes: 32,
            read_buffers: 2,
            prefetch: false,
            arbitration: PortArbitration::CodeFirst,
        }
    }

    #[test]
    fn miss_pays_wait_states_hit_is_free() {
        let mut f = FlashTiming::new(cfg());
        let mut sink = EventSink::new();
        let r = f.access(Cycle(10), Addr(0x8000_0000), FlashPort::Code, &mut sink);
        assert_eq!(r, Cycle(15));
        // Same line once the fill completed: free.
        let r = f.access(Cycle(20), Addr(0x8000_001C), FlashPort::Code, &mut sink);
        assert_eq!(r, Cycle(20));
        assert_eq!(f.stats().0, 1);
        assert_eq!(f.stats().1, 1);
    }

    #[test]
    fn back_to_back_misses_serialize_on_the_bank() {
        let mut f = FlashTiming::new(cfg());
        let mut sink = EventSink::new();
        let r1 = f.access(Cycle(0), Addr(0x0000), FlashPort::Code, &mut sink);
        let r2 = f.access(Cycle(1), Addr(0x0100), FlashPort::Data, &mut sink);
        assert_eq!(r1, Cycle(5));
        // Waits for the bank (5) plus the CodeFirst deferral of the data
        // port while code is active (+2).
        assert_eq!(r2, Cycle(12), "second miss waits for the bank + deferral");
        let conflicts = sink
            .records()
            .iter()
            .filter(|e| matches!(e.event, PerfEvent::FlashPortConflict { .. }))
            .count();
        assert_eq!(conflicts, 1);
    }

    #[test]
    fn lru_buffer_replacement() {
        let mut f = FlashTiming::new(cfg());
        let mut sink = EventSink::new();
        // Fill lines A and B (2 buffers).
        f.access(Cycle(0), Addr(0x000), FlashPort::Code, &mut sink);
        f.access(Cycle(10), Addr(0x100), FlashPort::Code, &mut sink);
        // Touch A so B becomes LRU.
        f.access(Cycle(20), Addr(0x004), FlashPort::Code, &mut sink);
        // Fill C: evicts B.
        f.access(Cycle(30), Addr(0x200), FlashPort::Code, &mut sink);
        let r = f.access(Cycle(40), Addr(0x000), FlashPort::Code, &mut sink);
        assert_eq!(r, Cycle(40), "A still buffered");
        let r = f.access(Cycle(50), Addr(0x100), FlashPort::Code, &mut sink);
        assert_eq!(r, Cycle(55), "B was evicted");
    }

    #[test]
    fn prefetch_hides_sequential_latency() {
        let mut pf_cfg = cfg();
        pf_cfg.prefetch = true;
        let mut f = FlashTiming::new(pf_cfg);
        let mut sink = EventSink::new();
        // Demand-miss line 0.
        let r0 = f.access(Cycle(0), Addr(0x000), FlashPort::Code, &mut sink);
        assert_eq!(r0, Cycle(5));
        // Give the prefetcher idle cycles to run.
        for c in 6..20 {
            f.step(Cycle(c), &mut sink);
        }
        // Line 1 should now be buffered (prefetched).
        let r1 = f.access(Cycle(20), Addr(0x020), FlashPort::Code, &mut sink);
        assert_eq!(r1, Cycle(20), "sequential line served from prefetch buffer");
        assert!(f.stats().2 >= 1, "prefetch counted");
    }

    #[test]
    fn access_after_an_idle_decision_rearms_the_prefetch() {
        let mut pf_cfg = cfg();
        pf_cfg.prefetch = true;
        let mut f = FlashTiming::new(pf_cfg);
        let mut sink = EventSink::new();
        // Lines 1 then 0 demand-filled: the MRU line 0's successor is
        // buffered, so the prefetcher finds nothing to do.
        f.access(Cycle(0), Addr(0x020), FlashPort::Code, &mut sink);
        f.access(Cycle(5), Addr(0x000), FlashPort::Code, &mut sink);
        for c in 6..20 {
            f.step(Cycle(c), &mut sink);
        }
        assert_eq!(f.step_due, Cycle(u64::MAX), "nothing left to prefetch");
        assert_eq!(f.stats().2, 0);
        // A demand miss on line 5: once it lands, line 6 is missing.
        assert_eq!(
            f.access(Cycle(20), Addr(0x0A0), FlashPort::Code, &mut sink),
            Cycle(25)
        );
        assert_eq!(f.step_due, Cycle(25), "an access re-arms the prefetcher");
        for c in 21..31 {
            f.step(Cycle(c), &mut sink);
        }
        assert_eq!(f.stats().2, 2, "lines 6 and 7 prefetched");
        assert!(sink
            .records()
            .iter()
            .any(|r| r.event == PerfEvent::FlashPrefetch && r.cycle == Cycle(25)));
        assert_eq!(
            f.access(Cycle(31), Addr(0x0C0), FlashPort::Code, &mut sink),
            Cycle(31),
            "line 6 served from the prefetch buffer"
        );
    }

    #[test]
    fn gated_step_matches_stepping_every_cycle() {
        let arbitrations = [
            PortArbitration::CodeFirst,
            PortArbitration::DataFirst,
            PortArbitration::RoundRobin,
        ];
        for (k, arbitration) in arbitrations.into_iter().enumerate() {
            for read_buffers in 1..=3 {
                for wait_states in [0, 1, 5] {
                    for prefetch in [false, true] {
                        let cfg = FlashConfig {
                            wait_states,
                            line_bytes: 32,
                            read_buffers,
                            prefetch,
                            arbitration,
                        };
                        let mut gated = FlashTiming::new(cfg.clone());
                        let mut every = FlashTiming::new(cfg);
                        let (mut sink_g, mut sink_e) = (EventSink::new(), EventSink::new());
                        let mut x = 0x2545_F491_u32 + k as u32;
                        let mut pc = 0u32;
                        for c in 0..4_000u64 {
                            x ^= x << 13;
                            x ^= x >> 17;
                            x ^= x << 5;
                            if x.is_multiple_of(5) {
                                // Mostly sequential code, some jumps, some data.
                                let (addr, port) = match x % 7 {
                                    0 => ((x % 0x400) & !3, FlashPort::Data),
                                    1 => {
                                        pc = (x % 0x800) & !3;
                                        (pc, FlashPort::Code)
                                    }
                                    _ => {
                                        pc += 8;
                                        (pc, FlashPort::Code)
                                    }
                                };
                                let now = Cycle(c);
                                assert_eq!(
                                    gated.access(now, Addr(addr), port, &mut sink_g),
                                    every.access(now, Addr(addr), port, &mut sink_e),
                                    "cycle {c}"
                                );
                            }
                            gated.step(Cycle(c), &mut sink_g);
                            every.step_prefetch(Cycle(c), &mut sink_e);
                            let scanned = every
                                .bufs
                                .iter()
                                .filter(|b| b.valid)
                                .max_by_key(|b| b.lru)
                                .map(|b| b.tag);
                            assert_eq!(every.mru_tag, scanned, "cycle {c}");
                        }
                        assert_eq!(gated.stats(), every.stats());
                        assert_eq!(sink_g.records(), sink_e.records());
                        assert_eq!(every.stats().2 > 0, prefetch, "prefetches ran");
                    }
                }
            }
        }
    }

    #[test]
    fn round_robin_penalizes_repeat_winner() {
        let mut rr = cfg();
        rr.arbitration = PortArbitration::RoundRobin;
        let mut f = FlashTiming::new(rr);
        let mut sink = EventSink::new();
        let r1 = f.access(Cycle(0), Addr(0x000), FlashPort::Code, &mut sink);
        // Next code miss after the bank idles: +1 penalty for repeating.
        let r2 = f.access(r1 + 10, Addr(0x200), FlashPort::Code, &mut sink);
        assert_eq!(r2, Cycle(5 + 10 + 1 + 5));
    }

    #[test]
    fn data_first_penalizes_code_near_data_activity() {
        let mut df = cfg();
        df.arbitration = PortArbitration::DataFirst;
        let mut f = FlashTiming::new(df);
        let mut sink = EventSink::new();
        f.access(Cycle(100), Addr(0x000), FlashPort::Data, &mut sink);
        // Code fetch right after data activity is deferred on top of
        // waiting for the bank.
        let r = f.access(Cycle(101), Addr(0x400), FlashPort::Code, &mut sink);
        assert_eq!(r, Cycle(105 + 2 + 5));
    }

    #[test]
    fn in_flight_fill_serves_second_requester() {
        let mut f = FlashTiming::new(cfg());
        let mut sink = EventSink::new();
        let r1 = f.access(Cycle(0), Addr(0x000), FlashPort::Code, &mut sink);
        // Data port asks for the same line while the fill is in flight.
        let r2 = f.access(Cycle(2), Addr(0x010), FlashPort::Data, &mut sink);
        assert_eq!(r1, r2, "both wait for the same fill");
        assert_eq!(f.stats(), (1, 1, 0));
    }
}

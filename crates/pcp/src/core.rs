//! The PCP-R execution engine: 8 event-triggered channels sharing one
//! single-issue datapath.
//!
//! Service requests routed to the PCP set a channel *pending*; the engine
//! picks the lowest-numbered pending channel, restores its register context
//! from PRAM (costing [`PcpConfig::ctx_switch_cycles`]), runs its program at
//! one instruction per cycle (stalling on FPI/crossbar accesses), and on
//! `EXIT` saves the context back and services the next pending channel.
//! This is the "software partitioning between TriCore and PCP" substrate
//! the paper's introduction refers to.

use audo_common::{Addr, Cycle, EventSink, PerfEvent, SimError, SourceId};

use crate::isa::{PReg, PcpInstr};

/// Number of channels.
pub const CHANNELS: usize = 8;
/// Registers per channel context.
pub const CTX_REGS: usize = 8;

// One bit per channel in `Pcp::pending`.
const _: () = assert!(CHANNELS <= u8::BITS as usize);

/// The pending-mask bit of service-request channel `ch`. An SRC's channel
/// field is 8 bits wide; like the DMA engine's, the channel number wraps
/// at [`CHANNELS`].
#[must_use]
#[inline]
pub fn channel_bit(ch: u8) -> u8 {
    1 << (usize::from(ch) % CHANNELS)
}

/// A timed word-access port to the system crossbar, as seen by the PCP.
pub trait PcpBus {
    /// Reads a 32-bit word; returns the value and its arrival cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses.
    fn read(&mut self, now: Cycle, addr: Addr) -> Result<(u32, Cycle), SimError>;

    /// Writes a 32-bit word; returns the acceptance cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses.
    fn write(&mut self, now: Cycle, addr: Addr, value: u32) -> Result<Cycle, SimError>;
}

/// Timing configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcpConfig {
    /// Cycles to save or restore one channel context.
    pub ctx_switch_cycles: u64,
    /// CMEM size in words.
    pub cmem_words: usize,
    /// PRAM size in words.
    pub pram_words: usize,
}

impl Default for PcpConfig {
    fn default() -> PcpConfig {
        PcpConfig {
            ctx_switch_cycles: 2,
            cmem_words: 4096,
            pram_words: 2048,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Channel {
    entry: u16,
    enabled: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    /// Restoring a context; running starts at `until`.
    Switching {
        ch: u8,
        until: Cycle,
    },
    Running {
        ch: u8,
        pc: u16,
    },
    /// Stalled on an FPI access; resume at `until`.
    Waiting {
        ch: u8,
        pc: u16,
        until: Cycle,
    },
    /// Saving a context after EXIT.
    Saving {
        until: Cycle,
    },
}

/// What one PCP step produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcpStep {
    /// The PCP raised this service request (via `SRQ`).
    pub raised_srn: Option<u8>,
    /// An instruction retired this cycle.
    pub retired: bool,
}

/// The PCP-R engine.
#[derive(Debug, Clone)]
pub struct Pcp {
    cfg: PcpConfig,
    cmem: Vec<u32>,
    pram: Vec<u32>,
    regs: [[u32; CTX_REGS]; CHANNELS],
    channels: [Channel; CHANNELS],
    /// Pending channels, bit `c` for channel `c`.
    pending: u8,
    state: State,
    retired_total: u64,
    source: SourceId,
}

impl Pcp {
    /// Creates an idle PCP with zeroed memories.
    #[must_use]
    pub fn new(cfg: PcpConfig) -> Pcp {
        let cmem = vec![PcpInstr::Nop.encode(); cfg.cmem_words];
        let pram = vec![0; cfg.pram_words];
        Pcp {
            cfg,
            cmem,
            pram,
            regs: [[0; CTX_REGS]; CHANNELS],
            channels: [Channel::default(); CHANNELS],
            pending: 0,
            state: State::Idle,
            retired_total: 0,
            source: SourceId::PCP,
        }
    }

    /// Loads encoded program words at a CMEM word offset.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit.
    pub fn load_program(&mut self, base_word: u16, words: &[u32]) {
        let base = base_word as usize;
        assert!(
            base + words.len() <= self.cmem.len(),
            "program exceeds CMEM"
        );
        self.cmem[base..base + words.len()].copy_from_slice(words);
    }

    /// Configures a channel's entry point and enables it.
    pub fn setup_channel(&mut self, ch: u8, entry_word: u16) {
        let c = &mut self.channels[ch as usize];
        c.entry = entry_word;
        c.enabled = true;
    }

    /// Marks a channel pending (service request arrival); the channel
    /// number wraps as in [`channel_bit`].
    pub fn trigger(&mut self, ch: u8) {
        let bit = channel_bit(ch);
        if self.channels[bit.trailing_zeros() as usize].enabled {
            self.pending |= bit;
        }
    }

    /// `true` while any channel is pending or executing.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.state != State::Idle || self.pending != 0
    }

    /// Total instructions retired since reset.
    #[must_use]
    pub fn retired_total(&self) -> u64 {
        self.retired_total
    }

    /// Reads a channel register (test/inspection aid).
    #[must_use]
    pub fn reg(&self, ch: u8, r: PReg) -> u32 {
        self.regs[ch as usize][r.0 as usize]
    }

    /// Reads a PRAM word.
    #[must_use]
    pub fn pram(&self, idx: u16) -> u32 {
        self.pram[idx as usize]
    }

    /// Advances the PCP by one cycle. An idle PCP with nothing pending
    /// returns at once.
    ///
    /// # Errors
    ///
    /// Returns decode errors and FPI access faults.
    #[inline]
    pub fn step<B: PcpBus>(
        &mut self,
        now: Cycle,
        bus: &mut B,
        sink: &mut EventSink,
    ) -> Result<PcpStep, SimError> {
        if self.state == State::Idle && self.pending == 0 {
            return Ok(PcpStep::default());
        }
        self.step_busy(now, bus, sink)
    }

    fn step_busy<B: PcpBus>(
        &mut self,
        now: Cycle,
        bus: &mut B,
        sink: &mut EventSink,
    ) -> Result<PcpStep, SimError> {
        let mut out = PcpStep::default();
        match self.state {
            State::Idle => {
                // The lowest-numbered pending channel wins.
                // reason: `pending` is non-zero here, so the count is < 8.
                #[allow(clippy::cast_possible_truncation)]
                let ch = self.pending.trailing_zeros() as u8;
                self.pending &= !(1 << ch);
                self.state = State::Switching {
                    ch,
                    until: now + self.cfg.ctx_switch_cycles,
                };
                sink.emit(now, self.source, PerfEvent::PcpChannelStart { channel: ch });
            }
            State::Switching { ch, until } => {
                if now >= until {
                    let pc = self.channels[ch as usize].entry;
                    self.state = State::Running { ch, pc };
                    // Falls through to execute next cycle (restore finished).
                }
            }
            State::Waiting { ch, pc, until } => {
                if now >= until {
                    self.state = State::Running { ch, pc };
                }
            }
            State::Saving { until } => {
                if now >= until {
                    self.state = State::Idle;
                }
            }
            State::Running { ch, pc } => {
                out = self.exec_one(now, ch, pc, bus, sink)?;
            }
        }
        Ok(out)
    }

    fn exec_one<B: PcpBus>(
        &mut self,
        now: Cycle,
        ch: u8,
        pc: u16,
        bus: &mut B,
        sink: &mut EventSink,
    ) -> Result<PcpStep, SimError> {
        use PcpInstr::*;
        let mut out = PcpStep::default();
        let word = *self
            .cmem
            .get(pc as usize)
            .ok_or(SimError::UnmappedAddress {
                addr: Addr(u32::from(pc) * 4),
            })?;
        let instr = PcpInstr::decode(word, Addr(u32::from(pc) * 4))?;
        let chi = ch as usize;
        let mut next_pc = pc.wrapping_add(1);
        let mut next_state: Option<State> = None;

        macro_rules! r {
            ($r:expr) => {
                self.regs[chi][$r.0 as usize]
            };
        }

        match instr {
            Ldi { r1, imm } => r!(r1) = u32::from(imm),
            Ldih { r1, imm } => r!(r1) = (u32::from(imm) << 16) | (r!(r1) & 0xFFFF),
            Add { r1, r2 } => r!(r1) = r!(r1).wrapping_add(r!(r2)),
            Addi { r1, imm } => r!(r1) = r!(r1).wrapping_add(imm as i32 as u32),
            Sub { r1, r2 } => r!(r1) = r!(r1).wrapping_sub(r!(r2)),
            And { r1, r2 } => r!(r1) &= r!(r2),
            Or { r1, r2 } => r!(r1) |= r!(r2),
            Xor { r1, r2 } => r!(r1) ^= r!(r2),
            Shl { r1, imm } => r!(r1) <<= imm,
            Shr { r1, imm } => r!(r1) >>= imm,
            Mul { r1, r2 } => r!(r1) = r!(r1).wrapping_mul(r!(r2)),
            Min { r1, r2 } => r!(r1) = (r!(r1) as i32).min(r!(r2) as i32) as u32,
            Max { r1, r2 } => r!(r1) = (r!(r1) as i32).max(r!(r2) as i32) as u32,
            Ld { r1, r2, off } => {
                let addr = Addr(r!(r2).wrapping_add(off as i32 as u32));
                let (value, ready) = bus.read(now, addr)?;
                r!(r1) = value;
                if ready > now {
                    next_state = Some(State::Waiting {
                        ch,
                        pc: next_pc,
                        until: ready,
                    });
                }
            }
            St { r1, r2, off } => {
                let addr = Addr(r!(r2).wrapping_add(off as i32 as u32));
                let accepted = bus.write(now, addr, r!(r1))?;
                if accepted > now {
                    next_state = Some(State::Waiting {
                        ch,
                        pc: next_pc,
                        until: accepted,
                    });
                }
            }
            Ldp { r1, idx } => {
                r!(r1) = *self
                    .pram
                    .get(idx as usize)
                    .ok_or(SimError::UnmappedAddress {
                        addr: Addr(u32::from(idx) * 4),
                    })?;
            }
            Stp { r1, idx } => {
                let v = r!(r1);
                *self
                    .pram
                    .get_mut(idx as usize)
                    .ok_or(SimError::UnmappedAddress {
                        addr: Addr(u32::from(idx) * 4),
                    })? = v;
            }
            Jmp { target } => next_pc = target,
            Jnz { r1, target } => {
                if r!(r1) != 0 {
                    next_pc = target;
                }
            }
            Jz { r1, target } => {
                if r!(r1) == 0 {
                    next_pc = target;
                }
            }
            Srq { srn } => out.raised_srn = Some(srn),
            Exit => {
                sink.emit(now, self.source, PerfEvent::PcpChannelExit { channel: ch });
                next_state = Some(State::Saving {
                    until: now + self.cfg.ctx_switch_cycles,
                });
            }
            Nop => {}
        }

        self.retired_total += 1;
        out.retired = true;
        sink.emit(now, self.source, PerfEvent::InstrRetired { count: 1 });
        self.state = next_state.unwrap_or(State::Running { ch, pc: next_pc });
        Ok(out)
    }
}

/// A zero-latency [`PcpBus`] over a plain array, for unit tests.
#[derive(Debug, Default)]
pub struct TestPcpBus {
    /// Word storage keyed by address.
    pub words: std::collections::HashMap<u32, u32>,
}

impl PcpBus for TestPcpBus {
    fn read(&mut self, now: Cycle, addr: Addr) -> Result<(u32, Cycle), SimError> {
        Ok((*self.words.get(&addr.0).unwrap_or(&0), now))
    }

    fn write(&mut self, now: Cycle, addr: Addr, value: u32) -> Result<Cycle, SimError> {
        self.words.insert(addr.0, value);
        Ok(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ProgramBuilder;

    fn run_until_idle(pcp: &mut Pcp, bus: &mut TestPcpBus, max: u64) -> (u64, Vec<u8>) {
        let mut sink = EventSink::new();
        let mut srns = Vec::new();
        for cyc in 0..max {
            let s = pcp.step(Cycle(cyc), bus, &mut sink).expect("no fault");
            if let Some(srn) = s.raised_srn {
                srns.push(srn);
            }
            if !pcp.is_busy() {
                return (cyc, srns);
            }
        }
        panic!("PCP did not go idle in {max} cycles");
    }

    #[test]
    fn channel_runs_countdown_program() {
        let mut b = ProgramBuilder::new();
        b.push(PcpInstr::Ldi {
            r1: PReg(0),
            imm: 10,
        });
        b.push(PcpInstr::Ldi {
            r1: PReg(1),
            imm: 0,
        });
        let head = b.label();
        b.push(PcpInstr::Addi {
            r1: PReg(1),
            imm: 3,
        });
        b.push(PcpInstr::Addi {
            r1: PReg(0),
            imm: -1,
        });
        b.jnz(PReg(0), head);
        b.push(PcpInstr::Exit);
        let words = b.finish(0);

        let mut pcp = Pcp::new(PcpConfig::default());
        pcp.load_program(0, &words);
        pcp.setup_channel(2, 0);
        pcp.trigger(2);
        let mut bus = TestPcpBus::default();
        run_until_idle(&mut pcp, &mut bus, 1000);
        assert_eq!(pcp.reg(2, PReg(1)), 30);
        assert_eq!(pcp.reg(2, PReg(0)), 0);
    }

    #[test]
    fn fpi_load_store_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.push(PcpInstr::Ldi {
            r1: PReg(2),
            imm: 0x0100,
        });
        b.push(PcpInstr::Ldih {
            r1: PReg(2),
            imm: 0xF000,
        });
        b.push(PcpInstr::Ld {
            r1: PReg(0),
            r2: PReg(2),
            off: 0,
        });
        b.push(PcpInstr::Addi {
            r1: PReg(0),
            imm: 1,
        });
        b.push(PcpInstr::St {
            r1: PReg(0),
            r2: PReg(2),
            off: 4,
        });
        b.push(PcpInstr::Exit);
        let words = b.finish(0);

        let mut pcp = Pcp::new(PcpConfig::default());
        pcp.load_program(0, &words);
        pcp.setup_channel(0, 0);
        pcp.trigger(0);
        let mut bus = TestPcpBus::default();
        bus.words.insert(0xF000_0100, 41);
        run_until_idle(&mut pcp, &mut bus, 1000);
        assert_eq!(bus.words[&0xF000_0104], 42);
    }

    #[test]
    fn pram_persists_across_activations() {
        // Channel increments a PRAM counter each activation.
        let mut b = ProgramBuilder::new();
        b.push(PcpInstr::Ldp {
            r1: PReg(0),
            idx: 5,
        });
        b.push(PcpInstr::Addi {
            r1: PReg(0),
            imm: 1,
        });
        b.push(PcpInstr::Stp {
            r1: PReg(0),
            idx: 5,
        });
        b.push(PcpInstr::Exit);
        let words = b.finish(0);

        let mut pcp = Pcp::new(PcpConfig::default());
        pcp.load_program(0, &words);
        pcp.setup_channel(1, 0);
        let mut bus = TestPcpBus::default();
        for _ in 0..3 {
            pcp.trigger(1);
            run_until_idle(&mut pcp, &mut bus, 1000);
        }
        assert_eq!(pcp.pram(5), 3);
    }

    #[test]
    fn lower_channel_number_wins_arbitration() {
        let mut b = ProgramBuilder::new();
        b.push(PcpInstr::Srq { srn: 7 });
        b.push(PcpInstr::Exit);
        let p0 = b.finish(0);
        let mut b = ProgramBuilder::new();
        b.push(PcpInstr::Srq { srn: 9 });
        b.push(PcpInstr::Exit);
        let p1 = b.finish(10);

        let mut pcp = Pcp::new(PcpConfig::default());
        pcp.load_program(0, &p0);
        pcp.load_program(10, &p1);
        pcp.setup_channel(3, 0);
        pcp.setup_channel(5, 10);
        pcp.trigger(5);
        pcp.trigger(3);
        let mut bus = TestPcpBus::default();
        let (_, srns) = run_until_idle(&mut pcp, &mut bus, 1000);
        assert_eq!(srns, vec![7, 9], "channel 3 must run before channel 5");
    }

    #[test]
    fn disabled_channel_ignores_triggers() {
        let mut pcp = Pcp::new(PcpConfig::default());
        pcp.trigger(4);
        assert!(!pcp.is_busy());
    }

    #[test]
    fn pending_mask_serves_lowest_first_and_skips_disabled() {
        let mut b = ProgramBuilder::new();
        b.push(PcpInstr::Exit);
        let words = b.finish(0);
        let mut pcp = Pcp::new(PcpConfig::default());
        pcp.load_program(0, &words);
        pcp.setup_channel(6, 0);
        pcp.setup_channel(1, 0);
        // One cycle's triggers: channel 4 was never enabled.
        pcp.trigger(6);
        pcp.trigger(4);
        pcp.trigger(1);
        let mut bus = TestPcpBus::default();
        let mut sink = EventSink::new();
        let mut cyc = 0;
        while pcp.is_busy() {
            pcp.step(Cycle(cyc), &mut bus, &mut sink).unwrap();
            cyc += 1;
            assert!(cyc < 1000);
        }
        let starts: Vec<u8> = sink
            .records()
            .iter()
            .filter_map(|r| match r.event {
                PerfEvent::PcpChannelStart { channel } => Some(channel),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![1, 6]);
        // Idle with nothing pending: a step does nothing.
        let before = sink.records().len();
        let out = pcp.step(Cycle(cyc), &mut bus, &mut sink).unwrap();
        assert_eq!(out, PcpStep::default());
        assert_eq!(sink.records().len(), before);
    }

    #[test]
    fn slow_bus_stalls_the_channel() {
        struct SlowBus(TestPcpBus);
        impl PcpBus for SlowBus {
            fn read(&mut self, now: Cycle, addr: Addr) -> Result<(u32, Cycle), SimError> {
                let (v, _) = self.0.read(now, addr)?;
                Ok((v, now + 20))
            }
            fn write(&mut self, now: Cycle, addr: Addr, v: u32) -> Result<Cycle, SimError> {
                self.0.write(now, addr, v)
            }
        }
        let mut b = ProgramBuilder::new();
        b.push(PcpInstr::Ld {
            r1: PReg(0),
            r2: PReg(1),
            off: 0,
        });
        b.push(PcpInstr::Exit);
        let words = b.finish(0);
        let mut pcp = Pcp::new(PcpConfig::default());
        pcp.load_program(0, &words);
        pcp.setup_channel(0, 0);
        pcp.trigger(0);
        let mut bus = SlowBus(TestPcpBus::default());
        let mut sink = EventSink::new();
        let mut cyc = 0;
        while pcp.is_busy() {
            pcp.step(Cycle(cyc), &mut bus, &mut sink).unwrap();
            cyc += 1;
            assert!(cyc < 1000);
        }
        assert!(cyc > 20, "bus stall not modeled: {cyc} cycles");
    }

    #[test]
    fn retire_events_attributed_to_pcp_source() {
        let mut b = ProgramBuilder::new();
        b.push(PcpInstr::Nop);
        b.push(PcpInstr::Exit);
        let words = b.finish(0);
        let mut pcp = Pcp::new(PcpConfig::default());
        pcp.load_program(0, &words);
        pcp.setup_channel(0, 0);
        pcp.trigger(0);
        let mut bus = TestPcpBus::default();
        let mut sink = EventSink::new();
        let mut cyc = 0;
        while pcp.is_busy() {
            pcp.step(Cycle(cyc), &mut bus, &mut sink).unwrap();
            cyc += 1;
        }
        let recs = sink.records();
        assert!(recs.iter().all(|r| r.source == SourceId::PCP));
        assert!(recs
            .iter()
            .any(|r| matches!(r.event, PerfEvent::PcpChannelStart { channel: 0 })));
        assert!(recs
            .iter()
            .any(|r| matches!(r.event, PerfEvent::PcpChannelExit { channel: 0 })));
        assert_eq!(pcp.retired_total(), 2);
    }
}

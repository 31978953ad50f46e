//! Full-SoC composition: TriCore + PCP + fabric, stepped cycle by cycle.
//!
//! [`Soc::advance`] advances the whole product chip one CPU clock and
//! exposes everything an Emulation Extension Chip could observe that
//! cycle: the performance events and the bus transactions. The ED crate
//! feeds these into the MCDS; a production part simply drops them. The
//! observation buffers are reused from cycle to cycle, so the steady-state
//! cycle allocates nothing; [`Soc::step`] returns an owned copy for
//! callers that keep observations.

use audo_common::{Addr, BusTransaction, Cycle, EventRecord, EventSink, SimError, SourceId};
use audo_pcp::Pcp;
use audo_tricore::arch::{init_csa_list, ArchMem};
use audo_tricore::pipeline::Core;
use audo_tricore::Image;

use crate::config::SocConfig;
use crate::fabric::{Fabric, PcpPort};

/// Number of CSA frames [`Soc::load_image`] links into the free list
/// (top 3 KiB of the DSPR). Public: the static CSA-depth analyzer uses
/// the same number as its default overflow budget.
pub const CSA_AREAS: u32 = 48;

/// Observation of one SoC cycle.
#[derive(Debug, Clone, Default)]
pub struct CycleObservation {
    /// The cycle that was executed.
    pub cycle: Cycle,
    /// Performance events from all blocks.
    pub events: Vec<EventRecord>,
    /// Bus transactions granted this cycle.
    pub bus: Vec<BusTransaction>,
    /// Instructions the TriCore retired this cycle.
    pub tricore_retired: u8,
    /// The TriCore has executed `HALT`.
    pub halted: bool,
}

/// The simulated product chip.
#[derive(Debug)]
pub struct Soc {
    /// The TriCore-class main CPU.
    pub tricore: Core,
    /// The PCP co-processor.
    pub pcp: Pcp,
    /// Interconnect, memories and peripherals.
    pub fabric: Fabric,
    /// Interrupts the TriCore accepted (device-side ground truth; the
    /// fleet veto needs it to loosen per-block cycle envelopes soundly).
    pub irqs_taken: u64,
    core_sink: EventSink,
    clock: Cycle,
    obs: CycleObservation,
}

impl Soc {
    /// Builds a SoC from a configuration (reset PC = flash base; load an
    /// image to set the real entry).
    #[must_use]
    pub fn new(cfg: SocConfig) -> Soc {
        let cpu_cfg = cfg.cpu.clone();
        let pcp_cfg = cfg.pcp.clone();
        let fabric = Fabric::new(cfg);
        Soc {
            tricore: Core::new(cpu_cfg, crate::config::PFLASH_BASE, SourceId::TRICORE),
            pcp: Pcp::new(pcp_cfg),
            fabric,
            irqs_taken: 0,
            core_sink: EventSink::new(),
            clock: Cycle::ZERO,
            obs: CycleObservation::default(),
        }
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.clock
    }

    /// Enables or disables event observation (a production SoC without the
    /// Emulation Extension Chip runs with observation off).
    pub fn set_observation(&mut self, enabled: bool) {
        self.core_sink.set_enabled(enabled);
        self.fabric.sink.set_enabled(enabled);
    }

    /// Samples the SoC's hardware counters into an observability registry.
    ///
    /// All values are the simulator-internal ground-truth counters the
    /// blocks maintain anyway (cache hits/misses, flash buffer activity,
    /// crossbar grants and contention, DMA beats, retired instructions on
    /// both cores), so sampling costs nothing during the run itself. The
    /// registry's time stamp is advanced to the SoC clock.
    pub fn export_obs(&self, reg: &mut audo_obs::Registry) {
        reg.stamp(self.clock.0);
        reg.sample("soc.cycles", self.clock.0);
        reg.sample(
            "soc.tricore.instructions_retired",
            self.tricore.retired_total(),
        );
        reg.sample("soc.pcp.instructions_retired", self.pcp.retired_total());
        let (hits, misses) = self.fabric.icache.stats();
        reg.sample("soc.icache.hits", hits);
        reg.sample("soc.icache.misses", misses);
        let (hits, misses) = self.fabric.dcache.stats();
        reg.sample("soc.dcache.hits", hits);
        reg.sample("soc.dcache.misses", misses);
        let (buf_hits, buf_misses, prefetches) = self.fabric.flash.stats();
        reg.sample("soc.flash.buffer_hits", buf_hits);
        reg.sample("soc.flash.buffer_misses", buf_misses);
        reg.sample("soc.flash.prefetches", prefetches);
        let (grants, contended) = self.fabric.xbar.stats();
        reg.sample("soc.xbar.grants", grants);
        reg.sample("soc.xbar.contended_grants", contended);
        reg.sample("soc.dma.beats", self.fabric.dma_beats());
        // Pipeline cycle decomposition: every cycle is either a retire
        // cycle or a stall cycle charged to exactly one cause, so these
        // counters explain the IPC gauge below.
        let p = self.tricore.stats();
        for reason in audo_common::events::StallReason::ALL {
            reg.sample(
                &format!("soc.tricore.stall.{}", reason.key()),
                p.stalls(reason),
            );
        }
        reg.sample("soc.tricore.retire_cycles", p.retire_cycles);
        reg.sample(
            "soc.tricore.csa_depth_peak",
            u64::from(self.tricore.arch().csa_depth_peak),
        );
        reg.sample("soc.tricore.irqs_taken", self.irqs_taken);
        reg.sample("soc.tricore.flushes", p.flushes);
        reg.sample("soc.tricore.mispredicts", p.mispredicts);
        reg.sample("soc.tricore.loop_buffer.replays", p.loop_buffer_replays);
        reg.sample(
            "soc.tricore.loop_buffer.invalidations",
            p.loop_buffer_invalidations,
        );
        reg.sample("soc.tricore.predecode.hits", p.predecode.hits);
        reg.sample("soc.tricore.predecode.misses", p.predecode.misses);
        reg.sample(
            "soc.tricore.predecode.invalidations",
            p.predecode.invalidations,
        );
        if self.clock.0 > 0 {
            let cycles = self.clock.0 as f64;
            reg.gauge(
                "soc.tricore.ipc",
                self.tricore.retired_total() as f64 / cycles,
            );
            reg.gauge(
                "soc.tricore.retire_fraction",
                p.retire_cycles as f64 / cycles,
            );
            reg.gauge(
                "soc.tricore.stall_fraction",
                p.stall_total() as f64 / cycles,
            );
        }
    }

    /// Loads a program image, initialises the CSA free list at the top of
    /// the DSPR, points the stack below it, and redirects the CPU to the
    /// image entry.
    ///
    /// # Errors
    ///
    /// Fails if the image does not fit the mapped memories.
    pub fn load_image(&mut self, image: &Image) -> Result<(), SimError> {
        struct Backdoor<'a>(&'a mut Fabric);
        impl ArchMem for Backdoor<'_> {
            fn read(&mut self, addr: Addr, size: u8) -> Result<u32, SimError> {
                self.0.peek(addr, size)
            }
            fn write(&mut self, addr: Addr, size: u8, value: u32) -> Result<(), SimError> {
                self.0.poke(addr, size, value)
            }
        }
        let dspr_top = crate::config::DSPR_BASE.0 + self.fabric.cfg.dspr_size.bytes() as u32;
        let csa_base = Addr(dspr_top - CSA_AREAS * 64);
        let mut bd = Backdoor(&mut self.fabric);
        image.load_into(&mut bd)?;
        let fcx = init_csa_list(&mut bd, csa_base, CSA_AREAS)?;
        let arch = self.tricore.arch_mut();
        arch.fcx = fcx;
        arch.a[10] = csa_base.0; // stack grows down from below the CSA list
        self.tricore.redirect(image.entry());
        Ok(())
    }

    /// Advances the SoC by one cycle and returns an owned copy of its
    /// observation ([`Soc::advance`] plus a clone).
    ///
    /// # Errors
    ///
    /// Propagates fatal faults from any master.
    pub fn step(&mut self) -> Result<CycleObservation, SimError> {
        self.advance().cloned()
    }

    /// Advances the SoC by one cycle and returns its observation, refilled
    /// in place (fabric events first, then core events): no allocation
    /// once the buffers have grown to the workload's per-cycle peak.
    ///
    /// # Errors
    ///
    /// Propagates fatal faults from any master.
    pub fn advance(&mut self) -> Result<&CycleObservation, SimError> {
        let now = self.clock;
        // Peripherals, DMA, interrupt dispatch.
        let mut pcp_triggers = self.fabric.step(now)?;
        while pcp_triggers != 0 {
            let ch = pcp_triggers.trailing_zeros() as u8;
            pcp_triggers &= pcp_triggers - 1;
            self.pcp.trigger(ch);
        }
        // PCP.
        let pcp_out = {
            let mut port = PcpPort(&mut self.fabric);
            self.pcp.step(now, &mut port, &mut self.core_sink)?
        };
        if let Some(srn) = pcp_out.raised_srn {
            let fabric = &mut self.fabric;
            let sink = &mut fabric.sink;
            fabric.irq.raise(srn, now, sink);
        }
        // TriCore.
        let irq = self.fabric.irq.cpu_pending();
        let out = self
            .tricore
            .step(now, &mut self.fabric, irq, &mut self.core_sink)?;
        if let Some(prio) = out.irq_taken {
            self.fabric.irq.acknowledge_cpu(prio);
            self.irqs_taken += 1;
        }
        self.clock += 1;

        let obs = &mut self.obs;
        obs.cycle = now;
        obs.events.clear();
        for sink in [&mut self.fabric.sink, &mut self.core_sink] {
            obs.events.extend_from_slice(sink.records());
            sink.clear();
        }
        obs.bus.clear();
        std::mem::swap(&mut obs.bus, &mut self.fabric.bus_obs);
        obs.tricore_retired = out.retired;
        obs.halted = out.halted;
        Ok(obs)
    }

    /// The observation of the most recent cycle (default before the
    /// first).
    #[must_use]
    pub fn last_observation(&self) -> &CycleObservation {
        &self.obs
    }

    /// Runs until `HALT` or `max_cycles`, feeding every observation to
    /// `on_cycle`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LimitExceeded`] at the cycle limit, or any fault.
    pub fn run<F: FnMut(&CycleObservation)>(
        &mut self,
        max_cycles: u64,
        mut on_cycle: F,
    ) -> Result<u64, SimError> {
        let start = self.clock;
        loop {
            if self.clock.saturating_sub(start) >= max_cycles {
                return Err(SimError::LimitExceeded {
                    what: "cycles",
                    limit: max_cycles,
                });
            }
            let obs = self.advance()?;
            let halted = obs.halted;
            on_cycle(obs);
            if halted {
                return Ok(self.clock - start);
            }
        }
    }

    /// Runs to `HALT` discarding observations (fast path for tests).
    ///
    /// # Errors
    ///
    /// See [`Soc::run`].
    pub fn run_to_halt(&mut self, max_cycles: u64) -> Result<u64, SimError> {
        self.run(max_cycles, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audo_common::PerfEvent;
    use audo_tricore::asm::assemble;

    fn soc_with(src: &str) -> Soc {
        let image = assemble(src).expect("assembles");
        let mut soc = Soc::new(SocConfig::default());
        soc.load_image(&image).expect("loads");
        soc
    }

    #[test]
    fn flash_resident_program_runs_to_halt() {
        let mut soc = soc_with(
            "
            .org 0x80000000
        _start:
            movi d0, 0
            movi d1, 100
        head:
            addi d0, d0, 1
            jne d0, d1, head
            halt
        ",
        );
        let cycles = soc.run_to_halt(100_000).unwrap();
        assert_eq!(soc.tricore.arch().d[0], 100);
        // ~300 retired instructions; flash + loop overhead keeps IPC sane.
        let ipc = soc.tricore.retired_total() as f64 / cycles as f64;
        assert!(
            ipc > 0.2 && ipc < 3.0,
            "IPC {ipc:.2} out of plausible range"
        );
    }

    #[test]
    fn scratchpad_code_is_faster_than_flash_code() {
        let body = "
        _start:
            movi d0, 0
            movi d1, 200
        head:
            addi d0, d0, 1
            jne d0, d1, head
            halt
        ";
        let mut flash = soc_with(&format!(".org 0x80000000\n{body}"));
        let mut pspr = soc_with(&format!(".org 0xC0000000\n{body}"));
        let t_flash = flash.run_to_halt(1_000_000).unwrap();
        let t_pspr = pspr.run_to_halt(1_000_000).unwrap();
        assert!(
            t_pspr <= t_flash,
            "scratchpad ({t_pspr}) must not be slower than flash ({t_flash})"
        );
    }

    #[test]
    fn observation_includes_cache_and_retire_events() {
        let mut soc = soc_with(
            "
            .org 0x80000000
        _start:
            movi d0, 50
        head:
            addi d0, d0, -1
            jnz d0, head
            halt
        ",
        );
        let mut retired = 0u64;
        let mut icache_events = 0u64;
        soc.run(100_000, |obs| {
            for e in &obs.events {
                match e.event {
                    PerfEvent::InstrRetired { count } => retired += u64::from(count),
                    PerfEvent::CacheHit { .. } | PerfEvent::CacheMiss { .. } => icache_events += 1,
                    _ => {}
                }
            }
        })
        .unwrap();
        assert_eq!(retired, soc.tricore.retired_total());
        assert!(
            icache_events > 0,
            "flash-resident code must exercise the I-cache"
        );
    }

    #[test]
    fn stm_interrupt_drives_handler() {
        let mut soc = soc_with(
            "
            .org 0x80000000
        _start:
            li d0, 0x80001000       ; BIV
            mtcr biv, d0
            ; STM compare0 at 500, reload 500
            la a2, 0xF0000000
            li d1, 500
            st.w d1, [a2+0x08]
            st.w d1, [a2+0x10]
            movi d2, 1
            st.w d2, [a2+0x18]      ; enable cmp0
            ; SRC 0: prio 4, enable, CPU
            la a3, 0xF0006000
            li d3, 0x104
            st.w d3, [a3]
            enable
            movi d5, 0
        spin:
            addi d5, d5, 1
            li d6, 100000
            jne d5, d6, spin
            halt

            ; priority-4 vector at BIV + 128
            .org 0x80001000 + 128
            addi d7, d7, 1          ; count interrupts
            rfe
        ",
        );
        soc.run_to_halt(2_000_000).unwrap();
        let handler_runs = soc.tricore.arch().d[7];
        assert!(
            handler_runs >= 3,
            "expected several STM ticks, got {handler_runs}"
        );
    }

    /// A PCP program that increments the word at `0x9000_0000`, raises
    /// `srq` if given, and exits.
    fn increment_sram_word(srq: Option<u8>) -> Vec<u32> {
        use audo_pcp::isa::{PReg, PcpInstr, ProgramBuilder};
        let mut b = ProgramBuilder::new();
        b.push(PcpInstr::Ldi {
            r1: PReg(1),
            imm: 0,
        });
        b.push(PcpInstr::Ldih {
            r1: PReg(1),
            imm: 0x9000,
        });
        b.push(PcpInstr::Ld {
            r1: PReg(0),
            r2: PReg(1),
            off: 0,
        });
        b.push(PcpInstr::Addi {
            r1: PReg(0),
            imm: 1,
        });
        b.push(PcpInstr::St {
            r1: PReg(0),
            r2: PReg(1),
            off: 0,
        });
        if let Some(srn) = srq {
            b.push(PcpInstr::Srq { srn });
        }
        b.push(PcpInstr::Exit);
        b.finish(0)
    }

    #[test]
    fn pcp_offload_roundtrip_via_srn() {
        // TriCore software-raises SRN 20 (routed to PCP ch 2); the PCP
        // program increments a word in SRAM and raises SRN 21 back to the
        // CPU (prio 6).
        let mut soc = soc_with(
            "
            .org 0x80000000
        _start:
            li d0, 0x80001000
            mtcr biv, d0
            ; SRC 20: enabled, dest PCP ch 2
            la a2, 0xF0006000 + 20*4
            li d1, 0x1301           ; prio 1, enable, svc=pcp, channel 2
            st.w d1, [a2]
            ; SRC 21: prio 6, enabled, CPU
            la a3, 0xF0006000 + 21*4
            li d2, 0x106
            st.w d2, [a3]
            enable
            ; trigger the PCP via SETR
            li d3, 0x80001301
            st.w d3, [a2]
        wait_loop:
            jz d7, wait_loop        ; d7 set by the ISR
            halt

            .org 0x80001000 + 6*32  ; prio 6 vector
            movi d7, 1
            rfe
        ",
        );
        soc.pcp.load_program(0, &increment_sram_word(Some(21)));
        soc.pcp.setup_channel(2, 0);
        soc.run_to_halt(1_000_000).unwrap();
        assert_eq!(
            soc.fabric.peek(Addr(0x9000_0000), 4).unwrap(),
            1,
            "PCP incremented SRAM"
        );
        assert_eq!(
            soc.tricore.arch().d[7],
            1,
            "CPU got the completion interrupt"
        );
    }

    /// A program that software-raises SRN 0 by storing `src` (with SETR
    /// set) to its SRC, then spins a while and halts.
    fn raise_src0(src: u32) -> Soc {
        soc_with(&format!(
            "
            .org 0x80000000
        _start:
            la a2, 0xF0006000
            li d1, {src:#x}
            st.w d1, [a2]
            movi d5, 0
            li d6, 200
        spin:
            addi d5, d5, 1
            jne d5, d6, spin
            halt
        "
        ))
    }

    #[test]
    fn pcp_channel_field_beyond_the_channel_count_wraps() {
        // SRC 0: prio 1, enabled, service PCP, channel field 9 = channel 1
        // after the wrap. Channel 1 increments a word in SRAM.
        let mut soc = raise_src0(0x8000_4B01);
        soc.pcp.load_program(0, &increment_sram_word(None));
        soc.pcp.setup_channel(1, 0);
        soc.run_to_halt(100_000).unwrap();
        assert_eq!(soc.fabric.peek(Addr(0x9000_0000), 4).unwrap(), 1);
        assert_eq!(soc.pcp.retired_total(), 6);
    }

    #[test]
    fn dma_channel_field_beyond_the_channel_count_wraps() {
        // The DMA twin of the test above: channel field 9 = DMA channel 1,
        // which is not enabled, so the request is dropped.
        let mut soc = raise_src0(0x8000_4D01);
        soc.run_to_halt(100_000).unwrap();
        assert_eq!(soc.fabric.dma_beats(), 0);
        assert_eq!(soc.tricore.arch().d[5], 200);
    }

    #[test]
    fn production_mode_observation_off_still_runs() {
        let mut soc = soc_with(".org 0x80000000\n_start: movi d0, 7\n halt\n");
        soc.set_observation(false);
        let mut total_events = 0;
        soc.run(100_000, |obs| total_events += obs.events.len())
            .unwrap();
        assert_eq!(total_events, 0);
        assert_eq!(soc.tricore.arch().d[0], 7);
    }
}

#[cfg(test)]
mod preemption_tests {
    use super::*;
    use audo_platform_test_helpers::*;

    mod audo_platform_test_helpers {
        pub use audo_tricore::asm::assemble;
    }

    /// A higher-priority interrupt must preempt a running lower-priority
    /// handler once that handler re-enables interrupts (TriCore-style
    /// nesting), and both must resume correctly through their CSA frames.
    ///
    /// Handlers communicate through DSPR memory: `D8..D14` are upper-context
    /// registers, so anything a handler leaves there is (correctly)
    /// restored away by `RFE`.
    #[test]
    fn nested_interrupt_preemption() {
        let src = "
            .equ NEST, 0xD0000300    ; [+0] fast count, [+4] preempt snapshot,
                                     ; [+8] slow-active flag, [+12] slow done
            .org 0x80000000
        _start:
            li d0, 0x80001000
            mtcr biv, d0
            ; STM cmp0 at 20000 (prio 3, slow task), cmp1 at 20300 (prio 7),
            ; both far beyond the flash-resident setup prologue
            la a2, 0xF0000000
            li d1, 20000
            st.w d1, [a2+0x08]
            li d1, 0
            st.w d1, [a2+0x10]       ; reload 0: effectively one-shot
            li d1, 20300
            st.w d1, [a2+0x0C]
            li d1, 0
            st.w d1, [a2+0x14]
            movi d2, 3
            st.w d2, [a2+0x18]       ; enable both compares
            la a3, 0xF0006000
            li d3, 0x103             ; SRN0 -> CPU prio 3
            st.w d3, [a3]
            li d3, 0x107             ; SRN1 -> CPU prio 7
            st.w d3, [a3+4]
            enable
        spin:
            addi d5, d5, 1
            li d6, 30000
            jne d5, d6, spin
            halt

            ; prio 3 vector
            .org 0x80001000 + 3*32
            j slow_handler
            ; prio 7 vector: fast handler
            .org 0x80001000 + 7*32
            j fast_handler

            .org 0x80001800
        slow_handler:
            la a12, NEST
            movi d8, 1
            st.w d8, [a12+8]         ; mark slow handler active
            enable                   ; allow nesting (like TriCore BISR)
            li d11, 1000             ; burn time so prio 7 arrives mid-handler
        slow_burn:
            addi d11, d11, -1
            jnz d11, slow_burn
            movi d8, 0
            st.w d8, [a12+8]
            ld.w d9, [a12+12]
            addi d9, d9, 1
            st.w d9, [a12+12]        ; count slow completions
            rfe

        fast_handler:
            la a12, NEST
            ld.w d9, [a12+0]
            addi d9, d9, 1
            st.w d9, [a12+0]         ; count fast activations
            ld.w d10, [a12+8]
            st.w d10, [a12+4]        ; snapshot: was the slow handler active?
            rfe
        ";
        let image = assemble(src).unwrap();
        let mut soc = Soc::new(SocConfig::default());
        soc.load_image(&image).unwrap();
        soc.run_to_halt(1_000_000).unwrap();
        let nest = 0xD000_0300u32;
        let word = |soc: &mut Soc, off: u32| soc.fabric.peek(Addr(nest + off), 4).unwrap();
        assert_eq!(
            word(&mut soc, 12),
            1,
            "slow handler completed despite preemption"
        );
        assert_eq!(word(&mut soc, 0), 1, "fast handler ran once");
        assert_eq!(
            word(&mut soc, 4),
            1,
            "fast handler preempted the slow one mid-flight"
        );
        let a = soc.tricore.arch();
        assert_eq!(a.icr_ccpn, 0, "priority fully unwound");
        assert!(a.d[5] >= 30000, "main loop resumed and finished");
    }
}

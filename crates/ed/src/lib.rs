//! The **Emulation Device**: the unchanged product chip plus the Emulation
//! Extension Chip (EEC) — MCDS and emulation memory — exactly the structure
//! of Fig. 4 in Mayer & Hellwig (DATE 2008).
//!
//! An [`EmulationDevice`] wraps an [`audo_platform::Soc`] and attaches:
//!
//! * a programmed [`audo_mcds::Mcds`] fed from the SoC's per-cycle
//!   observation stream (non-intrusive by construction: the SoC's behaviour
//!   is identical with and without the EEC),
//! * the **EMEM** emulation memory, partitioned between a trace region
//!   (managed by [`trace_ctrl::TraceController`]) and the calibration
//!   overlay pages,
//! * the Cerberus/Back Bone Bus tool-access path: [`EmulationDevice::tool_read`]
//!   and [`EmulationDevice::tool_write`] give the host functional access to
//!   target memory and EMEM; bandwidth budgeting lives in `audo-dap`.
//!
//! ```
//! use audo_ed::{EdConfig, EmulationDevice};
//! use audo_platform::config::SocConfig;
//! use audo_tricore::asm::assemble;
//!
//! let image = assemble(".org 0x80000000\n_start: movi d0, 1\n halt\n")?;
//! let mut ed = EmulationDevice::new(SocConfig::default(), EdConfig::default());
//! ed.soc.load_image(&image)?;
//! while !ed.step()?.halted {}
//! assert_eq!(ed.soc.tricore.arch().d[0], 1);
//! # Ok::<(), audo_common::SimError>(())
//! ```

pub mod tool_port;
pub mod trace_ctrl;

use audo_common::{Addr, Cycle, SimError};
use audo_mcds::Mcds;
use audo_platform::config::{SocConfig, EMEM_BASE};
use audo_platform::fabric::{Fabric, OvcEntry};
use audo_platform::soc::{CycleObservation, Soc};

pub use tool_port::CerberusPort;
pub use trace_ctrl::{Placement, TraceController, TraceMode};

/// Emulation Extension Chip configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdConfig {
    /// Bytes of EMEM dedicated to trace (the rest is calibration overlay).
    pub trace_bytes: u32,
    /// Trace-region full behaviour.
    pub trace_mode: TraceMode,
}

impl Default for EdConfig {
    /// Half of a 512 KiB EMEM for trace, ring mode.
    fn default() -> EdConfig {
        EdConfig {
            trace_bytes: 256 * 1024,
            trace_mode: TraceMode::Ring,
        }
    }
}

/// Result of stepping the Emulation Device one cycle.
#[derive(Debug, Clone)]
pub struct EdStep {
    /// The product chip's observation for this cycle (also what the MCDS
    /// saw) — available to testbenches as ground truth.
    pub obs: CycleObservation,
    /// Trace bytes the MCDS produced this cycle.
    pub trace_bytes: u32,
    /// The CPU has halted.
    pub halted: bool,
}

/// The Emulation Device: product chip + EEC.
#[derive(Debug)]
pub struct EmulationDevice {
    /// The unchanged product chip.
    pub soc: Soc,
    /// The MCDS instance (absent = observation discarded, like a production
    /// device).
    pub mcds: Option<Mcds>,
    /// Trace-region bookkeeping.
    pub trace: TraceController,
    /// Cerberus tool-port state (trace replay window for the framed
    /// DAP session protocol — see [`tool_port`]).
    pub tool_port: CerberusPort,
    cfg: EdConfig,
    scratch: Vec<u8>,
}

impl EmulationDevice {
    /// Builds an ED around a fresh SoC.
    ///
    /// # Panics
    ///
    /// Panics if the trace region exceeds the configured EMEM size.
    #[must_use]
    pub fn new(soc_cfg: SocConfig, cfg: EdConfig) -> EmulationDevice {
        assert!(
            u64::from(cfg.trace_bytes) <= soc_cfg.emem_size.bytes(),
            "trace region larger than EMEM"
        );
        EmulationDevice {
            soc: Soc::new(soc_cfg),
            mcds: None,
            trace: TraceController::new(cfg.trace_bytes.max(1), cfg.trace_mode),
            tool_port: CerberusPort::default(),
            cfg,
            scratch: Vec::new(),
        }
    }

    /// Installs a programmed MCDS (the tool writes the EEC configuration).
    pub fn program_mcds(&mut self, mcds: Mcds) {
        self.mcds = Some(mcds);
    }

    /// Samples the Emulation Device's counters into an observability
    /// registry: the product chip's counters ([`Soc::export_obs`]) plus the
    /// EEC-side trace-region bookkeeping (fill level, ring overwrites,
    /// total bytes produced, EMEM fill ratio).
    pub fn export_obs(&self, reg: &mut audo_obs::Registry) {
        self.soc.export_obs(reg);
        reg.sample("ed.trace.level_bytes", self.trace.level());
        reg.sample("ed.trace.capacity_bytes", self.trace.capacity());
        reg.sample("ed.trace.lost_bytes", self.trace.lost());
        reg.sample("ed.trace.total_written_bytes", self.trace.total_written());
        if self.trace.capacity() > 0 {
            reg.gauge(
                "ed.trace.fill_ratio",
                self.trace.level() as f64 / self.trace.capacity() as f64,
            );
        }
    }

    /// Byte offset inside EMEM where the calibration region starts.
    #[must_use]
    pub fn calibration_offset(&self) -> u32 {
        self.cfg.trace_bytes
    }

    /// Size of the calibration region in bytes.
    #[must_use]
    pub fn calibration_bytes(&self) -> u32 {
        (self.soc.fabric.cfg.emem_size.bytes() as u32).saturating_sub(self.cfg.trace_bytes)
    }

    /// Maps a flash page onto a calibration EMEM page and seeds it with the
    /// flash contents (so tuning starts from the programmed values).
    ///
    /// `slot` selects the OVC entry and the calibration page.
    ///
    /// # Errors
    ///
    /// Fails if the page would not fit the calibration region.
    pub fn map_calibration_page(&mut self, slot: usize, flash_page: u32) -> Result<(), SimError> {
        let page = self.soc.fabric.cfg.overlay_page;
        let cal_base = self.calibration_offset();
        let emem_off = cal_base + slot as u32 * page;
        if emem_off + page > self.soc.fabric.cfg.emem_size.bytes() as u32 {
            return Err(SimError::InvalidConfig {
                message: format!("calibration slot {slot} exceeds EMEM"),
            });
        }
        // Seed the overlay page with the underlying flash bytes.
        let flash_addr = Addr(audo_platform::config::PFLASH_BASE.0 + flash_page * page);
        let bytes = self.soc.fabric.peek_bytes(flash_addr, page as usize)?;
        self.soc
            .fabric
            .poke_bytes(EMEM_BASE.offset(emem_off), &bytes)?;
        self.soc.fabric.overlay.set_entry(
            slot,
            OvcEntry {
                enabled: true,
                flash_page,
                emem_page: emem_off / page,
            },
        );
        Ok(())
    }

    /// Advances the device one cycle and returns an owned copy of the
    /// product chip's observation ([`EmulationDevice::advance`] plus a
    /// clone of [`Soc::last_observation`]).
    ///
    /// # Errors
    ///
    /// Propagates SoC faults.
    pub fn step(&mut self) -> Result<EdStep, SimError> {
        let (trace_bytes, halted) = self.advance()?;
        Ok(EdStep {
            obs: self.soc.last_observation().clone(),
            trace_bytes,
            halted,
        })
    }

    /// Advances the device one cycle: SoC, then MCDS observation, then the
    /// trace controller. Returns `(trace bytes produced, halted)`; the
    /// cycle's observation stays readable through
    /// [`Soc::last_observation`]. Allocation-free in steady state.
    ///
    /// # Errors
    ///
    /// Propagates SoC faults.
    pub fn advance(&mut self) -> Result<(u32, bool), SimError> {
        let obs = self.soc.advance()?;
        let halted = obs.halted;
        self.scratch.clear();
        if let Some(mcds) = &mut self.mcds {
            mcds.observe(obs.cycle, &obs.events, &obs.bus, &mut self.scratch);
        }
        store_trace(&mut self.trace, &mut self.soc.fabric, &self.scratch)?;
        Ok((self.scratch.len() as u32, halted))
    }

    /// Downloads up to `max` trace bytes (host side, via Cerberus). The
    /// caller is responsible for charging the DAP budget.
    ///
    /// # Errors
    ///
    /// Propagates EMEM access faults (impossible with a well-formed config).
    pub fn drain_trace(&mut self, max: u32) -> Result<Vec<u8>, SimError> {
        let mut out = Vec::new();
        for p in self.trace.pop(max) {
            let piece = self
                .soc
                .fabric
                .peek_bytes(EMEM_BASE.offset(p.region_offset), p.len as usize)?;
            out.extend_from_slice(&piece);
        }
        Ok(out)
    }

    /// Functional tool read of target memory over the Back Bone Bus.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    pub fn tool_read(&mut self, addr: Addr, len: usize) -> Result<Vec<u8>, SimError> {
        self.soc.fabric.peek_bytes(addr, len)
    }

    /// Functional tool write of target memory over the Back Bone Bus
    /// (calibration tuning writes go through here).
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    pub fn tool_write(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), SimError> {
        self.soc.fabric.poke_bytes(addr, bytes)
    }

    /// Runs until `HALT` or `max_cycles`, invoking `on_step` per cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LimitExceeded`] at the cycle limit.
    pub fn run<F: FnMut(&EdStep)>(
        &mut self,
        max_cycles: u64,
        mut on_step: F,
    ) -> Result<u64, SimError> {
        let start = self.soc.now();
        loop {
            if self.soc.now().saturating_sub(start) >= max_cycles {
                return Err(SimError::LimitExceeded {
                    what: "cycles",
                    limit: max_cycles,
                });
            }
            let step = self.step()?;
            let halted = step.halted;
            on_step(&step);
            if halted {
                return Ok(self.soc.now() - start);
            }
        }
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.soc.now()
    }
}

/// Stores one cycle's trace `bytes` in the EMEM trace ring: one bulk copy
/// per ring piece (at most two, around the wrap).
fn store_trace(
    trace: &mut TraceController,
    fabric: &mut Fabric,
    bytes: &[u8],
) -> Result<(), SimError> {
    if bytes.is_empty() {
        return Ok(());
    }
    let mut consumed = 0usize;
    for p in trace.reserve(bytes.len() as u32) {
        let piece = &bytes[consumed..consumed + p.len as usize];
        fabric.poke_bytes(EMEM_BASE.offset(p.region_offset), piece)?;
        consumed += piece.len();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use audo_common::{PerfEvent, SourceId};
    use audo_mcds::select::{EventClass, EventSelector};
    use audo_mcds::{decode_stream, Basis, RateProbe, TraceMessage};
    use audo_tricore::asm::assemble;

    fn loaded_ed(src: &str, ed_cfg: EdConfig) -> EmulationDevice {
        let image = assemble(src).expect("assembles");
        let mut ed = EmulationDevice::new(SocConfig::default(), ed_cfg);
        ed.soc.load_image(&image).expect("loads");
        ed
    }

    const COUNT_LOOP: &str = "
        .org 0x80000000
    _start:
        movi d0, 0
        li d1, 2000
    head:
        addi d0, d0, 1
        jne d0, d1, head
        halt
    ";

    #[test]
    fn measured_ipc_matches_ground_truth_exactly() {
        let mut ed = loaded_ed(COUNT_LOOP, EdConfig::default());
        let mcds = Mcds::builder()
            .probe(RateProbe {
                event: EventSelector::of(EventClass::InstrRetired).from(SourceId::TRICORE),
                basis: Basis::Cycles(100),
                group: None,
            })
            .build()
            .unwrap();
        ed.program_mcds(mcds);
        let mut events = Vec::new();
        ed.run(1_000_000, |step| events.extend_from_slice(&step.obs.events))
            .unwrap();
        let trace = ed.drain_trace(ed.trace.level() as u32).unwrap();
        let msgs = decode_stream(&trace).unwrap();
        let measured: u64 = msgs
            .iter()
            .filter_map(|(_, m)| match m {
                TraceMessage::Counter { num, .. } => Some(*num),
                _ => None,
            })
            .sum();
        let truth: u64 = events
            .iter()
            .filter(|e| e.source == SourceId::TRICORE)
            .filter_map(|e| match e.event {
                PerfEvent::InstrRetired { count } => Some(u64::from(count)),
                _ => None,
            })
            .sum();
        // The measured windows cover all completed 100-cycle windows; the
        // final partial window is not reported.
        let tail_allowance = 300; // < 100 cycles x max 3 IPC
        assert!(
            measured <= truth && truth - measured < tail_allowance,
            "measured {measured} vs truth {truth}"
        );
        assert!(measured > 0);
    }

    #[test]
    fn trace_lands_in_emem_and_survives_roundtrip() {
        let mut ed = loaded_ed(
            COUNT_LOOP,
            EdConfig {
                trace_bytes: 64 * 1024,
                trace_mode: TraceMode::Linear,
            },
        );
        ed.program_mcds(Mcds::builder().program_trace().build().unwrap());
        let mut total = 0u32;
        ed.run(1_000_000, |s| total += s.trace_bytes).unwrap();
        assert!(total > 0, "program trace produced bytes");
        assert_eq!(ed.trace.lost(), 0, "region large enough for the whole run");
        let stored = ed.trace.level();
        let bytes = ed.drain_trace(stored as u32).unwrap();
        let msgs = decode_stream(&bytes).unwrap();
        assert!(
            msgs.iter()
                .any(|(_, m)| matches!(m, TraceMessage::FlowDirect { .. })),
            "flow messages decoded from EMEM"
        );
    }

    #[test]
    fn bulk_ring_copies_match_byte_pokes() {
        use audo_tricore::CoreBus;
        // A 16-byte ring: the fourth 5-byte write wraps around, and the
        // 20-byte write overflows the whole region.
        let cfg = EdConfig {
            trace_bytes: 16,
            trace_mode: TraceMode::Ring,
        };
        let mut bulk = EmulationDevice::new(SocConfig::default(), cfg.clone());
        let mut single = EmulationDevice::new(SocConfig::default(), cfg);
        for (k, len) in [5u8, 5, 5, 5, 20].into_iter().enumerate() {
            let bytes: Vec<u8> = (0..len).map(|i| 32 * k as u8 + i).collect();
            store_trace(&mut bulk.trace, &mut bulk.soc.fabric, &bytes).unwrap();
            let mut consumed = 0usize;
            for p in single.trace.reserve(u32::from(len)) {
                for i in 0..p.len {
                    let b = bytes[consumed + i as usize];
                    let at = EMEM_BASE.offset(p.region_offset + i);
                    single.soc.fabric.poke(at, 1, u32::from(b)).unwrap();
                }
                consumed += p.len as usize;
            }
            assert_eq!(
                bulk.soc.fabric.peek_bytes(EMEM_BASE, 16).unwrap(),
                single.soc.fabric.peek_bytes(EMEM_BASE, 16).unwrap(),
                "EMEM after write {k}"
            );
            assert_eq!(
                bulk.soc.fabric.code_region(EMEM_BASE),
                single.soc.fabric.code_region(EMEM_BASE),
                "EMEM write generation after write {k}"
            );
        }
        assert_eq!(bulk.trace.total_written(), 36);
        // Reading the ring back in bulk returns what byte peeks return.
        let mut expected = Vec::new();
        for p in single.trace.pop(16) {
            for i in 0..p.len {
                let at = EMEM_BASE.offset(p.region_offset + i);
                expected.push(single.soc.fabric.peek(at, 1).unwrap() as u8);
            }
        }
        assert_eq!(bulk.drain_trace(16).unwrap(), expected);
    }

    #[test]
    fn linear_mode_loses_bytes_when_region_tiny() {
        let mut ed = loaded_ed(
            COUNT_LOOP,
            EdConfig {
                trace_bytes: 64,
                trace_mode: TraceMode::Linear,
            },
        );
        ed.program_mcds(Mcds::builder().program_trace().build().unwrap());
        ed.run(1_000_000, |_| {}).unwrap();
        assert!(ed.trace.lost() > 0, "64-byte region must overflow");
        assert_eq!(ed.trace.level(), 64);
    }

    #[test]
    fn calibration_page_seeds_and_redirects() {
        let src = "
            .org 0x80000000
        _start:
            la a2, table
            ld.w d0, [a2]
            halt
            .align 32
            .org 0x80004000     ; on its own 8 KiB page (page 2)
        table:
            .word 1111
        ";
        let mut ed = loaded_ed(src, EdConfig::default());
        // Map flash page 2 (0x80004000 / 0x2000) to a calibration slot.
        ed.map_calibration_page(0, 2).unwrap();
        // The seeded value reads back through the flash address.
        let v = ed.tool_read(Addr(0x8000_4000), 4).unwrap();
        assert_eq!(u32::from_le_bytes([v[0], v[1], v[2], v[3]]), 1111);
        // The tool tunes the parameter in EMEM while the target runs.
        let cal = EMEM_BASE.offset(ed.calibration_offset());
        ed.tool_write(cal, &2222u32.to_le_bytes()).unwrap();
        ed.run(1_000_000, |_| {}).unwrap();
        assert_eq!(
            ed.soc.tricore.arch().d[0],
            2222,
            "CPU reads the tuned value"
        );
    }

    #[test]
    fn production_device_without_mcds_produces_no_trace() {
        let mut ed = loaded_ed(COUNT_LOOP, EdConfig::default());
        let mut total = 0u32;
        ed.run(1_000_000, |s| total += s.trace_bytes).unwrap();
        assert_eq!(total, 0);
    }

    #[test]
    fn observation_is_nonintrusive() {
        // Same program with and without MCDS: identical cycle counts and
        // architectural results.
        let mut plain = loaded_ed(COUNT_LOOP, EdConfig::default());
        let t_plain = plain.run(10_000_000, |_| {}).unwrap();
        let mut traced = loaded_ed(COUNT_LOOP, EdConfig::default());
        traced.program_mcds(
            Mcds::builder()
                .program_trace()
                .probe(RateProbe {
                    event: EventSelector::of(EventClass::InstrRetired),
                    basis: Basis::Cycles(50),
                    group: None,
                })
                .build()
                .unwrap(),
        );
        let t_traced = traced.run(10_000_000, |_| {}).unwrap();
        assert_eq!(t_plain, t_traced, "MCDS must not perturb timing");
        assert_eq!(plain.soc.tricore.arch().d, traced.soc.tricore.arch().d);
    }
}

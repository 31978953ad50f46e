//! The SoC fabric: functional storage, caches, flash timing, crossbar,
//! interrupt router, DMA engine, peripherals and the calibration overlay —
//! everything between the cores and the bits.
//!
//! Design note: the fabric keeps a **single functional copy** of all memory
//! contents ([`FlatMem`]) and layers *timing* (caches, buffers, bus
//! occupancy) on top. Timing models decide *when* data arrives; the storage
//! decides *what* arrives. This keeps multi-master semantics (CPU, PCP,
//! DMA) trivially coherent while producing the event streams the MCDS
//! observes.

use audo_common::events::{CacheId, FlashPort, MemRegion};
use audo_common::{
    AccessKind, Addr, BusTransaction, Cycle, EventSink, PerfEvent, SimError, SourceId,
};
use audo_tricore::arch::ArchMem;
use audo_tricore::bus::{CoreBus, FetchSlot, ReadSlot, FETCH_BYTES};
use audo_tricore::mem::FlatMem;

use crate::cache::Cache;
use crate::config::{
    SocConfig, ADC_BASE, CAN_BASE, CRANK_BASE, DFLASH_BASE, DMA_BASE, DSPR_BASE, EMEM_BASE,
    OVC_BASE, PFLASH_BASE, PFLASH_UNCACHED_SEG, PSPR_BASE, SRAM_BASE, SRC_BASE, STM_BASE,
};
use crate::dma::DmaState;
use crate::flash::FlashTiming;
use crate::irq::{IrqRouter, Service, SrnConfig};
use crate::periph::{Adc, CanRx, Crank, Stm};
use crate::xbar::{Slave, Xbar};

pub use crate::config::Region;

/// One calibration-overlay page-map entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OvcEntry {
    /// Redirection active.
    pub enabled: bool,
    /// Flash page index (page = [`SocConfig::overlay_page`] bytes).
    pub flash_page: u32,
    /// EMEM page index the page is redirected to.
    pub emem_page: u32,
}

/// The overlay control unit: redirects data accesses of mapped flash pages
/// into EMEM, which is how calibration tuning works on the real ED.
#[derive(Debug, Clone)]
pub struct Overlay {
    page_shift: u32,
    entries: Vec<OvcEntry>,
}

impl Overlay {
    fn new(page_bytes: u32, n: usize) -> Overlay {
        assert!(page_bytes.is_power_of_two());
        Overlay {
            page_shift: page_bytes.trailing_zeros(),
            entries: vec![OvcEntry::default(); n],
        }
    }

    /// Maps flash page containing `flash_off` → EMEM offset, if overlaid.
    #[must_use]
    pub fn translate(&self, flash_off: u32) -> Option<u32> {
        let page = flash_off >> self.page_shift;
        let within = flash_off & ((1 << self.page_shift) - 1);
        self.entries
            .iter()
            .find(|e| e.enabled && e.flash_page == page)
            .map(|e| (e.emem_page << self.page_shift) | within)
    }

    /// Programs entry `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_entry(&mut self, idx: usize, entry: OvcEntry) {
        self.entries[idx] = entry;
    }

    /// Reads entry `idx`.
    #[must_use]
    pub fn entry(&self, idx: usize) -> OvcEntry {
        self.entries[idx]
    }

    /// Number of page-map entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries exist (never the case for real configs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn mmio_read(&self, offset: u32) -> u32 {
        let (idx, reg) = ((offset / 8) as usize, offset % 8);
        let Some(e) = self.entries.get(idx) else {
            return 0;
        };
        match reg {
            0 => e.flash_page | (u32::from(e.enabled) << 31),
            4 => e.emem_page,
            _ => 0,
        }
    }

    fn mmio_write(&mut self, offset: u32, value: u32) {
        let (idx, reg) = ((offset / 8) as usize, offset % 8);
        let Some(e) = self.entries.get_mut(idx) else {
            return;
        };
        match reg {
            0 => {
                e.flash_page = value & 0x7FFF_FFFF;
                e.enabled = value & 0x8000_0000 != 0;
            }
            4 => e.emem_page = value,
            _ => {}
        }
    }
}

/// Everything the product chip's interconnect contains.
#[derive(Debug, Clone)]
pub struct Fabric {
    /// The configuration the fabric was built from.
    pub cfg: SocConfig,
    storage: FlatMem,
    /// Instruction cache.
    pub icache: Cache,
    /// Data cache.
    pub dcache: Cache,
    /// Program-flash timing (PMU).
    pub flash: FlashTiming,
    /// The crossbar.
    pub xbar: Xbar,
    /// Interrupt router.
    pub irq: IrqRouter,
    /// DMA controller.
    pub dma: DmaState,
    /// System timer.
    pub stm: Stm,
    /// ADC.
    pub adc: Adc,
    /// CAN receiver.
    pub can: CanRx,
    /// Crank-wheel sensor.
    pub crank: Crank,
    /// Calibration overlay.
    pub overlay: Overlay,
    /// Event sink for fabric-side events (caches, flash, bus, IRQ, DMA).
    pub sink: EventSink,
    /// Bus transactions observed this cycle (MCDS bus observation).
    pub bus_obs: Vec<BusTransaction>,
    dma_beats: u64,
}

impl Fabric {
    /// Builds the fabric (allocating all memories zero-initialised).
    #[must_use]
    pub fn new(cfg: SocConfig) -> Fabric {
        let mut storage = FlatMem::new();
        storage.add_region(PFLASH_BASE, cfg.pflash_size.bytes() as u32);
        storage.add_region(DFLASH_BASE, cfg.dflash_size.bytes() as u32);
        storage.add_region(SRAM_BASE, cfg.sram_size.bytes() as u32);
        storage.add_region(PSPR_BASE, cfg.pspr_size.bytes() as u32);
        storage.add_region(DSPR_BASE, cfg.dspr_size.bytes() as u32);
        storage.add_region(EMEM_BASE, cfg.emem_size.bytes() as u32);
        let cpu_hz = cfg.cpu_clock.0;
        Fabric {
            icache: Cache::new(&cfg.icache),
            dcache: Cache::new(&cfg.dcache),
            flash: FlashTiming::new(cfg.flash.clone()),
            xbar: Xbar::new(),
            irq: IrqRouter::new(),
            dma: DmaState::new(),
            stm: Stm::default(),
            adc: Adc::new(0xA5A5_0001),
            can: CanRx::new(0x5A5A_0002),
            crank: Crank::new(cpu_hz),
            overlay: Overlay::new(cfg.overlay_page, cfg.overlay_entries),
            sink: EventSink::new(),
            bus_obs: Vec::new(),
            dma_beats: 0,
            storage,
            cfg,
        }
    }

    /// Classifies an address (delegates to [`SocConfig::region_of`]).
    #[must_use]
    pub fn region_of(&self, addr: Addr) -> Region {
        self.cfg.region_of(addr)
    }

    // ------------------------------------------------------------------
    // Functional backdoors (no timing, no events)
    // ------------------------------------------------------------------

    /// Functional read without timing or events (loader/tool backdoor).
    ///
    /// # Errors
    ///
    /// Fails on unmapped or misaligned addresses.
    pub fn peek(&mut self, addr: Addr, size: u8) -> Result<u32, SimError> {
        let a = self.canonical(addr);
        self.storage.read(a, size)
    }

    /// Functional write without timing or events (loader/tool backdoor).
    ///
    /// # Errors
    ///
    /// Fails on unmapped or misaligned addresses.
    pub fn poke(&mut self, addr: Addr, size: u8, value: u32) -> Result<(), SimError> {
        let a = self.canonical(addr);
        self.storage.write(a, size, value)
    }

    /// Reads a byte range via the backdoor.
    ///
    /// # Errors
    ///
    /// Fails if any byte is unmapped.
    pub fn peek_bytes(&self, addr: Addr, len: usize) -> Result<Vec<u8>, SimError> {
        self.storage.read_bytes(self.canonical(addr), len)
    }

    /// Writes a byte range via the backdoor: the same bytes and the same
    /// write-generation bump as one [`Fabric::poke`] per byte, in one copy.
    ///
    /// # Errors
    ///
    /// Fails at the first unmapped byte (the bytes before it are written).
    pub fn poke_bytes(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), SimError> {
        let a = self.canonical(addr);
        self.storage.write_bytes(a, bytes)
    }

    fn canonical(&self, addr: Addr) -> Addr {
        if addr.segment() == PFLASH_UNCACHED_SEG {
            addr.with_segment(0x8)
        } else {
            addr
        }
    }

    // ------------------------------------------------------------------
    // The data path
    // ------------------------------------------------------------------

    /// Performs a timed data access on behalf of `master`.
    ///
    /// Returns `(value, done)`: for reads `done` is data arrival, for writes
    /// it is store acceptance.
    ///
    /// # Errors
    ///
    /// Fails on unmapped/misaligned addresses and writes to (non-overlaid)
    /// program flash.
    pub fn data_access(
        &mut self,
        now: Cycle,
        master: SourceId,
        addr: Addr,
        size: u8,
        kind: AccessKind,
        value: Option<u32>,
    ) -> Result<(u32, Cycle), SimError> {
        let payload = value;
        let (v, done) = self.data_access_inner(now, master, addr, size, kind, value)?;
        // Addressed observation for the MCDS data-trace qualifiers.
        self.sink.emit(
            now,
            master,
            PerfEvent::DataValue {
                addr,
                value: payload.unwrap_or(v),
                kind,
                size,
            },
        );
        Ok((v, done))
    }

    fn data_access_inner(
        &mut self,
        now: Cycle,
        master: SourceId,
        addr: Addr,
        size: u8,
        kind: AccessKind,
        value: Option<u32>,
    ) -> Result<(u32, Cycle), SimError> {
        let region = self.region_of(addr);
        let is_write = value.is_some();
        match region {
            Region::Dspr => {
                self.sink.emit(
                    now,
                    master,
                    PerfEvent::DataAccess {
                        region: MemRegion::Dspr,
                        kind,
                    },
                );
                let v = self.rw(addr, size, value)?;
                Ok((v, now))
            }
            Region::Pspr => {
                self.sink.emit(
                    now,
                    master,
                    PerfEvent::DataAccess {
                        region: MemRegion::Pspr,
                        kind,
                    },
                );
                let v = self.rw(addr, size, value)?;
                Ok((v, now + 1))
            }
            Region::Sram => {
                self.sink.emit(
                    now,
                    master,
                    PerfEvent::DataAccess {
                        region: MemRegion::Sram,
                        kind,
                    },
                );
                let start = self.xbar.grant(
                    now,
                    master,
                    Slave::Sram,
                    addr,
                    kind,
                    size,
                    1,
                    &mut self.sink,
                    &mut self.bus_obs,
                );
                let v = self.rw(addr, size, value)?;
                let done = if is_write {
                    start
                } else {
                    start + self.cfg.sram_latency
                };
                Ok((v, done))
            }
            Region::PflashCached | Region::PflashUncached => {
                let flash_addr = self.canonical(addr);
                let flash_off = flash_addr.0 - PFLASH_BASE.0;
                // Calibration overlay: redirect mapped pages into EMEM.
                if let Some(emem_off) = self.overlay.translate(flash_off) {
                    self.sink.emit(
                        now,
                        master,
                        PerfEvent::DataAccess {
                            region: MemRegion::Emem,
                            kind,
                        },
                    );
                    let eaddr = EMEM_BASE.offset(emem_off);
                    let start = self.xbar.grant(
                        now,
                        master,
                        Slave::Emem,
                        eaddr,
                        kind,
                        size,
                        1,
                        &mut self.sink,
                        &mut self.bus_obs,
                    );
                    let v = self.rw(eaddr, size, value)?;
                    let done = if is_write {
                        start
                    } else {
                        start + self.cfg.emem_latency
                    };
                    return Ok((v, done));
                }
                if is_write {
                    return Err(SimError::ProgramFault {
                        message: format!("data write to program flash at {addr}"),
                    });
                }
                self.sink.emit(
                    now,
                    master,
                    PerfEvent::DataAccess {
                        region: MemRegion::PFlash,
                        kind,
                    },
                );
                // Cached view goes through the D-cache.
                if region == Region::PflashCached && self.dcache.lookup(flash_addr) {
                    self.sink.emit(
                        now,
                        master,
                        PerfEvent::CacheHit {
                            cache: CacheId::Data,
                        },
                    );
                    let v = self.rw(flash_addr, size, None)?;
                    return Ok((v, now));
                }
                if region == Region::PflashCached {
                    self.sink.emit(
                        now,
                        master,
                        PerfEvent::CacheMiss {
                            cache: CacheId::Data,
                        },
                    );
                }
                let start = self.xbar.grant(
                    now,
                    master,
                    Slave::PflashData,
                    flash_addr,
                    kind,
                    size,
                    1,
                    &mut self.sink,
                    &mut self.bus_obs,
                );
                let ready = self
                    .flash
                    .access(start, flash_addr, FlashPort::Data, &mut self.sink);
                if region == Region::PflashCached {
                    self.dcache.fill(flash_addr);
                }
                let v = self.rw(flash_addr, size, None)?;
                Ok((v, ready))
            }
            Region::Dflash => {
                self.sink.emit(
                    now,
                    master,
                    PerfEvent::DataAccess {
                        region: MemRegion::DFlash,
                        kind,
                    },
                );
                let occupancy = if is_write {
                    self.cfg.dflash_write_busy
                } else {
                    self.cfg.dflash_read_latency
                };
                let start = self.xbar.grant(
                    now,
                    master,
                    Slave::Dflash,
                    addr,
                    kind,
                    size,
                    occupancy,
                    &mut self.sink,
                    &mut self.bus_obs,
                );
                let v = self.rw(addr, size, value)?;
                let done = if is_write {
                    start
                } else {
                    start + self.cfg.dflash_read_latency
                };
                Ok((v, done))
            }
            Region::Emem => {
                self.sink.emit(
                    now,
                    master,
                    PerfEvent::DataAccess {
                        region: MemRegion::Emem,
                        kind,
                    },
                );
                let start = self.xbar.grant(
                    now,
                    master,
                    Slave::Emem,
                    addr,
                    kind,
                    size,
                    1,
                    &mut self.sink,
                    &mut self.bus_obs,
                );
                let v = self.rw(addr, size, value)?;
                let done = if is_write {
                    start
                } else {
                    start + self.cfg.emem_latency
                };
                Ok((v, done))
            }
            Region::Periph => {
                self.sink.emit(
                    now,
                    master,
                    PerfEvent::DataAccess {
                        region: MemRegion::Periph,
                        kind,
                    },
                );
                let start = self.xbar.grant(
                    now,
                    master,
                    Slave::Periph,
                    addr,
                    kind,
                    size,
                    1,
                    &mut self.sink,
                    &mut self.bus_obs,
                );
                let done = start + self.cfg.periph_latency;
                let v = match value {
                    Some(v) => {
                        self.mmio_write(now, addr, v);
                        0
                    }
                    None => self.mmio_read(addr),
                };
                Ok((v, done))
            }
            Region::Unmapped => Err(SimError::UnmappedAddress { addr }),
        }
    }

    fn rw(&mut self, addr: Addr, size: u8, value: Option<u32>) -> Result<u32, SimError> {
        match value {
            Some(v) => {
                self.storage.write(addr, size, v)?;
                Ok(0)
            }
            None => self.storage.read(addr, size),
        }
    }

    // ------------------------------------------------------------------
    // MMIO dispatch
    // ------------------------------------------------------------------

    fn mmio_read(&mut self, addr: Addr) -> u32 {
        let off = addr.0 & 0xFFF;
        match addr.align_down(0x1000) {
            a if a == STM_BASE => self.stm.mmio_read(off),
            a if a == ADC_BASE => self.adc.mmio_read(off),
            a if a == DMA_BASE => self.dma.mmio_read(off),
            a if a == CAN_BASE => self.can.mmio_read(off),
            a if a == CRANK_BASE => self.crank.mmio_read(off),
            a if a == OVC_BASE => self.overlay.mmio_read(off),
            a if a == SRC_BASE => {
                let srn = (off / 4) as u8;
                if usize::from(srn) >= crate::irq::N_SRN {
                    return 0;
                }
                let c = self.irq.config(srn);
                let (svc, chan) = match c.service {
                    Service::Cpu => (0u32, 0u32),
                    Service::Pcp { channel } => (1, u32::from(channel)),
                    Service::Dma { channel } => (2, u32::from(channel)),
                };
                u32::from(c.prio) | (u32::from(c.enabled) << 8) | (svc << 9) | (chan << 11)
            }
            _ => 0,
        }
    }

    fn mmio_write(&mut self, now: Cycle, addr: Addr, value: u32) {
        let off = addr.0 & 0xFFF;
        match addr.align_down(0x1000) {
            a if a == STM_BASE => self.stm.mmio_write(off, value),
            a if a == ADC_BASE => self.adc.mmio_write(off, value, now),
            a if a == DMA_BASE => self.dma.mmio_write(off, value),
            a if a == CAN_BASE => self.can.mmio_write(off, value, now),
            a if a == CRANK_BASE => self.crank.mmio_write(off, value, now),
            a if a == OVC_BASE => self.overlay.mmio_write(off, value),
            a if a == SRC_BASE => {
                let srn = (off / 4) as u8;
                if usize::from(srn) >= crate::irq::N_SRN {
                    return;
                }
                let service = match (value >> 9) & 3 {
                    1 => Service::Pcp {
                        channel: ((value >> 11) & 0xFF) as u8,
                    },
                    2 => Service::Dma {
                        channel: ((value >> 11) & 0xFF) as u8,
                    },
                    _ => Service::Cpu,
                };
                self.irq.configure(
                    srn,
                    SrnConfig {
                        prio: (value & 0xFF) as u8,
                        enabled: value & (1 << 8) != 0,
                        service,
                    },
                );
                if value & (1 << 31) != 0 {
                    // Software SETR.
                    let sink = &mut self.sink;
                    self.irq.raise(srn, now, sink);
                }
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Per-cycle engines
    // ------------------------------------------------------------------

    /// Advances peripherals, the flash prefetcher, interrupt dispatch and
    /// the DMA engine by one cycle. Returns the PCP channels to trigger as
    /// a mask ([`audo_pcp::core::channel_bit`] per request). The
    /// peripherals, the prefetcher and the DMA engine cost one test on a
    /// cycle where they cannot act; their work runs only on its due cycle
    /// (a timer match, a conversion, message or tooth due, a fill landing
    /// or the bank freeing up, a ready DMA channel).
    ///
    /// # Errors
    ///
    /// Propagates DMA access faults (bad channel programming).
    pub fn step(&mut self, now: Cycle) -> Result<u8, SimError> {
        self.stm.step(now, &mut self.irq, &mut self.sink);
        self.adc.step(now, &mut self.irq, &mut self.sink);
        self.can.step(now, &mut self.irq, &mut self.sink);
        self.crank.step(now, &mut self.irq, &mut self.sink);
        self.flash.step(now, &mut self.sink);
        let mut pcp = 0u8;
        let dma = &mut self.dma;
        self.irq.dispatch(|service| match service {
            Service::Pcp { channel } => pcp |= audo_pcp::core::channel_bit(channel),
            Service::Dma { channel } => dma.request(channel),
            Service::Cpu => {}
        });
        if now.0 >= self.dma.busy_until {
            if let Some(chi) = self.dma.next_ready() {
                self.dma_beat(now, chi)?;
            }
        }
        Ok(pcp)
    }

    /// Moves one beat on DMA channel `chi`.
    fn dma_beat(&mut self, now: Cycle, chi: usize) -> Result<(), SimError> {
        let ch = &self.dma.channels()[chi];
        let (src, dst) = (ch.src, ch.dst);
        let (v, ready) =
            self.data_access(now, SourceId::DMA, Addr(src), 4, AccessKind::Read, None)?;
        let (_, accepted) = self.data_access(
            ready,
            SourceId::DMA,
            Addr(dst),
            4,
            AccessKind::Write,
            Some(v),
        )?;
        self.dma.busy_until = ready.max(accepted).0 + 1;
        self.dma_beats += 1;
        self.sink.emit(
            now,
            SourceId::DMA,
            PerfEvent::DmaBeat { channel: chi as u8 },
        );
        if self.dma.retire_beat(chi) {
            let done_srn = self.dma.channels()[chi].done_srn;
            self.sink.emit(
                now,
                SourceId::DMA,
                PerfEvent::DmaDone { channel: chi as u8 },
            );
            if let Some(srn) = done_srn {
                let sink = &mut self.sink;
                self.irq.raise(srn, now, sink);
            }
        }
        Ok(())
    }

    /// Total DMA beats moved.
    #[must_use]
    pub fn dma_beats(&self) -> u64 {
        self.dma_beats
    }
}

// ----------------------------------------------------------------------
// Bus-facing trait implementations
// ----------------------------------------------------------------------

impl CoreBus for Fabric {
    fn fetch(&mut self, now: Cycle, addr: Addr) -> Result<FetchSlot, SimError> {
        let base = addr.align_down(FETCH_BYTES);
        let region = self.region_of(base);
        let ready = match region {
            Region::Pspr => now + 1,
            Region::PflashCached => {
                if self.icache.lookup(base) {
                    self.sink.emit(
                        now,
                        SourceId::TRICORE,
                        PerfEvent::CacheHit {
                            cache: CacheId::Instruction,
                        },
                    );
                    now + 1
                } else {
                    self.sink.emit(
                        now,
                        SourceId::TRICORE,
                        PerfEvent::CacheMiss {
                            cache: CacheId::Instruction,
                        },
                    );
                    self.sink
                        .emit(now, SourceId::TRICORE, PerfEvent::FlashCodeFetch);
                    let ready = self
                        .flash
                        .access(now, base, FlashPort::Code, &mut self.sink);
                    self.icache.fill(base);
                    ready + 1
                }
            }
            Region::PflashUncached => {
                self.sink
                    .emit(now, SourceId::TRICORE, PerfEvent::FlashCodeFetch);
                let a = self.canonical(base);
                self.flash.access(now, a, FlashPort::Code, &mut self.sink) + 1
            }
            // Executing from data memories is architecturally allowed but
            // slow (through the crossbar).
            Region::Sram | Region::Dspr | Region::Emem => now + self.cfg.sram_latency + 1,
            _ => return Err(SimError::UnmappedAddress { addr: base }),
        };
        let a = self.canonical(base);
        let mut bytes = [0u8; FETCH_BYTES as usize];
        self.storage.read_into(a, &mut bytes)?;
        Ok(FetchSlot {
            bytes,
            ready_at: ready,
        })
    }

    #[inline]
    fn read(&mut self, now: Cycle, addr: Addr, size: u8) -> Result<ReadSlot, SimError> {
        let (value, ready_at) =
            self.data_access(now, SourceId::TRICORE, addr, size, AccessKind::Read, None)?;
        Ok(ReadSlot { value, ready_at })
    }

    #[inline]
    fn write(&mut self, now: Cycle, addr: Addr, size: u8, value: u32) -> Result<Cycle, SimError> {
        let (_, accepted) = self.data_access(
            now,
            SourceId::TRICORE,
            addr,
            size,
            AccessKind::Write,
            Some(value),
        )?;
        Ok(accepted)
    }

    #[inline]
    fn code_region(&self, addr: Addr) -> Option<(u32, u64)> {
        // Must mirror `fetch` exactly: fetched bytes come from `storage` at
        // the canonical address (the uncached flash segment aliases the
        // cached one), so the stamp is that region's write generation.
        self.storage.region_stamp(self.canonical(addr))
    }
}

/// View of the fabric as the PCP's bus master port.
#[derive(Debug)]
pub struct PcpPort<'a>(pub &'a mut Fabric);

impl audo_pcp::PcpBus for PcpPort<'_> {
    fn read(&mut self, now: Cycle, addr: Addr) -> Result<(u32, Cycle), SimError> {
        self.0
            .data_access(now, SourceId::PCP, addr, 4, AccessKind::Read, None)
    }

    fn write(&mut self, now: Cycle, addr: Addr, value: u32) -> Result<Cycle, SimError> {
        let (_, accepted) =
            self.0
                .data_access(now, SourceId::PCP, addr, 4, AccessKind::Write, Some(value))?;
        Ok(accepted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Fabric {
        Fabric::new(SocConfig::default())
    }

    #[test]
    fn region_classification() {
        let f = fabric();
        assert_eq!(f.region_of(Addr(0xD000_0000)), Region::Dspr);
        assert_eq!(f.region_of(Addr(0xC000_0000)), Region::Pspr);
        assert_eq!(f.region_of(Addr(0x9000_0000)), Region::Sram);
        assert_eq!(f.region_of(Addr(0x8000_1234)), Region::PflashCached);
        assert_eq!(f.region_of(Addr(0xA000_1234)), Region::PflashUncached);
        assert_eq!(f.region_of(Addr(0x8F00_0000)), Region::Dflash);
        assert_eq!(f.region_of(Addr(0xE000_0000)), Region::Emem);
        assert_eq!(f.region_of(Addr(0xF000_0000)), Region::Periph);
        assert_eq!(f.region_of(Addr(0x1234_5678)), Region::Unmapped);
    }

    #[test]
    fn uncached_alias_reads_same_bytes() {
        let mut f = fabric();
        f.poke(Addr(0x8000_0100), 4, 0xCAFE_F00D).unwrap();
        let (v, _) = f
            .data_access(
                Cycle(0),
                SourceId::TRICORE,
                Addr(0xA000_0100),
                4,
                AccessKind::Read,
                None,
            )
            .unwrap();
        assert_eq!(v, 0xCAFE_F00D);
    }

    #[test]
    fn dspr_is_fast_sram_pays_latency_flash_pays_wait_states() {
        let mut f = fabric();
        let (_, t_dspr) = f
            .data_access(
                Cycle(10),
                SourceId::TRICORE,
                Addr(0xD000_0000),
                4,
                AccessKind::Read,
                None,
            )
            .unwrap();
        let (_, t_sram) = f
            .data_access(
                Cycle(10),
                SourceId::TRICORE,
                Addr(0x9000_0000),
                4,
                AccessKind::Read,
                None,
            )
            .unwrap();
        let (_, t_flash) = f
            .data_access(
                Cycle(10),
                SourceId::TRICORE,
                Addr(0xA000_0000),
                4,
                AccessKind::Read,
                None,
            )
            .unwrap();
        assert_eq!(t_dspr, Cycle(10));
        assert_eq!(t_sram, Cycle(12));
        assert_eq!(t_flash, Cycle(15), "5 wait states");
    }

    #[test]
    fn dcache_caches_flash_data() {
        let mut f = fabric();
        let a = Addr(0x8000_2000);
        let (_, t1) = f
            .data_access(Cycle(0), SourceId::TRICORE, a, 4, AccessKind::Read, None)
            .unwrap();
        assert!(t1 > Cycle(0), "first access misses");
        let (_, t2) = f
            .data_access(Cycle(100), SourceId::TRICORE, a, 4, AccessKind::Read, None)
            .unwrap();
        assert_eq!(t2, Cycle(100), "second access hits the D-cache");
        let hits: usize = f
            .sink
            .records()
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    PerfEvent::CacheHit {
                        cache: CacheId::Data
                    }
                )
            })
            .count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn flash_write_is_a_fault_unless_overlaid() {
        let mut f = fabric();
        let e = f
            .data_access(
                Cycle(0),
                SourceId::TRICORE,
                Addr(0x8000_0000),
                4,
                AccessKind::Write,
                Some(1),
            )
            .unwrap_err();
        assert!(matches!(e, SimError::ProgramFault { .. }));
    }

    #[test]
    fn overlay_redirects_reads_and_writes_to_emem() {
        let mut f = fabric();
        // Map flash page 3 to EMEM page 0.
        f.overlay.set_entry(
            0,
            OvcEntry {
                enabled: true,
                flash_page: 3,
                emem_page: 0,
            },
        );
        let page = f.cfg.overlay_page;
        let flash_addr = Addr(PFLASH_BASE.0 + 3 * page + 0x10);
        // Write through the overlay...
        f.data_access(
            Cycle(0),
            SourceId::TRICORE,
            flash_addr,
            4,
            AccessKind::Write,
            Some(77),
        )
        .unwrap();
        // ...lands in EMEM...
        assert_eq!(f.peek(EMEM_BASE.offset(0x10), 4).unwrap(), 77);
        // ...and reads back through the flash address.
        let (v, _) = f
            .data_access(
                Cycle(1),
                SourceId::TRICORE,
                flash_addr,
                4,
                AccessKind::Read,
                None,
            )
            .unwrap();
        assert_eq!(v, 77);
        // The underlying flash bytes are untouched.
        assert_eq!(f.peek(flash_addr, 4).unwrap(), 0);
    }

    #[test]
    fn mmio_stm_counts_cycles() {
        let mut f = fabric();
        for c in 0..100u64 {
            f.step(Cycle(c)).unwrap();
        }
        let (v, _) = f
            .data_access(
                Cycle(100),
                SourceId::TRICORE,
                STM_BASE,
                4,
                AccessKind::Read,
                None,
            )
            .unwrap();
        assert_eq!(v, 99, "STM tracks the cycle counter");
    }

    #[test]
    fn src_mmio_roundtrip_and_software_raise() {
        let mut f = fabric();
        let src20 = Addr(SRC_BASE.0 + 20 * 4);
        // prio 5, enabled, dest PCP channel 3.
        let cfg_word = 5 | (1 << 8) | (1 << 9) | (3 << 11);
        f.data_access(
            Cycle(0),
            SourceId::TRICORE,
            src20,
            4,
            AccessKind::Write,
            Some(cfg_word),
        )
        .unwrap();
        let (v, _) = f
            .data_access(
                Cycle(1),
                SourceId::TRICORE,
                src20,
                4,
                AccessKind::Read,
                None,
            )
            .unwrap();
        assert_eq!(v, cfg_word);
        // SETR raises it; dispatch triggers PCP channel 3.
        f.data_access(
            Cycle(2),
            SourceId::TRICORE,
            src20,
            4,
            AccessKind::Write,
            Some(cfg_word | (1 << 31)),
        )
        .unwrap();
        let triggers = f.step(Cycle(3)).unwrap();
        assert_eq!(triggers, 1 << 3);
    }

    #[test]
    fn dma_moves_a_block_and_raises_done() {
        let mut f = fabric();
        for i in 0..4u32 {
            f.poke(Addr(0x9000_0000 + i * 4), 4, 100 + i).unwrap();
        }
        // Configure SRN 8 (DMA done) to CPU prio 1.
        f.irq.configure(
            8,
            SrnConfig {
                prio: 1,
                enabled: true,
                service: Service::Cpu,
            },
        );
        // Program channel 0: SRAM -> DSPR, 4 words.
        f.dma.mmio_write(0x00, 0x9000_0000);
        f.dma.mmio_write(0x04, 0xD000_0100);
        f.dma.mmio_write(0x08, 4);
        f.dma.mmio_write(0x10, 4);
        f.dma.mmio_write(0x14, 4);
        f.dma.mmio_write(0x0C, 1 | ((8 + 1) << 8));
        f.dma.mmio_write(0x18, 4); // software-trigger 4 beats
        for c in 0..100u64 {
            f.step(Cycle(c)).unwrap();
        }
        for i in 0..4u32 {
            assert_eq!(f.peek(Addr(0xD000_0100 + i * 4), 4).unwrap(), 100 + i);
        }
        assert_eq!(f.irq.cpu_pending(), Some(1), "done SRN raised");
        assert_eq!(f.dma_beats(), 4);
        assert!(
            !f.dma.channels()[0].enabled,
            "non-circular channel disables itself"
        );
    }

    #[test]
    fn fetch_from_pspr_and_flash() {
        let mut f = fabric();
        use audo_tricore::bus::CoreBus;
        f.poke(Addr(0xC000_0000), 4, 0x1234_5678).unwrap();
        let slot = f.fetch(Cycle(0), Addr(0xC000_0000)).unwrap();
        assert_eq!(slot.ready_at, Cycle(1));
        assert_eq!(&slot.bytes[..4], &0x1234_5678u32.to_le_bytes());
        // Flash fetch: first miss pays wait states, second hits the I-cache.
        let s1 = f.fetch(Cycle(10), Addr(0x8000_0000)).unwrap();
        assert!(s1.ready_at > Cycle(11));
        let s2 = f.fetch(Cycle(30), Addr(0x8000_0000)).unwrap();
        assert_eq!(s2.ready_at, Cycle(31), "I-cache hit");
    }

    #[test]
    fn adc_to_dma_chain_fills_buffer() {
        let mut f = fabric();
        // ADC fires every 50 cycles; SRN 2 routed to DMA channel 1.
        f.adc.mmio_write(0x04, 50, Cycle(0));
        f.adc.mmio_write(0x00, 1, Cycle(0));
        f.irq.configure(
            2,
            SrnConfig {
                prio: 1,
                enabled: true,
                service: Service::Dma { channel: 1 },
            },
        );
        // DMA ch1: read ADC RESULT register, write DSPR buffer, 8 results, circular source.
        f.dma.mmio_write(0x20, ADC_BASE.0 + 0x0C);
        f.dma.mmio_write(0x24, 0xD000_0200);
        f.dma.mmio_write(0x28, 8);
        f.dma.mmio_write(0x30, 0); // src fixed
        f.dma.mmio_write(0x34, 4); // dst increments
        f.dma.mmio_write(0x2C, 1);
        for c in 0..600u64 {
            f.step(Cycle(c)).unwrap();
        }
        // 8 conversions moved into DSPR.
        let mut nonzero = 0;
        for i in 0..8u32 {
            if f.peek(Addr(0xD000_0200 + i * 4), 4).unwrap() != 0 {
                nonzero += 1;
            }
        }
        assert!(nonzero >= 6, "ADC samples landed in memory ({nonzero}/8)");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    fn fabric() -> Fabric {
        Fabric::new(SocConfig::default())
    }

    #[test]
    fn dflash_writes_are_slow_and_serialize() {
        // EEPROM emulation: a write occupies the data flash for the
        // programming time; a following read must wait.
        let mut f = fabric();
        let (_, t_w) = f
            .data_access(
                Cycle(0),
                SourceId::TRICORE,
                DFLASH_BASE,
                4,
                AccessKind::Write,
                Some(7),
            )
            .unwrap();
        assert_eq!(t_w, Cycle(0), "the store itself is fire-and-forget");
        let (v, t_r) = f
            .data_access(
                Cycle(5),
                SourceId::TRICORE,
                DFLASH_BASE,
                4,
                AccessKind::Read,
                None,
            )
            .unwrap();
        assert_eq!(v, 7, "functional value visible");
        let busy = f.cfg.dflash_write_busy;
        assert!(
            t_r.0 >= busy,
            "read must wait out the {busy}-cycle programming window, got {t_r}"
        );
    }

    #[test]
    fn sram_contention_between_cpu_and_dma_is_counted() {
        let mut f = fabric();
        let a = Addr(0x9000_0000);
        // Two masters hit the SRAM in the same cycle: the second waits.
        let (_, t1) = f
            .data_access(Cycle(0), SourceId::TRICORE, a, 4, AccessKind::Read, None)
            .unwrap();
        let (_, t2) = f
            .data_access(
                Cycle(0),
                SourceId::DMA,
                a.offset(4),
                4,
                AccessKind::Read,
                None,
            )
            .unwrap();
        assert!(t2 > t1, "second master serialized ({t1} then {t2})");
        let contended = f
            .sink
            .records()
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    PerfEvent::BusContention {
                        master: SourceId::DMA,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(contended, 1);
    }

    #[test]
    fn ovc_programming_via_mmio_enables_redirection() {
        // The target (or a monitor) can program the overlay through MMIO,
        // not just through the Rust API.
        let mut f = fabric();
        let page = f.cfg.overlay_page;
        // Entry 2: flash page 5 -> EMEM page 1, enabled.
        let e2 = Addr(crate::config::OVC_BASE.0 + 2 * 8);
        f.data_access(
            Cycle(0),
            SourceId::TRICORE,
            e2,
            4,
            AccessKind::Write,
            Some(5 | 0x8000_0000),
        )
        .unwrap();
        f.data_access(
            Cycle(1),
            SourceId::TRICORE,
            e2.offset(4),
            4,
            AccessKind::Write,
            Some(1),
        )
        .unwrap();
        assert_eq!(f.overlay.translate(5 * page + 12), Some(page + 12));
        // Read back through MMIO.
        let (v, _) = f
            .data_access(Cycle(2), SourceId::TRICORE, e2, 4, AccessKind::Read, None)
            .unwrap();
        assert_eq!(v, 5 | 0x8000_0000);
    }

    #[test]
    fn executing_from_sram_is_allowed_but_slow() {
        use audo_tricore::bus::CoreBus;
        let mut f = fabric();
        let slot = f.fetch(Cycle(0), Addr(0x9000_0000)).unwrap();
        assert!(slot.ready_at > Cycle(1), "SRAM fetch pays crossbar latency");
        let err = f.fetch(Cycle(0), Addr(0x1234_0000)).unwrap_err();
        assert!(matches!(err, SimError::UnmappedAddress { .. }));
    }

    #[test]
    fn pcp_port_accesses_are_attributed_to_the_pcp() {
        use audo_pcp::PcpBus;
        let mut f = fabric();
        {
            let mut port = PcpPort(&mut f);
            port.write(Cycle(0), Addr(0x9000_0010), 99).unwrap();
            let (v, _) = port.read(Cycle(1), Addr(0x9000_0010)).unwrap();
            assert_eq!(v, 99);
        }
        let pcp_events = f
            .sink
            .records()
            .iter()
            .filter(|e| {
                e.source == SourceId::PCP && matches!(e.event, PerfEvent::DataAccess { .. })
            })
            .count();
        assert_eq!(pcp_events, 2, "read + write attributed to the PCP master");
    }
}

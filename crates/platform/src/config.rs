//! SoC configuration and the fixed memory map.
//!
//! The map follows the AUDO convention: program flash lives in segment `0x8`
//! with an uncached alias in segment `0xA`; scratchpads are core-local;
//! peripheral registers live in segment `0xF`; the emulation memory (EMEM)
//! of the Emulation Device occupies segment `0xE`.

use audo_common::{Addr, ByteSize, Freq};
use audo_pcp::PcpConfig;
use audo_tricore::CoreConfig;

/// Program flash base (cached view).
pub const PFLASH_BASE: Addr = Addr(0x8000_0000);
/// Uncached alias segment of program flash.
pub const PFLASH_UNCACHED_SEG: u8 = 0xA;
/// Data flash (EEPROM emulation) base.
pub const DFLASH_BASE: Addr = Addr(0x8F00_0000);
/// System SRAM (LMU-class) base.
pub const SRAM_BASE: Addr = Addr(0x9000_0000);
/// Program scratchpad base.
pub const PSPR_BASE: Addr = Addr(0xC000_0000);
/// Data scratchpad base.
pub const DSPR_BASE: Addr = Addr(0xD000_0000);
/// Emulation memory base.
pub const EMEM_BASE: Addr = Addr(0xE000_0000);
/// Peripheral segment base.
pub const PERIPH_BASE: Addr = Addr(0xF000_0000);

/// System timer MMIO base.
pub const STM_BASE: Addr = Addr(0xF000_0000);
/// ADC MMIO base.
pub const ADC_BASE: Addr = Addr(0xF000_1000);
/// DMA MMIO base.
pub const DMA_BASE: Addr = Addr(0xF000_2000);
/// CAN-receive MMIO base.
pub const CAN_BASE: Addr = Addr(0xF000_3000);
/// Crank-wheel (engine position) MMIO base.
pub const CRANK_BASE: Addr = Addr(0xF000_4000);
/// Overlay control (OVC) MMIO base.
pub const OVC_BASE: Addr = Addr(0xF000_5000);
/// Service request control (interrupt router) MMIO base.
pub const SRC_BASE: Addr = Addr(0xF000_6000);

/// Memory regions of the AUDO-class map.
///
/// This is the *configured* map: region boundaries depend on the memory
/// sizes in [`SocConfig`], so classification is a method on the config
/// ([`SocConfig::region_of`]) rather than a pure address predicate. The
/// fabric re-exports this type and routes bus traffic with the same
/// classification, which keeps static analysis (`audo-analyze`) and the
/// dynamic bus model in exact agreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Data scratchpad (core-local, zero wait states).
    Dspr,
    /// Program scratchpad.
    Pspr,
    /// System SRAM via the crossbar.
    Sram,
    /// Program flash, cached view (segment `0x8`).
    PflashCached,
    /// Program flash, uncached alias (segment `0xA`).
    PflashUncached,
    /// Data flash (EEPROM emulation).
    Dflash,
    /// Emulation memory.
    Emem,
    /// Peripheral registers.
    Periph,
    /// Nothing mapped.
    Unmapped,
}

impl Region {
    /// Short lower-case name, stable across releases (used in findings
    /// JSON and reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Region::Dspr => "dspr",
            Region::Pspr => "pspr",
            Region::Sram => "sram",
            Region::PflashCached => "pflash",
            Region::PflashUncached => "pflash-uncached",
            Region::Dflash => "dflash",
            Region::Emem => "emem",
            Region::Periph => "periph",
            Region::Unmapped => "unmapped",
        }
    }

    /// Both views of the program flash array.
    #[must_use]
    pub fn is_pflash(self) -> bool {
        matches!(self, Region::PflashCached | Region::PflashUncached)
    }
}

/// Cache geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity.
    pub size: ByteSize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line: u32,
    /// `false` disables the cache entirely (all lookups miss, no fills).
    pub enabled: bool,
}

impl CacheConfig {
    /// A disabled cache.
    #[must_use]
    pub fn disabled() -> CacheConfig {
        CacheConfig {
            size: ByteSize::kib(1),
            ways: 1,
            line: 32,
            enabled: false,
        }
    }
}

/// Flash code/data port arbitration policy (§4 of the paper names this as
/// one of the levers on the CPU→flash path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortArbitration {
    /// Code fetches win ties; data pays.
    CodeFirst,
    /// Data accesses reserve the bank; code pays a penalty when data was
    /// recently active.
    DataFirst,
    /// Alternate: a port that was just served yields one cycle.
    RoundRobin,
}

/// Program-flash timing configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashConfig {
    /// Wait states (CPU cycles) per line read from the flash array.
    pub wait_states: u64,
    /// Line width of one array read, in bytes.
    pub line_bytes: u32,
    /// Number of read buffers (each holds one line).
    pub read_buffers: usize,
    /// Enable sequential next-line prefetch into a free buffer.
    pub prefetch: bool,
    /// Code/data port arbitration.
    pub arbitration: PortArbitration,
}

impl Default for FlashConfig {
    fn default() -> FlashConfig {
        FlashConfig {
            wait_states: 5,
            line_bytes: 32,
            read_buffers: 2,
            prefetch: true,
            arbitration: PortArbitration::CodeFirst,
        }
    }
}

/// Complete SoC configuration.
///
/// The defaults model a TC1797-class device at 150 MHz. Architecture-sweep
/// experiments (E6/E7) clone this and vary one knob at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocConfig {
    /// CPU pipeline timing.
    pub cpu: CoreConfig,
    /// PCP timing.
    pub pcp: PcpConfig,
    /// CPU clock (the simulation's base clock).
    pub cpu_clock: Freq,
    /// Instruction cache.
    pub icache: CacheConfig,
    /// Data cache.
    pub dcache: CacheConfig,
    /// Program flash timing.
    pub flash: FlashConfig,
    /// Program flash size.
    pub pflash_size: ByteSize,
    /// Data flash size.
    pub dflash_size: ByteSize,
    /// System SRAM size.
    pub sram_size: ByteSize,
    /// Program scratchpad size.
    pub pspr_size: ByteSize,
    /// Data scratchpad size.
    pub dspr_size: ByteSize,
    /// Emulation memory size (256 or 512 KiB on real EDs).
    pub emem_size: ByteSize,
    /// SRAM access latency via the crossbar (cycles).
    pub sram_latency: u64,
    /// Data-flash read latency (cycles).
    pub dflash_read_latency: u64,
    /// Data-flash program (write) busy time (cycles) — EEPROM emulation.
    pub dflash_write_busy: u64,
    /// EMEM access latency via the Back Bone Bus bridge (cycles).
    pub emem_latency: u64,
    /// Peripheral-bridge access latency (cycles).
    pub periph_latency: u64,
    /// Overlay page size in bytes (power of two).
    pub overlay_page: u32,
    /// Number of overlay page-map entries.
    pub overlay_entries: usize,
}

impl Default for SocConfig {
    fn default() -> SocConfig {
        SocConfig {
            cpu: CoreConfig::default(),
            pcp: PcpConfig::default(),
            cpu_clock: Freq::mhz(150),
            icache: CacheConfig {
                size: ByteSize::kib(16),
                ways: 2,
                line: 32,
                enabled: true,
            },
            dcache: CacheConfig {
                size: ByteSize::kib(4),
                ways: 2,
                line: 32,
                enabled: true,
            },
            flash: FlashConfig::default(),
            pflash_size: ByteSize::mib(4),
            dflash_size: ByteSize::kib(64),
            sram_size: ByteSize::kib(256),
            pspr_size: ByteSize::kib(48),
            dspr_size: ByteSize::kib(128),
            emem_size: ByteSize::kib(512),
            sram_latency: 2,
            dflash_read_latency: 20,
            dflash_write_busy: 120,
            emem_latency: 3,
            periph_latency: 4,
            overlay_page: 8 * 1024,
            overlay_entries: 16,
        }
    }
}

impl SocConfig {
    /// The TC1797-class preset (the default): 180 MHz-class flagship scaled
    /// to 150 MHz nominal, 4 MiB flash, 16 KiB I-cache, 512 KiB EMEM.
    #[must_use]
    pub fn tc1797() -> SocConfig {
        SocConfig::default()
    }

    /// The TC1767-class preset: the paper's mid-range sibling — smaller
    /// flash and memories, 256 KiB EMEM, a single flash read buffer less.
    #[must_use]
    pub fn tc1767() -> SocConfig {
        SocConfig {
            cpu_clock: Freq::mhz(133),
            icache: CacheConfig {
                size: ByteSize::kib(8),
                ways: 2,
                line: 32,
                enabled: true,
            },
            dcache: CacheConfig::disabled(),
            pflash_size: ByteSize::mib(2),
            sram_size: ByteSize::kib(128),
            pspr_size: ByteSize::kib(24),
            dspr_size: ByteSize::kib(68),
            emem_size: ByteSize::kib(256),
            ..SocConfig::default()
        }
    }

    /// Classifies an address against the configured memory map.
    ///
    /// The same classification the fabric uses to route bus traffic; see
    /// [`Region`].
    #[must_use]
    pub fn region_of(&self, addr: Addr) -> Region {
        if addr.in_range(DSPR_BASE, self.dspr_size.bytes() as u32) {
            Region::Dspr
        } else if addr.in_range(PSPR_BASE, self.pspr_size.bytes() as u32) {
            Region::Pspr
        } else if addr.in_range(SRAM_BASE, self.sram_size.bytes() as u32) {
            Region::Sram
        } else if addr.in_range(PFLASH_BASE, self.pflash_size.bytes() as u32) {
            Region::PflashCached
        } else if addr.segment() == PFLASH_UNCACHED_SEG
            && addr
                .with_segment(0x8)
                .in_range(PFLASH_BASE, self.pflash_size.bytes() as u32)
        {
            Region::PflashUncached
        } else if addr.in_range(DFLASH_BASE, self.dflash_size.bytes() as u32) {
            Region::Dflash
        } else if addr.in_range(EMEM_BASE, self.emem_size.bytes() as u32) {
            Region::Emem
        } else if addr.segment() == 0xF {
            Region::Periph
        } else {
            Region::Unmapped
        }
    }

    /// Scales flash wait states with CPU frequency, the way a fixed-speed
    /// flash array behaves under a faster clock: the array needs constant
    /// *time*, so a faster CPU sees more wait states.
    ///
    /// `reference` is the frequency at which [`FlashConfig::wait_states`]
    /// was specified.
    pub fn rescale_flash_for_clock(&mut self, reference: Freq) {
        let ws = self.flash.wait_states as f64 * self.cpu_clock.0 as f64 / reference.0 as f64;
        self.flash.wait_states = ws.round().max(1.0) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_tc1797_class() {
        let c = SocConfig::default();
        assert_eq!(c.cpu_clock.as_mhz(), 150.0);
        assert_eq!(c.icache.size, ByteSize::kib(16));
        assert_eq!(c.pflash_size, ByteSize::mib(4));
        assert_eq!(c.flash.read_buffers, 2);
    }

    #[test]
    fn flash_rescaling_tracks_frequency() {
        let mut c = SocConfig {
            cpu_clock: Freq::mhz(300),
            ..SocConfig::default()
        };
        c.rescale_flash_for_clock(Freq::mhz(150));
        assert_eq!(c.flash.wait_states, 10, "2x clock = 2x wait states");
        let mut c2 = SocConfig {
            cpu_clock: Freq::mhz(75),
            ..SocConfig::default()
        };
        c2.rescale_flash_for_clock(Freq::mhz(150));
        assert_eq!(c2.flash.wait_states, 3, "5/2 rounds to 3");
    }

    #[test]
    fn tc1767_is_the_smaller_sibling() {
        let hi = SocConfig::tc1797();
        let lo = SocConfig::tc1767();
        assert!(lo.pflash_size < hi.pflash_size);
        assert!(lo.emem_size < hi.emem_size);
        assert!(lo.icache.size < hi.icache.size);
        assert!(!lo.dcache.enabled, "TC1767-class: no data cache");
    }

    #[test]
    fn memory_map_segments_are_distinct() {
        let bases = [
            PFLASH_BASE,
            DFLASH_BASE,
            SRAM_BASE,
            PSPR_BASE,
            DSPR_BASE,
            EMEM_BASE,
            PERIPH_BASE,
        ];
        for (i, a) in bases.iter().enumerate() {
            for b in &bases[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}

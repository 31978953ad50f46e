//! Strongly typed scalar quantities used across the simulation stack.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point in simulated time, counted in CPU clock cycles since reset.
///
/// All components of the simulated SoC are stepped at CPU clock granularity;
/// slower clock domains (system bus, peripheral bus, flash, the DAP tool
/// link) are derived via divider ratios.
///
/// # Examples
///
/// ```
/// use audo_common::Cycle;
/// let t = Cycle(100) + 25;
/// assert_eq!(t, Cycle(125));
/// assert_eq!(t.saturating_sub(Cycle(200)), 0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero cycle (reset time).
    pub const ZERO: Cycle = Cycle(0);

    /// Returns `self - other` clamped at zero, as a raw cycle count.
    #[must_use]
    #[inline(always)]
    pub fn saturating_sub(self, other: Cycle) -> u64 {
        self.0.saturating_sub(other.0)
    }

    /// Returns the later of two time points.
    #[must_use]
    #[inline(always)]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// A 32-bit byte address in the simulated SoC's flat physical address space.
///
/// The memory map follows the AUDO convention of segment-based aliasing:
/// segment `0x8` is the cached view of program flash and segment `0xA` the
/// uncached alias of the same bytes (see `audo-platform`).
///
/// # Examples
///
/// ```
/// use audo_common::Addr;
/// let a = Addr(0x8000_1234);
/// assert_eq!(a.segment(), 0x8);
/// assert_eq!(a.align_down(32).0, 0x8000_1220);
/// assert!(a.is_aligned(4) == false || a.0 % 4 == 0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(pub u32);

impl Addr {
    /// Returns the top address nibble (the AUDO "segment").
    #[must_use]
    pub fn segment(self) -> u8 {
        (self.0 >> 28) as u8
    }

    /// Returns this address with the segment nibble replaced.
    #[must_use]
    pub fn with_segment(self, seg: u8) -> Addr {
        Addr((self.0 & 0x0FFF_FFFF) | (u32::from(seg) << 28))
    }

    /// Returns the address advanced by `bytes`, wrapping on overflow.
    #[must_use]
    pub fn offset(self, bytes: u32) -> Addr {
        Addr(self.0.wrapping_add(bytes))
    }

    /// Rounds down to a multiple of `align` (which must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `align` is not a power of two.
    #[must_use]
    pub fn align_down(self, align: u32) -> Addr {
        debug_assert!(align.is_power_of_two());
        Addr(self.0 & !(align - 1))
    }

    /// Returns `true` if the address is a multiple of `align`.
    #[must_use]
    pub fn is_aligned(self, align: u32) -> bool {
        self.0.is_multiple_of(align)
    }

    /// Returns `true` if the address lies in `[base, base + len)`.
    #[must_use]
    pub fn in_range(self, base: Addr, len: u32) -> bool {
        self.0 >= base.0 && (self.0 - base.0) < len
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u32> for Addr {
    fn from(v: u32) -> Addr {
        Addr(v)
    }
}

/// A clock frequency in hertz.
///
/// # Examples
///
/// ```
/// use audo_common::Freq;
/// let f = Freq::mhz(180);
/// assert_eq!(f.as_mhz(), 180.0);
/// // 1 µs at 180 MHz is 180 cycles.
/// assert_eq!(f.cycles_per_micro(), 180.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Freq(pub u64);

impl Freq {
    /// Constructs a frequency from megahertz.
    #[must_use]
    pub fn mhz(mhz: u64) -> Freq {
        Freq(mhz * 1_000_000)
    }

    /// Returns the frequency in megahertz.
    #[must_use]
    pub fn as_mhz(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns how many cycles of this clock elapse per microsecond.
    #[must_use]
    pub fn cycles_per_micro(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}MHz", self.0 / 1_000_000)
        } else {
            write!(f, "{}Hz", self.0)
        }
    }
}

/// A memory capacity in bytes.
///
/// # Examples
///
/// ```
/// use audo_common::ByteSize;
/// assert_eq!(ByteSize::kib(256).bytes(), 262_144);
/// assert_eq!(ByteSize::kib(4).to_string(), "4KiB");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Constructs a size from kibibytes.
    #[must_use]
    pub fn kib(k: u64) -> ByteSize {
        ByteSize(k * 1024)
    }

    /// Constructs a size from mebibytes.
    #[must_use]
    pub fn mib(m: u64) -> ByteSize {
        ByteSize(m * 1024 * 1024)
    }

    /// Returns the raw byte count.
    #[must_use]
    pub fn bytes(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 && self.0.is_multiple_of(1024 * 1024) {
            write!(f, "{}MiB", self.0 / (1024 * 1024))
        } else if self.0 >= 1024 && self.0.is_multiple_of(1024) {
            write!(f, "{}KiB", self.0 / 1024)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let t = Cycle(5) + 10;
        assert_eq!(t, Cycle(15));
        assert_eq!(t - Cycle(5), 10);
        assert_eq!(Cycle(3).saturating_sub(Cycle(10)), 0);
        assert_eq!(Cycle(3).max(Cycle(10)), Cycle(10));
        let mut u = Cycle(1);
        u += 4;
        assert_eq!(u, Cycle(5));
    }

    #[test]
    fn addr_segment_and_alignment() {
        let a = Addr(0x8012_3456);
        assert_eq!(a.segment(), 0x8);
        assert_eq!(a.with_segment(0xA), Addr(0xA012_3456));
        assert_eq!(a.align_down(16), Addr(0x8012_3450));
        assert!(Addr(0x100).is_aligned(4));
        assert!(!Addr(0x102).is_aligned(4));
    }

    #[test]
    fn addr_range_checks() {
        let base = Addr(0x9000_0000);
        assert!(Addr(0x9000_0000).in_range(base, 16));
        assert!(Addr(0x9000_000F).in_range(base, 16));
        assert!(!Addr(0x9000_0010).in_range(base, 16));
        assert!(!Addr(0x8FFF_FFFF).in_range(base, 16));
    }

    #[test]
    fn addr_offset_wraps() {
        assert_eq!(Addr(0xFFFF_FFFF).offset(1), Addr(0));
    }

    #[test]
    fn freq_conversions() {
        let f = Freq::mhz(150);
        assert_eq!(f.as_mhz(), 150.0);
        assert_eq!(f.to_string(), "150MHz");
    }

    #[test]
    fn byte_size_display() {
        assert_eq!(ByteSize::mib(4).to_string(), "4MiB");
        assert_eq!(ByteSize::kib(512).to_string(), "512KiB");
        assert_eq!(ByteSize(100).to_string(), "100B");
        assert_eq!(ByteSize::kib(1).bytes(), 1024);
    }

    #[test]
    fn addr_formats_as_hex() {
        assert_eq!(Addr(0xDEAD).to_string(), "0x0000dead");
        assert_eq!(format!("{:x}", Addr(0xBEEF)), "beef");
        assert_eq!(format!("{:X}", Addr(0xBEEF)), "BEEF");
    }
}

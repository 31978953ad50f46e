//! Simple functional memory for the golden-model ISS and for unit tests.
//!
//! Besides the raw bytes, every region carries a monotonically increasing
//! *generation* counter that is bumped on each write into the region. The
//! ISS decode cache ([`crate::decode_cache`]) snapshots the generation of
//! the code region when it predecodes a basic block and re-validates it on
//! every block entry, so any write to code memory — a self-modifying
//! store, or a calibration-overlay swap loaded over flash — lazily
//! invalidates the stale predecoded blocks without a write barrier in the
//! store path.

use std::cell::Cell;

use audo_common::{Addr, SimError};

use crate::arch::ArchMem;

/// One mapped region: backing bytes plus a write-generation counter.
#[derive(Debug, Clone, Default)]
struct Region {
    bytes: Vec<u8>,
    generation: u64,
}

/// Flat, region-based functional memory with no timing.
///
/// Regions are added explicitly; accesses outside any region fail with
/// [`SimError::UnmappedAddress`], which mirrors how the real SoC buses
/// report address errors.
///
/// # Examples
///
/// ```
/// use audo_common::Addr;
/// use audo_tricore::arch::ArchMem;
/// use audo_tricore::mem::FlatMem;
///
/// let mut m = FlatMem::new();
/// m.add_region(Addr(0x1000), 256);
/// m.write(Addr(0x1000), 4, 0xDEAD_BEEF)?;
/// assert_eq!(m.read(Addr(0x1000), 4)?, 0xDEAD_BEEF);
/// assert_eq!(m.read(Addr(0x1002), 2)?, 0xDEAD);
/// # Ok::<(), audo_common::SimError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlatMem {
    /// Mapped regions, sorted by base address. Region count is tiny (a
    /// handful of memories per SoC), so a sorted vector beats a tree.
    regions: Vec<(u32, Region)>,
    /// Index of the most recently hit region. Accesses cluster heavily
    /// (code streams, stack traffic), so this makes the common lookup a
    /// single bounds check. Purely an index cache — never affects results.
    last: Cell<usize>,
}

impl FlatMem {
    /// Creates an empty memory with no mapped regions.
    #[must_use]
    pub fn new() -> FlatMem {
        FlatMem::default()
    }

    /// Maps a zero-initialised region of `len` bytes at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the region overlaps an existing one.
    pub fn add_region(&mut self, base: Addr, len: u32) {
        for (b, region) in &self.regions {
            let existing_end = u64::from(*b) + region.bytes.len() as u64;
            let new_end = u64::from(base.0) + u64::from(len);
            assert!(
                new_end <= u64::from(*b) || u64::from(base.0) >= existing_end,
                "region {base}+{len:#x} overlaps existing region at {:#x}",
                b
            );
        }
        let at = self.regions.partition_point(|&(b, _)| b < base.0);
        self.regions.insert(
            at,
            (
                base.0,
                Region {
                    bytes: vec![0; len as usize],
                    generation: 0,
                },
            ),
        );
        self.last.set(0);
    }

    /// Copies `bytes` into memory at `base` (which must be mapped).
    ///
    /// # Panics
    ///
    /// Panics if the target range is not fully mapped.
    pub fn load(&mut self, base: Addr, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_byte(base.offset(i as u32), b)
                .unwrap_or_else(|_| panic!("load outside mapped memory at {base}+{i}"));
        }
    }

    /// Finds the region containing `addr`; returns `(region index, byte
    /// offset within it)`.
    fn locate(&self, addr: Addr) -> Option<(usize, usize)> {
        let li = self.last.get();
        if let Some((base, region)) = self.regions.get(li) {
            let off = addr.0.wrapping_sub(*base) as usize;
            if off < region.bytes.len() {
                return Some((li, off));
            }
        }
        let idx = match self.regions.binary_search_by_key(&addr.0, |&(b, _)| b) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let (base, region) = &self.regions[idx];
        let off = (addr.0 - base) as usize;
        if off < region.bytes.len() {
            self.last.set(idx);
            Some((idx, off))
        } else {
            None
        }
    }

    /// Returns `(base, length)` of the mapped region containing `addr`,
    /// or `None` if the address is unmapped.
    #[must_use]
    pub fn region_span(&self, addr: Addr) -> Option<(Addr, u32)> {
        let (idx, _) = self.locate(addr)?;
        let (base, region) = &self.regions[idx];
        Some((Addr(*base), region.bytes.len() as u32))
    }

    /// Returns the write-generation counter of the region containing
    /// `addr`, or `None` if the address is unmapped.
    ///
    /// The counter starts at zero when the region is mapped and is bumped
    /// by every byte written into the region (stores, [`FlatMem::load`],
    /// image/overlay loads). Consumers that cache derived views of memory
    /// — the ISS decode cache foremost — record the generation at fill
    /// time and treat any later value as "contents may have changed".
    #[must_use]
    pub fn generation(&self, addr: Addr) -> Option<u64> {
        let (idx, _) = self.locate(addr)?;
        Some(self.regions[idx].1.generation)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] outside mapped regions.
    pub fn read_byte(&self, addr: Addr) -> Result<u8, SimError> {
        let (idx, off) = self
            .locate(addr)
            .ok_or(SimError::UnmappedAddress { addr })?;
        Ok(self.regions[idx].1.bytes[off])
    }

    /// Writes one byte, bumping the owning region's generation counter.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] outside mapped regions.
    pub fn write_byte(&mut self, addr: Addr, value: u8) -> Result<(), SimError> {
        let (idx, off) = self
            .locate(addr)
            .ok_or(SimError::UnmappedAddress { addr })?;
        let region = &mut self.regions[idx].1;
        region.bytes[off] = value;
        region.generation += 1;
        Ok(())
    }

    /// Writes `bytes` starting at `addr`, bumping the owning region's
    /// generation counter by `bytes.len()` — exactly what the same bytes
    /// written one [`FlatMem::write_byte`] at a time bump it by, so stamps
    /// taken under either path stay comparable.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] at the first unmapped byte;
    /// the bytes before it are written, as with byte-at-a-time writes.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), SimError> {
        if let Some((idx, off)) = self.locate(addr) {
            let region = &mut self.regions[idx].1;
            if let Some(slice) = region.bytes.get_mut(off..off + bytes.len()) {
                slice.copy_from_slice(bytes);
                region.generation += bytes.len() as u64;
                return Ok(());
            }
        }
        for (i, &b) in bytes.iter().enumerate() {
            self.write_byte(addr.offset(i as u32), b)?;
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] if any byte is unmapped.
    pub fn read_bytes(&self, addr: Addr, len: usize) -> Result<Vec<u8>, SimError> {
        if let Some((idx, off)) = self.locate(addr) {
            let bytes = &self.regions[idx].1.bytes;
            if let Some(slice) = bytes.get(off..off + len) {
                return Ok(slice.to_vec());
            }
        }
        (0..len)
            .map(|i| self.read_byte(addr.offset(i as u32)))
            .collect()
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf` without
    /// allocating (instruction-fetch hot path).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] if any byte is unmapped.
    pub fn read_into(&self, addr: Addr, buf: &mut [u8]) -> Result<(), SimError> {
        if let Some((idx, off)) = self.locate(addr) {
            let bytes = &self.regions[idx].1.bytes;
            if let Some(slice) = bytes.get(off..off + buf.len()) {
                buf.copy_from_slice(slice);
                return Ok(());
            }
        }
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read_byte(addr.offset(i as u32))?;
        }
        Ok(())
    }

    /// Returns `(region base, write generation)` for the region containing
    /// `addr` in a single lookup (predecode stamp hot path).
    #[must_use]
    pub fn region_stamp(&self, addr: Addr) -> Option<(u32, u64)> {
        let (idx, _) = self.locate(addr)?;
        let (base, region) = &self.regions[idx];
        Some((*base, region.generation))
    }
}

impl ArchMem for FlatMem {
    fn read(&mut self, addr: Addr, size: u8) -> Result<u32, SimError> {
        if !addr.is_aligned(u32::from(size)) {
            return Err(SimError::MisalignedAccess { addr, size });
        }
        // Single region lookup; an aligned access never straddles regions.
        if let Some((idx, off)) = self.locate(addr) {
            let bytes = &self.regions[idx].1.bytes;
            if let Some(slice) = bytes.get(off..off + size as usize) {
                let mut v: u32 = 0;
                for (i, &b) in slice.iter().enumerate() {
                    v |= u32::from(b) << (8 * i);
                }
                return Ok(v);
            }
        }
        let mut v: u32 = 0;
        for i in 0..size {
            v |= u32::from(self.read_byte(addr.offset(u32::from(i)))?) << (8 * i);
        }
        Ok(v)
    }

    fn write(&mut self, addr: Addr, size: u8, value: u32) -> Result<(), SimError> {
        if !addr.is_aligned(u32::from(size)) {
            return Err(SimError::MisalignedAccess { addr, size });
        }
        if let Some((idx, off)) = self.locate(addr) {
            let region = &mut self.regions[idx].1;
            if let Some(slice) = region.bytes.get_mut(off..off + size as usize) {
                for (i, b) in slice.iter_mut().enumerate() {
                    *b = (value >> (8 * i)) as u8;
                }
                // Same count as the byte-at-a-time path bumped, so cached
                // stamps recorded under either path stay comparable.
                region.generation += u64::from(size);
                return Ok(());
            }
        }
        for i in 0..size {
            self.write_byte(addr.offset(u32::from(i)), (value >> (8 * i)) as u8)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_errors() {
        let mut m = FlatMem::new();
        assert!(matches!(
            m.read(Addr(0x40), 4),
            Err(SimError::UnmappedAddress { .. })
        ));
        m.add_region(Addr(0x100), 16);
        assert!(m.read(Addr(0x100), 4).is_ok());
        assert!(m.read(Addr(0x110), 4).is_err());
        // Last byte of the region is accessible, word crossing the end is not.
        assert!(m.read_byte(Addr(0x10F)).is_ok());
        assert!(m.read(Addr(0x10C), 4).is_ok());
    }

    #[test]
    fn misaligned_access_errors() {
        let mut m = FlatMem::new();
        m.add_region(Addr(0), 64);
        assert!(matches!(
            m.read(Addr(2), 4),
            Err(SimError::MisalignedAccess { .. })
        ));
        assert!(matches!(
            m.write(Addr(1), 2, 0),
            Err(SimError::MisalignedAccess { .. })
        ));
        assert!(m.read(Addr(1), 1).is_ok());
    }

    #[test]
    fn little_endian_layout() {
        let mut m = FlatMem::new();
        m.add_region(Addr(0), 8);
        m.write(Addr(0), 4, 0x0403_0201).unwrap();
        assert_eq!(m.read_byte(Addr(0)).unwrap(), 0x01);
        assert_eq!(m.read_byte(Addr(3)).unwrap(), 0x04);
        assert_eq!(m.read(Addr(2), 2).unwrap(), 0x0403);
    }

    #[test]
    fn load_and_read_bytes() {
        let mut m = FlatMem::new();
        m.add_region(Addr(0x200), 16);
        m.load(Addr(0x200), &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(Addr(0x200), 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn bulk_write_matches_byte_writes() {
        let bytes = [9, 8, 7, 6, 5];
        let mut bulk = FlatMem::new();
        let mut single = FlatMem::new();
        for m in [&mut bulk, &mut single] {
            m.add_region(Addr(0x100), 8);
        }
        bulk.write_bytes(Addr(0x102), &bytes).unwrap();
        for (i, &b) in bytes.iter().enumerate() {
            single.write_byte(Addr(0x102 + i as u32), b).unwrap();
        }
        assert_eq!(
            bulk.read_bytes(Addr(0x100), 8).unwrap(),
            [0, 0, 9, 8, 7, 6, 5, 0]
        );
        assert_eq!(bulk.generation(Addr(0x100)), Some(5));
        assert_eq!(bulk.generation(Addr(0x100)), single.generation(Addr(0x100)));
        // Running off the region writes the mapped prefix, then fails.
        assert!(matches!(
            bulk.write_bytes(Addr(0x106), &bytes),
            Err(SimError::UnmappedAddress { addr: Addr(0x108) })
        ));
        assert_eq!(bulk.read_bytes(Addr(0x106), 2).unwrap(), [9, 8]);
        assert_eq!(bulk.generation(Addr(0x100)), Some(7));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_regions_panic() {
        let mut m = FlatMem::new();
        m.add_region(Addr(0x100), 32);
        m.add_region(Addr(0x110), 32);
    }

    #[test]
    fn adjacent_regions_are_fine() {
        let mut m = FlatMem::new();
        m.add_region(Addr(0x100), 32);
        m.add_region(Addr(0x120), 32);
        assert!(m.read(Addr(0x11C), 4).is_ok());
        assert!(m.read(Addr(0x120), 4).is_ok());
    }

    #[test]
    fn generation_bumps_on_writes_only_in_owning_region() {
        let mut m = FlatMem::new();
        m.add_region(Addr(0x100), 32);
        m.add_region(Addr(0x200), 32);
        assert_eq!(m.generation(Addr(0x100)), Some(0));
        assert_eq!(m.generation(Addr(0x200)), Some(0));
        assert_eq!(m.generation(Addr(0x300)), None);

        m.write(Addr(0x200), 4, 0xAABB_CCDD).unwrap();
        // Word write = four byte writes, each bumping the counter.
        assert_eq!(m.generation(Addr(0x200)), Some(4));
        // Writes to one region leave the other region's counter alone.
        assert_eq!(m.generation(Addr(0x100)), Some(0));

        // Reads never bump.
        m.read(Addr(0x200), 4).unwrap();
        assert_eq!(m.generation(Addr(0x200)), Some(4));

        // `load` goes through write_byte and therefore bumps too.
        m.load(Addr(0x108), &[1, 2]);
        assert_eq!(m.generation(Addr(0x11F)), Some(2));
    }

    #[test]
    fn region_span_reports_base_and_len() {
        let mut m = FlatMem::new();
        m.add_region(Addr(0x100), 32);
        assert_eq!(m.region_span(Addr(0x11F)), Some((Addr(0x100), 32)));
        assert_eq!(m.region_span(Addr(0x120)), None);
    }
}

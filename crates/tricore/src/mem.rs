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
//!
//! A region stores only its written prefix, not a zeroed copy of its whole
//! mapped length: the SoC maps megabytes of flash, SRAM and EMEM per
//! session, of which a workload writes a small part. Bytes past the
//! prefix read as zero; see [`FlatMem::add_region`].
//!
//! A dropped region hands its buffer to a small per-thread spare list,
//! and the next region of the same length on that thread takes it
//! instead of allocating. A host that runs session after session (a
//! fleet, a fuzz campaign) then keeps one buffer per region length for
//! its whole life: the megabyte-sized reservations are not freed and
//! re-placed in the allocator's heap per session, so the pages the
//! sessions write stay the same few pages, and the host's resident set
//! does not creep up with the number of sessions it has run.

use std::cell::{Cell, RefCell};

use audo_common::{Addr, SimError};

use crate::arch::ArchMem;

/// One mapped region: its mapped length, the bytes written so far and a
/// write-generation counter.
///
/// Only the *written prefix* is stored: `bytes` runs from the region base
/// up to the highest byte ever written, rounded up to a multiple of
/// [`GROW`] bytes, and every mapped byte past it reads as zero. The
/// buffer's capacity is reserved for the whole mapped length when the
/// region is added, so growing the prefix never reallocates, and the
/// reserved pages past the prefix are never touched and never become
/// resident.
#[derive(Debug)]
struct Region {
    /// Mapped length in bytes.
    len: usize,
    /// Written prefix; capacity is always at least `len`.
    bytes: Vec<u8>,
    generation: u64,
}

/// Step in which a region's written prefix grows: one 4 KiB host page.
/// Sequential stores, such as an EMEM trace ring's first lap or a CSA
/// free list being linked, then leave the one-slice-check fast path once
/// per page instead of once per store, while the zero-fill touches at
/// most one page past the highest byte written.
const GROW: usize = 4096;

/// Most region buffers one thread keeps for reuse: a SoC maps six
/// regions, and a fleet mixes two derivatives.
const MAX_SPARE: usize = 16;

thread_local! {
    /// Empty buffers of dropped regions, each with its capacity as it was
    /// reserved (a region's mapped length).
    static SPARE: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

impl Region {
    /// A region with an empty prefix and a whole-region reservation: a
    /// spare buffer of exactly `len` bytes if this thread has one, else a
    /// new one.
    fn new(len: usize) -> Region {
        let spare = SPARE
            .try_with(|spare| {
                let mut spare = spare.borrow_mut();
                let at = spare.iter().rposition(|b| b.capacity() == len)?;
                Some(spare.swap_remove(at))
            })
            .ok()
            .flatten();
        Region {
            len,
            bytes: spare.unwrap_or_else(|| Vec::with_capacity(len)),
            generation: 0,
        }
    }
}

impl Drop for Region {
    /// Empties the buffer and keeps it for the next region of its length
    /// (bytes past a prefix are never read, and a growing prefix
    /// zero-fills, so stale contents cannot show).
    fn drop(&mut self) {
        let mut bytes = std::mem::take(&mut self.bytes);
        if bytes.capacity() == 0 {
            return;
        }
        bytes.clear();
        // `try_with`: the list may already be gone during thread teardown.
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.len() == MAX_SPARE {
                // The oldest goes, so a length no longer mapped is not
                // pinned for the thread's life.
                spare.remove(0);
            }
            spare.push(bytes);
        });
    }
}

impl Clone for Region {
    /// Keeps the whole-region reservation: a derived `Vec` clone would
    /// allocate only the prefix, and the clone's first write past it
    /// would reallocate.
    fn clone(&self) -> Region {
        let mut region = Region::new(self.len);
        region.bytes.extend_from_slice(&self.bytes);
        region.generation = self.generation;
        region
    }
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
    /// The region stores only its written prefix: the buffer's capacity is
    /// reserved for all `len` bytes here, once, but nothing is zeroed or
    /// touched until the guest writes, and unwritten bytes read as zero.
    /// No later access allocates; a write past the prefix zero-fills the
    /// gap inside the reservation, up to the end of the 4 KiB step it ends
    /// in.
    ///
    /// # Panics
    ///
    /// Panics if the region overlaps an existing one.
    pub fn add_region(&mut self, base: Addr, len: u32) {
        for (b, region) in &self.regions {
            let existing_end = u64::from(*b) + region.len as u64;
            let new_end = u64::from(base.0) + u64::from(len);
            assert!(
                new_end <= u64::from(*b) || u64::from(base.0) >= existing_end,
                "region {base}+{len:#x} overlaps existing region at {:#x}",
                b
            );
        }
        let at = self.regions.partition_point(|&(b, _)| b < base.0);
        self.regions.insert(at, (base.0, Region::new(len as usize)));
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
            if off < region.len {
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
        if off < region.len {
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
        Some((Addr(*base), region.len as u32))
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
        Ok(self.regions[idx].1.bytes.get(off).copied().unwrap_or(0))
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
        match region.bytes.get_mut(off) {
            Some(b) => {
                *b = value;
                region.generation += 1;
                Ok(())
            }
            None => self.write_miss(addr, &[value]),
        }
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
        self.write_miss(addr, bytes)
    }

    /// The write path for a range outside the written prefix of one
    /// region: grows the prefix to cover a range inside the region (the
    /// gap zero-filled inside the reserved capacity, up to the next
    /// [`GROW`] step), else writes byte by byte across the region end.
    #[cold]
    #[inline(never)]
    fn write_miss(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), SimError> {
        if let Some((idx, off)) = self.locate(addr) {
            let region = &mut self.regions[idx].1;
            let end = off + bytes.len();
            if end <= region.len {
                if end > region.bytes.len() {
                    region
                        .bytes
                        .resize(end.next_multiple_of(GROW).min(region.len), 0);
                }
                region.bytes[off..end].copy_from_slice(bytes);
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
        let mut out = vec![0; len];
        self.read_into(addr, &mut out)?;
        Ok(out)
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf` without
    /// allocating (instruction-fetch hot path).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] if any byte is unmapped.
    pub fn read_into(&self, addr: Addr, buf: &mut [u8]) -> Result<(), SimError> {
        if let Some((idx, off)) = self.locate(addr) {
            if let Some(slice) = self.regions[idx].1.bytes.get(off..off + buf.len()) {
                buf.copy_from_slice(slice);
                return Ok(());
            }
        }
        self.read_miss(addr, buf)
    }

    /// The read path for a range outside the written prefix of one
    /// region: bytes past the prefix read as zero, and a range running
    /// past the region end is read byte by byte.
    #[cold]
    #[inline(never)]
    fn read_miss(&self, addr: Addr, buf: &mut [u8]) -> Result<(), SimError> {
        if let Some((idx, off)) = self.locate(addr) {
            let region = &self.regions[idx].1;
            if off + buf.len() <= region.len {
                let src = region.bytes.get(off..).unwrap_or_default();
                let n = src.len().min(buf.len());
                buf[..n].copy_from_slice(&src[..n]);
                buf[n..].fill(0);
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
            if let Some(slice) = self.regions[idx].1.bytes.get(off..off + size as usize) {
                let mut v: u32 = 0;
                for (i, &b) in slice.iter().enumerate() {
                    v |= u32::from(b) << (8 * i);
                }
                return Ok(v);
            }
        }
        let mut buf = [0; 4];
        self.read_miss(addr, &mut buf[..size as usize])?;
        Ok(u32::from_le_bytes(buf))
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
        self.write_miss(addr, &value.to_le_bytes()[..size as usize])
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

    /// Length of the written prefix of the region containing `addr`.
    fn prefix(m: &FlatMem, addr: Addr) -> usize {
        let (idx, _) = m.locate(addr).expect("mapped");
        m.regions[idx].1.bytes.len()
    }

    #[test]
    fn untouched_bytes_read_zero_without_growing_the_prefix() {
        let mut m = FlatMem::new();
        m.add_region(Addr(0x1000), 0x3000);
        assert_eq!(m.read_byte(Addr(0x3FFF)).unwrap(), 0);
        assert_eq!(m.read(Addr(0x1800), 4).unwrap(), 0);
        assert_eq!(m.read_bytes(Addr(0x3FF0), 16).unwrap(), [0; 16]);
        let mut buf = [0xAA; 8];
        m.read_into(Addr(0x1004), &mut buf).unwrap();
        assert_eq!(buf, [0; 8]);
        assert_eq!(prefix(&m, Addr(0x1000)), 0);
        assert_eq!(m.region_span(Addr(0x3FFF)), Some((Addr(0x1000), 0x3000)));
        assert_eq!(m.generation(Addr(0x1000)), Some(0));

        m.write_byte(Addr(0x1010), 7).unwrap();
        assert_eq!(prefix(&m, Addr(0x1000)), GROW);
        assert_eq!(m.read(Addr(0x3800), 4).unwrap(), 0);
        assert_eq!(m.read_bytes(Addr(0x2000), 4).unwrap(), [0; 4]);
        assert_eq!(prefix(&m, Addr(0x1000)), GROW);
    }

    #[test]
    fn prefix_grows_in_page_steps_up_to_the_region_end() {
        let mut m = FlatMem::new();
        m.add_region(Addr(0x1000), 0x2800);
        m.write_byte(Addr(0x1000), 1).unwrap();
        assert_eq!(prefix(&m, Addr(0x1000)), 0x1000);
        m.write(Addr(0x1FFC), 4, 2).unwrap();
        assert_eq!(prefix(&m, Addr(0x1000)), 0x1000);
        m.write(Addr(0x2000), 4, 3).unwrap();
        assert_eq!(prefix(&m, Addr(0x1000)), 0x2000);
        m.write_bytes(Addr(0x37FE), &[4, 5]).unwrap();
        assert_eq!(prefix(&m, Addr(0x1000)), 0x2800);
        assert_eq!(m.generation(Addr(0x1000)), Some(1 + 4 + 4 + 2));
    }

    #[test]
    fn reads_straddling_the_prefix_end() {
        let mut m = FlatMem::new();
        m.add_region(Addr(0x1000), 0x3000);
        m.write_bytes(Addr(0x1FFA), &[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(prefix(&m, Addr(0x1000)), GROW);
        assert_eq!(m.read(Addr(0x1FFC), 4).unwrap(), 0x0605_0403);
        assert_eq!(m.read(Addr(0x2000), 4).unwrap(), 0);
        let mut buf = [0xAA; 8];
        m.read_into(Addr(0x1FFD), &mut buf).unwrap();
        assert_eq!(buf, [4, 5, 6, 0, 0, 0, 0, 0]);
        assert_eq!(
            m.read_bytes(Addr(0x1FFC), 10).unwrap(),
            [3, 4, 5, 6, 0, 0, 0, 0, 0, 0]
        );
        // Running off the region still fails at the first unmapped byte.
        assert_eq!(
            m.read_bytes(Addr(0x3FFE), 4),
            Err(SimError::UnmappedAddress { addr: Addr(0x4000) })
        );
        assert_eq!(prefix(&m, Addr(0x1000)), GROW);
    }

    #[test]
    fn writes_past_the_prefix_keep_the_buffer() {
        let mut m = FlatMem::new();
        m.add_region(Addr(0x1000), 0x3000);
        let (ptr, cap) = {
            let b = &m.regions[0].1.bytes;
            (b.as_ptr(), b.capacity())
        };
        assert!(cap >= 0x3000);
        m.write_byte(Addr(0x1010), 1).unwrap();
        m.write(Addr(0x2040), 4, 0xDEAD_BEEF).unwrap();
        m.write_bytes(Addr(0x3FF0), &[9; 16]).unwrap();
        let b = &m.regions[0].1.bytes;
        assert_eq!((b.as_ptr(), b.capacity()), (ptr, cap));
        assert_eq!(b.len(), 0x3000);
        assert_eq!(m.read(Addr(0x2040), 4).unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.read_byte(Addr(0x3000)).unwrap(), 0);
    }

    #[test]
    fn a_dropped_region_buffer_serves_the_next_region_of_its_length() {
        let mut m = FlatMem::new();
        m.add_region(Addr(0x1000), 0x3000);
        m.write_bytes(Addr(0x1000), &[7; 0x100]).unwrap();
        let ptr = m.regions[0].1.bytes.as_ptr();
        drop(m);
        let mut other = FlatMem::new();
        other.add_region(Addr(0x1000), 0x2000);
        assert_ne!(other.regions[0].1.bytes.as_ptr(), ptr, "another length");
        let mut n = FlatMem::new();
        n.add_region(Addr(0x8000), 0x3000);
        let b = &n.regions[0].1.bytes;
        assert_eq!((b.as_ptr(), b.len(), b.capacity()), (ptr, 0, 0x3000));
        // The last user's bytes never show, before or after the prefix grows.
        assert_eq!(n.read(Addr(0x8000), 4).unwrap(), 0);
        n.write_byte(Addr(0x8200), 1).unwrap();
        assert_eq!(n.read(Addr(0x8000), 4).unwrap(), 0);
        assert_eq!(n.read_byte(Addr(0x8200)).unwrap(), 1);
    }

    #[test]
    fn clone_keeps_the_reservation() {
        let mut m = FlatMem::new();
        m.add_region(Addr(0x1000), 0x3000);
        m.write(Addr(0x1004), 4, 0x0102_0304).unwrap();
        let mut c = m.clone();
        let ptr = c.regions[0].1.bytes.as_ptr();
        assert!(c.regions[0].1.bytes.capacity() >= 0x3000);
        assert_eq!(prefix(&c, Addr(0x1000)), GROW);
        assert_eq!(c.generation(Addr(0x1000)), Some(4));
        c.write_byte(Addr(0x3FFF), 5).unwrap();
        assert_eq!(c.regions[0].1.bytes.as_ptr(), ptr);
        assert_eq!(c.read(Addr(0x1004), 4).unwrap(), 0x0102_0304);
        assert_eq!(c.read_byte(Addr(0x3FFF)).unwrap(), 5);
        assert_eq!(m.read_byte(Addr(0x3FFF)).unwrap(), 0);
        assert_eq!(prefix(&m, Addr(0x1000)), GROW);
    }

    /// The dense byte-at-a-time semantics the prefix storage must keep:
    /// every mapped byte stored, each written byte bumping its region's
    /// generation, multi-byte accesses failing at the first unmapped byte
    /// after writing the bytes before it.
    struct Dense {
        regions: Vec<(u32, u32)>,
        bytes: Vec<u8>,
        generations: Vec<u64>,
    }

    impl Dense {
        const BASE: u32 = 0xFF0;
        const END: u32 = 0x6810;

        fn region(&self, addr: Addr) -> Result<usize, SimError> {
            self.regions
                .iter()
                .position(|&(b, l)| addr.0 >= b && addr.0 - b < l)
                .ok_or(SimError::UnmappedAddress { addr })
        }

        fn read_byte(&self, addr: Addr) -> Result<u8, SimError> {
            self.region(addr)?;
            Ok(self.bytes[(addr.0 - Self::BASE) as usize])
        }

        fn write_byte(&mut self, addr: Addr, v: u8) -> Result<(), SimError> {
            let r = self.region(addr)?;
            self.bytes[(addr.0 - Self::BASE) as usize] = v;
            self.generations[r] += 1;
            Ok(())
        }

        fn read_bytes(&self, addr: Addr, len: usize) -> Result<Vec<u8>, SimError> {
            (0..len)
                .map(|i| self.read_byte(addr.offset(i as u32)))
                .collect()
        }

        fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), SimError> {
            for (i, &b) in bytes.iter().enumerate() {
                self.write_byte(addr.offset(i as u32), b)?;
            }
            Ok(())
        }
    }

    #[test]
    fn random_accesses_match_a_dense_reference() {
        // Regions of several growth steps, adjacent ones (the second ends
        // off a word boundary, so aligned words straddle into the third)
        // and unmapped gaps between and around them.
        let regions = [
            (0x1000, 0x2000),
            (0x3000, 0x101E),
            (0x401E, 0x62),
            (0x5000, 0x1800),
        ];
        let mut rng = 0x5EED_u64;
        let mut next = |n: u64| {
            rng = audo_common::splitmix64(rng);
            rng % n
        };
        // Fresh memories every round, so the sequence meets many prefix
        // lengths, not just fully grown regions.
        for _ in 0..300 {
            let mut m = FlatMem::new();
            let mut dense = Dense {
                regions: regions.to_vec(),
                bytes: vec![0; (Dense::END - Dense::BASE) as usize],
                generations: vec![0; regions.len()],
            };
            for &(b, l) in &regions {
                m.add_region(Addr(b), l);
            }
            for _ in 0..64 {
                // Half the accesses land within 32 bytes of a growth step
                // or region boundary, where prefix and region ends fall.
                let addr = if next(2) == 0 {
                    Addr(Dense::BASE + next(u64::from(Dense::END - Dense::BASE - 32)) as u32)
                } else {
                    let (b, l) = regions[next(regions.len() as u64) as usize];
                    let step = next(u64::from(l) / GROW as u64 + 1) as u32;
                    Addr((b + (step * GROW as u32).min(l) + next(48) as u32).saturating_sub(24))
                };
                let size = [1u8, 2, 4][next(3) as usize];
                let value = next(1 << 32) as u32;
                let len = next(24) as usize;
                match next(7) {
                    0 => assert_eq!(m.read_byte(addr), dense.read_byte(addr)),
                    1 => assert_eq!(
                        m.write_byte(addr, value as u8),
                        dense.write_byte(addr, value as u8)
                    ),
                    2 => {
                        let want = if addr.is_aligned(u32::from(size)) {
                            dense
                                .read_bytes(addr, size as usize)
                                .map(|b| b.iter().rev().fold(0, |v, &x| (v << 8) | u32::from(x)))
                        } else {
                            Err(SimError::MisalignedAccess { addr, size })
                        };
                        assert_eq!(m.read(addr, size), want, "read {addr} size {size}");
                    }
                    3 => {
                        let want = if addr.is_aligned(u32::from(size)) {
                            let bytes = value.to_le_bytes();
                            dense.write_bytes(addr, &bytes[..size as usize])
                        } else {
                            Err(SimError::MisalignedAccess { addr, size })
                        };
                        assert_eq!(m.write(addr, size, value), want, "write {addr} size {size}");
                    }
                    4 => {
                        let bytes: Vec<u8> = (0..len).map(|i| value as u8 ^ i as u8).collect();
                        assert_eq!(m.write_bytes(addr, &bytes), dense.write_bytes(addr, &bytes));
                    }
                    5 => assert_eq!(m.read_bytes(addr, len), dense.read_bytes(addr, len)),
                    _ => {
                        let mut buf = vec![0xAA; len];
                        let got = m.read_into(addr, &mut buf).map(|()| buf);
                        assert_eq!(got, dense.read_bytes(addr, len));
                    }
                }
                // Write generations equal the dense implementation's.
                for (r, &(b, l)) in regions.iter().enumerate() {
                    assert_eq!(m.generation(Addr(b)), Some(dense.generations[r]));
                    let p = prefix(&m, Addr(b));
                    assert!(p.is_multiple_of(GROW) || p == l as usize, "prefix {p:#x}");
                }
            }
            for &(b, l) in &regions {
                assert_eq!(
                    m.read_bytes(Addr(b), l as usize),
                    dense.read_bytes(Addr(b), l as usize)
                );
            }
        }
    }
}

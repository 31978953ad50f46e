//! Program images produced by the assembler and consumed by loaders,
//! disassemblers and the host-side trace reconstruction.

use std::collections::BTreeMap;

use audo_common::{Addr, SimError};

use crate::arch::ArchMem;

/// A contiguous run of bytes at a fixed address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Load address of the first byte.
    pub base: Addr,
    /// Section contents.
    pub bytes: Vec<u8>,
}

/// An assembled program: sections, the symbol table, and the entry point.
///
/// # Examples
///
/// ```
/// use audo_tricore::asm::assemble;
///
/// let image = assemble(
///     "
///     .org 0x80000000
/// _start:
///     movi d0, 42
///     halt
///     ",
/// )?;
/// assert_eq!(image.entry().0, 0x8000_0000);
/// assert_eq!(image.symbol("_start"), Some(audo_common::Addr(0x8000_0000)));
/// # Ok::<(), audo_common::SimError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Image {
    sections: Vec<Section>,
    symbols: BTreeMap<String, u32>,
    entry: u32,
}

impl Image {
    /// Creates an image from raw parts. The entry point is the `_start`
    /// symbol if present, otherwise the base of the first section.
    #[must_use]
    pub fn from_parts(sections: Vec<Section>, symbols: BTreeMap<String, u32>) -> Image {
        let entry = symbols
            .get("_start")
            .copied()
            .or_else(|| sections.first().map(|s| s.base.0))
            .unwrap_or(0);
        Image {
            sections,
            symbols,
            entry,
        }
    }

    /// The program entry point.
    #[must_use]
    pub fn entry(&self) -> Addr {
        Addr(self.entry)
    }

    /// All sections in definition order.
    #[must_use]
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Looks up a symbol's address.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<Addr> {
        self.symbols.get(name).copied().map(Addr)
    }

    /// The full symbol table, sorted by name.
    #[must_use]
    pub fn symbols(&self) -> &BTreeMap<String, u32> {
        &self.symbols
    }

    /// Returns `(address, name)` pairs of all symbols, sorted by address —
    /// the function table used by the profiler for hot-spot attribution.
    #[must_use]
    pub fn symbols_by_addr(&self) -> Vec<(Addr, &str)> {
        let mut v: Vec<(Addr, &str)> = self
            .symbols
            .iter()
            .map(|(n, &a)| (Addr(a), n.as_str()))
            .collect();
        v.sort_by_key(|&(a, _)| a);
        v
    }

    /// Returns the name of the innermost symbol at or before `addr`, if any.
    #[must_use]
    pub fn symbol_containing(&self, addr: Addr) -> Option<&str> {
        self.symbols
            .iter()
            .filter(|&(_, &a)| a <= addr.0)
            .max_by_key(|&(_, &a)| a)
            .map(|(n, _)| n.as_str())
    }

    /// Total size of all sections in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.sections.iter().map(|s| s.bytes.len()).sum()
    }

    /// Reads the byte at `addr` from the image, if covered by a section.
    #[must_use]
    pub fn byte_at(&self, addr: Addr) -> Option<u8> {
        for s in &self.sections {
            if addr.in_range(s.base, s.bytes.len() as u32) {
                return Some(s.bytes[(addr.0 - s.base.0) as usize]);
            }
        }
        None
    }

    /// The bytes an instruction at `pc` can take, without allocating: all
    /// four when the image holds them, else the first two (the length
    /// says which), else `None`. They come from the slice of the section
    /// holding `pc`; only near its end are the following bytes looked up
    /// in whichever section holds them, so an instruction may run across
    /// two adjacent sections that were not merged.
    #[must_use]
    pub fn instr_bytes(&self, pc: Addr) -> Option<([u8; 4], usize)> {
        let section = self
            .sections
            .iter()
            .find(|s| pc.in_range(s.base, s.bytes.len() as u32))?;
        let tail = &section.bytes[(pc.0 - section.base.0) as usize..];
        let mut word = [0; 4];
        let mut n = tail.len().min(4);
        word[..n].copy_from_slice(&tail[..n]);
        while n < 4 {
            let Some(b) = self.byte_at(pc.offset(n as u32)) else {
                break;
            };
            word[n] = b;
            n += 1;
        }
        match n {
            4 => Some((word, 4)),
            2 | 3 => Some((word, 2)),
            _ => None,
        }
    }

    /// Reads up to `len` consecutive bytes starting at `addr`.
    #[must_use]
    pub fn bytes_at(&self, addr: Addr, len: usize) -> Option<Vec<u8>> {
        (0..len)
            .map(|i| self.byte_at(addr.offset(i as u32)))
            .collect()
    }

    /// Writes every section into a functional memory.
    ///
    /// # Errors
    ///
    /// Fails if a section lies outside mapped memory.
    pub fn load_into<M: ArchMem>(&self, mem: &mut M) -> Result<(), SimError> {
        for s in &self.sections {
            for (i, &b) in s.bytes.iter().enumerate() {
                mem.write(s.base.offset(i as u32), 1, u32::from(b))?;
            }
        }
        Ok(())
    }

    /// Writes only the sections overlapping `[base, base + len)` into a
    /// functional memory — the calibration-overlay swap primitive.
    ///
    /// The paper's EMEM story patches alternative calibration data (and
    /// occasionally code) over flash while the application keeps running.
    /// This loads just the overlay window from `self`, leaving everything
    /// outside it untouched. Writes go through the normal store path, so
    /// the target region's generation counter is bumped and any predecoded
    /// ISS blocks covering the window are invalidated on next entry.
    ///
    /// Returns the number of bytes written.
    ///
    /// # Errors
    ///
    /// Fails if an overlapping byte lies outside mapped memory.
    pub fn overlay_into<M: ArchMem>(
        &self,
        mem: &mut M,
        base: Addr,
        len: u32,
    ) -> Result<usize, SimError> {
        let window_end = u64::from(base.0) + u64::from(len);
        let mut written = 0usize;
        for s in &self.sections {
            for (i, &b) in s.bytes.iter().enumerate() {
                let addr = s.base.offset(i as u32);
                if u64::from(addr.0) >= u64::from(base.0) && u64::from(addr.0) < window_end {
                    mem.write(addr, 1, u32::from(b))?;
                    written += 1;
                }
            }
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_image() -> Image {
        let mut syms = BTreeMap::new();
        syms.insert("_start".to_string(), 0x8000_0010);
        syms.insert("table".to_string(), 0x8000_0100);
        syms.insert("func_b".to_string(), 0x8000_0040);
        Image::from_parts(
            vec![
                Section {
                    base: Addr(0x8000_0000),
                    bytes: vec![1, 2, 3, 4],
                },
                Section {
                    base: Addr(0x8000_0100),
                    bytes: vec![9, 9],
                },
            ],
            syms,
        )
    }

    #[test]
    fn entry_prefers_start_symbol() {
        let img = demo_image();
        assert_eq!(img.entry(), Addr(0x8000_0010));
        let img2 = Image::from_parts(
            vec![Section {
                base: Addr(0x4000),
                bytes: vec![0],
            }],
            BTreeMap::new(),
        );
        assert_eq!(img2.entry(), Addr(0x4000));
    }

    #[test]
    fn byte_lookup_across_sections() {
        let img = demo_image();
        assert_eq!(img.byte_at(Addr(0x8000_0003)), Some(4));
        assert_eq!(img.byte_at(Addr(0x8000_0004)), None);
        assert_eq!(img.byte_at(Addr(0x8000_0101)), Some(9));
        assert_eq!(img.bytes_at(Addr(0x8000_0000), 4), Some(vec![1, 2, 3, 4]));
        assert_eq!(
            img.bytes_at(Addr(0x8000_0002), 4),
            None,
            "crosses section end"
        );
    }

    #[test]
    fn instr_bytes_run_across_unmerged_adjacent_sections() {
        // A 32-bit instruction whose upper half sits in the next section.
        let img = Image::from_parts(
            vec![
                Section {
                    base: Addr(0x8000_0000),
                    bytes: vec![0x11, 0x22, 0x33, 0x44, 0x55, 0x66],
                },
                Section {
                    base: Addr(0x8000_0006),
                    bytes: vec![0x77, 0x88],
                },
            ],
            BTreeMap::new(),
        );
        assert_eq!(
            img.instr_bytes(Addr(0x8000_0004)),
            Some(([0x55, 0x66, 0x77, 0x88], 4))
        );
        assert_eq!(
            img.bytes_at(Addr(0x8000_0004), 4),
            Some(vec![0x55, 0x66, 0x77, 0x88])
        );
        // Two bytes short of a word at the image end: a halfword.
        assert_eq!(img.instr_bytes(Addr(0x8000_0006)).map(|(_, n)| n), Some(2));
        let (w, _) = img.instr_bytes(Addr(0x8000_0006)).unwrap();
        assert_eq!(w[..2], [0x77, 0x88]);
        // One byte left, or none: nothing an instruction can take.
        assert_eq!(img.instr_bytes(Addr(0x8000_0007)), None);
        assert_eq!(img.instr_bytes(Addr(0x8000_0008)), None);
        // A gap between sections stops the word at the gap.
        let demo = demo_image();
        assert_eq!(demo.instr_bytes(Addr(0x8000_0002)).map(|(_, n)| n), Some(2));
    }

    #[test]
    fn symbol_containment() {
        let img = demo_image();
        assert_eq!(img.symbol_containing(Addr(0x8000_0015)), Some("_start"));
        assert_eq!(img.symbol_containing(Addr(0x8000_0050)), Some("func_b"));
        assert_eq!(img.symbol_containing(Addr(0x8000_0000)), None);
        let by_addr = img.symbols_by_addr();
        assert_eq!(by_addr[0].1, "_start");
        assert_eq!(by_addr[2].1, "table");
    }

    #[test]
    fn overlay_into_touches_only_the_window() {
        use crate::mem::FlatMem;
        let img = demo_image();
        let mut mem = FlatMem::new();
        mem.add_region(Addr(0x8000_0000), 0x200);
        // Only the second section (two bytes at 0x8000_0100) overlaps.
        let n = img.overlay_into(&mut mem, Addr(0x8000_0100), 0x10).unwrap();
        assert_eq!(n, 2);
        assert_eq!(mem.read_byte(Addr(0x8000_0100)).unwrap(), 9);
        // First section untouched: still zero-initialised.
        assert_eq!(mem.read_byte(Addr(0x8000_0000)).unwrap(), 0);
        // The overlay bumped the region's write generation.
        assert_eq!(mem.generation(Addr(0x8000_0000)), Some(2));
    }

    #[test]
    fn load_into_flat_memory() {
        use crate::mem::FlatMem;
        let img = demo_image();
        let mut mem = FlatMem::new();
        mem.add_region(Addr(0x8000_0000), 0x200);
        img.load_into(&mut mem).unwrap();
        assert_eq!(mem.read_byte(Addr(0x8000_0001)).unwrap(), 2);
        assert_eq!(mem.read_byte(Addr(0x8000_0100)).unwrap(), 9);
        assert_eq!(img.size(), 6);
    }
}

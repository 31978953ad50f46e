//! Multi-master hazard detection.
//!
//! On AUDO-class devices three masters touch shared memory: the TriCore
//! core, the DMA move engine and the PCP I/O processor. A write range of
//! one master overlapping another master's access range — without any
//! synchronization the analyzer can see — is a classic integration bug
//! (and exactly the kind of behaviour the paper's bus observation blocks
//! exist to expose). This module derives each non-CPU master's static
//! access ranges and intersects them with the CPU's statically resolved
//! store set.
//!
//! Only *RAM-like* regions participate (scratchpads, SRAM, EMEM, data
//! flash): concurrent MMIO accesses to a peripheral are the normal way
//! hardware is shared, not a hazard.

use std::collections::{BTreeMap, BTreeSet};

use audo_common::Addr;
use audo_pcp::isa::{PReg, PcpInstr};
use audo_platform::config::{Region, SocConfig};
use audo_platform::dma::DmaState;

use crate::access::{AccessKind, MemAccess};
use crate::findings::{Finding, Severity};

/// A contiguous byte range `[start, start + len)` accessed by a master.
#[derive(Debug, Clone)]
pub struct MasterRange {
    /// Master label, e.g. `dma ch0` or `pcp ch3`.
    pub master: String,
    /// Read or write.
    pub kind: AccessKind,
    /// First byte.
    pub start: u32,
    /// Length in bytes (non-zero).
    pub len: u32,
}

impl MasterRange {
    fn overlaps(&self, addr: u32, width: u32) -> bool {
        let a_end = u64::from(addr) + u64::from(width);
        let r_end = u64::from(self.start) + u64::from(self.len);
        u64::from(addr) < r_end && u64::from(self.start) < a_end
    }
}

/// Static access ranges of the non-CPU masters.
#[derive(Debug, Clone, Default)]
pub struct MasterRanges {
    /// All ranges, in derivation order.
    pub ranges: Vec<MasterRange>,
}

impl MasterRanges {
    /// No other masters (pure-CPU analysis).
    #[must_use]
    pub fn empty() -> Self {
        MasterRanges::default()
    }

    /// Derives ranges from programmed DMA channels and an optional PCP
    /// program (`words` loaded at CMEM `base`, started at `entries`).
    #[must_use]
    pub fn derive(dma: &DmaState, pcp: Option<(&[u32], u16, &[u16])>) -> Self {
        let mut ranges = dma_ranges(dma);
        if let Some((words, base, entries)) = pcp {
            ranges.extend(pcp_ranges(words, base, entries));
        }
        MasterRanges { ranges }
    }
}

/// Span of a DMA side: `count` word beats starting at `base`, stepped by
/// `inc` bytes per beat (0 = fixed register address: one word).
fn dma_span(base: u32, count: u32, inc: i32) -> (u32, u32) {
    if count == 0 {
        return (base, 4);
    }
    match inc {
        0 => (base, 4),
        i if i > 0 => (base, (count - 1).saturating_mul(i as u32).saturating_add(4)),
        i => {
            let back = (count - 1).saturating_mul(i.unsigned_abs());
            (base.wrapping_sub(back), back.saturating_add(4))
        }
    }
}

/// Access ranges of every enabled DMA channel.
#[must_use]
pub fn dma_ranges(dma: &DmaState) -> Vec<MasterRange> {
    let mut out = Vec::new();
    for (i, c) in dma.channels().iter().enumerate() {
        if !c.enabled {
            continue;
        }
        let (rs, rl) = dma_span(c.src, c.count, c.src_inc);
        let (ws, wl) = dma_span(c.dst, c.count, c.dst_inc);
        out.push(MasterRange {
            master: format!("dma ch{i}"),
            kind: AccessKind::Load,
            start: rs,
            len: rl,
        });
        out.push(MasterRange {
            master: format!("dma ch{i}"),
            kind: AccessKind::Store,
            start: ws,
            len: wl,
        });
    }
    out
}

/// PCP register lattice: 8 per-channel registers.
type PcpState = [Option<u32>; 8];

fn pcp_transfer(st: &mut PcpState, instr: &PcpInstr) {
    let r = |st: &PcpState, reg: PReg| st[reg.0 as usize];
    match *instr {
        PcpInstr::Ldi { r1, imm } => st[r1.0 as usize] = Some(u32::from(imm)),
        PcpInstr::Ldih { r1, imm } => {
            st[r1.0 as usize] = r(st, r1).map(|v| (u32::from(imm) << 16) | (v & 0xFFFF));
        }
        PcpInstr::Add { r1, r2 } => {
            st[r1.0 as usize] = match (r(st, r1), r(st, r2)) {
                (Some(x), Some(y)) => Some(x.wrapping_add(y)),
                _ => None,
            };
        }
        PcpInstr::Addi { r1, imm } => {
            st[r1.0 as usize] = r(st, r1).map(|v| v.wrapping_add(imm as i32 as u32));
        }
        PcpInstr::Shl { r1, imm } => {
            st[r1.0 as usize] = r(st, r1).map(|v| v << imm);
        }
        PcpInstr::Shr { r1, imm } => {
            st[r1.0 as usize] = r(st, r1).map(|v| v >> imm);
        }
        PcpInstr::Ld { r1, .. } | PcpInstr::Ldp { r1, .. } => st[r1.0 as usize] = None,
        PcpInstr::Sub { r1, .. }
        | PcpInstr::And { r1, .. }
        | PcpInstr::Or { r1, .. }
        | PcpInstr::Xor { r1, .. }
        | PcpInstr::Mul { r1, .. }
        | PcpInstr::Min { r1, .. }
        | PcpInstr::Max { r1, .. } => st[r1.0 as usize] = None,
        _ => {}
    }
}

fn meet_pcp(into: &mut PcpState, other: &PcpState) -> bool {
    let mut changed = false;
    for i in 0..8 {
        if into[i].is_some() && into[i] != other[i] {
            into[i] = None;
            changed = true;
        }
    }
    changed
}

/// FPI (crossbar) access ranges of a PCP channel program.
///
/// Runs a small constant propagation over the channel-program words
/// (`words` loaded at CMEM word offset `base`, one entry point per
/// started channel) and collects every `Ld`/`St` whose base register is
/// statically known. PRAM accesses (`Ldp`/`Stp`) are local to the PCP and
/// never reach shared memory, so they are ignored.
#[must_use]
pub fn pcp_ranges(words: &[u32], base: u16, entries: &[u16]) -> Vec<MasterRange> {
    // Per-word-index entry states (channels share the flat CMEM space).
    let mut entry_state: BTreeMap<u16, PcpState> = BTreeMap::new();
    let mut work: Vec<u16> = Vec::new();
    for &e in entries {
        entry_state.insert(e, [None; 8]);
        work.push(e);
    }
    let decode_at = |idx: u16| -> Option<PcpInstr> {
        let rel = idx.checked_sub(base)? as usize;
        let w = *words.get(rel)?;
        PcpInstr::decode(w, Addr(u32::from(idx))).ok()
    };

    fn propagate(
        entry_state: &mut BTreeMap<u16, PcpState>,
        work: &mut Vec<u16>,
        t: u16,
        st: &PcpState,
    ) {
        match entry_state.get_mut(&t) {
            None => {
                entry_state.insert(t, *st);
                work.push(t);
            }
            Some(cur) => {
                if meet_pcp(cur, st) {
                    work.push(t);
                }
            }
        }
    }

    // Worklist over straight-line runs; lattice height bounds iteration.
    let mut budget = words.len().saturating_mul(64).max(1024);
    while let Some(start) = work.pop() {
        let mut idx = start;
        let mut st = entry_state.get(&start).copied().unwrap_or([None; 8]);
        loop {
            if budget == 0 {
                return collect_pcp_accesses(words, base, &entry_state);
            }
            budget -= 1;
            let Some(instr) = decode_at(idx) else {
                break;
            };
            match instr {
                PcpInstr::Jmp { target } => {
                    propagate(&mut entry_state, &mut work, target, &st);
                    break;
                }
                PcpInstr::Jnz { target, .. } | PcpInstr::Jz { target, .. } => {
                    propagate(&mut entry_state, &mut work, target, &st);
                    pcp_transfer(&mut st, &instr);
                    let next = idx.wrapping_add(1);
                    propagate(&mut entry_state, &mut work, next, &st);
                    break;
                }
                PcpInstr::Exit => break,
                _ => {
                    pcp_transfer(&mut st, &instr);
                    idx = idx.wrapping_add(1);
                    // Continue the straight-line run, but join into any
                    // already-known entry point we fall into.
                    if entry_state.contains_key(&idx) {
                        propagate(&mut entry_state, &mut work, idx, &st);
                        break;
                    }
                }
            }
        }
    }
    collect_pcp_accesses(words, base, &entry_state)
}

/// Replays each known entry state over its straight-line run, recording
/// resolvable FPI accesses.
fn collect_pcp_accesses(
    words: &[u32],
    base: u16,
    entry_state: &BTreeMap<u16, PcpState>,
) -> Vec<MasterRange> {
    let mut seen: BTreeSet<(u32, AccessKind)> = BTreeSet::new();
    let mut out = Vec::new();
    for (&start, st0) in entry_state {
        let mut st = *st0;
        let mut idx = start;
        while let Some(rel) = idx.checked_sub(base) {
            let Some(&w) = words.get(rel as usize) else {
                break;
            };
            let Ok(instr) = PcpInstr::decode(w, Addr(u32::from(idx))) else {
                break;
            };
            match instr {
                PcpInstr::Ld { r2, off, .. } | PcpInstr::St { r2, off, .. } => {
                    if let Some(b) = st[r2.0 as usize] {
                        let addr = b.wrapping_add(off as i32 as u32);
                        let kind = if matches!(instr, PcpInstr::St { .. }) {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        };
                        if seen.insert((addr, kind)) {
                            out.push(MasterRange {
                                master: format!("pcp @{idx}"),
                                kind,
                                start: addr,
                                len: 4,
                            });
                        }
                    }
                }
                PcpInstr::Jmp { .. } | PcpInstr::Exit => break,
                PcpInstr::Jnz { .. } | PcpInstr::Jz { .. } => break,
                _ => {}
            }
            pcp_transfer(&mut st, &instr);
            idx = idx.wrapping_add(1);
            // Stop at the next entry point: it is replayed on its own
            // (meet-adjusted) state.
            if idx != start && entry_state.contains_key(&idx) {
                break;
            }
        }
    }
    out
}

fn shared_ram(region: Region) -> bool {
    matches!(
        region,
        Region::Dspr | Region::Pspr | Region::Sram | Region::Emem | Region::Dflash
    )
}

/// Intersects the CPU's resolved accesses with the other masters' ranges.
///
/// CPU write ∩ other-master write → [`Severity::Error`] (lost updates);
/// CPU access ∩ other-master write, or CPU write ∩ other-master read →
/// [`Severity::Warning`] (torn reads / stale data), reported once per
/// (site, master) pair.
#[must_use]
pub fn detect(accesses: &[MemAccess], masters: &MasterRanges, soc: &SocConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for acc in accesses {
        let (Some(target), Some(region)) = (acc.target, acc.region) else {
            continue;
        };
        if !shared_ram(region) {
            continue;
        }
        for mr in &masters.ranges {
            if !mr.overlaps(target, u32::from(acc.width)) {
                continue;
            }
            // Both sides reading is harmless.
            if acc.kind == AccessKind::Load && mr.kind == AccessKind::Load {
                continue;
            }
            let master_region = soc.region_of(Addr(mr.start));
            if !shared_ram(master_region) {
                continue;
            }
            let code = if mr.master.starts_with("dma") {
                "hazard-dma"
            } else {
                "hazard-pcp"
            };
            let both_write = acc.kind == AccessKind::Store && mr.kind == AccessKind::Store;
            let severity = if both_write {
                Severity::Error
            } else {
                Severity::Warning
            };
            let verb = match (acc.kind, mr.kind) {
                (AccessKind::Store, AccessKind::Store) => "write/write",
                (AccessKind::Store, AccessKind::Load) => "CPU write vs. master read",
                _ => "CPU read vs. master write",
            };
            let mut f = Finding::new(
                severity,
                code,
                Some(acc.site),
                format!(
                    "{verb} overlap at {target:#010x} ({}) between the CPU and {}",
                    region.name(),
                    mr.master
                ),
            );
            f.note = Some(format!(
                "{} range {:#010x}..{:#010x} has no synchronization the analyzer can see",
                mr.master,
                mr.start,
                u64::from(mr.start) + u64::from(mr.len)
            ));
            out.push(f);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dma_with(dst: u32, count: u32, dst_inc: i32) -> DmaState {
        let mut dma = DmaState::new();
        dma.mmio_write(0x00, 0xF000_200C);
        dma.mmio_write(0x04, dst);
        dma.mmio_write(0x08, count);
        dma.mmio_write(0x10, 0);
        dma.mmio_write(0x14, dst_inc as u32);
        dma.mmio_write(0x0C, 1); // enabled
        dma
    }

    #[test]
    fn dma_span_covers_incrementing_block() {
        let dma = dma_with(0xD000_0100, 8, 4);
        let ranges = dma_ranges(&dma);
        let w = ranges
            .iter()
            .find(|r| r.kind == AccessKind::Store)
            .expect("write range");
        assert_eq!(w.start, 0xD000_0100);
        assert_eq!(w.len, 32);
        let r = ranges
            .iter()
            .find(|r| r.kind == AccessKind::Load)
            .expect("read range");
        assert_eq!((r.start, r.len), (0xF000_200C, 4), "fixed src = one word");
    }

    #[test]
    fn cpu_write_into_dma_write_range_is_error() {
        let soc = SocConfig::tc1797();
        let masters = MasterRanges::derive(&dma_with(0xD000_0100, 8, 4), None);
        let acc = [MemAccess {
            site: 0x8000_0010,
            block: 0x8000_0000,
            kind: AccessKind::Store,
            width: 4,
            target: Some(0xD000_0104),
            region: Some(Region::Dspr),
        }];
        let f = detect(&acc, &masters, &soc);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].severity, Severity::Error);
        assert_eq!(f[0].code, "hazard-dma");
    }

    #[test]
    fn cpu_read_of_dma_write_range_is_warning_and_mmio_is_ignored() {
        let soc = SocConfig::tc1797();
        let masters = MasterRanges::derive(&dma_with(0xD000_0100, 8, 4), None);
        let acc = [
            MemAccess {
                site: 0x8000_0010,
                block: 0x8000_0000,
                kind: AccessKind::Load,
                width: 4,
                target: Some(0xD000_0100),
                region: Some(Region::Dspr),
            },
            // Reading the same ADC FIFO register the DMA drains: normal.
            MemAccess {
                site: 0x8000_0014,
                block: 0x8000_0000,
                kind: AccessKind::Load,
                width: 4,
                target: Some(0xF000_200C),
                region: Some(Region::Periph),
            },
        ];
        let f = detect(&acc, &masters, &soc);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].severity, Severity::Warning);
    }

    #[test]
    fn disjoint_ranges_produce_nothing() {
        let soc = SocConfig::tc1797();
        let masters = MasterRanges::derive(&dma_with(0xD000_0100, 8, 4), None);
        let acc = [MemAccess {
            site: 0x8000_0010,
            block: 0x8000_0000,
            kind: AccessKind::Store,
            width: 4,
            target: Some(0xD000_0200),
            region: Some(Region::Dspr),
        }];
        assert!(detect(&acc, &masters, &soc).is_empty());
    }

    #[test]
    fn pcp_store_range_found_through_ldi_ldih() {
        // r7 = 0x90000100 built with LDI/LDIH, then ST via FPI.
        let words = vec![
            PcpInstr::Ldi {
                r1: PReg(7),
                imm: 0x0100,
            }
            .encode(),
            PcpInstr::Ldih {
                r1: PReg(7),
                imm: 0x9000,
            }
            .encode(),
            PcpInstr::St {
                r1: PReg(0),
                r2: PReg(7),
                off: 4,
            }
            .encode(),
            PcpInstr::Exit.encode(),
        ];
        let ranges = pcp_ranges(&words, 0, &[0]);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].kind, AccessKind::Store);
        assert_eq!(ranges[0].start, 0x9000_0104);
    }

    #[test]
    fn pcp_loop_join_keeps_agreeing_base() {
        // Loop body stores through a base that never changes: the join
        // must keep it constant across the back edge.
        let words = vec![
            PcpInstr::Ldi {
                r1: PReg(7),
                imm: 0x0200,
            }
            .encode(),
            PcpInstr::Ldih {
                r1: PReg(7),
                imm: 0x9000,
            }
            .encode(),
            PcpInstr::Ldi {
                r1: PReg(0),
                imm: 4,
            }
            .encode(),
            // word 3: loop head
            PcpInstr::St {
                r1: PReg(1),
                r2: PReg(7),
                off: 0,
            }
            .encode(),
            PcpInstr::Addi {
                r1: PReg(0),
                imm: -1,
            }
            .encode(),
            PcpInstr::Jnz {
                r1: PReg(0),
                target: 3,
            }
            .encode(),
            PcpInstr::Exit.encode(),
        ];
        let ranges = pcp_ranges(&words, 0, &[0]);
        assert!(
            ranges
                .iter()
                .any(|r| r.kind == AccessKind::Store && r.start == 0x9000_0200),
            "{ranges:?}"
        );
    }
}

//! Static memory-access extraction and memory-map classification.
//!
//! Walks every load/store site in the CFG with the constant-propagation
//! entry states, computes the effective address where the base register is
//! statically known, and classifies it against the platform memory map
//! ([`SocConfig::region_of`]). Unresolvable accesses (pointer chases,
//! post-increment bases that lost their constant at a join) are kept with
//! `target: None` so callers can still count them per block.

use audo_common::Addr;
use audo_platform::config::{Region, SocConfig};
use audo_tricore::isa::Instr;

use crate::cfg::{Block, Cfg};
use crate::constprop::{self, RegState, Solution};

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// Read from memory.
    Load,
    /// Write to memory.
    Store,
}

/// One static memory access site.
#[derive(Debug, Clone, Copy)]
pub struct MemAccess {
    /// Instruction address.
    pub site: u32,
    /// Start address of the enclosing basic block.
    pub block: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// Access width in bytes.
    pub width: u8,
    /// Statically resolved effective address, when the base register held
    /// a known constant at this site.
    pub target: Option<u32>,
    /// Memory-map region of `target` (None exactly when `target` is).
    pub region: Option<Region>,
}

fn operands(
    instr: &Instr,
) -> Option<(
    AccessKind,
    u8,  /* ab */
    i32, /* off */
    u8,  /* width */
)> {
    match *instr {
        Instr::Ld { ab, off, width, .. } => {
            Some((AccessKind::Load, ab.0, i32::from(off), width.bytes()))
        }
        Instr::St { ab, off, width, .. } => {
            Some((AccessKind::Store, ab.0, i32::from(off), width.bytes()))
        }
        Instr::LdWPostInc { ab, .. } => Some((AccessKind::Load, ab.0, 0, 4)),
        Instr::StWPostInc { ab, .. } => Some((AccessKind::Store, ab.0, 0, 4)),
        Instr::LdA { ab, off, .. } => Some((AccessKind::Load, ab.0, i32::from(off), 4)),
        Instr::StA { ab, off, .. } => Some((AccessKind::Store, ab.0, i32::from(off), 4)),
        _ => None,
    }
}

/// Extracts every static access site in `cfg`, resolving targets through
/// the propagation solution and classifying them against `cfg_soc`'s map.
#[must_use]
pub fn extract(cfg: &Cfg, sol: &Solution, soc: &SocConfig) -> Vec<MemAccess> {
    let mut out = Vec::new();
    for block in cfg.blocks.values() {
        extract_block(block, sol.entry_of(block.start), soc, &mut out);
    }
    out
}

/// Appends the access sites of one block to `out`, starting from the
/// register state `st` at its entry.
pub(crate) fn extract_block(
    block: &Block,
    mut st: RegState,
    soc: &SocConfig,
    out: &mut Vec<MemAccess>,
) {
    for site in &block.instrs {
        if let Some((kind, ab, off, width)) = operands(&site.instr) {
            let target = st.a[ab as usize].map(|base| base.wrapping_add(off as u32));
            out.push(MemAccess {
                site: site.addr,
                block: block.start,
                kind,
                width,
                target,
                region: target.map(|t| soc.region_of(Addr(t))),
            });
        }
        constprop::transfer(&mut st, &site.instr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use audo_tricore::asm::assemble;

    fn accesses(src: &str) -> Vec<MemAccess> {
        let (g, sol) = cfg::recover_solved(&assemble(src).expect("test source assembles"));
        extract(&g, &sol, &SocConfig::tc1797())
    }

    #[test]
    fn resolved_store_classified_by_region() {
        let acc = accesses(
            "
    .org 0x80000000
_start:
    la a2, 0xd0000200
    st.w d0, [a2]
    la a3, 0x90000010
    ld.w d1, [a3+4]
    halt
",
        );
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[0].kind, AccessKind::Store);
        assert_eq!(acc[0].target, Some(0xd000_0200));
        assert_eq!(acc[0].region, Some(Region::Dspr));
        assert_eq!(acc[1].kind, AccessKind::Load);
        assert_eq!(acc[1].target, Some(0x9000_0014));
        assert_eq!(acc[1].region, Some(Region::Sram));
    }

    #[test]
    fn unknown_base_yields_unresolved_access() {
        let acc = accesses(
            "
    .org 0x80000000
_start:
    ld.w d0, [a2]
    halt
",
        );
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].target, None);
        assert_eq!(acc[0].region, None);
    }

    #[test]
    fn post_increment_uses_pre_state_base() {
        let acc = accesses(
            "
    .org 0x80000000
_start:
    la a2, 0x80001000
    ld.w d3, [a2+]4
    ld.w d4, [a2+]4
    halt
",
        );
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[0].target, Some(0x8000_1000));
        assert_eq!(acc[0].region, Some(Region::PflashCached));
        // The post-increment advanced the base for the second access.
        assert_eq!(acc[1].target, Some(0x8000_1004));
    }
}

//! Predecoded basic-block cache shared by both execution tiers.
//!
//! Both tiers decode each straight-line run **once** into a [`Block`] —
//! ended by [`ends_block`] or after [`MAX_BLOCK_LEN`] instructions — and
//! replay it on later executions. The functional ISS fills blocks by
//! walking memory ([`BlockCache::get_or_fill`]); the cycle-level pipeline
//! fills them incrementally from its fetched byte stream.
//!
//! Correctness hinges on invalidation: a block is only valid while the
//! bytes it was decoded from are unchanged. Rather than snooping every
//! store, each block records the [`Stamp`] of the memory region it was
//! decoded from (see [`FlatMem::region_stamp`]) and is served only while
//! the caller's stamp still equals it. Any write into code memory — a
//! self-modifying store or a calibration-overlay swap — bumps the
//! generation and lazily invalidates every block in that region. This is
//! the discipline the paper demands of the on-chip trace hardware: the
//! fast path must not change the event stream, only the wall-clock speed
//! of producing it.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use audo_common::{Addr, SimError};

use crate::encode::decode;
use crate::isa::Instr;
use crate::mem::FlatMem;

/// Longest straight-line run predecoded into a single block, on either
/// tier.
///
/// Blocks almost always end at a branch well before this; the cap bounds
/// the work wasted when a block is invalidated by a code write. Public so
/// static analyzers can bound the cost of *any* carved block without
/// re-deriving the cap.
pub const MAX_BLOCK_LEN: usize = 64;

/// Whether `instr` ends a predecoded block: control flow, serializing
/// instructions, debug markers, `WAIT` and `HALT` all hand control back
/// to the dispatcher.
#[must_use]
pub fn ends_block(instr: &Instr) -> bool {
    instr.is_control_flow()
        || instr.is_serializing()
        || matches!(instr, Instr::Debug { .. } | Instr::Wait | Instr::Halt)
}

/// Identity of the code bytes a block was decoded from:
/// `(region base, write generation)`.
pub type Stamp = (u32, u64);

/// One predecoded instruction within an ISS block.
#[derive(Debug, Clone, Copy)]
pub struct CachedInstr {
    /// Address the instruction was decoded from.
    pub pc: u32,
    /// Encoded length in bytes (2 or 4).
    pub len: u8,
    /// The decoded instruction.
    pub instr: Instr,
    /// Whether the instruction is a plain store ([`Instr::is_plain_store`]).
    ///
    /// After executing such an instruction the ISS re-checks the block's
    /// region generation: a store *into the current block* would otherwise
    /// keep executing stale predecoded instructions.
    pub may_store: bool,
}

/// A predecoded straight-line run, stamped with the identity of the code
/// bytes it was decoded from.
#[derive(Debug, Clone)]
pub struct Block<T> {
    /// Base address of the memory region the block was decoded from.
    pub region: u32,
    /// Write generation of that region when the bytes were read.
    pub generation: u64,
    /// The predecoded instructions, in program order.
    pub instrs: Vec<T>,
    /// Decode error terminating the run, if the bytes after the last
    /// instruction do not decode: `(pc, error)`. Replaying it skips the
    /// (deterministic) re-decode of the same undecodable bytes.
    pub error: Option<(u32, SimError)>,
}

/// Hit/miss/invalidation counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Block lookups that found a valid predecoded block.
    pub hits: u64,
    /// Blocks that had to be decoded fresh.
    pub misses: u64,
    /// Cached blocks discarded because their region had been written.
    pub invalidations: u64,
}

/// Deterministic multiplicative hasher for block start PCs (and other
/// PC-keyed maps). The default SipHash is both slower on 4-byte keys and
/// seeded per process; block lookups sit on the dispatch hot path and
/// must not be a source of run-to-run variation while debugging.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockHasher(u64);

impl std::hash::Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Cache of predecoded blocks of `T` entries, keyed by start PC.
#[derive(Debug, Clone)]
pub struct BlockCache<T> {
    blocks: HashMap<u32, Block<T>, BuildHasherDefault<BlockHasher>>,
    stats: CacheStats,
}

impl<T> Default for BlockCache<T> {
    fn default() -> BlockCache<T> {
        BlockCache {
            blocks: HashMap::default(),
            stats: CacheStats::default(),
        }
    }
}

impl<T> BlockCache<T> {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> BlockCache<T> {
        BlockCache::default()
    }

    /// Returns the accumulated hit/miss/invalidation counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether the cache holds no blocks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Drops every cached block (counters are kept).
    pub fn clear(&mut self) {
        self.blocks.clear();
    }

    /// Whether a valid block starts at `pc` for code bytes stamped
    /// `stamp`. Counts a hit when it does; a cached block with a different
    /// stamp is stale, so it is counted as an invalidation and dropped.
    /// An absent block counts nothing: whether that is a miss depends on
    /// whether the caller starts a fill there ([`BlockCache::note_miss`]).
    #[inline]
    pub fn lookup(&mut self, pc: u32, stamp: Stamp) -> bool {
        let Some(block) = self.blocks.get(&pc) else {
            return false;
        };
        if (block.region, block.generation) == stamp {
            self.stats.hits += 1;
            return true;
        }
        self.stats.invalidations += 1;
        self.blocks.remove(&pc);
        false
    }

    /// The cached block starting at `pc`, without validation or counting
    /// (for a caller already positioned inside a validated block).
    #[must_use]
    #[inline]
    pub fn get(&self, pc: u32) -> Option<&Block<T>> {
        self.blocks.get(&pc)
    }

    /// Counts one block decoded fresh.
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Stores `block` as the block starting at `pc`.
    pub fn insert(&mut self, pc: u32, block: Block<T>) {
        self.blocks.insert(pc, block);
    }
}

impl BlockCache<CachedInstr> {
    /// Looks up (or predecodes from `mem`) the ISS block starting at `pc`.
    ///
    /// Returns `None` when no block can be formed — `pc` unmapped, or the
    /// first instruction fails to fetch/decode. The caller must then fall
    /// back to single-stepping so the fault surfaces with exactly the slow
    /// path's semantics. A cached block whose region generation no longer
    /// matches memory is discarded and refilled transparently.
    pub fn get_or_fill(&mut self, pc: u32, mem: &FlatMem) -> Option<&Block<CachedInstr>> {
        let stamp = mem.region_stamp(Addr(pc))?;
        if !self.lookup(pc, stamp) {
            let block = fill_block(pc, stamp, mem)?;
            self.note_miss();
            self.insert(pc, block);
        }
        self.get(pc)
    }
}

/// Predecodes the ISS block starting at `pc` in the region stamped
/// `stamp`, or `None` if not even the first instruction is
/// fetchable/decodable there.
fn fill_block(pc: u32, (region, generation): Stamp, mem: &FlatMem) -> Option<Block<CachedInstr>> {
    let (_, region_len) = mem.region_span(Addr(pc))?;
    let region_end = u64::from(region) + u64::from(region_len);
    let mut instrs = Vec::new();
    let mut cur = pc;
    while instrs.len() < MAX_BLOCK_LEN {
        // Mirror the slow path's fetch exactly: a 4-byte window, falling
        // back to 2 bytes near the end of mapped memory.
        let bytes = match mem
            .read_bytes(Addr(cur), 4)
            .or_else(|_| mem.read_bytes(Addr(cur), 2))
        {
            Ok(b) => b,
            Err(_) => break,
        };
        let (instr, len) = match decode(&bytes, Addr(cur)) {
            Ok(d) => d,
            Err(_) => break,
        };
        // Never let a block leak past its region: bytes outside `region`
        // are not covered by its generation counter.
        if u64::from(cur) + u64::from(len) > region_end {
            break;
        }
        instrs.push(CachedInstr {
            pc: cur,
            len,
            instr,
            may_store: instr.is_plain_store(),
        });
        if ends_block(&instr) {
            break;
        }
        cur = cur.wrapping_add(u32::from(len));
    }
    if instrs.is_empty() {
        return None;
    }
    Some(Block {
        region,
        generation,
        instrs,
        error: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn mem_with(src: &str) -> FlatMem {
        let image = assemble(src).expect("assembles");
        let mut mem = FlatMem::new();
        mem.add_region(Addr(0x1000), 0x1000);
        image.load_into(&mut mem).unwrap();
        mem
    }

    #[test]
    fn block_ends_at_control_flow() {
        let mem = mem_with(
            "
            .org 0x1000
            movi d0, 1
            movi d1, 2
            add  d2, d0, d1
            j    done
            movi d3, 99
        done:
            halt
        ",
        );
        let mut cache = BlockCache::new();
        let block = cache.get_or_fill(0x1000, &mem).expect("fills");
        // movi, movi, add, j — the jump terminates the block.
        assert_eq!(block.instrs.len(), 4);
        assert!(block.instrs[3].instr.is_control_flow());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn hit_then_invalidate_on_code_write() {
        let mem_src = "
            .org 0x1000
            movi d0, 1
            halt
        ";
        let mut mem = mem_with(mem_src);
        let mut cache = BlockCache::new();
        cache.get_or_fill(0x1000, &mem).expect("fills");
        cache.get_or_fill(0x1000, &mem).expect("hits");
        assert_eq!(cache.stats().hits, 1);
        // Any write into the code region invalidates on next entry.
        mem.write_byte(Addr(0x1800), 0xFF).unwrap();
        cache.get_or_fill(0x1000, &mem).expect("refills");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
    }

    #[test]
    fn unmapped_pc_yields_none() {
        let mem = FlatMem::new();
        let mut cache = BlockCache::new();
        assert!(cache.get_or_fill(0x4000_0000, &mem).is_none());
    }

    #[test]
    fn debug_wait_halt_terminate_blocks() {
        let mem = mem_with(
            "
            .org 0x1000
            movi d0, 1
            debug 7
            movi d1, 2
            halt
        ",
        );
        let mut cache = BlockCache::new();
        let block = cache.get_or_fill(0x1000, &mem).expect("fills");
        assert_eq!(block.instrs.len(), 2, "debug marker ends the block");
    }

    /// A stamp mismatch drops the stale block exactly once: the lookup
    /// counts one invalidation, and the refill under the new stamp then
    /// hits like any fresh block.
    #[test]
    fn stamp_mismatch_invalidates_once_then_refills() {
        let mut cache = BlockCache::new();
        let block = |generation| Block {
            region: 0x1000,
            generation,
            instrs: vec![0x1000u32],
            error: None,
        };
        cache.note_miss();
        cache.insert(0x1000, block(0));
        assert!(cache.lookup(0x1000, (0x1000, 0)));
        assert!(!cache.lookup(0x1000, (0x1000, 1)), "stale stamp");
        assert!(cache.is_empty(), "stale block dropped");
        assert!(!cache.lookup(0x1000, (0x1000, 1)), "absent, not stale");
        cache.note_miss();
        cache.insert(0x1000, block(1));
        assert!(cache.lookup(0x1000, (0x1000, 1)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (2, 2, 1));
    }

    /// The cache is generic over the entry type: the pipeline stores its
    /// own decoded micro-op records, plus a terminating decode error.
    #[test]
    fn pipeline_element_cache_keeps_terminating_error() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        struct MicroOp {
            pc: u32,
            len: u8,
        }
        let mut cache: BlockCache<MicroOp> = BlockCache::new();
        let err = SimError::DecodeInstr {
            addr: Addr(0x2004),
            word: 0x1E,
        };
        cache.insert(
            0x2000,
            Block {
                region: 0x2000,
                generation: 3,
                instrs: vec![MicroOp { pc: 0x2000, len: 4 }],
                error: Some((0x2004, err.clone())),
            },
        );
        assert!(
            cache.get(0x2000).is_some(),
            "get neither validates nor counts"
        );
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.lookup(0x2000, (0x2000, 3)));
        let b = cache.get(0x2000).expect("still cached");
        assert_eq!(b.instrs, [MicroOp { pc: 0x2000, len: 4 }]);
        assert_eq!(b.error, Some((0x2004, err)));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1, "clear keeps the counters");
    }
}

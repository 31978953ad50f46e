//! Cycle-level model of the TC-R tri-issue in-order pipeline.
//!
//! The model reproduces the timing-relevant structure of a TriCore 1.3-class
//! core:
//!
//! * **Fetch**: one 64-bit granule per request through the instruction-side
//!   bus (I-cache / PSPR), feeding a decode queue; mixed 16/32-bit
//!   instructions are carved out of the byte stream.
//! * **Issue**: up to three instructions per cycle, one per pipe
//!   (integer / load-store / loop), in program order, with no intra-bundle
//!   dependencies. This is what makes "up to 3 instructions within a clock
//!   cycle" (the paper's IPC example) possible.
//! * **Hazards**: a register scoreboard models load-use (1 cycle) and
//!   multiply (2 cycles) latency; divide occupies the integer pipe.
//! * **Branches**: static prediction — backward conditional branches are
//!   predicted taken, forward not-taken; mispredicts pay a flush penalty.
//! * **Loop buffer**: the `LOOP` instruction's body is captured on its first
//!   iterations and then replayed with zero fetch traffic and zero redirect
//!   bubble, like the TriCore loop pipeline.
//! * **Context operations**: `CALL`/`RET`/interrupt entry spill/refill the
//!   upper context through the data port and serialize the pipeline.
//!
//! Architectural semantics are delegated to [`crate::exec::execute`]; the
//! pipeline only adds *time*.
//!
//! # Predecoded fast path
//!
//! Like the functional ISS, the pipeline keeps its predecoded blocks in a
//! [`crate::decode_cache::BlockCache`]. The carve stage groups each
//! straight-line run it decodes into a block keyed by start PC and stamped
//! with the code region's write generation, and replays the decoded
//! micro-ops (issue pipe, operand lists, latency class, flow kind) on later
//! executions. A replay drains exactly the fetched bytes a fresh decode of
//! the same stream would have consumed, so fetch traffic, decode-queue
//! occupancy and every stall are **bit-identical** whether or not a block
//! was cached; only host-side decode work disappears. Stale bytes are
//! impossible by construction: both the byte stream and each block carry
//! the generation sampled when their bytes left memory, and a block is
//! served only while the two stamps are equal.
//!
//! With the fast path off ([`Core::set_fast_path`]) the carve stage runs
//! the very same code — stamps, fills, block tags — except that finished
//! blocks are not stored, so every lookup misses and every instruction is
//! decoded fresh.
//!
//! # Stall accounting
//!
//! The core keeps per-cause stall-cycle counters, retire-cycle, flush,
//! mispredict and loop-buffer counters in [`PipelineStats`] — plain integer
//! bumps, maintained whether or not an [`EventSink`] is attached — so
//! observability can decompose IPC without re-running anything.

use std::collections::VecDeque;

use audo_common::events::{FlowKind, StallReason};
use audo_common::{Addr, Cycle, EventSink, PerfEvent, SimError, SourceId};
use audo_obs::profile::BlockKey;

use crate::arch::ArchState;
use crate::bus::{CoreBus, TimedMem, FETCH_BYTES};
use crate::decode_cache::{ends_block, Block, BlockCache, CacheStats, Stamp, MAX_BLOCK_LEN};
use crate::encode::decode;
use crate::exec::{enter_interrupt, execute};
use crate::isa::{Instr, Pipe, RegList, RegRef};

/// Timing configuration of the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Result latency of `MUL`/`MAC` in cycles.
    pub mul_latency: u64,
    /// Cycles `DIV`/`REM` occupy the integer pipe.
    pub div_busy: u64,
    /// Extra flush cycles for a mispredicted branch.
    pub mispredict_penalty: u64,
    /// Serialization cycles for a context save/restore (CSA spill uses a
    /// wide local-memory port, so this is small despite the 16-word frame).
    pub ctx_cycles: u64,
    /// Maximum decoded instructions buffered ahead of issue.
    pub fetch_queue: usize,
    /// Maximum loop-body instructions the loop buffer can capture.
    pub loop_buffer: usize,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            mul_latency: 2,
            div_busy: 8,
            mispredict_penalty: 2,
            ctx_cycles: 4,
            fetch_queue: 8,
            loop_buffer: 16,
        }
    }
}

/// Timing-relevant properties of one instruction, derived from its dense
/// [`Instr`] form.
///
/// The carve stage derives them once per *decode* and the issue stage
/// consults them on every issue attempt; a cached block replays them
/// without decoding again.
#[derive(Debug, Clone, Copy)]
struct MicroProps {
    pipe: Pipe,
    reads: RegList,
    writes: RegList,
    serializing: bool,
    control_flow: bool,
    is_loop: bool,
    mul_class: bool,
    div_class: bool,
    backward_cond: bool,
}

impl MicroProps {
    fn of(instr: &Instr) -> MicroProps {
        MicroProps {
            pipe: instr.pipe(),
            reads: instr.reads(),
            writes: instr.writes(),
            serializing: instr.is_serializing(),
            control_flow: instr.is_control_flow(),
            is_loop: matches!(instr, Instr::Loop { .. }),
            mul_class: matches!(instr, Instr::Mul { .. } | Instr::Mac { .. }),
            div_class: matches!(instr, Instr::Div { .. } | Instr::Rem { .. }),
            backward_cond: match instr {
                Instr::JCond { off, .. }
                | Instr::Jz { off, .. }
                | Instr::Jnz { off, .. }
                | Instr::Loop { off, .. } => *off < 0,
                _ => false,
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Decoded {
    pc: u32,
    instr: Instr,
    len: u8,
    /// Timing properties, derived once when the instruction was decoded.
    props: MicroProps,
    /// Profile identity of the owning predecode block (`None` when carved
    /// from unstamped bytes). Purely an attribution label: timing never
    /// reads it.
    tag: Option<BlockKey>,
}

#[derive(Debug, Clone)]
enum QEntry {
    Ok(Decoded),
    /// Decode failed at this PC; fatal only if it reaches issue.
    Bad(u32, SimError),
}

#[derive(Debug, Clone)]
struct LoopBuf {
    loop_pc: u32,
    target: u32,
    body: Vec<Decoded>,
    ready: bool,
    /// `(region base, write generation)` of the loop body's code at
    /// capture time; the buffer serves only while memory still matches
    /// (see [`CoreBus::code_region`]). `None` on buses without generation
    /// tracking, which keeps the legacy unvalidated behaviour.
    code: Option<(u32, u64)>,
}

#[derive(Debug, Clone, Copy)]
struct PendingFetch {
    gen: u64,
    base: Addr,
    ready_at: Cycle,
    bytes: [u8; FETCH_BYTES as usize],
    /// Code-region identity sampled when the bytes left memory.
    code: Option<Stamp>,
}

/// Replay cursor into a cached block (avoids a map lookup per carve).
#[derive(Debug, Clone, Copy)]
struct Replay {
    key: u32,
    idx: usize,
    stamp: Stamp,
}

/// Cycle-accounting and fast-path counters, maintained unconditionally
/// (plain integer bumps) so observability can sample them at any time
/// without changing pipeline behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Stall cycles by cause, indexed by [`StallReason::index`].
    pub stall_cycles: [u64; StallReason::COUNT],
    /// Cycles in which at least one instruction retired.
    pub retire_cycles: u64,
    /// Pipeline flushes: redirects that discarded fetched/decoded work
    /// (taken branches, calls/returns, interrupt entry, host redirects).
    pub flushes: u64,
    /// Mispredictions under the static backward-taken prediction scheme.
    pub mispredicts: u64,
    /// `LOOP` back-edges served from the loop buffer (zero-bubble).
    pub loop_buffer_replays: u64,
    /// Loop-buffer bodies dropped because their code bytes were rewritten.
    pub loop_buffer_invalidations: u64,
    /// Predecode-block cache counters (no hits with the fast path off),
    /// mirrored from the block cache whenever they move.
    pub predecode: CacheStats,
}

impl PipelineStats {
    /// Total stall cycles across all causes.
    #[must_use]
    pub fn stall_total(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// Stall cycles charged to `reason`.
    #[must_use]
    pub fn stalls(&self, reason: StallReason) -> u64 {
        self.stall_cycles[reason.index()]
    }
}

/// What one pipeline step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepOutput {
    /// Instructions retired this cycle (0..=3).
    pub retired: u8,
    /// An interrupt of this priority was accepted this cycle.
    pub irq_taken: Option<u8>,
    /// `HALT` has been executed (now or earlier).
    pub halted: bool,
}

/// The cycle-level TC-R core.
#[derive(Debug, Clone)]
pub struct Core {
    arch: ArchState,
    cfg: CoreConfig,
    source: SourceId,

    // Fetch state.
    fetch_gen: u64,
    pending_fetch: Option<PendingFetch>,
    byte_buf: Vec<u8>,
    byte_buf_pc: u32,
    /// Code-region identity of the bytes in `byte_buf`; `None` when the
    /// bus has no generation tracking or the buffer mixes snapshots.
    byte_buf_code: Option<Stamp>,
    decode_q: VecDeque<QEntry>,

    // Predecoded blocks.
    /// Whether finished fills are stored (see [`Core::set_fast_path`]).
    fast_path: bool,
    blocks: BlockCache<Decoded>,
    replay: Option<Replay>,
    /// The block being carved, keyed by its start PC.
    filling: Option<(u32, Block<Decoded>)>,
    /// Recycled fill buffer: with nothing stored, carving reuses one
    /// allocation.
    spare: Vec<Decoded>,

    // Timing state.
    stall_until: Cycle,
    stall_reason: StallReason,
    /// Why the decode queue is empty after a flush, so fetch-fill cycles
    /// stay charged to the stall that caused the flush (branch, context)
    /// instead of being re-labelled as fetch starvation.
    refill_reason: Option<StallReason>,
    ip_busy_until: Cycle,
    ready_d: [Cycle; 16],
    ready_a: [Cycle; 16],

    loop_buf: Option<LoopBuf>,
    recording: bool,
    /// Registers written by instructions issued this cycle (reused buffer).
    bundle_writes: Vec<RegRef>,

    halted: bool,
    idle: bool,
    retired_total: u64,
    stats: PipelineStats,

    // Block-level cycle attribution (opt-in; None costs one untaken
    // branch per charge site).
    profile: Option<Box<audo_obs::profile::BlockProfile>>,
    /// Block of the most recently issued instruction — owns trailing
    /// fetch-starvation and idle cycles.
    last_issue_tag: Option<BlockKey>,
    /// Block charged for `stall_until` wait cycles (the instruction that
    /// armed the stall; cleared on interrupt entry, whose context stall
    /// belongs to no guest block).
    stall_tag: Option<BlockKey>,
}

impl Core {
    /// Creates a core with the given timing config, reset PC and trace
    /// source id (used to attribute emitted events).
    #[must_use]
    pub fn new(cfg: CoreConfig, reset_pc: Addr, source: SourceId) -> Core {
        Core {
            arch: ArchState::new(reset_pc.0),
            cfg,
            source,
            fetch_gen: 0,
            pending_fetch: None,
            byte_buf: Vec::new(),
            byte_buf_pc: reset_pc.0,
            byte_buf_code: None,
            decode_q: VecDeque::new(),
            fast_path: true,
            blocks: BlockCache::new(),
            replay: None,
            filling: None,
            spare: Vec::new(),
            stall_until: Cycle::ZERO,
            stall_reason: StallReason::Fetch,
            refill_reason: None,
            ip_busy_until: Cycle::ZERO,
            ready_d: [Cycle::ZERO; 16],
            ready_a: [Cycle::ZERO; 16],
            loop_buf: None,
            recording: false,
            bundle_writes: Vec::new(),
            halted: false,
            idle: false,
            retired_total: 0,
            stats: PipelineStats::default(),
            profile: None,
            last_issue_tag: None,
            stall_tag: None,
        }
    }

    /// The architectural state.
    #[must_use]
    pub fn arch(&self) -> &ArchState {
        &self.arch
    }

    /// Mutable architectural state (for loaders and test setup). Changing
    /// the PC through this does **not** flush the pipeline; use
    /// [`Core::redirect`] for that.
    pub fn arch_mut(&mut self) -> &mut ArchState {
        &mut self.arch
    }

    /// Flushes the pipeline and restarts fetch/execution at `pc`.
    pub fn redirect(&mut self, pc: Addr) {
        self.arch.pc = pc.0;
        self.flush(pc.0);
        self.stats.flushes += 1;
        self.refill_reason = None;
    }

    /// `true` once `HALT` has retired.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// `true` while the core sits in the `WAIT` idle state.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.idle
    }

    /// Total instructions retired since reset.
    #[must_use]
    pub fn retired_total(&self) -> u64 {
        self.retired_total
    }

    /// Cycle-accounting and fast-path counters since reset.
    #[must_use]
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// Enables or disables the predecoded-block fast path (default: on).
    ///
    /// Timing is bit-identical either way — the fast path only removes
    /// host-side decode work. Off, the carve stage runs unchanged but
    /// stores no finished block, so nothing is ever replayed and every
    /// instruction is decoded fresh. Disabling drops all cached blocks.
    pub fn set_fast_path(&mut self, fast: bool) {
        self.fast_path = fast;
        if !fast {
            self.blocks.clear();
            self.replay = None;
        }
    }

    /// Whether the predecoded-block fast path is enabled.
    #[must_use]
    pub fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// Enables or disables block-level cycle attribution (default: off,
    /// costing one untaken branch per charge site).
    ///
    /// When on, every cycle the core accounts — retire cycles and every
    /// [`StallReason`]-classified stall cycle — is additionally charged to
    /// the predecoded block that owns the retiring/stalling instruction,
    /// keyed by `(region base, block offset, write generation)`. Cycles
    /// with no block identity (cold-start fetch, interrupt entry,
    /// unstamped bytes) land in the profile's explicit `unattributed`
    /// bucket, so the profile's cycle total always equals the
    /// [`PipelineStats`] `retire + Σ stalls` total exactly. Blocks are
    /// carved and tagged with the fast path on or off, so attribution
    /// works either way. Enabling resets the profile; disabling drops it.
    /// Timing is bit-identical either way.
    pub fn set_profile_observation(&mut self, enabled: bool) {
        self.profile = if enabled {
            Some(Box::new(audo_obs::profile::BlockProfile::new()))
        } else {
            None
        };
        self.last_issue_tag = None;
        self.stall_tag = None;
    }

    /// The block-level cycle-attribution profile, if profiling is on.
    #[must_use]
    pub fn block_profile(&self) -> Option<&audo_obs::profile::BlockProfile> {
        self.profile.as_deref()
    }

    fn flush(&mut self, new_pc: u32) {
        self.fetch_gen += 1;
        self.pending_fetch = None;
        self.byte_buf.clear();
        self.byte_buf_pc = new_pc;
        self.byte_buf_code = None;
        self.decode_q.clear();
        self.recording = false;
        self.replay = None;
        // A partially carved block is still a valid (shorter) block: its
        // instructions were decoded from stamped bytes.
        self.finalize_fill();
    }

    fn stream_end(&self) -> u32 {
        self.byte_buf_pc.wrapping_add(self.byte_buf.len() as u32)
    }

    /// Ends the fill block: the cache stores it with the fast path on;
    /// with it off the cache stores nothing and the buffer is recycled.
    fn finalize_fill(&mut self) {
        if let Some((pc, mut block)) = self.filling.take() {
            if self.fast_path {
                self.blocks.insert(pc, block);
            } else {
                // Sized for the longest fill once, so steady-state
                // carving never grows it.
                block.instrs.clear();
                block.instrs.reserve(MAX_BLOCK_LEN);
                self.spare = block.instrs;
            }
        }
    }

    /// Serves predecoded instructions at the current carve position, if
    /// the cache holds a block whose byte stamp matches the byte
    /// stream's. Pushes as many entries as fit the decode queue and the
    /// fetched bytes, draining exactly what a fresh decode of the same
    /// stream would have consumed. Returns `true` if anything was served.
    fn serve_predecoded(&mut self) -> bool {
        let Some(stamp) = self.byte_buf_code else {
            return false;
        };
        let (key, start_idx) = match self.replay {
            Some(r) if r.stamp == stamp => (r.key, r.idx),
            _ => {
                self.replay = None;
                let pc = self.byte_buf_pc;
                let hit = self.blocks.lookup(pc, stamp);
                self.stats.predecode = self.blocks.stats();
                if !hit {
                    return false;
                }
                self.finalize_fill();
                (pc, 0)
            }
        };
        let Some(block) = self.blocks.get(key) else {
            self.replay = None;
            return false;
        };
        let avail = self.byte_buf.len();
        let mut drained = 0usize;
        let mut pc = self.byte_buf_pc;
        let mut idx = start_idx;
        while self.decode_q.len() < self.cfg.fetch_queue {
            let Some(d) = block.instrs.get(idx) else {
                break;
            };
            if d.pc != pc || drained + d.len as usize > avail {
                break;
            }
            self.decode_q.push_back(QEntry::Ok(*d));
            drained += d.len as usize;
            pc = pc.wrapping_add(u32::from(d.len));
            idx += 1;
        }
        // Replay the recorded decode error terminating the run, if the
        // stream has reached it (equal stamps mean the same undecodable
        // bytes are sitting in the buffer).
        let mut served_error = false;
        if idx == block.instrs.len() && self.decode_q.len() < self.cfg.fetch_queue {
            if let Some((epc, e)) = &block.error {
                // Same gate as the outer carve loop: don't replay the
                // error until the stream holds enough bytes for a fresh
                // decode attempt to have been made.
                let remaining = avail - drained;
                let gate = remaining >= 2 && (self.byte_buf[drained] & 1 == 0 || remaining >= 4);
                if *epc == pc && gate {
                    self.decode_q.push_back(QEntry::Bad(*epc, e.clone()));
                    served_error = true;
                }
            }
        }
        if served_error {
            // Mirror the slow path's error handling exactly: discard the
            // remaining bytes and stop stamping until the next flush.
            self.byte_buf.clear();
            self.byte_buf_pc = pc;
            self.byte_buf_code = None;
            self.replay = None;
            return true;
        }
        if idx == start_idx {
            // Position mismatch: fall back to a fresh decode.
            self.replay = None;
            return false;
        }
        self.byte_buf.drain(..drained);
        self.byte_buf_pc = pc;
        self.replay = if idx < block.instrs.len() {
            Some(Replay { key, idx, stamp })
        } else {
            None
        };
        true
    }

    /// Extends the fill block to the carve entry at `pc`, or closes it and
    /// starts a new one there (counting a miss). Returns the owning block's
    /// profile key, or `None` for unstamped bytes, which belong to no
    /// block. `instr` is false for a decode error, which terminates a
    /// block without counting against [`MAX_BLOCK_LEN`].
    fn fill_at(&mut self, pc: u32, instr: bool) -> Option<BlockKey> {
        let Some((region, generation)) = self.byte_buf_code else {
            self.finalize_fill();
            return None;
        };
        let start = match &self.filling {
            Some((start, f))
                if (f.region, f.generation) == (region, generation)
                    && (!instr || f.instrs.len() < MAX_BLOCK_LEN)
                    && f.instrs
                        .last()
                        .is_some_and(|d| d.pc.wrapping_add(u32::from(d.len)) == pc) =>
            {
                *start
            }
            _ => {
                self.finalize_fill();
                self.blocks.note_miss();
                self.stats.predecode = self.blocks.stats();
                let instrs = std::mem::take(&mut self.spare);
                let block = Block {
                    region,
                    generation,
                    instrs,
                    error: None,
                };
                self.filling = Some((pc, block));
                pc
            }
        };
        Some(BlockKey {
            region,
            offset: start.wrapping_sub(region),
            generation,
        })
    }

    /// Records a freshly decoded instruction into the fill block and
    /// returns its queue entry.
    fn note_decoded(&mut self, pc: u32, instr: Instr, len: u8) -> Decoded {
        let dec = Decoded {
            pc,
            instr,
            len,
            props: MicroProps::of(&instr),
            tag: self.fill_at(pc, true),
        };
        if let Some((_, fill)) = &mut self.filling {
            fill.instrs.push(dec);
        }
        if ends_block(&instr) {
            self.finalize_fill();
        }
        dec
    }

    /// Records a decode error as the terminator of the fill block, so dead
    /// paths that keep running into the same undecodable bytes replay it
    /// instead of re-decoding.
    fn note_decode_error(&mut self, pc: u32, e: &SimError) {
        self.fill_at(pc, false);
        if let Some((_, fill)) = &mut self.filling {
            fill.error = Some((pc, e.clone()));
        }
        self.finalize_fill();
    }

    fn step_fetch<B: CoreBus>(&mut self, now: Cycle, bus: &mut B) {
        // Harvest a completed fetch.
        if let Some(pf) = self.pending_fetch {
            if pf.gen != self.fetch_gen {
                self.pending_fetch = None;
            } else if pf.ready_at <= now {
                let end = self.stream_end();
                let lo = pf.base.0;
                if end >= lo && end < lo + FETCH_BYTES {
                    if self.byte_buf.is_empty() {
                        self.byte_buf_code = pf.code;
                    } else if self.byte_buf_code != pf.code {
                        // The buffer would mix two snapshots; it can no
                        // longer be stamped (disables caching until the
                        // next flush — safe, merely slower).
                        self.byte_buf_code = None;
                    }
                    self.byte_buf
                        .extend_from_slice(&pf.bytes[(end - lo) as usize..]);
                }
                self.pending_fetch = None;
            }
        }
        // Carve instructions out of the byte stream, consulting the
        // predecode cache first; hits skip `decode` entirely but drain the
        // same bytes, so the timing-visible state (byte stream, queue
        // occupancy) evolves bit-identically either way.
        while self.decode_q.len() < self.cfg.fetch_queue && self.byte_buf.len() >= 2 {
            let pc = self.byte_buf_pc;
            let need32 = self.byte_buf[0] & 1 == 1;
            if need32 && self.byte_buf.len() < 4 {
                break;
            }
            if self.serve_predecoded() {
                continue;
            }
            match decode(&self.byte_buf, Addr(pc)) {
                Ok((instr, len)) => {
                    let dec = self.note_decoded(pc, instr, len);
                    self.byte_buf.drain(..len as usize);
                    self.byte_buf_pc = pc.wrapping_add(u32::from(len));
                    self.decode_q.push_back(QEntry::Ok(dec));
                }
                Err(e) => {
                    self.note_decode_error(pc, &e);
                    self.decode_q.push_back(QEntry::Bad(pc, e));
                    self.byte_buf.clear();
                    self.byte_buf_code = None;
                    break;
                }
            }
        }
        // Launch the next fetch.
        if self.pending_fetch.is_none()
            && self.decode_q.len() < self.cfg.fetch_queue
            && self.byte_buf.len() < 2 * FETCH_BYTES as usize
            && !self.halted
        {
            let addr = Addr(self.stream_end());
            match bus.fetch(now, addr) {
                Ok(slot) => {
                    self.pending_fetch = Some(PendingFetch {
                        gen: self.fetch_gen,
                        base: addr.align_down(FETCH_BYTES),
                        ready_at: slot.ready_at.max(now + 1),
                        bytes: slot.bytes,
                        code: bus.code_region(addr),
                    });
                }
                Err(e) => {
                    // Fetching unmapped memory is fatal only if execution
                    // actually reaches it.
                    self.decode_q.push_back(QEntry::Bad(addr.0, e));
                }
            }
        }
    }

    fn reg_ready(&self, r: RegRef) -> Cycle {
        match r {
            RegRef::D(i) => self.ready_d[i as usize],
            RegRef::A(i) => self.ready_a[i as usize],
        }
    }

    fn set_reg_ready(&mut self, r: RegRef, t: Cycle) {
        match r {
            RegRef::D(i) => self.ready_d[i as usize] = t,
            RegRef::A(i) => self.ready_a[i as usize] = t,
        }
    }

    /// Counts and emits one stall cycle, charging it to `tag`'s block in
    /// the profile (when profiling is on).
    fn note_stall(
        &mut self,
        now: Cycle,
        reason: StallReason,
        tag: Option<BlockKey>,
        sink: &mut EventSink,
    ) {
        self.stats.stall_cycles[reason.index()] += 1;
        if let Some(profile) = self.profile.as_deref_mut() {
            profile.record_stall_cycle(tag, reason);
        }
        sink.emit(now, self.source, PerfEvent::Stall { reason });
    }

    /// Serves a taken `LOOP` back-edge from the loop buffer, if the buffer
    /// holds this loop and its captured code bytes are still current
    /// (`code_now` is the region identity sampled by the caller).
    fn serve_loop_buffer(
        &mut self,
        loop_pc: u32,
        target: u32,
        code_now: Option<(u32, u64)>,
    ) -> bool {
        let Some(buf) = &self.loop_buf else {
            return false;
        };
        if !(buf.ready && buf.loop_pc == loop_pc && buf.target == target) {
            return false;
        }
        // The captured micro-ops are only as fresh as the code they were
        // fetched from: any store into the region since capture (a
        // self-modifying loop, an overlay swap) must drop the buffer, not
        // replay stale instructions.
        if buf.code.is_some() && buf.code != code_now {
            self.loop_buf = None;
            self.stats.loop_buffer_invalidations += 1;
            return false;
        }
        let buf = self.loop_buf.take().expect("checked above");
        let resume = loop_pc.wrapping_add(4); // LOOP is always a 32-bit op
        self.flush(resume);
        for d in &buf.body {
            self.decode_q.push_back(QEntry::Ok(*d));
        }
        self.loop_buf = Some(buf);
        self.stats.loop_buffer_replays += 1;
        true
    }

    /// Advances the core by one cycle.
    ///
    /// `pending_irq` is the highest-priority pending interrupt from the
    /// router (if any); it is accepted when strictly above the current CPU
    /// priority and `ICR.IE` is set.
    ///
    /// # Errors
    ///
    /// Returns fatal faults: decode errors reached by execution, unmapped or
    /// misaligned data accesses, CSA list exhaustion.
    pub fn step<B: CoreBus>(
        &mut self,
        now: Cycle,
        bus: &mut B,
        pending_irq: Option<u8>,
        sink: &mut EventSink,
    ) -> Result<StepOutput, SimError> {
        let mut out = StepOutput {
            halted: self.halted,
            ..StepOutput::default()
        };
        if self.halted {
            return Ok(out);
        }

        // ----- Interrupt acceptance (at instruction boundaries) -----
        if let Some(prio) = pending_irq {
            let accept = prio > self.arch.icr_ccpn
                && self.arch.icr_ie
                && (self.idle || now >= self.stall_until);
            if accept {
                let from = Addr(self.arch.pc);
                let mut tm = TimedMem::new(bus, now);
                let flow = enter_interrupt(&mut self.arch, &mut tm, prio)?;
                let done = tm.writes_accepted.max(now + self.cfg.ctx_cycles);
                self.flush(flow.target.0);
                self.stats.flushes += 1;
                self.idle = false;
                self.stall_until = done;
                self.stall_reason = StallReason::Context;
                // Interrupt entry belongs to no guest block.
                self.stall_tag = None;
                self.last_issue_tag = None;
                self.refill_reason = Some(StallReason::Context);
                sink.emit(now, self.source, PerfEvent::IrqTaken { prio });
                sink.emit(
                    now,
                    self.source,
                    PerfEvent::FlowChange {
                        kind: FlowKind::Exception,
                        from,
                        to: flow.target,
                    },
                );
                out.irq_taken = Some(prio);
            }
        }

        if self.idle {
            let tag = self.last_issue_tag;
            self.note_stall(now, StallReason::Idle, tag, sink);
            return Ok(out);
        }

        // ----- Fetch engine (always runs; fills during stalls too) -----
        self.step_fetch(now, bus);

        if now < self.stall_until {
            let reason = self.stall_reason;
            let tag = self.stall_tag;
            self.note_stall(now, reason, tag, sink);
            return Ok(out);
        }

        // ----- Issue up to one instruction per pipe, in order -----
        let mut ip_used = false;
        let mut ls_used = false;
        let mut lp_used = false;
        self.bundle_writes.clear();
        let mut issued = 0u8;
        let mut first_block: Option<StallReason> = None;
        // Profiler attribution for this cycle: the block charged if no
        // instruction issues, and the block owning the first issued op.
        let mut block_attr: Option<BlockKey> = None;
        let mut bundle_tag: Option<BlockKey> = None;

        'issue: while issued < 3 {
            let Some(front) = self.decode_q.front() else {
                if issued == 0 {
                    // An empty queue right after a flush is still the
                    // flush's stall (branch/context), not fetch starvation.
                    first_block = Some(self.refill_reason.unwrap_or(StallReason::Fetch));
                    block_attr = self.last_issue_tag;
                }
                break;
            };
            let dec = match front {
                QEntry::Ok(d) => *d,
                QEntry::Bad(pc, e) => {
                    if issued == 0 {
                        return Err(match e {
                            SimError::UnmappedAddress { .. } => {
                                SimError::UnmappedAddress { addr: Addr(*pc) }
                            }
                            other => other.clone(),
                        });
                    }
                    break;
                }
            };
            let instr = dec.instr;
            let props = dec.props;

            // Serializing instructions issue alone.
            if props.serializing && issued > 0 {
                break;
            }
            // Pipe availability.
            let pipe = props.pipe;
            let pipe_free = match pipe {
                Pipe::Ip => !ip_used,
                Pipe::Ls => !ls_used,
                Pipe::Lp => !lp_used,
            };
            if !pipe_free {
                break;
            }
            // Integer-pipe unit busy (divide in flight).
            if pipe == Pipe::Ip && now < self.ip_busy_until {
                if issued == 0 {
                    first_block = Some(StallReason::Execute);
                    block_attr = dec.tag;
                }
                break;
            }
            // Source operands ready?
            for r in props.reads.iter() {
                if self.reg_ready(r) > now {
                    if issued == 0 {
                        first_block = Some(StallReason::Data);
                        block_attr = dec.tag;
                    }
                    break 'issue;
                }
            }
            // No intra-bundle dependencies.
            for r in props.reads.iter().chain(props.writes.iter()) {
                if self.bundle_writes.contains(&r) {
                    break 'issue;
                }
            }

            // ----- Execute -----
            self.decode_q.pop_front();
            self.refill_reason = None;
            let pc = dec.pc;
            let mut tm = TimedMem::new(bus, now);
            let result = execute(&mut self.arch, &mut tm, &instr, pc, dec.len)?;
            let (reads_ready, writes_accepted) = (tm.reads_ready, tm.writes_accepted);
            let did_read = tm.read_count > 0;
            let did_write = tm.write_count > 0;
            issued += 1;
            self.retired_total += 1;
            // The op that issues owns subsequent wait/starvation cycles;
            // the first of the bundle owns the retire cycle.
            self.stall_tag = dec.tag;
            self.last_issue_tag = dec.tag;
            if issued == 1 {
                bundle_tag = dec.tag;
            }
            if let Some(profile) = self.profile.as_deref_mut() {
                match dec.tag {
                    Some(key) => {
                        if pc == key.addr() {
                            profile.record_entry(key);
                        }
                        let end = pc.wrapping_add(u32::from(dec.len)).wrapping_sub(key.addr());
                        profile.record_instr(Some(key), end);
                    }
                    None => profile.record_instr(None, 0),
                }
            }
            match pipe {
                Pipe::Ip => ip_used = true,
                Pipe::Ls => ls_used = true,
                Pipe::Lp => lp_used = true,
            }

            // Loop-body capture.
            if self.recording {
                let in_body = self
                    .loop_buf
                    .as_ref()
                    .is_some_and(|b| pc >= b.target && pc <= b.loop_pc);
                let is_other_branch = props.control_flow && !props.is_loop;
                if !in_body || is_other_branch {
                    self.recording = false;
                    self.loop_buf = None;
                } else if let Some(buf) = &mut self.loop_buf {
                    if buf.body.len() >= self.cfg.loop_buffer {
                        self.recording = false;
                        self.loop_buf = None;
                    } else {
                        buf.body.push(dec);
                        if pc == buf.loop_pc {
                            buf.ready = true;
                            self.recording = false;
                        }
                    }
                }
            }

            // ----- Result latencies -----
            let mut dest_ready = now;
            if props.mul_class {
                dest_ready = now + self.cfg.mul_latency;
            }
            if props.div_class {
                self.ip_busy_until = now + self.cfg.div_busy;
                dest_ready = now + self.cfg.div_busy;
            }
            if props.serializing {
                let done = reads_ready.max(writes_accepted).max(
                    now + if did_write || did_read {
                        self.cfg.ctx_cycles
                    } else {
                        1
                    },
                );
                self.stall_until = done;
                self.stall_reason = StallReason::Context;
            } else {
                if did_read {
                    if reads_ready > now {
                        self.stall_until = reads_ready;
                        self.stall_reason = StallReason::Data;
                        dest_ready = reads_ready + 1;
                    } else {
                        dest_ready = dest_ready.max(now + 1); // load-use = 1
                    }
                }
                if did_write && writes_accepted > now {
                    self.stall_until = self.stall_until.max(writes_accepted);
                    self.stall_reason = StallReason::StoreBuffer;
                }
            }
            for r in props.writes.iter() {
                self.set_reg_ready(r, dest_ready);
                self.bundle_writes.push(r);
            }

            // ----- Control flow and prediction -----
            if let Some(flow) = result.flow {
                sink.emit(
                    now,
                    self.source,
                    PerfEvent::FlowChange {
                        kind: flow.kind,
                        from: Addr(pc),
                        to: flow.target,
                    },
                );
                let mut served_from_loop_buffer = false;
                if props.is_loop {
                    let code_now = bus.code_region(flow.target);
                    if self.serve_loop_buffer(pc, flow.target.0, code_now) {
                        served_from_loop_buffer = true;
                    } else if !self
                        .loop_buf
                        .as_ref()
                        .is_some_and(|b| b.ready && b.loop_pc == pc && b.target == flow.target.0)
                    {
                        // Start (re)recording this loop's body.
                        self.loop_buf = Some(LoopBuf {
                            loop_pc: pc,
                            target: flow.target.0,
                            body: Vec::new(),
                            ready: false,
                            code: code_now,
                        });
                        self.recording = true;
                    }
                }
                if !served_from_loop_buffer {
                    let recording = self.recording;
                    let saved = self.loop_buf.take();
                    self.flush(flow.target.0);
                    self.loop_buf = saved;
                    self.recording = recording;
                    self.stats.flushes += 1;
                    // Forward taken conditional = mispredict (static scheme
                    // predicts backward-taken only).
                    let mispredicted =
                        result.branch_taken == Some(true) && flow.target.0 > pc && !props.is_loop;
                    if mispredicted {
                        self.stall_until = self.stall_until.max(now + self.cfg.mispredict_penalty);
                        self.stall_reason = StallReason::Branch;
                        self.stats.mispredicts += 1;
                        self.refill_reason = Some(StallReason::Branch);
                    } else if props.serializing {
                        self.refill_reason = Some(StallReason::Context);
                    }
                }
                // A redirect ends the bundle.
                self.finish_issue(
                    now,
                    issued,
                    first_block,
                    block_attr,
                    bundle_tag,
                    sink,
                    &mut out,
                    result,
                )?;
                return Ok(out);
            }
            if result.branch_taken == Some(false) {
                sink.emit(now, self.source, PerfEvent::BranchNotTaken { at: Addr(pc) });
                // Backward not-taken (loop exit or backward cond) was
                // predicted taken: mispredict penalty, no flush needed.
                if props.backward_cond {
                    self.stall_until = self.stall_until.max(now + self.cfg.mispredict_penalty);
                    self.stall_reason = StallReason::Branch;
                    self.stats.mispredicts += 1;
                    self.finish_issue(
                        now,
                        issued,
                        first_block,
                        block_attr,
                        bundle_tag,
                        sink,
                        &mut out,
                        result,
                    )?;
                    return Ok(out);
                }
            }

            if result.debug.is_some() || result.wait || result.halt {
                self.finish_issue(
                    now,
                    issued,
                    first_block,
                    block_attr,
                    bundle_tag,
                    sink,
                    &mut out,
                    result,
                )?;
                return Ok(out);
            }
            if props.serializing {
                break;
            }
            // Data stall also ends the bundle.
            if now < self.stall_until {
                break;
            }
        }

        let result = crate::exec::Outcome::default();
        self.finish_issue(
            now,
            issued,
            first_block,
            block_attr,
            bundle_tag,
            sink,
            &mut out,
            result,
        )?;
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)] // reason: one internal per-cycle epilogue, not an API
    fn finish_issue(
        &mut self,
        now: Cycle,
        issued: u8,
        first_block: Option<StallReason>,
        block_attr: Option<BlockKey>,
        bundle_tag: Option<BlockKey>,
        sink: &mut EventSink,
        out: &mut StepOutput,
        last: crate::exec::Outcome,
    ) -> Result<(), SimError> {
        if let Some(code) = last.debug {
            sink.emit(now, self.source, PerfEvent::DebugMarker { code });
        }
        if last.wait {
            self.idle = true;
        }
        if last.halt {
            self.halted = true;
            out.halted = true;
        }
        out.retired = issued;
        if issued > 0 {
            self.stats.retire_cycles += 1;
            if let Some(profile) = self.profile.as_deref_mut() {
                profile.record_retire_cycle(bundle_tag);
            }
            sink.emit(now, self.source, PerfEvent::InstrRetired { count: issued });
        } else if !self.halted && !self.idle {
            let reason = first_block.unwrap_or(StallReason::Data);
            self.note_stall(now, reason, block_attr, sink);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Static cost export
// ---------------------------------------------------------------------------

/// Worst-case cycles any *single* memory-port transaction can take on the
/// bus a program runs against, as seen from the pipeline's issue stage.
///
/// This is the only bus-dependent input to [`CostModel`]; everything else
/// comes from [`CoreConfig`], so the static analyzer and the cycle-level
/// simulator consume one timing table rather than two hand-kept copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemCosts {
    /// Worst-case cycles from fetch request to data availability.
    pub fetch: u64,
    /// Worst-case cycles from read request to data availability.
    pub read: u64,
    /// Worst-case cycles until a store is accepted.
    pub write: u64,
}

impl MemCosts {
    /// Costs of a [`TestBus`](crate::bus::TestBus) (the bus the fuzz
    /// tiers and pipeline unit
    /// tests run on), read straight from its latency fields.
    #[must_use]
    pub fn of_test_bus(bus: &crate::bus::TestBus) -> MemCosts {
        MemCosts {
            fetch: bus.fetch_latency,
            read: bus.read_latency,
            write: bus.write_latency,
        }
    }
}

/// Upper bound on data-memory accesses a single serializing instruction
/// performs: a CSA save/restore moves one 16-word frame plus the free-list
/// head updates; 20 leaves headroom for the FCX/PCX bookkeeping.
const CTX_ACCESS_BOUND: u64 = 20;

/// Static per-instruction worst-case cycle costs, derived from the same
/// [`CoreConfig`] knobs and micro-op classification the issue stage
/// itself consults. Every stall the pipeline can charge maps to a term
/// here, so `instr_cost` summed over a block upper-bounds the cycles the
/// simulator can ever attribute to it (interrupt-entry refills and `WAIT`
/// idling excepted — callers account for those separately).
#[derive(Debug, Clone)]
pub struct CostModel {
    cfg: CoreConfig,
    mem: MemCosts,
}

impl CostModel {
    /// Builds a cost model for a core configured with `cfg` running
    /// against a bus bounded by `mem`.
    #[must_use]
    pub fn new(cfg: CoreConfig, mem: MemCosts) -> CostModel {
        CostModel { cfg, mem }
    }

    /// Flush penalty of a mispredicted branch — exported so rate
    /// predictors reuse the pipeline's number instead of hardcoding one.
    #[must_use]
    pub fn redirect_penalty(&self) -> u64 {
        self.cfg.mispredict_penalty
    }

    /// Worst-case cycles one instruction can spend waiting for fetch:
    /// the fetch round-trip plus launch/align slack.
    fn fetch_share(&self) -> u64 {
        self.mem.fetch + 2
    }

    /// Worst-case cycles an instruction can wait at issue for operands or
    /// a busy integer pipe: a divide in flight, a multiply in flight, or a
    /// load result still on the bus (`dest_ready = reads_ready + 1`).
    fn max_issue_wait(&self) -> u64 {
        self.cfg
            .div_busy
            .max(self.cfg.mul_latency)
            .max(self.mem.read + 1)
    }

    /// Worst-case refill bubble after a redirect or serializing flush:
    /// the queue restarts from an empty byte buffer, so up to two fetch
    /// round-trips can pass before the next instruction issues.
    fn redirect_refill(&self) -> u64 {
        2 * self.fetch_share()
    }

    /// Worst-case serialization cost of a context operation: the drain
    /// window plus every CSA frame access at worst-case port latency.
    fn ctx_serialize(&self) -> u64 {
        self.cfg.ctx_cycles + CTX_ACCESS_BOUND * (self.mem.read.max(self.mem.write) + 1)
    }

    /// Worst-case cycles `instr` can add to its block: one retire slot
    /// plus every stall the issue stage can charge on its behalf.
    #[must_use]
    pub fn instr_cost(&self, instr: &Instr) -> u64 {
        let props = MicroProps::of(instr);
        let mut cost = 1 + self.fetch_share();
        if !props.reads.is_empty() || props.pipe == Pipe::Ip {
            cost += self.max_issue_wait();
        }
        if instr.is_memory() && !props.serializing {
            // Loads park the pipe until `reads_ready + 1`; stores can
            // stall issue until the buffer drains at `writes_accepted`.
            cost += self.mem.read.max(self.mem.write) + 1;
        }
        if props.serializing {
            cost += self.ctx_serialize();
        }
        if props.control_flow || props.serializing {
            cost += self.cfg.mispredict_penalty + self.redirect_refill();
        }
        cost
    }

    /// Sum of [`CostModel::instr_cost`] over a block body (saturating).
    pub fn block_cost<'a, I: IntoIterator<Item = &'a Instr>>(&self, instrs: I) -> u64 {
        instrs
            .into_iter()
            .fold(0u64, |acc, i| acc.saturating_add(self.instr_cost(i)))
    }

    /// Worst-case cycles charged to a block *around* its own
    /// instructions each time it is entered: the redirect that reached
    /// it, the refill behind that redirect, and one inherited wait from
    /// in-flight long-latency work, plus alignment slack.
    #[must_use]
    pub fn entry_overhead(&self) -> u64 {
        self.redirect_refill() + self.cfg.mispredict_penalty + self.max_issue_wait() + 2
    }

    /// Worst-case cost of any single instruction this model can rate.
    #[must_use]
    pub fn max_instr_cost(&self) -> u64 {
        1 + self.fetch_share()
            + self.max_issue_wait()
            + (self.mem.read.max(self.mem.write) + 1)
            + self.ctx_serialize()
            + self.cfg.mispredict_penalty
            + self.redirect_refill()
    }

    /// Upper bound on the attributed cost of one execution of *any*
    /// carved pipeline block (at most [`MAX_BLOCK_LEN`] instructions),
    /// independent of its contents. Fleet envelopes use this where no
    /// static image is available.
    #[must_use]
    pub fn carved_block_cost_ub(&self) -> u64 {
        (MAX_BLOCK_LEN as u64)
            .saturating_mul(self.max_instr_cost())
            .saturating_add(self.entry_overhead())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::bus::TestBus;
    use crate::iss::Iss;

    /// Runs a program on the pipeline with a scratchpad-like bus, with the
    /// predecode fast path both on and off, asserting the two runs are
    /// cycle-identical (state, retire count, cycles, full event stream).
    /// Returns the fast run: (core, cycles used, events).
    fn run_pipeline(src: &str, max_cycles: u64) -> (Core, u64, Vec<audo_common::EventRecord>) {
        let run = |fast: bool| {
            let image = assemble(src).expect("assembles");
            let mut bus = TestBus::new();
            bus.mem.add_region(Addr(0x0000_1000), 0x4000);
            bus.mem.add_region(Addr(0xD000_0000), 0x1_0000);
            image.load_into(&mut bus.mem).unwrap();
            let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
            core.set_fast_path(fast);
            core.arch_mut().fcx =
                crate::arch::init_csa_list(&mut bus.mem, Addr(0xD000_8000), 32).unwrap();
            let mut sink = EventSink::new();
            let mut events = Vec::new();
            let mut cyc = 0u64;
            while !core.is_halted() && cyc < max_cycles {
                core.step(Cycle(cyc), &mut bus, None, &mut sink)
                    .expect("no fault");
                events.append(&mut sink.drain());
                cyc += 1;
            }
            assert!(
                core.is_halted(),
                "program did not halt within {max_cycles} cycles (fast={fast})"
            );
            (core, cyc, events)
        };
        let (slow_core, slow_cycles, slow_events) = run(false);
        let (fast_core, fast_cycles, fast_events) = run(true);
        assert_eq!(fast_cycles, slow_cycles, "cycle count fast vs slow");
        assert_eq!(fast_events, slow_events, "event stream fast vs slow");
        assert_eq!(fast_core.arch().d, slow_core.arch().d, "data regs");
        assert_eq!(fast_core.arch().a, slow_core.arch().a, "addr regs");
        assert_eq!(
            fast_core.retired_total(),
            slow_core.retired_total(),
            "retire count"
        );
        // All accounting except the predecode counters must agree too.
        let mut normalized = *fast_core.stats();
        normalized.predecode = slow_core.stats().predecode;
        assert_eq!(&normalized, slow_core.stats(), "stats fast vs slow");
        (fast_core, fast_cycles, fast_events)
    }

    fn golden(src: &str) -> crate::iss::IssRun {
        let image = assemble(src).expect("assembles");
        let mut iss = Iss::new();
        iss.map_region(Addr(0x0000_1000), 0x4000);
        iss.map_region(Addr(0xD000_0000), 0x1_0000);
        iss.init_csa(Addr(0xD000_8000), 32).unwrap();
        iss.load(&image).unwrap();
        iss.set_fast_path(false);
        iss.run(1_000_000).expect("golden run")
    }

    fn check_against_golden(src: &str) -> (Core, u64) {
        let (core, cycles, _) = run_pipeline(src, 200_000);
        let g = golden(src);
        assert_eq!(core.arch().d, g.state.d, "data registers diverge");
        assert_eq!(core.arch().a, g.state.a, "address registers diverge");
        assert_eq!(core.retired_total(), g.instr_count, "retire count diverges");
        (core, cycles)
    }

    /// Assembles a single instruction and returns its encoding bytes.
    fn encoding_of(line: &str) -> Vec<u8> {
        let img = assemble(&format!(".org 0x1000\n    {line}\n")).unwrap();
        img.bytes_at(Addr(0x1000), img.size()).unwrap()
    }

    /// Emits assembly that stores `enc` (a 2- or 4-byte encoding) over the
    /// code at the address held in `a2`, via halfword stores.
    fn emit_patch_stores(enc: &[u8]) -> String {
        let lo = u16::from_le_bytes([enc[0], enc[1]]);
        let mut s = format!("    li d14, {lo}\n    st.h d14, [a2+0]\n");
        if enc.len() == 4 {
            let hi = u16::from_le_bytes([enc[2], enc[3]]);
            s.push_str(&format!("    li d14, {hi}\n    st.h d14, [a2+2]\n"));
        }
        s
    }

    #[test]
    fn straight_line_code_matches_golden() {
        check_against_golden(
            "
            .org 0x1000
            movi d0, 3
            movi d1, 4
            add d2, d0, d1
            mul d3, d2, d2
            sub d4, d3, d0
            halt
        ",
        );
    }

    #[test]
    fn dual_issue_raises_ipc_above_one() {
        // Independent IP + LS pairs should co-issue.
        let src = "
            .org 0x1000
            la a2, 0xD0000100
            movi d0, 0
            movi d1, 1
            movi d2, 2
            movi d3, 3
            add d0, d1, d2
            ld.w d4, [a2]
            add d1, d2, d3
            ld.w d5, [a2+4]
            add d2, d3, d0
            ld.w d6, [a2+8]
            add d3, d0, d1
            ld.w d7, [a2+12]
            halt
        ";
        let (core, cycles) = check_against_golden(src);
        let ipc = core.retired_total() as f64 / cycles as f64;
        assert!(
            ipc > 1.0,
            "expected dual issue, got IPC {ipc:.2} ({cycles} cycles)"
        );
    }

    #[test]
    fn load_use_hazard_costs_a_cycle() {
        let dependent = "
            .org 0x1000
            la a2, 0xD0000100
            ld.w d0, [a2]
            add d1, d0, d0      ; immediately uses the load
            halt
        ";
        let independent = "
            .org 0x1000
            la a2, 0xD0000100
            ld.w d0, [a2]
            add d1, d2, d3      ; no dependence
            halt
        ";
        let (_, dep_cycles, _) = run_pipeline(dependent, 10_000);
        let (_, ind_cycles, _) = run_pipeline(independent, 10_000);
        assert!(
            dep_cycles > ind_cycles,
            "load-use must cost extra ({dep_cycles} vs {ind_cycles})"
        );
    }

    #[test]
    fn loop_buffer_reaches_steady_state() {
        // A tight MAC loop: after priming, LOOP runs with no fetch and no
        // redirect bubble, so the 2-instruction body should sustain ~2 IPC.
        let src = "
            .org 0x1000
            movi d0, 0
            movi d1, 3
            movi d2, 5
            movi d3, 100
            mov.a a3, d3
        head:
            mac d0, d1, d2
            loop a3, head
            halt
        ";
        let (core, cycles) = check_against_golden(src);
        assert_eq!(core.arch().d[0], 1500);
        // ~100 iterations × 2 instructions; with loop buffer this should be
        // well under 3 cycles per iteration.
        assert!(cycles < 280, "loop not accelerated: {cycles} cycles");
        assert!(
            core.stats().loop_buffer_replays > 90,
            "loop buffer barely used: {:?}",
            core.stats()
        );
    }

    #[test]
    fn division_blocks_the_integer_pipe() {
        let src = "
            .org 0x1000
            movi d0, 1000
            movi d1, 7
            div d2, d0, d1
            add d3, d2, d1      ; depends on divide result
            halt
        ";
        let (core, cycles) = check_against_golden(src);
        assert_eq!(core.arch().d[2], 142);
        assert!(cycles >= 8, "divide latency not modeled: {cycles}");
    }

    #[test]
    fn call_and_ret_serialize_and_match_golden() {
        check_against_golden(
            "
            .org 0x1000
        _start:
            la sp, 0xD0004000
            movi d4, 5
            call square
            mov d5, d4
            call square
            halt
        square:
            mul d4, d4, d4
            ret
        ",
        );
    }

    #[test]
    fn forward_taken_branch_pays_mispredict() {
        let taken_fwd = "
            .org 0x1000
            movi d0, 0
            jz d0, skip     ; forward taken = mispredict
            nop
            nop
        skip:
            halt
        ";
        let not_taken_fwd = "
            .org 0x1000
            movi d0, 1
            jz d0, skip     ; forward not-taken = predicted correctly
            nop
            nop
        skip:
            halt
        ";
        let (taken_core, t, _) = run_pipeline(taken_fwd, 10_000);
        let (nt_core, n, _) = run_pipeline(not_taken_fwd, 10_000);
        // The not-taken path executes two extra NOPs yet should not be much
        // slower; the taken path pays flush + refetch.
        assert!(t + 1 >= n, "taken {t}, not-taken {n}");
        assert_eq!(taken_core.stats().mispredicts, 1);
        assert_eq!(nt_core.stats().mispredicts, 0);
    }

    #[test]
    fn events_report_retires_and_stalls_for_every_cycle() {
        let (core, cycles, events) = run_pipeline(
            "
            .org 0x1000
            movi d0, 10
        head:
            addi d0, d0, -1
            jnz d0, head
            halt
        ",
            10_000,
        );
        let retired: u64 = events
            .iter()
            .filter_map(|e| match e.event {
                PerfEvent::InstrRetired { count } => Some(u64::from(count)),
                _ => None,
            })
            .sum();
        let stall_cycles = events
            .iter()
            .filter(|e| matches!(e.event, PerfEvent::Stall { .. }))
            .count() as u64;
        let retire_cycles = events
            .iter()
            .filter(|e| matches!(e.event, PerfEvent::InstrRetired { .. }))
            .count() as u64;
        assert_eq!(retired, 22, "movi + 10×(addi+jnz) + halt");
        // Every non-final cycle is either a retire cycle or a stall cycle.
        assert_eq!(retire_cycles + stall_cycles, cycles);
        // The always-on counters must agree with the event stream exactly.
        let s = core.stats();
        assert_eq!(s.retire_cycles, retire_cycles);
        assert_eq!(s.stall_total(), stall_cycles);
        assert_eq!(s.retire_cycles + s.stall_total(), cycles);
    }

    #[test]
    fn flow_change_events_track_taken_branches() {
        let (_, _, events) = run_pipeline(
            "
            .org 0x1000
            movi d0, 2
        head:
            addi d0, d0, -1
            jnz d0, head
            halt
        ",
            10_000,
        );
        let flows: Vec<_> = events
            .iter()
            .filter_map(|e| match e.event {
                PerfEvent::FlowChange { kind, from, to } => Some((kind, from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(flows.len(), 1, "one taken jnz expected: {flows:?}");
        assert_eq!(flows[0].0, FlowKind::BranchTaken);
        let not_taken = events
            .iter()
            .filter(|e| matches!(e.event, PerfEvent::BranchNotTaken { .. }))
            .count();
        assert_eq!(not_taken, 1);
    }

    #[test]
    fn interrupt_entry_redirects_and_returns() {
        let src = "
            .org 0x1000
        _start:
            li d0, 0x2000       ; BIV
            mtcr biv, d0
            enable
            movi d1, 0
        spin:
            addi d1, d1, 1
            j spin

            ; vector for priority 3 at BIV + 96
            .org 0x2000 + 96
            movi d2, 77
            rfe
        ";
        let image = assemble(src).unwrap();
        let mut bus = TestBus::new();
        bus.mem.add_region(Addr(0x1000), 0x4000);
        bus.mem.add_region(Addr(0xD000_0000), 0x1_0000);
        image.load_into(&mut bus.mem).unwrap();
        let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
        core.arch_mut().fcx =
            crate::arch::init_csa_list(&mut bus.mem, Addr(0xD000_8000), 32).unwrap();
        let mut sink = EventSink::new();
        let mut irq_taken_at = None;
        for cyc in 0..200u64 {
            let irq = if (40..60).contains(&cyc) && irq_taken_at.is_none() {
                Some(3)
            } else {
                None
            };
            let out = core.step(Cycle(cyc), &mut bus, irq, &mut sink).unwrap();
            if out.irq_taken.is_some() {
                irq_taken_at = Some(cyc);
            }
        }
        assert!(irq_taken_at.is_some(), "interrupt never taken");
        assert_eq!(core.arch().d[2], 77, "handler did not run");
        assert_eq!(core.arch().icr_ccpn, 0, "RFE must restore priority");
        assert!(core.arch().d[1] > 40, "main loop did not resume");
    }

    #[test]
    fn wait_idles_until_interrupt() {
        let src = "
            .org 0x1000
        _start:
            li d0, 0x2000
            mtcr biv, d0
            enable
            wait
            movi d3, 1
            halt
            .org 0x2000 + 32    ; priority 1 vector
            movi d2, 9
            rfe
        ";
        let image = assemble(src).unwrap();
        let mut bus = TestBus::new();
        bus.mem.add_region(Addr(0x1000), 0x4000);
        bus.mem.add_region(Addr(0xD000_0000), 0x1_0000);
        image.load_into(&mut bus.mem).unwrap();
        let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
        core.arch_mut().fcx =
            crate::arch::init_csa_list(&mut bus.mem, Addr(0xD000_8000), 32).unwrap();
        let mut sink = EventSink::new();
        let mut was_idle = false;
        for cyc in 0..300u64 {
            if core.is_halted() {
                break;
            }
            was_idle |= core.is_idle();
            let irq = if cyc == 100 { Some(1) } else { None };
            core.step(Cycle(cyc), &mut bus, irq, &mut sink).unwrap();
        }
        assert!(was_idle, "core never idled");
        assert!(core.is_halted(), "core did not resume after interrupt");
        assert_eq!(core.arch().d[2], 9);
        assert_eq!(core.arch().d[3], 1);
    }

    #[test]
    fn decode_error_is_fatal_only_when_reached() {
        // Jump over garbage: fine.
        let ok = "
            .org 0x1000
            j past
            .half 0x1E         ; op 15 (unassigned 16-bit)
        past:
            halt
        ";
        let (_, _, _) = run_pipeline(ok, 10_000);
        // Fall into garbage: fault.
        let image = assemble(".org 0x1000\n nop\n .half 0x1E\n").unwrap();
        let mut bus = TestBus::new();
        bus.mem.add_region(Addr(0x1000), 0x100);
        image.load_into(&mut bus.mem).unwrap();
        let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
        let mut sink = EventSink::new();
        let mut fault = None;
        for cyc in 0..100 {
            match core.step(Cycle(cyc), &mut bus, None, &mut sink) {
                Ok(_) => {}
                Err(e) => {
                    fault = Some(e);
                    break;
                }
            }
        }
        assert!(
            matches!(fault, Some(SimError::DecodeInstr { .. })),
            "{fault:?}"
        );
    }

    #[test]
    fn slow_memory_stalls_show_up_as_data_stalls() {
        let src = "
            .org 0x1000
            la a2, 0xD0000100
            ld.w d0, [a2]
            ld.w d1, [a2+4]
            halt
        ";
        let image = assemble(src).unwrap();
        let mut bus = TestBus {
            read_latency: 10,
            ..TestBus::new()
        };
        bus.mem.add_region(Addr(0x1000), 0x1000);
        bus.mem.add_region(Addr(0xD000_0000), 0x1_0000);
        image.load_into(&mut bus.mem).unwrap();
        let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
        let mut sink = EventSink::new();
        let mut data_stalls = 0;
        for cyc in 0..500u64 {
            if core.is_halted() {
                break;
            }
            core.step(Cycle(cyc), &mut bus, None, &mut sink).unwrap();
        }
        for e in sink.records() {
            if matches!(
                e.event,
                PerfEvent::Stall {
                    reason: StallReason::Data
                }
            ) {
                data_stalls += 1;
            }
        }
        assert!(
            data_stalls >= 18,
            "two 10-cycle loads should stall ~20 cycles, saw {data_stalls}"
        );
        assert_eq!(
            core.stats().stalls(StallReason::Data),
            data_stalls,
            "counter must mirror the event stream"
        );
    }

    /// The fetch engine "fills during stalls too": once a mispredict's
    /// penalty window has elapsed but the refill fetch is still in flight,
    /// the empty-queue cycles must stay charged to `Branch` — the stall
    /// that caused the flush — not get re-labelled as `Fetch`.
    #[test]
    fn refill_after_mispredict_stays_charged_to_branch() {
        let src = "
            .org 0x1000
            movi d0, 0
            jz d0, skip     ; forward taken = mispredict, then slow refill
            nop
            nop
            nop
            nop
        skip:
            halt
        ";
        let image = assemble(src).unwrap();
        let mut bus = TestBus {
            fetch_latency: 4, // refill takes longer than mispredict_penalty
            ..TestBus::new()
        };
        bus.mem.add_region(Addr(0x1000), 0x1000);
        image.load_into(&mut bus.mem).unwrap();
        let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
        let mut sink = EventSink::new();
        for cyc in 0..200u64 {
            if core.is_halted() {
                break;
            }
            core.step(Cycle(cyc), &mut bus, None, &mut sink).unwrap();
        }
        assert!(core.is_halted());
        let events = sink.records();
        let flow_at = events
            .iter()
            .position(|e| matches!(e.event, PerfEvent::FlowChange { .. }))
            .expect("the taken jz emits a flow change");
        let after = &events[flow_at..];
        let fetch_after = after
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    PerfEvent::Stall {
                        reason: StallReason::Fetch
                    }
                )
            })
            .count();
        let branch_after = after
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    PerfEvent::Stall {
                        reason: StallReason::Branch
                    }
                )
            })
            .count() as u64;
        assert_eq!(
            fetch_after, 0,
            "post-flush fill cycles re-labelled as fetch: {after:?}"
        );
        assert!(
            branch_after > CoreConfig::default().mispredict_penalty,
            "in-flight refill cycles must stay Branch, saw {branch_after}"
        );
        // Cold-start fill (before anything retired) is genuine fetch time.
        let first_retire = events
            .iter()
            .position(|e| matches!(e.event, PerfEvent::InstrRetired { .. }))
            .unwrap();
        let cold_fetch = events[..first_retire]
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    PerfEvent::Stall {
                        reason: StallReason::Fetch
                    }
                )
            })
            .count();
        assert!(cold_fetch > 0, "cold start must still count as fetch");
        // Relabelling must not break the every-cycle accounting invariant.
        let s = core.stats();
        let last_cycle = events.last().unwrap().cycle.0 + 1;
        assert_eq!(s.retire_cycles + s.stall_total(), last_cycle);
    }

    /// A loop body of exactly `loop_buffer` entries (body + the LOOP
    /// instruction itself) must be captured and replayed; one more must
    /// overflow and fall back to refetching — both with correct results.
    #[test]
    fn loop_buffer_capacity_boundary() {
        let body = |n: usize| {
            let adds: String = "    addi d0, d0, 1\n".repeat(n);
            format!(
                "
            .org 0x1000
            movi d0, 0
            movi d3, 6
            mov.a a3, d3
        head:
{adds}
            loop a3, head
            halt
        "
            )
        };
        let n = CoreConfig::default().loop_buffer; // 16
                                                   // n-1 adds + LOOP = exactly n entries: fits.
        let fits = body(n - 1);
        let (core, _) = check_against_golden(&fits);
        assert_eq!(core.arch().d[0], 6 * (n as u32 - 1));
        assert!(
            core.stats().loop_buffer_replays >= 1,
            "an exactly-full body must be buffered: {:?}",
            core.stats()
        );
        // n adds + LOOP = n + 1 entries: overflows, never replays.
        let overflows = body(n);
        let (core, _) = check_against_golden(&overflows);
        assert_eq!(core.arch().d[0], 6 * n as u32);
        assert_eq!(
            core.stats().loop_buffer_replays,
            0,
            "an overflowing body must not be buffered: {:?}",
            core.stats()
        );
    }

    /// A store into the loop body must invalidate the loop buffer: the
    /// next back-edge refetches instead of replaying stale micro-ops.
    #[test]
    fn loop_buffer_invalidated_by_store_into_body() {
        let patched = encoding_of("movi d1, 99");
        let src = format!(
            "
            .org 0x1000
        _start:
            la a2, victim
            movi d3, 0
            movi d15, 4
            mov.a a5, d15
        L0:
        victim:
            movi d1, 11
            add d3, d3, d1
{patch}
            loop a5, L0
            halt
        ",
            patch = emit_patch_stores(&patched),
        );
        let (core, _) = check_against_golden(&src);
        // Pass 1 adds the original 11; passes 2..4 add the patched 99.
        assert_eq!(core.arch().d[3], 11 + 3 * 99);
        assert!(
            core.stats().loop_buffer_invalidations >= 1,
            "stale loop buffer must be dropped: {:?}",
            core.stats()
        );
    }

    /// A backward branch into the *middle* of a buffered loop, after the
    /// body has been patched, must re-execute the patched code on the next
    /// back-edge — not replay the stale buffered body.
    #[test]
    fn backward_branch_into_buffered_loop_sees_patched_body() {
        let patched = encoding_of("movi d1, 99");
        let src = format!(
            "
            .org 0x1000
        _start:
            la a2, victim
            movi d5, 0
            movi d6, 1
            movi d15, 3
            mov.a a5, d15
        head:
        victim:
            movi d1, 11
        mid:
            add d5, d5, d1
            loop a5, head       ; 3 passes, buffer goes live on pass 3
            jz d6, done         ; second arrival: taken
            movi d6, 0
{patch}
            movi d15, 2
            mov.a a5, d15
            movi d1, 7
            j mid               ; backward into the middle of the body
        done:
            halt
        ",
            patch = emit_patch_stores(&patched),
        );
        let (core, _) = check_against_golden(&src);
        // 3×11, then 7 via the mid-entry, then the patched 99.
        assert_eq!(core.arch().d[5], 33 + 7 + 99);
        assert!(
            core.stats().loop_buffer_replays >= 1,
            "loop buffer never engaged: {:?}",
            core.stats()
        );
        assert!(
            core.stats().loop_buffer_invalidations >= 1,
            "patched body must invalidate the buffer: {:?}",
            core.stats()
        );
    }

    /// The predecode cache engages on re-executed code (a backward `jnz`
    /// loop refetches its body every iteration) and its counters move.
    #[test]
    fn predecode_cache_hits_on_reexecuted_code() {
        let (core, _, _) = run_pipeline(
            "
            .org 0x1000
            movi d0, 10
        head:
            addi d0, d0, -1
            jnz d0, head
            halt
        ",
            10_000,
        );
        let s = core.stats().predecode;
        assert!(s.misses >= 1, "first decode must miss: {s:?}");
        assert!(s.hits >= 5, "re-entered loop body must hit: {s:?}");
        assert_eq!(s.invalidations, 0, "nothing was overwritten: {s:?}");
    }

    /// With the fast path off the carve stage still fills and tags blocks
    /// but the cache stores none of them: a loop that would hit on every
    /// iteration never does, and the cache ends the run empty.
    #[test]
    fn uncached_core_stores_nothing_and_never_hits() {
        let image = assemble(
            "
            .org 0x1000
            movi d0, 10
        head:
            addi d0, d0, -1
            jnz d0, head
            halt
        ",
        )
        .unwrap();
        let mut bus = TestBus::new();
        bus.mem.add_region(Addr(0x1000), 0x1000);
        image.load_into(&mut bus.mem).unwrap();
        let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
        core.set_fast_path(false);
        let mut sink = EventSink::disabled();
        let mut cyc = 0u64;
        while !core.is_halted() {
            assert!(cyc < 10_000, "no halt");
            core.step(Cycle(cyc), &mut bus, None, &mut sink).unwrap();
            cyc += 1;
        }
        let s = core.stats().predecode;
        assert_eq!(s.hits, 0, "nothing stored, nothing replayed: {s:?}");
        assert!(s.misses >= 10, "every loop pass is carved fresh: {s:?}");
        assert!(core.blocks.is_empty(), "the cache stores nothing");
    }

    /// Store-to-own-block self-modification: the predecode fast path must
    /// follow the same prefetch-visibility rules as a fresh decode, and
    /// invalidate stale blocks. (`run_pipeline` checks fast-vs-slow cycle
    /// identity; `check_against_golden` pins the architectural result.)
    #[test]
    fn predecode_invalidates_on_self_modifying_store() {
        let patched = encoding_of("movi d1, 99");
        let src = format!(
            "
            .org 0x1000
        _start:
            la a2, victim
            movi d3, 0
            movi d15, 2
            mov.a a5, d15
        L0:
        victim:
            movi d1, 11
            add d3, d3, d1
{patch}
            loop a5, L0
            halt
        ",
            patch = emit_patch_stores(&patched),
        );
        let (core, _) = check_against_golden(&src);
        assert_eq!(core.arch().d[3], 11 + 99);
        assert!(
            core.stats().predecode.invalidations >= 1,
            "patched block must invalidate: {:?}",
            core.stats().predecode
        );
    }

    #[test]
    fn cost_model_reads_test_bus_latencies() {
        let mut bus = TestBus::new();
        bus.fetch_latency = 3;
        bus.read_latency = 5;
        bus.write_latency = 7;
        let mem = MemCosts::of_test_bus(&bus);
        assert_eq!(
            mem,
            MemCosts {
                fetch: 3,
                read: 5,
                write: 7
            }
        );
    }

    #[test]
    fn cost_model_exports_pipeline_redirect_penalty() {
        let model = CostModel::new(
            CoreConfig::default(),
            MemCosts::of_test_bus(&TestBus::new()),
        );
        assert_eq!(
            model.redirect_penalty(),
            CoreConfig::default().mispredict_penalty
        );
    }

    /// Statically decodes the instructions of an assembled image starting
    /// at `at`, in storage order.
    fn decode_all(src: &str, at: u32) -> Vec<Instr> {
        let image = assemble(src).expect("assembles");
        let bytes = image.bytes_at(Addr(at), image.size()).expect("code bytes");
        let mut out = Vec::new();
        let mut off = 0usize;
        while off + 2 <= bytes.len() {
            let (instr, len) = decode(&bytes[off..], Addr(at + off as u32)).expect("decodes");
            let halt = matches!(instr, Instr::Halt) && off + usize::from(len) == bytes.len();
            out.push(instr);
            off += usize::from(len);
            if halt {
                break;
            }
        }
        out
    }

    /// Every charge path of the issue stage maps to a term of
    /// `instr_cost`, so a run-once program must finish within the summed
    /// static bound plus one pipeline-entry overhead.
    #[test]
    fn cost_model_bounds_measured_cycles() {
        let src = "
            .org 0x1000
        _start:
            la sp, 0xD0004000
            la a2, 0xD0000100
            movi d0, 7
            st.w d0, [a2]
            ld.w d1, [a2]
            mul d2, d1, d1
            div d3, d2, d0
            call helper
            halt
        helper:
            add d4, d3, d0
            ret
        ";
        let (core, cycles, _) = run_pipeline(src, 10_000);
        let instrs = decode_all(src, 0x1000);
        assert_eq!(
            core.retired_total(),
            instrs.len() as u64,
            "run-once program premise broken"
        );
        let model = CostModel::new(
            CoreConfig::default(),
            MemCosts::of_test_bus(&TestBus::new()),
        );
        let bound = model.block_cost(instrs.iter()) + model.entry_overhead();
        assert!(
            cycles <= bound,
            "measured {cycles} cycles exceed static bound {bound}"
        );
        // The bound is pessimistic, but not uselessly so.
        assert!(bound < cycles * 20, "bound {bound} absurd for {cycles}");
    }

    /// CSA depth counters track call nesting and record the peak.
    #[test]
    fn csa_depth_peak_tracks_nesting() {
        let (core, _, _) = run_pipeline(
            "
            .org 0x1000
        _start:
            la sp, 0xD0004000
            call outer
            halt
        outer:
            call inner
            ret
        inner:
            nop
            ret
        ",
            10_000,
        );
        assert_eq!(core.arch().csa_depth, 0, "all frames restored");
        assert_eq!(core.arch().csa_depth_peak, 2, "outer + inner");
    }
}

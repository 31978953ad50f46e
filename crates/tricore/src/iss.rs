//! Functional instruction-set simulator (the golden model).
//!
//! Executes a program on [`FlatMem`] with no timing at all, one instruction
//! per step, using the exact semantics of [`crate::exec::execute`]. The
//! cycle-accurate pipeline must produce the same architectural results; the
//! integration suite compares the two on random and hand-written programs.
//!
//! # The basic-block fast path
//!
//! By default the ISS predecodes straight-line runs into basic blocks
//! ([`crate::decode_cache`]) and dispatches whole blocks from the cache,
//! skipping fetch and decode for every repeat execution. With
//! [`Iss::set_fast_path`] disabled, every step instead re-fetches and
//! re-decodes the instruction at the PC (the reference the golden and
//! equivalence suites compare against). The fast path is
//! **observationally identical** to slow stepping: architectural results,
//! retired-instruction counts, debug markers, error behaviour and the
//! emitted [`EventRecord`] stream are the same bit for bit — both paths
//! funnel every retirement through one bookkeeping routine, and cached
//! blocks are invalidated whenever the memory region they were decoded
//! from is written (self-modifying code, calibration-overlay swaps).
//!
//! # Event observation
//!
//! With [`Iss::set_observation`] enabled the ISS emits a per-retirement
//! [`EventRecord`] stream (`InstrRetired`, `FlowChange`, `BranchNotTaken`,
//! `DebugMarker`, timestamped by retired-instruction index) suitable for
//! feeding `audo-mcds` the same way the cycle-accurate pipeline does.
//! Equivalence tests compare the stream fast-path-on vs. -off, both raw
//! and after MCDS trace encoding.
//!
//! # Counting observation
//!
//! With [`Iss::set_profile_observation`] enabled the ISS keeps one
//! observation record: a block profile and per-opcode-slot retired counts,
//! from which [`Iss::export_obs`] derives the instruction mix. Every
//! dispatch reports its retired prefix to the record once, when it ends,
//! so the execute loop itself carries no observation work.

use audo_common::{Addr, Cycle, EventRecord, EventSink, PerfEvent, SimError, SourceId};
use audo_obs::profile::{BlockKey, BlockProfile};

use crate::arch::{init_csa_list, ArchState};
use crate::decode_cache::{fetch_decode, BlockCache, CacheStats, CachedInstr};
use crate::exec::{execute, Outcome};
use crate::image::Image;
use crate::isa::InstrClass;
use crate::mem::FlatMem;
use crate::opcodes::{opcode_class, ASSIGNED, OPCODE_SPACE};

/// Why a resumable run ([`Iss::run_resumable`]) returned without error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStop {
    /// A `HALT` retired; the program is finished.
    Halted,
    /// A `WAIT` retired. The PC already points past it, so the host can
    /// patch memory (e.g. swap a calibration overlay) and resume.
    Waited,
}

/// Result of running a program to completion on the golden model.
#[derive(Debug, Clone)]
pub struct IssRun {
    /// Final architectural state.
    pub state: ArchState,
    /// Final memory contents.
    pub mem: FlatMem,
    /// Number of instructions retired.
    pub instr_count: u64,
    /// Debug marker codes in emission order.
    pub debug_markers: Vec<u8>,
    /// Per-retirement event stream (empty unless [`Iss::set_observation`]
    /// was enabled before the run).
    pub events: Vec<EventRecord>,
}

/// What [`Iss::set_profile_observation`] records.
#[derive(Debug, Clone)]
struct Observed {
    /// Block executions, instructions and spans.
    profile: BlockProfile,
    /// Retired instructions per opcode slot.
    opcodes: [u64; OPCODE_SPACE],
}

impl Observed {
    /// The observation hook: one dispatch of the block `key` (`None` for
    /// a slow step, which no block owns) retired `prefix`.
    fn record(&mut self, key: Option<BlockKey>, prefix: &[CachedInstr]) {
        let retired = prefix.len() as u64;
        match key {
            Some(key) => {
                let end = prefix.last().map_or(0, |ci| {
                    ci.pc
                        .wrapping_add(u32::from(ci.len))
                        .wrapping_sub(key.addr())
                });
                self.profile.record_run(key, retired, end);
            }
            None => self.profile.unattributed.instructions += retired,
        }
        for ci in prefix {
            self.opcodes[usize::from(ci.slot)] += 1;
        }
    }
}

/// The functional golden-model simulator.
///
/// # Examples
///
/// ```
/// use audo_common::Addr;
/// use audo_tricore::asm::assemble;
/// use audo_tricore::iss::Iss;
///
/// let image = assemble("
///     .org 0x1000
///     movi d0, 6
///     movi d1, 7
///     mul  d2, d0, d1
///     halt
/// ")?;
/// let mut iss = Iss::new();
/// iss.map_region(Addr(0x1000), 0x1000);
/// iss.load(&image)?;
/// let run = iss.run(10_000)?;
/// assert_eq!(run.state.d[2], 42);
/// # Ok::<(), audo_common::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Iss {
    state: ArchState,
    mem: FlatMem,
    instr_count: u64,
    debug_markers: Vec<u8>,
    halted: bool,
    cache: Option<BlockCache<CachedInstr>>,
    block_buf: Vec<CachedInstr>,
    events: EventSink,
    observed: Option<Box<Observed>>,
}

impl Default for Iss {
    fn default() -> Iss {
        Iss::new()
    }
}

impl Iss {
    /// Creates an ISS with empty memory, reset state and the basic-block
    /// fast path on.
    #[must_use]
    pub fn new() -> Iss {
        Iss {
            state: ArchState::new(0),
            mem: FlatMem::new(),
            instr_count: 0,
            debug_markers: Vec::new(),
            halted: false,
            cache: Some(BlockCache::default()),
            block_buf: Vec::new(),
            events: EventSink::disabled(),
            observed: None,
        }
    }

    /// Maps a RAM/ROM region.
    pub fn map_region(&mut self, base: Addr, len: u32) {
        self.mem.add_region(base, len);
    }

    /// Loads an image and points the PC at its entry.
    ///
    /// # Errors
    ///
    /// Fails if a section lies outside mapped memory.
    pub fn load(&mut self, image: &Image) -> Result<(), SimError> {
        image.load_into(&mut self.mem)?;
        self.state.pc = image.entry().0;
        Ok(())
    }

    /// Initialises the CSA free list (needed before `CALL`/interrupts).
    ///
    /// # Errors
    ///
    /// Fails if the CSA region is not mapped.
    pub fn init_csa(&mut self, base: Addr, count: u32) -> Result<(), SimError> {
        self.state.fcx = init_csa_list(&mut self.mem, base, count)?;
        Ok(())
    }

    /// Enables or disables the predecoded basic-block fast path.
    ///
    /// On by default. Turning it off drops all cached blocks; turning it
    /// back on starts with an empty cache. Either way the observable
    /// behaviour of [`Iss::run`] is unchanged — only its speed.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.cache = enabled.then(|| self.cache.take().unwrap_or_default());
    }

    /// Decode-cache hit/miss/invalidation counters, if the fast path is on.
    #[must_use]
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(BlockCache::stats)
    }

    /// Enables or disables per-retirement event emission.
    ///
    /// Off by default (runs allocate nothing for events). When on, each
    /// retired instruction emits `InstrRetired { count: 1 }` — preceded by
    /// `FlowChange`/`BranchNotTaken`/`DebugMarker` records where
    /// applicable — with the retired-instruction index as the timestamp
    /// and [`SourceId::TRICORE`] as the source.
    pub fn set_observation(&mut self, enabled: bool) {
        self.events.set_enabled(enabled);
    }

    /// Enables or disables counting observation: a block profile and
    /// per-opcode-slot retired counts.
    ///
    /// Off by default, costing one untaken branch per dispatch. When on,
    /// every predecoded block the fast path dispatches counts one
    /// execution under its `(region, offset, generation)` key, with the
    /// instructions it retired before it ended — at its end, at a `HALT`
    /// or `WAIT`, at a store into its own code, at the retire limit or at
    /// a fault. Instructions the slow [`Iss::step`] retires land in the
    /// profile's `unattributed` bucket, so the profile's total always
    /// equals [`Iss::instr_count`] when it was enabled from reset. The
    /// functional tier records no cycles (it has no clock). Each retired
    /// instruction also counts toward the opcode slot it was fetched from
    /// ([`crate::opcodes::opcode_index_sized`], so assembler-widened
    /// encodings attribute to the 32-bit slot that actually sat in
    /// memory): the coverage feedback the differential fuzzer chases.
    /// Enabling resets the record; disabling drops it.
    pub fn set_profile_observation(&mut self, enabled: bool) {
        self.observed = enabled.then(|| {
            Box::new(Observed {
                profile: BlockProfile::new(),
                opcodes: [0; OPCODE_SPACE],
            })
        });
    }

    /// Same as [`Iss::set_profile_observation`]; kept because the frozen
    /// benchmark's copy of the fuzz checker calls it by this name.
    pub fn set_opcode_observation(&mut self, enabled: bool) {
        self.set_profile_observation(enabled);
    }

    /// Retired-instruction counts per opcode slot (indexed by the
    /// [`crate::opcodes`] space), if observation is on.
    #[must_use]
    pub fn opcode_counts(&self) -> Option<&[u64; OPCODE_SPACE]> {
        self.observed.as_deref().map(|o| &o.opcodes)
    }

    /// The block-execution profile recorded so far, if observation is on.
    #[must_use]
    pub fn block_profile(&self) -> Option<&BlockProfile> {
        self.observed.as_deref().map(|o| &o.profile)
    }

    /// Samples this ISS's counters into an observability registry.
    ///
    /// Records the retired-instruction total and decode-cache statistics
    /// (when the fast path is on) and, when observation is on, the
    /// per-class instruction mix (folded from the opcode counts with
    /// [`opcode_class`]), the per-opcode counts and the profile's totals,
    /// all under the `iss.` prefix. Safe to call at any point; values are
    /// absolute snapshots.
    pub fn export_obs(&self, reg: &mut audo_obs::Registry) {
        reg.sample("iss.instructions_retired", self.instr_count);
        if let Some(stats) = self.cache_stats() {
            reg.sample("iss.decode_cache.hits", stats.hits);
            reg.sample("iss.decode_cache.misses", stats.misses);
            reg.sample("iss.decode_cache.invalidations", stats.invalidations);
        }
        let Some(observed) = self.observed.as_deref() else {
            return;
        };
        let mut mix = [0; InstrClass::COUNT];
        for &(idx, name) in ASSIGNED {
            let count = observed.opcodes[usize::from(idx)];
            reg.sample(&format!("iss.opcode.{name}"), count);
            mix[opcode_class(idx).expect("assigned slot").index()] += count;
        }
        for class in InstrClass::ALL {
            reg.sample(&format!("iss.mix.{}", class.label()), mix[class.index()]);
        }
        let total = observed.profile.total();
        reg.sample("iss.profile.blocks", observed.profile.len() as u64);
        reg.sample("iss.profile.executions", total.executions);
        reg.sample("iss.profile.instructions", total.instructions);
    }

    /// Direct access to the architectural state.
    #[must_use]
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Direct access to memory.
    #[must_use]
    pub fn mem(&self) -> &FlatMem {
        &self.mem
    }

    /// Mutable access to memory (for test setup and overlay swaps).
    ///
    /// Writes through this handle bump the region's generation counter
    /// like any other store, so cached decode blocks are invalidated
    /// automatically.
    pub fn mem_mut(&mut self) -> &mut FlatMem {
        &mut self.mem
    }

    /// Whether a `HALT` has been executed.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn instr_count(&self) -> u64 {
        self.instr_count
    }

    /// Debug marker codes retired so far, in emission order.
    #[must_use]
    pub fn debug_markers(&self) -> &[u8] {
        &self.debug_markers
    }

    /// Per-retirement bookkeeping shared by the slow and fast paths.
    ///
    /// Keeping this in one place is what makes the fast path
    /// observationally identical by construction.
    fn note_retired(&mut self, pc: u32, out: &Outcome) {
        let at = Cycle(self.instr_count);
        self.instr_count += 1;
        if let Some(code) = out.debug {
            self.debug_markers.push(code);
        }
        if out.halt {
            self.halted = true;
        }
        if self.events.is_enabled() {
            if let Some(flow) = out.flow {
                self.events.emit(
                    at,
                    SourceId::TRICORE,
                    PerfEvent::FlowChange {
                        kind: flow.kind,
                        from: Addr(pc),
                        to: flow.target,
                    },
                );
            }
            if out.branch_taken == Some(false) {
                self.events.emit(
                    at,
                    SourceId::TRICORE,
                    PerfEvent::BranchNotTaken { at: Addr(pc) },
                );
            }
            if let Some(code) = out.debug {
                self.events
                    .emit(at, SourceId::TRICORE, PerfEvent::DebugMarker { code });
            }
            self.events
                .emit(at, SourceId::TRICORE, PerfEvent::InstrRetired { count: 1 });
        }
    }

    /// Executes a single instruction (always via fetch+decode).
    ///
    /// # Errors
    ///
    /// Propagates decode and memory faults.
    pub fn step(&mut self) -> Result<Outcome, SimError> {
        let pc = self.state.pc;
        let (instr, ilen) = fetch_decode(&self.mem, pc)?;
        let out = execute(&mut self.state, &mut self.mem, &instr, pc, ilen)?;
        self.note_retired(pc, &out);
        if let Some(observed) = self.observed.as_deref_mut() {
            observed.record(None, &[CachedInstr::new(pc, ilen, instr)]);
        }
        Ok(out)
    }

    /// Executes one predecoded basic block (or a single slow step when no
    /// block can be formed at the PC). Returns `true` if a `WAIT` retired.
    ///
    /// Every way out of the block — its end, `HALT`, `WAIT`, a store into
    /// its own code, the retire limit, a fault — leaves through one exit
    /// that reports the retired prefix to the observation record.
    fn step_block(&mut self, max_instrs: u64) -> Result<bool, SimError> {
        let pc = self.state.pc;
        let key = {
            let cache = self.cache.as_mut().expect("fast path enabled");
            match cache.get_or_fill(pc, &self.mem) {
                Some(block) => {
                    self.block_buf.clear();
                    self.block_buf.extend_from_slice(&block.instrs);
                    BlockKey {
                        region: block.region,
                        offset: pc.wrapping_sub(block.region),
                        generation: block.generation,
                    }
                }
                // Unmapped/undecodable PC: the slow step surfaces the
                // fault with exactly the non-cached semantics.
                None => return self.step().map(|out| out.wait),
            }
        };
        let mut retired = 0;
        let end = loop {
            let Some(&ci) = self.block_buf.get(retired) else {
                break Ok(false);
            };
            if self.instr_count >= max_instrs {
                break Err(SimError::LimitExceeded {
                    what: "instructions retired",
                    limit: max_instrs,
                });
            }
            debug_assert_eq!(self.state.pc, ci.pc, "block dispatch out of sync");
            let out = match execute(&mut self.state, &mut self.mem, &ci.instr, ci.pc, ci.len) {
                Ok(out) => out,
                Err(e) => break Err(e),
            };
            self.note_retired(ci.pc, &out);
            retired += 1;
            if self.halted || out.wait {
                break Ok(out.wait);
            }
            // A plain store may have rewritten instructions later in this
            // very block; if the code region's generation moved, bail to a
            // fresh lookup at the (already updated) architectural PC.
            if ci.may_store && self.mem.generation(Addr(key.region)) != Some(key.generation) {
                break Ok(false);
            }
        };
        if let Some(observed) = self.observed.as_deref_mut() {
            observed.record(Some(key), &self.block_buf[..retired]);
        }
        end
    }

    /// Runs until `HALT`, `WAIT`, or until `max_instrs` **total**
    /// instructions have retired, then returns control to the caller with
    /// the ISS intact.
    ///
    /// This is the resumable sibling of [`Iss::run`]: on
    /// [`RunStop::Waited`] the caller may inspect state, patch memory
    /// through [`Iss::mem_mut`] (a calibration-overlay swap, say — cached
    /// decode blocks invalidate automatically), and call this again to
    /// continue. `max_instrs` counts from reset, not from this call.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LimitExceeded`] if the limit is hit, or any
    /// decode/memory fault.
    pub fn run_resumable(&mut self, max_instrs: u64) -> Result<RunStop, SimError> {
        while !self.halted {
            if self.instr_count >= max_instrs {
                return Err(SimError::LimitExceeded {
                    what: "instructions retired",
                    limit: max_instrs,
                });
            }
            let wait = if self.cache.is_some() {
                self.step_block(max_instrs)?
            } else {
                self.step()?.wait
            };
            if wait {
                return Ok(RunStop::Waited);
            }
        }
        Ok(RunStop::Halted)
    }

    /// Events collected so far (only meaningful with observation on).
    #[must_use]
    pub fn events(&self) -> &[EventRecord] {
        self.events.records()
    }

    /// Runs until `HALT` or until `max_instrs` instructions have retired.
    ///
    /// `WAIT` also stops the run: the functional model has no interrupt
    /// sources, so waiting would never end.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LimitExceeded`] if the limit is hit, or any
    /// decode/memory fault.
    pub fn run(mut self, max_instrs: u64) -> Result<IssRun, SimError> {
        self.run_resumable(max_instrs)?;
        Ok(IssRun {
            state: self.state,
            mem: self.mem,
            instr_count: self.instr_count,
            debug_markers: self.debug_markers,
            events: self.events.drain(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_asm(src: &str) -> IssRun {
        run_asm_configured(src, false, false)
    }

    fn run_asm_configured(src: &str, fast: bool, observe: bool) -> IssRun {
        let image = assemble(src).expect("assembles");
        let mut iss = Iss::new();
        iss.map_region(Addr(0x0000_1000), 0x4000);
        iss.map_region(Addr(0xD000_0000), 0x1_0000);
        iss.init_csa(Addr(0xD000_8000), 32).unwrap();
        iss.load(&image).expect("loads");
        iss.set_fast_path(fast);
        iss.set_observation(observe);
        iss.run(1_000_000).expect("runs")
    }

    #[test]
    fn fibonacci_loop() {
        let run = run_asm(
            "
            .org 0x1000
            movi d0, 0      ; fib(0)
            movi d1, 1      ; fib(1)
            movi d2, 10     ; iterations
        head:
            add  d3, d0, d1
            mov  d0, d1
            mov  d1, d3
            addi d2, d2, -1
            jnz  d2, head
            halt
        ",
        );
        assert_eq!(run.state.d[0], 55);
        assert_eq!(run.state.d[1], 89);
    }

    #[test]
    fn function_call_with_stack_data() {
        let run = run_asm(
            "
            .org 0x1000
        _start:
            la   sp, 0xD0004000
            movi d4, 21
            call double
            halt
        double:
            add  d4, d4, d4
            ret
        ",
        );
        assert_eq!(run.state.d[4], 42);
    }

    #[test]
    fn table_sum_with_hardware_loop() {
        let run = run_asm(
            "
            .org 0x1000
        _start:
            la   a2, table
            movi d0, 0
            movi d1, 4
            mov.a a3, d1
        head:
            ld.w d2, [a2+]4
            add  d0, d0, d2
            loop a3, head
            halt
        table:
            .word 10, 20, 30, 40
        ",
        );
        assert_eq!(run.state.d[0], 100);
    }

    #[test]
    fn debug_markers_collected_in_order() {
        let run = run_asm(".org 0x1000\n debug 1\n debug 2\n debug 200\n halt\n");
        assert_eq!(run.debug_markers, vec![1, 2, 200]);
    }

    #[test]
    fn limit_guard_catches_runaway() {
        let image = assemble(".org 0x1000\nspin: j spin\n").unwrap();
        let mut iss = Iss::new();
        iss.map_region(Addr(0x1000), 0x100);
        iss.load(&image).unwrap();
        let e = iss.run(100).unwrap_err();
        assert!(matches!(e, SimError::LimitExceeded { .. }));
    }

    #[test]
    fn wait_ends_the_functional_run() {
        let run = run_asm(".org 0x1000\n movi d0, 1\n wait\n movi d0, 2\n halt\n");
        assert_eq!(run.state.d[0], 1);
    }

    #[test]
    fn store_then_load_through_memory() {
        let run = run_asm(
            "
            .org 0x1000
            la   a2, 0xD0000100
            li   d0, 0xCAFEBABE
            st.w d0, [a2]
            ld.hu d1, [a2+2]
            halt
        ",
        );
        assert_eq!(run.state.d[1], 0xCAFE);
    }

    // ------------------------------------------------------------------
    // Fast path
    // ------------------------------------------------------------------

    /// Programs exercising loops, calls, stores, debug markers and WAIT.
    const EQUIVALENCE_PROGRAMS: &[&str] = &[
        "
            .org 0x1000
            movi d0, 0
            movi d1, 1
            movi d2, 10
        head:
            add  d3, d0, d1
            mov  d0, d1
            mov  d1, d3
            addi d2, d2, -1
            jnz  d2, head
            debug 9
            halt
        ",
        "
            .org 0x1000
        _start:
            la   sp, 0xD0004000
            movi d4, 21
            call double
            halt
        double:
            add  d4, d4, d4
            ret
        ",
        "
            .org 0x1000
            la   a2, 0xD0000100
            li   d0, 0xCAFEBABE
            st.w d0, [a2]
            ld.hu d1, [a2+2]
            debug 3
            wait
            halt
        ",
    ];

    #[test]
    fn fast_path_matches_slow_path_bit_for_bit() {
        for src in EQUIVALENCE_PROGRAMS {
            let slow = run_asm_configured(src, false, true);
            let fast = run_asm_configured(src, true, true);
            assert_eq!(slow.state, fast.state, "arch state\n{src}");
            assert_eq!(slow.instr_count, fast.instr_count, "instr count\n{src}");
            assert_eq!(slow.debug_markers, fast.debug_markers, "markers\n{src}");
            assert_eq!(slow.events, fast.events, "event stream\n{src}");
        }
    }

    #[test]
    fn re_enabling_profiling_starts_a_fresh_profile() {
        let image = assemble(
            "
            .org 0x1000
            movi d2, 5
        first:
            addi d2, d2, -1
            jnz  d2, first
            wait
            movi d2, 3
        second:
            addi d2, d2, -1
            jnz  d2, second
            halt
        ",
        )
        .unwrap();
        // Profiling on from reset and enabled again at the `wait`, or
        // enabled at the `wait` only: the second loop's profile either way.
        let profile_after_wait = |from_reset: bool| {
            let mut iss = Iss::new();
            iss.map_region(Addr(0x1000), 0x100);
            iss.load(&image).unwrap();
            iss.set_fast_path(true);
            iss.set_profile_observation(from_reset);
            assert_eq!(iss.run_resumable(1_000).unwrap(), RunStop::Waited);
            assert_eq!(iss.block_profile().is_some(), from_reset);
            iss.set_profile_observation(true);
            assert_eq!(iss.run_resumable(1_000).unwrap(), RunStop::Halted);
            iss.block_profile().cloned().expect("profiling is on")
        };
        let again = profile_after_wait(true);
        assert!(!again.is_empty());
        assert_eq!(again, profile_after_wait(false));
    }

    /// Every retirement reaches the observation record on either path:
    /// blocks left at a `WAIT`, at a `HALT` and at the retire limit.
    #[test]
    fn profile_total_equals_retired_count_on_both_paths() {
        let image = assemble(
            "
            .org 0x1000
            movi d2, 4
        head:
            addi d2, d2, -1
            jnz  d2, head
            movi d3, 1
            wait
            mul  d3, d3, d3
            halt
        ",
        )
        .unwrap();
        for (fast, limit) in [(false, 1_000), (true, 1_000), (false, 7), (true, 7)] {
            let mut iss = Iss::new();
            iss.map_region(Addr(0x1000), 0x100);
            iss.load(&image).unwrap();
            iss.set_fast_path(fast);
            iss.set_profile_observation(true);
            while let Ok(RunStop::Waited) = iss.run_resumable(limit) {}
            let profile = iss.block_profile().unwrap();
            let total = profile.total().instructions;
            assert_eq!(total, iss.instr_count(), "fast {fast}, limit {limit}");
            let slots: u64 = iss.opcode_counts().unwrap().iter().sum();
            assert_eq!(slots, total, "fast {fast}, limit {limit}");
            let unattributed = profile.unattributed.instructions;
            assert_eq!(unattributed, if fast { 0 } else { total });
        }
    }

    #[test]
    fn fast_path_limit_error_matches_slow_path() {
        let image = assemble(".org 0x1000\nspin: j spin\n").unwrap();
        for fast in [false, true] {
            let mut iss = Iss::new();
            iss.map_region(Addr(0x1000), 0x100);
            iss.load(&image).unwrap();
            iss.set_fast_path(fast);
            let e = iss.run(100).unwrap_err();
            assert!(matches!(e, SimError::LimitExceeded { limit: 100, .. }));
        }
    }

    #[test]
    fn fast_path_reports_cache_hits_on_hot_loops() {
        let image = assemble(
            "
            .org 0x1000
            movi d2, 100
        head:
            addi d2, d2, -1
            jnz  d2, head
            halt
        ",
        )
        .unwrap();
        let mut iss = Iss::new();
        iss.map_region(Addr(0x1000), 0x1000);
        iss.load(&image).unwrap();
        iss.set_fast_path(true);
        assert!(iss.cache_stats().is_some(), "fast path on");
        let stats = {
            let mut iss = iss;
            // Run manually so we can inspect stats before `run` consumes it.
            loop {
                if iss.is_halted() {
                    break;
                }
                iss.step_block(1_000_000).unwrap();
            }
            iss.cache_stats().unwrap()
        };
        assert!(stats.hits >= 90, "hot loop should hit: {stats:?}");
        assert_eq!(stats.invalidations, 0);
    }

    #[test]
    fn observation_emits_retired_stream() {
        let run = run_asm_configured(".org 0x1000\n movi d0, 1\n debug 5\n halt\n", false, true);
        // movi retires one record; debug retires marker + retired; halt
        // retires one more: four records in total.
        assert_eq!(run.events.len(), 4);
        assert_eq!(run.events[0].event, PerfEvent::InstrRetired { count: 1 });
        assert_eq!(run.events[1].event, PerfEvent::DebugMarker { code: 5 });
        assert_eq!(run.events[0].cycle, Cycle(0));
        assert_eq!(run.events.last().unwrap().cycle, Cycle(2));
    }
}

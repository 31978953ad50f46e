//! The timed memory interface a TC-R core drives.
//!
//! The platform crate implements [`CoreBus`] on top of caches, scratchpads,
//! the crossbar and the flash; the pipeline only sees *when* data arrives.
//! [`TestBus`] provides a flat memory with fixed latencies for pipeline
//! unit tests.

use audo_common::{Addr, Cycle, SimError};

use crate::arch::ArchMem;
use crate::mem::FlatMem;

/// Width of one instruction-fetch granule in bytes.
pub const FETCH_BYTES: u32 = 8;

/// Result of an instruction fetch: one aligned granule and its arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchSlot {
    /// The fetched bytes (aligned to [`FETCH_BYTES`]).
    pub bytes: [u8; FETCH_BYTES as usize],
    /// Cycle at which the bytes are available to decode.
    pub ready_at: Cycle,
}

/// Result of a data read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadSlot {
    /// The zero-extended value.
    pub value: u32,
    /// Cycle at which the value is available.
    pub ready_at: Cycle,
}

/// A timed bus as seen from one core.
///
/// All methods take `now`, the current CPU cycle; implementations return
/// completion times at or after `now`. A blocking in-order core issues at
/// most one data access per cycle and one fetch at a time.
pub trait CoreBus {
    /// Fetches the [`FETCH_BYTES`]-aligned granule containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped addresses.
    fn fetch(&mut self, now: Cycle, addr: Addr) -> Result<FetchSlot, SimError>;

    /// Reads `size` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned accesses.
    fn read(&mut self, now: Cycle, addr: Addr, size: u8) -> Result<ReadSlot, SimError>;

    /// Writes the low `size` bytes of `value` at `addr`; returns the cycle
    /// at which the store was *accepted* (store buffer admission, not
    /// necessarily global visibility).
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned accesses.
    fn write(&mut self, now: Cycle, addr: Addr, size: u8, value: u32) -> Result<Cycle, SimError>;

    /// Identity of the code-memory region containing `addr`, for predecode
    /// caching: `(canonical region base, write generation)`. The generation
    /// must bump on every store into the region (see
    /// [`crate::mem::FlatMem::generation`]), so a cached decode is valid
    /// exactly while the pair compares equal.
    ///
    /// The default returns `None`, which disables predecode caching on the
    /// bus — always safe, merely slower.
    fn code_region(&self, addr: Addr) -> Option<(u32, u64)> {
        let _ = addr;
        None
    }
}

/// Flat-memory [`CoreBus`] with constant latencies, for tests.
///
/// # Examples
///
/// ```
/// use audo_common::{Addr, Cycle};
/// use audo_tricore::bus::{CoreBus, TestBus};
///
/// let mut bus = TestBus::new();
/// bus.mem.add_region(Addr(0x1000), 0x100);
/// bus.write(Cycle(0), Addr(0x1000), 4, 7)?;
/// assert_eq!(bus.read(Cycle(1), Addr(0x1000), 4)?.value, 7);
/// # Ok::<(), audo_common::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TestBus {
    /// Backing memory (public for test setup).
    pub mem: FlatMem,
    /// Cycles from request to fetch data availability.
    pub fetch_latency: u64,
    /// Cycles from request to read data availability.
    pub read_latency: u64,
    /// Cycles until a store is accepted.
    pub write_latency: u64,
}

impl Default for TestBus {
    fn default() -> TestBus {
        TestBus::new()
    }
}

impl TestBus {
    /// Creates a bus with 1-cycle fetch latency and 0-cycle data latency
    /// (scratchpad-like).
    #[must_use]
    pub fn new() -> TestBus {
        TestBus {
            mem: FlatMem::new(),
            fetch_latency: 1,
            read_latency: 0,
            write_latency: 0,
        }
    }
}

impl CoreBus for TestBus {
    fn fetch(&mut self, now: Cycle, addr: Addr) -> Result<FetchSlot, SimError> {
        let base = addr.align_down(FETCH_BYTES);
        let mut bytes = [0u8; FETCH_BYTES as usize];
        self.mem.read_into(base, &mut bytes)?;
        Ok(FetchSlot {
            bytes,
            ready_at: now + self.fetch_latency,
        })
    }

    fn read(&mut self, now: Cycle, addr: Addr, size: u8) -> Result<ReadSlot, SimError> {
        let value = self.mem.read(addr, size)?;
        Ok(ReadSlot {
            value,
            ready_at: now + self.read_latency,
        })
    }

    fn write(&mut self, now: Cycle, addr: Addr, size: u8, value: u32) -> Result<Cycle, SimError> {
        self.mem.write(addr, size, value)?;
        Ok(now + self.write_latency)
    }

    fn code_region(&self, addr: Addr) -> Option<(u32, u64)> {
        self.mem.region_stamp(addr)
    }
}

/// Adapts a [`CoreBus`] to the untimed [`ArchMem`] interface, recording the
/// worst-case completion times of everything the wrapped instruction did.
///
/// The pipeline executes an instruction functionally through this adapter,
/// then turns the recorded times into stall cycles.
#[derive(Debug)]
pub struct TimedMem<'a, B: CoreBus> {
    bus: &'a mut B,
    now: Cycle,
    /// Latest read-data arrival among all reads performed.
    pub reads_ready: Cycle,
    /// Latest store-acceptance time among all writes performed.
    pub writes_accepted: Cycle,
    /// Number of reads performed.
    pub read_count: u32,
    /// Number of writes performed.
    pub write_count: u32,
}

impl<'a, B: CoreBus> TimedMem<'a, B> {
    /// Wraps `bus` at the current cycle.
    pub fn new(bus: &'a mut B, now: Cycle) -> TimedMem<'a, B> {
        TimedMem {
            bus,
            now,
            reads_ready: now,
            writes_accepted: now,
            read_count: 0,
            write_count: 0,
        }
    }
}

impl<B: CoreBus> ArchMem for TimedMem<'_, B> {
    #[inline]
    fn read(&mut self, addr: Addr, size: u8) -> Result<u32, SimError> {
        let slot = self.bus.read(self.now, addr, size)?;
        self.reads_ready = self.reads_ready.max(slot.ready_at);
        self.read_count += 1;
        Ok(slot.value)
    }

    #[inline]
    fn write(&mut self, addr: Addr, size: u8, value: u32) -> Result<(), SimError> {
        let t = self.bus.write(self.now, addr, size, value)?;
        self.writes_accepted = self.writes_accepted.max(t);
        self.write_count += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_aligns_down() {
        let mut bus = TestBus::new();
        bus.mem.add_region(Addr(0x100), 32);
        bus.mem.load(Addr(0x100), &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let slot = bus.fetch(Cycle(5), Addr(0x106)).unwrap();
        assert_eq!(slot.bytes, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(slot.ready_at, Cycle(6));
    }

    #[test]
    fn timed_mem_records_worst_case() {
        let mut bus = TestBus {
            read_latency: 3,
            write_latency: 5,
            ..TestBus::new()
        };
        bus.mem.add_region(Addr(0), 64);
        let mut tm = TimedMem::new(&mut bus, Cycle(10));
        use crate::arch::ArchMem;
        tm.write(Addr(0), 4, 1).unwrap();
        tm.read(Addr(0), 4).unwrap();
        tm.read(Addr(4), 4).unwrap();
        assert_eq!(tm.reads_ready, Cycle(13));
        assert_eq!(tm.writes_accepted, Cycle(15));
        assert_eq!(tm.read_count, 2);
        assert_eq!(tm.write_count, 1);
    }
}

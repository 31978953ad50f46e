//! The trace controller: moves MCDS message bytes into the EMEM trace
//! region and hands them to the tool on download.
//!
//! The emulation memory is shared between trace and calibration overlay
//! (paper §3: "the Emulation Memory, which is shared between calibration
//! overlay and trace"), so the trace region length is a configuration
//! trade-off that experiment E10 explores.

/// How the trace region behaves when full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Overwrite the oldest undownloaded bytes (continuous profiling with
    /// concurrent DAP drain).
    Ring,
    /// Stop recording when full (classic "fill then download" capture).
    Linear,
}

/// Byte-stream controller over a fixed-capacity region.
///
/// Uses absolute read/write offsets; the physical EMEM index is
/// `offset % capacity`.
#[derive(Debug, Clone)]
pub struct TraceController {
    capacity: u64,
    mode: TraceMode,
    wr: u64,
    rd: u64,
    lost: u64,
}

/// Where to physically place bytes, produced by [`TraceController::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Offset inside the trace region.
    pub region_offset: u32,
    /// How many bytes to place there (the rest wraps to offset 0).
    pub len: u32,
}

impl TraceController {
    /// Creates a controller over `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: u32, mode: TraceMode) -> TraceController {
        assert!(capacity > 0, "trace region must be non-empty");
        TraceController {
            capacity: u64::from(capacity),
            mode,
            wr: 0,
            rd: 0,
            lost: 0,
        }
    }

    /// Bytes currently stored and not yet downloaded.
    #[must_use]
    pub fn level(&self) -> u64 {
        self.wr - self.rd
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes lost to overflow so far.
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Total bytes ever accepted.
    #[must_use]
    pub fn total_written(&self) -> u64 {
        self.wr
    }

    /// Accepts `len` incoming bytes; returns the placements (up to two, for
    /// wrap-around) for the bytes that fit. In `Linear` mode excess bytes
    /// are dropped; in `Ring` mode the oldest stored bytes are sacrificed.
    pub fn push(&mut self, len: u32) -> Vec<Placement> {
        self.reserve(len).collect()
    }

    /// [`TraceController::push`] without the allocation: the same
    /// placements, as an iterator that does not borrow the controller.
    pub fn reserve(&mut self, len: u32) -> impl Iterator<Item = Placement> {
        let mut len = u64::from(len);
        match self.mode {
            TraceMode::Linear => {
                let free = self.capacity - self.level();
                if len > free {
                    self.lost += len - free;
                    len = free;
                }
            }
            TraceMode::Ring => {
                if len >= self.capacity {
                    // Pathological: a single push larger than the region —
                    // the excess AND everything currently stored is lost.
                    self.lost += len - self.capacity;
                    self.lost += self.level();
                    self.rd = self.wr;
                    len = self.capacity;
                }
                let overflow = (self.level() + len).saturating_sub(self.capacity);
                if overflow > 0 {
                    self.rd += overflow;
                    self.lost += overflow;
                }
            }
        }
        let at = self.wr;
        self.wr += len;
        self.split(at, len)
    }

    /// Marks up to `max` stored bytes as downloaded; returns the placements
    /// the host must read (in order).
    pub fn pop(&mut self, max: u32) -> Vec<Placement> {
        let len = u64::from(max).min(self.level());
        let at = self.rd;
        self.rd += len;
        self.split(at, len).collect()
    }

    /// The physical placements of `len` bytes at absolute offset `at`:
    /// up to the region end, then the rest from offset 0.
    fn split(&self, at: u64, len: u64) -> impl Iterator<Item = Placement> {
        let start = (at % self.capacity) as u32;
        let first = (self.capacity - u64::from(start)).min(len) as u32;
        [
            Placement {
                region_offset: start,
                len: first,
            },
            Placement {
                region_offset: 0,
                len: (len - u64::from(first)) as u32,
            },
        ]
        .into_iter()
        .filter(|p| p.len > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_mode_drops_when_full() {
        let mut tc = TraceController::new(10, TraceMode::Linear);
        assert_eq!(
            tc.push(6),
            vec![Placement {
                region_offset: 0,
                len: 6
            }]
        );
        assert_eq!(
            tc.push(6),
            vec![Placement {
                region_offset: 6,
                len: 4
            }]
        );
        assert_eq!(tc.lost(), 2);
        assert_eq!(tc.level(), 10);
        assert!(tc.push(1).is_empty());
        assert_eq!(tc.lost(), 3);
    }

    #[test]
    fn ring_mode_sacrifices_oldest() {
        let mut tc = TraceController::new(10, TraceMode::Ring);
        tc.push(8);
        let p = tc.push(4);
        // Wraps: 2 bytes at offset 8, 2 bytes at offset 0.
        assert_eq!(
            p,
            vec![
                Placement {
                    region_offset: 8,
                    len: 2
                },
                Placement {
                    region_offset: 0,
                    len: 2
                }
            ]
        );
        assert_eq!(tc.lost(), 2, "2 oldest bytes overwritten");
        assert_eq!(tc.level(), 10);
    }

    #[test]
    fn pop_follows_write_order() {
        let mut tc = TraceController::new(10, TraceMode::Ring);
        tc.push(6);
        let p = tc.pop(4);
        assert_eq!(
            p,
            vec![Placement {
                region_offset: 0,
                len: 4
            }]
        );
        assert_eq!(tc.level(), 2);
        tc.push(7); // wr=13, level 9
        let p = tc.pop(100);
        assert_eq!(p.len(), 2, "wrapped read");
        assert_eq!(
            p[0],
            Placement {
                region_offset: 4,
                len: 6
            }
        );
        assert_eq!(
            p[1],
            Placement {
                region_offset: 0,
                len: 3
            }
        );
        assert_eq!(tc.level(), 0);
    }

    #[test]
    fn drain_keeps_up_with_slow_producer() {
        let mut tc = TraceController::new(64, TraceMode::Ring);
        for _ in 0..1000 {
            tc.push(3);
            tc.pop(4);
        }
        assert_eq!(tc.lost(), 0, "consumer faster than producer never loses");
    }

    #[test]
    fn oversized_single_push() {
        let mut tc = TraceController::new(8, TraceMode::Ring);
        let p = tc.push(20);
        assert_eq!(p[0].len + p.get(1).map_or(0, |x| x.len), 8);
        assert_eq!(tc.lost(), 12);
    }
}

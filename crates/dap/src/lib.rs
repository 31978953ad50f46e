//! Model of the DAP/JTAG tool link: the bandwidth-limited path between the
//! Emulation Device and the host tool.
//!
//! DAP is Infineon's two-pin debug interface; the paper stresses twice that
//! "the bandwidth of the tool interface does not scale with the CPU
//! frequency" — which is why computing rates *on chip* and shipping one
//! small message (instead of sampling two long counters from outside) is
//! the sustainable approach. This crate models exactly that budget:
//!
//! * [`DapLink`] accrues payload bytes per CPU cycle from the DAP clock,
//!   pin count and protocol efficiency, independent of the CPU clock,
//! * register polling (the "external sampling" alternative) has a fixed
//!   per-access packet cost and a round-trip latency,
//! * the MLI monitor path ([`MliMonitor`]) models the *intrusive*
//!   alternative of §3 where a monitor routine running on the TriCore
//!   services the tool — stealing CPU cycles from the application,
//! * [`frame`] defines the byte-level wire format (sync, kind, sequence
//!   number, varint length, CRC-16) every tool transaction travels in,
//! * [`session`] is the host-side [`session::DapSession`] state machine:
//!   timeouts, bounded retry with deterministic backoff, idempotent trace
//!   drain, and the [`session::HostTool`] arbitration between trace
//!   readout and calibration writes,
//! * [`faults`] injects deterministic, seeded link faults (drops, bit
//!   flips, truncations, duplicates) so all of the above is testable
//!   against the transport loss that dominates real trace capture.

pub mod faults;
pub mod frame;
pub mod session;

pub use faults::{FaultConfig, FaultStats, FaultyLink};
pub use frame::{crc16, Frame, FrameError, FrameKind, MAX_PAYLOAD};
pub use session::{
    ArbitrationPolicy, DapEndpoint, DapSession, DapSessionStats, HostTool, SessionConfig,
    TraceChunk, TxError,
};

use audo_common::{Cycle, Freq};

/// Tool-link configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DapConfig {
    /// DAP interface clock (fixed by cable/tool, *not* by the SoC).
    pub dap_clock: Freq,
    /// Data pins usable for payload (DAP: 1 data + 1 clock; wide JTAG
    /// variants can use more).
    pub data_pins: u8,
    /// Fraction of raw bits that are payload (framing/CRC overhead).
    pub efficiency: f64,
    /// The target CPU clock, to convert budgets into CPU cycles.
    pub cpu_clock: Freq,
    /// Payload bytes exchanged per single register read (address packet,
    /// data packet, turnaround).
    pub reg_read_cost: u32,
    /// Payload bytes per single register write.
    pub reg_write_cost: u32,
}

impl Default for DapConfig {
    /// DAP at 100 MHz, one data pin, 80 % efficiency, against a 150 MHz CPU.
    fn default() -> DapConfig {
        DapConfig {
            dap_clock: Freq::mhz(100),
            data_pins: 1,
            efficiency: 0.8,
            cpu_clock: Freq::mhz(150),
            reg_read_cost: 10,
            reg_write_cost: 10,
        }
    }
}

impl DapConfig {
    /// Payload bytes per second the link can carry.
    #[must_use]
    pub fn bytes_per_second(&self) -> f64 {
        self.dap_clock.0 as f64 * f64::from(self.data_pins) * self.efficiency / 8.0
    }

    /// Payload bytes per *CPU* cycle (the number that does not improve when
    /// the CPU gets faster).
    #[must_use]
    pub fn bytes_per_cpu_cycle(&self) -> f64 {
        self.bytes_per_second() / self.cpu_clock.0 as f64
    }
}

/// A running DAP link: tracks the accumulated byte budget as simulated time
/// advances.
///
/// # Examples
///
/// ```
/// use audo_dap::{DapConfig, DapLink};
///
/// let mut link = DapLink::new(DapConfig::default());
/// link.advance_cycles(150); // 1 µs of CPU time at 150 MHz
/// // 100 Mbit/s × 0.8 / 8 = 10 MB/s → 10 bytes per µs.
/// assert_eq!(link.available(), 10);
/// assert_eq!(link.take(4), 4);
/// assert_eq!(link.available(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct DapLink {
    cfg: DapConfig,
    /// Budget already consumed, in millibytes. The *accrued* budget is
    /// computed from the total elapsed cycles in one shot
    /// (`total_millibytes`), so fractional bytes carry across
    /// `advance_cycles` calls regardless of call granularity — a long run
    /// of 1-cycle advances accrues exactly what one big advance would.
    consumed_millibytes: u64,
    /// `cfg.bytes_per_cpu_cycle() * 1000.0`, the left factor of every
    /// accrual product, computed once.
    millibytes_per_cycle: f64,
    transferred: u64,
    now: Cycle,
}

impl DapLink {
    /// Creates an idle link at cycle 0.
    #[must_use]
    pub fn new(cfg: DapConfig) -> DapLink {
        DapLink {
            millibytes_per_cycle: cfg.bytes_per_cpu_cycle() * 1000.0,
            cfg,
            consumed_millibytes: 0,
            transferred: 0,
            now: Cycle::ZERO,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &DapConfig {
        &self.cfg
    }

    /// Advances simulated time by `cycles` CPU cycles, accruing budget.
    pub fn advance_cycles(&mut self, cycles: u64) {
        self.now += cycles;
    }

    /// Millibytes accrued over the link's whole lifetime. One f64 rounding
    /// per query (not per `advance_cycles` call), so there is no cumulative
    /// truncation loss; f64 stays exact far beyond any simulated run
    /// (~2^53 millibyte-cycles).
    fn total_millibytes(&self) -> u64 {
        self.millibytes_at(self.now.0)
    }

    /// Millibytes accrued by link cycle `cycle`: monotone in `cycle`, since
    /// an f64 product with a non-negative factor and the float-to-int cast
    /// both preserve order.
    fn millibytes_at(&self, cycle: u64) -> u64 {
        // reason: product is non-negative and stays far below 2^53, so the
        // f64 round-trip is exact; the casts cannot truncate or lose sign.
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        {
            (self.millibytes_per_cycle * cycle as f64) as u64
        }
    }

    /// The first link cycle, not before [`DapLink::now`], at which
    /// [`DapLink::available`] reaches `bytes`: the cycle a per-cycle loop
    /// of `advance_cycles(1)` would first find `bytes` affordable. An
    /// estimate from the rate is corrected by stepping with the accrual
    /// formula itself, which is monotone, so the answer is exact. A link
    /// that accrues nothing never covers a positive `bytes`: `u64::MAX`.
    #[must_use]
    pub fn cycle_covering(&self, bytes: usize) -> Cycle {
        let target = self.consumed_millibytes + bytes as u64 * 1000;
        if self.total_millibytes() >= target {
            return self.now;
        }
        if self.millibytes_per_cycle.is_nan() || self.millibytes_per_cycle <= 0.0 {
            return Cycle(u64::MAX);
        }
        // reason: the quotient is non-negative; a saturating cast of an
        // estimate only moves the start of the exact search below.
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let mut m = ((target as f64 / self.millibytes_per_cycle).ceil() as u64).max(self.now.0 + 1);
        while m > self.now.0 + 1 && self.millibytes_at(m - 1) >= target {
            m -= 1;
        }
        while self.millibytes_at(m) < target {
            m += 1;
        }
        Cycle(m)
    }

    /// Whole payload bytes currently available.
    #[must_use]
    pub fn available(&self) -> usize {
        ((self
            .total_millibytes()
            .saturating_sub(self.consumed_millibytes))
            / 1000) as usize
    }

    /// Consumes up to `want` bytes of budget; returns what was granted.
    pub fn take(&mut self, want: usize) -> usize {
        let got = want.min(self.available());
        self.consumed_millibytes += got as u64 * 1000;
        self.transferred += got as u64;
        got
    }

    /// Total payload bytes moved over the link's lifetime.
    #[must_use]
    pub fn transferred(&self) -> u64 {
        self.transferred
    }

    /// Current link time (CPU cycles).
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }
}

/// The intrusive MLI/monitor access path of §3: "a tool can communicate
/// over a user interface like CAN or FlexRay with a monitor routine,
/// running on TriCore, which then accesses the EEC".
///
/// Instead of a dedicated link budget, every transferred chunk costs *CPU
/// cycles* on the target — the defining drawback the non-intrusive ED/DAP
/// path avoids.
#[derive(Debug, Clone)]
pub struct MliMonitor {
    /// CPU cycles the monitor routine burns per transferred byte.
    pub cycles_per_byte: u64,
    /// CPU cycles of fixed overhead per monitor invocation.
    pub cycles_per_invocation: u64,
}

impl Default for MliMonitor {
    fn default() -> MliMonitor {
        MliMonitor {
            cycles_per_byte: 20,
            cycles_per_invocation: 400,
        }
    }
}

impl MliMonitor {
    /// CPU cycles stolen from the application to move `bytes` bytes in one
    /// monitor invocation.
    #[must_use]
    pub fn intrusion_cycles(&self, bytes: u64) -> u64 {
        self.cycles_per_invocation + self.cycles_per_byte * bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_is_independent_of_cpu_clock() {
        let slow = DapConfig {
            cpu_clock: Freq::mhz(80),
            ..DapConfig::default()
        };
        let fast = DapConfig {
            cpu_clock: Freq::mhz(300),
            ..DapConfig::default()
        };
        assert_eq!(slow.bytes_per_second(), fast.bytes_per_second());
        // ...but per-CPU-cycle budget shrinks as the CPU speeds up.
        assert!(slow.bytes_per_cpu_cycle() > fast.bytes_per_cpu_cycle());
    }

    #[test]
    fn budget_accrues_and_caps_consumption() {
        let mut link = DapLink::new(DapConfig::default());
        assert_eq!(link.available(), 0);
        assert_eq!(link.take(100), 0);
        link.advance_cycles(1500); // 10 µs -> 100 bytes
        assert_eq!(link.available(), 100);
        assert_eq!(link.take(60), 60);
        assert_eq!(link.take(60), 40, "only the remainder");
        assert_eq!(link.transferred(), 100);
    }

    #[test]
    fn fractional_budget_accumulates_without_loss() {
        let mut link = DapLink::new(DapConfig::default());
        // 1 cycle at a time: 0.0666 B/cycle must still add up.
        for _ in 0..1500 {
            link.advance_cycles(1);
        }
        let got = link.available();
        assert!((95..=100).contains(&got), "~100 bytes expected, got {got}");
    }

    #[test]
    fn per_cycle_accrual_equals_bulk_accrual() {
        // Regression for the fractional-byte carry bug: truncating the
        // accrued budget once per advance_cycles call lost up to a
        // millibyte per call. A million 1-cycle advances must accrue
        // exactly what one 1M-cycle advance does.
        let mut fine = DapLink::new(DapConfig::default());
        for _ in 0..1_000_000u64 {
            fine.advance_cycles(1);
        }
        let mut bulk = DapLink::new(DapConfig::default());
        bulk.advance_cycles(1_000_000);
        assert_eq!(fine.available(), bulk.available());
        // 1M cycles at 1/15 B/cycle = 66 666 whole bytes.
        assert_eq!(bulk.available(), 66_666);
    }

    #[test]
    fn accrual_is_interleaving_invariant_around_takes() {
        let mut a = DapLink::new(DapConfig::default());
        let mut b = DapLink::new(DapConfig::default());
        for _ in 0..10_000u64 {
            a.advance_cycles(1);
            a.take(1);
        }
        b.advance_cycles(10_000);
        let granted = a.transferred();
        b.take(granted as usize);
        assert_eq!(a.available(), b.available());
    }

    #[test]
    fn register_polling_costs_budget() {
        let mut link = DapLink::new(DapConfig::default());
        link.advance_cycles(1500); // 100 bytes
        let cost = link.config().reg_read_cost as usize;
        let mut polls = 0;
        while link.available() >= cost {
            assert_eq!(link.take(cost), cost);
            polls += 1;
        }
        assert_eq!(polls, 10, "10 bytes per read");
        assert_eq!(link.available(), 0, "budget exhausted");
    }

    /// Every link cycle a per-cycle scan could find, against the jump.
    fn cycle_covering_by_scan(link: &DapLink, bytes: usize) -> Cycle {
        let mut probe = link.clone();
        while probe.available() < bytes {
            probe.advance_cycles(1);
        }
        probe.now()
    }

    #[test]
    fn cycle_covering_is_the_first_affordable_cycle() {
        for pins in [1u8, 3, 8] {
            for efficiency in [0.8, 1.0 / 3.0] {
                for mhz in [150, 133] {
                    let cfg = DapConfig {
                        data_pins: pins,
                        efficiency,
                        cpu_clock: Freq::mhz(mhz),
                        ..DapConfig::default()
                    };
                    let mut link = DapLink::new(cfg);
                    for step in 0..40u64 {
                        for bytes in [0usize, 1, 7, 55, 171] {
                            assert_eq!(
                                link.cycle_covering(bytes),
                                cycle_covering_by_scan(&link, bytes),
                                "pins {pins}, eff {efficiency}, {mhz} MHz, now {}, {bytes} B",
                                link.now().0
                            );
                        }
                        link.advance_cycles(step * 37 % 101);
                        link.take(step as usize % 13);
                    }
                }
            }
        }
    }

    #[test]
    fn a_link_without_bandwidth_never_covers() {
        let link = DapLink::new(DapConfig {
            efficiency: 0.0,
            ..DapConfig::default()
        });
        assert_eq!(link.cycle_covering(0), Cycle::ZERO);
        assert_eq!(link.cycle_covering(1), Cycle(u64::MAX));
    }

    #[test]
    fn mli_monitor_is_intrusive() {
        let m = MliMonitor::default();
        assert_eq!(m.intrusion_cycles(0), 400);
        assert_eq!(m.intrusion_cycles(100), 400 + 2000);
    }
}

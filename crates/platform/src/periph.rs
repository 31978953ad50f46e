//! Peripheral models: system timer, ADC, CAN receiver, crank-wheel sensor.
//!
//! Together these generate the *hard real-time stimulus* the paper's §4
//! emphasises: "most [automotive target systems] are hard real-time systems,
//! where the processing activities are triggered by interrupts or at least
//! are dependent on real-time data like converted analog inputs". Every
//! peripheral raises service request nodes through the interrupt router;
//! all are deterministic (seeded xorshift for jitter) so experiment runs
//! are exactly reproducible.

use audo_common::{Cycle, EventSink};

use crate::irq::{srn, IrqRouter};

/// Tiny deterministic xorshift32 generator for peripheral jitter/noise.
#[derive(Debug, Clone, Copy)]
pub struct XorShift32(u32);

impl XorShift32 {
    /// Creates a generator; `seed` must be non-zero (0 is mapped to 1).
    #[must_use]
    pub fn new(seed: u32) -> XorShift32 {
        XorShift32(if seed == 0 { 1 } else { seed })
    }

    /// Next pseudo-random 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.0 = x;
        x
    }

    /// Uniform value in `0..bound` (`bound` may be 0 → always 0).
    pub fn below(&mut self, bound: u32) -> u32 {
        if bound == 0 {
            0
        } else {
            self.next_u32() % bound
        }
    }
}

// ----------------------------------------------------------------------
// STM — system timer
// ----------------------------------------------------------------------

/// Free-running 64-bit system timer with two auto-reload compare channels.
///
/// Compare matches raise [`srn::STM0`]/[`srn::STM1`]; the compare register
/// then advances by its reload value, producing the OS tick periods
/// (1 ms / 10 ms / 100 ms tasks) of a classic automotive schedule.
#[derive(Debug, Clone, Default)]
pub struct Stm {
    /// Current counter value (equals the cycle count).
    pub tim: u64,
    /// Compare values (against the low 32 counter bits).
    pub cmp: [u32; 2],
    /// Auto-reload increments.
    pub reload: [u32; 2],
    /// Per-channel interrupt enable.
    pub irq_enable: [bool; 2],
}

impl Stm {
    /// Advances the timer one cycle and raises compare interrupts.
    #[inline]
    pub fn step(&mut self, now: Cycle, irq: &mut IrqRouter, sink: &mut EventSink) {
        self.tim = now.0;
        let lo = self.tim as u32;
        if (self.irq_enable[0] && lo == self.cmp[0]) || (self.irq_enable[1] && lo == self.cmp[1]) {
            self.fire(now, irq, sink);
        }
    }

    /// The due cycle's work, out of the per-cycle path.
    #[cold]
    fn fire(&mut self, now: Cycle, irq: &mut IrqRouter, sink: &mut EventSink) {
        let lo = self.tim as u32;
        for ch in 0..2 {
            if self.irq_enable[ch] && lo == self.cmp[ch] {
                irq.raise(if ch == 0 { srn::STM0 } else { srn::STM1 }, now, sink);
                self.cmp[ch] = self.cmp[ch].wrapping_add(self.reload[ch]);
            }
        }
    }

    /// MMIO read at word offset.
    #[must_use]
    pub fn mmio_read(&self, offset: u32) -> u32 {
        match offset {
            0x00 => self.tim as u32,
            0x04 => (self.tim >> 32) as u32,
            0x08 => self.cmp[0],
            0x0C => self.cmp[1],
            0x10 => self.reload[0],
            0x14 => self.reload[1],
            0x18 => u32::from(self.irq_enable[0]) | (u32::from(self.irq_enable[1]) << 1),
            _ => 0,
        }
    }

    /// MMIO write at word offset.
    pub fn mmio_write(&mut self, offset: u32, value: u32) {
        match offset {
            0x08 => self.cmp[0] = value,
            0x0C => self.cmp[1] = value,
            0x10 => self.reload[0] = value,
            0x14 => self.reload[1] = value,
            0x18 => {
                self.irq_enable[0] = value & 1 != 0;
                self.irq_enable[1] = value & 2 != 0;
            }
            _ => {}
        }
    }
}

// ----------------------------------------------------------------------
// ADC
// ----------------------------------------------------------------------

/// Multi-channel ADC with periodic conversions and a result FIFO.
///
/// Results are a deterministic triangle wave plus seeded noise, per channel,
/// so "converted analog inputs" vary over time without any real analog
/// front end. Each completed conversion raises [`srn::ADC`] — typically
/// routed to a DMA channel that drains the FIFO into a DSPR buffer.
#[derive(Debug, Clone)]
pub struct Adc {
    /// Conversion sequence enabled.
    pub enabled: bool,
    /// Cycles per conversion.
    pub period: u32,
    /// Number of scanned channels.
    pub channels: u8,
    fifo: std::collections::VecDeque<u32>,
    next_fire: u64,
    chan_cursor: u8,
    rng: XorShift32,
    /// Sticky overrun flag (FIFO overflow).
    pub overrun: bool,
    conversions: u64,
}

/// ADC result FIFO depth.
pub const ADC_FIFO_DEPTH: usize = 8;

impl Adc {
    /// Creates a disabled ADC with the given noise seed.
    #[must_use]
    pub fn new(seed: u32) -> Adc {
        Adc {
            enabled: false,
            period: 1000,
            channels: 4,
            fifo: std::collections::VecDeque::new(),
            next_fire: 0,
            chan_cursor: 0,
            rng: XorShift32::new(seed),
            overrun: false,
            conversions: 0,
        }
    }

    fn sample(&mut self, now: u64, channel: u8) -> u32 {
        // 12-bit triangle wave (per-channel phase) with ±16 LSB noise.
        let phase = (now / 64 + u64::from(channel) * 512) % 8192;
        let tri = if phase < 4096 { phase } else { 8191 - phase } as u32;
        let noise = self.rng.below(33).wrapping_sub(16);
        (tri.wrapping_add(noise)) & 0xFFF
    }

    /// Advances one cycle; fires a conversion when the period elapses.
    #[inline]
    pub fn step(&mut self, now: Cycle, irq: &mut IrqRouter, sink: &mut EventSink) {
        if self.enabled && now.0 >= self.next_fire {
            self.fire(now, irq, sink);
        }
    }

    /// The due cycle's work, out of the per-cycle path.
    #[cold]
    fn fire(&mut self, now: Cycle, irq: &mut IrqRouter, sink: &mut EventSink) {
        self.next_fire = now.0 + u64::from(self.period.max(1));
        let ch = self.chan_cursor;
        self.chan_cursor = (self.chan_cursor + 1) % self.channels.max(1);
        let value = self.sample(now.0, ch);
        if self.fifo.len() >= ADC_FIFO_DEPTH {
            self.overrun = true;
            self.fifo.pop_front();
        }
        self.fifo.push_back(value | (u32::from(ch) << 16));
        self.conversions += 1;
        irq.raise(srn::ADC, now, sink);
    }

    /// MMIO read (popping the FIFO at the RESULT offset).
    pub fn mmio_read(&mut self, offset: u32) -> u32 {
        match offset {
            0x00 => u32::from(self.enabled),
            0x04 => self.period,
            0x08 => u32::from(self.channels),
            0x0C => self.fifo.pop_front().unwrap_or(0),
            0x10 => self.fifo.len() as u32 | (u32::from(self.overrun) << 8),
            _ => 0,
        }
    }

    /// MMIO write.
    pub fn mmio_write(&mut self, offset: u32, value: u32, now: Cycle) {
        match offset {
            0x00 => {
                self.enabled = value & 1 != 0;
                if self.enabled {
                    self.next_fire = now.0 + u64::from(self.period.max(1));
                }
            }
            0x04 => self.period = value.max(1),
            0x08 => self.channels = (value & 0xFF).clamp(1, 16) as u8,
            0x10 => self.overrun = false,
            _ => {}
        }
    }

    /// Replaces the noise generator seed (models a different analog
    /// environment between otherwise identical runs).
    pub fn reseed(&mut self, seed: u32) {
        self.rng = XorShift32::new(seed);
    }

    /// Total conversions completed.
    #[must_use]
    pub fn conversions(&self) -> u64 {
        self.conversions
    }
}

// ----------------------------------------------------------------------
// CAN receiver
// ----------------------------------------------------------------------

/// A CAN-style message source: periodic (with jitter) receive events that
/// fill the message registers and raise [`srn::CAN`].
#[derive(Debug, Clone)]
pub struct CanRx {
    /// Reception enabled.
    pub enabled: bool,
    /// Mean cycles between messages.
    pub period: u32,
    /// Max uniform jitter (cycles) added/subtracted per message.
    pub jitter: u32,
    /// Last message id.
    pub msg_id: u32,
    /// Last message payload.
    pub msg_data: [u32; 2],
    /// Messages received.
    pub count: u32,
    next_fire: u64,
    rng: XorShift32,
}

impl CanRx {
    /// Creates a disabled receiver with the given jitter seed.
    #[must_use]
    pub fn new(seed: u32) -> CanRx {
        CanRx {
            enabled: false,
            period: 15_000,
            jitter: 2_000,
            msg_id: 0,
            msg_data: [0; 2],
            count: 0,
            next_fire: 0,
            rng: XorShift32::new(seed),
        }
    }

    /// Replaces the jitter generator seed (models a different bus
    /// environment between otherwise identical runs).
    pub fn reseed(&mut self, seed: u32) {
        self.rng = XorShift32::new(seed);
    }

    /// Advances one cycle; delivers a message when due.
    #[inline]
    pub fn step(&mut self, now: Cycle, irq: &mut IrqRouter, sink: &mut EventSink) {
        if self.enabled && now.0 >= self.next_fire {
            self.fire(now, irq, sink);
        }
    }

    /// The due cycle's work, out of the per-cycle path.
    #[cold]
    fn fire(&mut self, now: Cycle, irq: &mut IrqRouter, sink: &mut EventSink) {
        let j = self.rng.below(2 * self.jitter + 1) as i64 - i64::from(self.jitter);
        let gap = (i64::from(self.period.max(1)) + j).max(1) as u64;
        self.next_fire = now.0 + gap;
        self.count = self.count.wrapping_add(1);
        self.msg_id = 0x100 + (self.count % 8);
        self.msg_data[0] = self.rng.next_u32();
        self.msg_data[1] = self.count;
        irq.raise(srn::CAN, now, sink);
    }

    /// MMIO read.
    #[must_use]
    pub fn mmio_read(&self, offset: u32) -> u32 {
        match offset {
            0x00 => u32::from(self.enabled),
            0x04 => self.period,
            0x08 => self.jitter,
            0x0C => self.msg_id,
            0x10 => self.msg_data[0],
            0x14 => self.msg_data[1],
            0x18 => self.count,
            _ => 0,
        }
    }

    /// MMIO write.
    pub fn mmio_write(&mut self, offset: u32, value: u32, now: Cycle) {
        match offset {
            0x00 => {
                self.enabled = value & 1 != 0;
                if self.enabled {
                    self.next_fire = now.0 + u64::from(self.period.max(1));
                }
            }
            0x04 => self.period = value.max(1),
            0x08 => self.jitter = value,
            _ => {}
        }
    }
}

// ----------------------------------------------------------------------
// Crank wheel
// ----------------------------------------------------------------------

/// Crank-wheel (engine position) sensor: one tooth event per tooth, one
/// TDC event per revolution.
///
/// Tooth events raise [`srn::CRANK`]; they arrive at the crank-synchronous
/// rate that makes engine-control software *speed-dependent* — the central
/// reason the paper insists rates must be observed dynamically along the
/// time axis.
#[derive(Debug, Clone)]
pub struct Crank {
    /// Rotation enabled.
    pub enabled: bool,
    /// Engine speed in RPM.
    pub rpm: u32,
    /// Teeth per revolution.
    pub teeth: u32,
    /// Total tooth count since enable.
    pub tooth_count: u32,
    cpu_hz: u64,
    next_tooth: u64,
}

impl Crank {
    /// Creates a stopped crank model for a CPU at `cpu_hz`.
    #[must_use]
    pub fn new(cpu_hz: u64) -> Crank {
        Crank {
            enabled: false,
            rpm: 3000,
            teeth: 60,
            tooth_count: 0,
            cpu_hz,
            next_tooth: 0,
        }
    }

    /// Cycles between teeth at the current RPM.
    #[must_use]
    pub fn tooth_period(&self) -> u64 {
        let rpm = u64::from(self.rpm.max(1));
        let teeth = u64::from(self.teeth.max(1));
        (self.cpu_hz * 60 / (rpm * teeth)).max(1)
    }

    /// Advances one cycle; raises tooth/TDC events when due.
    #[inline]
    pub fn step(&mut self, now: Cycle, irq: &mut IrqRouter, sink: &mut EventSink) {
        if self.enabled && now.0 >= self.next_tooth {
            self.fire(now, irq, sink);
        }
    }

    /// The due cycle's work, out of the per-cycle path.
    #[cold]
    fn fire(&mut self, now: Cycle, irq: &mut IrqRouter, sink: &mut EventSink) {
        self.next_tooth = now.0 + self.tooth_period();
        self.tooth_count = self.tooth_count.wrapping_add(1);
        irq.raise(srn::CRANK, now, sink);
        if self.tooth_count.is_multiple_of(self.teeth.max(1)) {
            irq.raise(srn::TDC, now, sink);
        }
    }

    /// MMIO read.
    #[must_use]
    pub fn mmio_read(&self, offset: u32) -> u32 {
        match offset {
            0x00 => u32::from(self.enabled),
            0x04 => self.rpm,
            0x08 => self.teeth,
            0x0C => self.tooth_count,
            0x10 => self.tooth_count % self.teeth.max(1),
            _ => 0,
        }
    }

    /// MMIO write.
    pub fn mmio_write(&mut self, offset: u32, value: u32, now: Cycle) {
        match offset {
            0x00 => {
                self.enabled = value & 1 != 0;
                if self.enabled {
                    self.next_tooth = now.0 + self.tooth_period();
                }
            }
            0x04 => self.rpm = value.clamp(100, 20_000),
            0x08 => self.teeth = value.clamp(1, 256),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irq::{Service, SrnConfig};

    fn router_all_cpu() -> IrqRouter {
        let mut r = IrqRouter::new();
        for i in 0..8 {
            r.configure(
                i,
                SrnConfig {
                    prio: i + 1,
                    enabled: true,
                    service: Service::Cpu,
                },
            );
        }
        r
    }

    #[test]
    fn stm_periodic_compare_fires_repeatedly() {
        let mut stm = Stm::default();
        stm.cmp[0] = 100;
        stm.reload[0] = 100;
        stm.irq_enable[0] = true;
        let mut irq = router_all_cpu();
        let mut sink = EventSink::new();
        let mut fires = 0;
        for c in 0..1000u64 {
            stm.step(Cycle(c), &mut irq, &mut sink);
            if irq.cpu_pending().is_some() {
                fires += 1;
                irq.acknowledge_cpu(irq.cpu_pending().unwrap());
            }
        }
        assert_eq!(fires, 9, "fires at 100, 200, ..., 900");
    }

    #[test]
    fn adc_produces_bounded_samples_and_overrun() {
        let mut adc = Adc::new(7);
        adc.mmio_write(0x04, 10, Cycle(0));
        adc.mmio_write(0x00, 1, Cycle(0));
        let mut irq = router_all_cpu();
        let mut sink = EventSink::new();
        for c in 0..500u64 {
            adc.step(Cycle(c), &mut irq, &mut sink);
            irq.dispatch(|_| {});
            if let Some(p) = irq.cpu_pending() {
                irq.acknowledge_cpu(p);
            }
        }
        assert!(adc.conversions() >= 40);
        assert!(adc.overrun, "nobody drained the FIFO");
        let r = adc.mmio_read(0x0C);
        assert_eq!(r & 0xF000, 0, "sample is 12-bit");
        assert!((r >> 16) < 4, "channel tag in range");
    }

    #[test]
    fn adc_samples_are_deterministic() {
        let mk = || {
            let mut adc = Adc::new(42);
            adc.mmio_write(0x04, 25, Cycle(0));
            adc.mmio_write(0x00, 1, Cycle(0));
            let mut irq = router_all_cpu();
            let mut sink = EventSink::new();
            let mut vals = Vec::new();
            for c in 0..200u64 {
                adc.step(Cycle(c), &mut irq, &mut sink);
                if let Some(p) = irq.cpu_pending() {
                    irq.acknowledge_cpu(p);
                    vals.push(adc.mmio_read(0x0C));
                }
            }
            vals
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn can_messages_jitter_but_arrive() {
        let mut can = CanRx::new(3);
        can.mmio_write(0x04, 50, Cycle(0));
        can.mmio_write(0x08, 10, Cycle(0));
        can.mmio_write(0x00, 1, Cycle(0));
        let mut irq = router_all_cpu();
        let mut sink = EventSink::new();
        for c in 0..5000u64 {
            can.step(Cycle(c), &mut irq, &mut sink);
            if let Some(p) = irq.cpu_pending() {
                irq.acknowledge_cpu(p);
            }
        }
        let n = can.mmio_read(0x18);
        assert!((80..=120).contains(&n), "~100 messages expected, got {n}");
    }

    #[test]
    fn crank_tooth_rate_follows_rpm() {
        let mut crank = Crank::new(150_000_000);
        crank.mmio_write(0x04, 6000, Cycle(0));
        crank.mmio_write(0x00, 1, Cycle(0));
        // 6000 rpm, 60 teeth -> 100 rev/s -> 6000 teeth/s -> 25k cycles/tooth.
        assert_eq!(crank.tooth_period(), 25_000);
        let mut irq = router_all_cpu();
        let mut sink = EventSink::new();
        for c in 0..250_000u64 {
            crank.step(Cycle(c), &mut irq, &mut sink);
            if let Some(p) = irq.cpu_pending() {
                irq.acknowledge_cpu(p);
            }
        }
        assert_eq!(crank.tooth_count, 9, "teeth at 25k, 50k, ..., 225k");
    }

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift32::new(1);
        let mut b = XorShift32::new(1);
        for _ in 0..100 {
            let x = a.next_u32();
            assert_eq!(x, b.next_u32());
            assert_ne!(x, 0);
        }
        assert_eq!(XorShift32::new(0).next_u32(), XorShift32::new(1).next_u32());
    }
}

//! The Cerberus tool port: the Emulation Device's side of the framed DAP
//! protocol.
//!
//! [`CerberusPort`] adds the state a *robust* tool link needs on the
//! device: an in-flight replay buffer for trace readout. Bytes popped from
//! the [`crate::TraceController`] are held until the host's cumulative
//! acknowledge covers them, so a `TraceRead` transaction whose response
//! was corrupted or dropped can simply be retried — the device hands out
//! the very same bytes again. That idempotence is what lets
//! `audo_dap::DapSession` guarantee the drained stream is byte-identical
//! to a lossless drain (or an exact, explicitly-flagged prefix of it).

use audo_common::{Addr, SimError};
use audo_dap::session::{DapEndpoint, TraceChunk};

use crate::EmulationDevice;

/// Device-side tool-port state: the trace replay window.
#[derive(Debug, Default)]
pub struct CerberusPort {
    /// Absolute stream offset of `inflight[0]` (cumulative bytes since
    /// reset, counting acknowledged ones).
    base: u64,
    /// Popped-but-unacknowledged trace bytes, replayed on retry.
    inflight: Vec<u8>,
}

impl CerberusPort {
    /// Absolute stream offset of the oldest unacknowledged byte.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }
}

impl DapEndpoint for EmulationDevice {
    fn reg_read(&mut self, addr: u32) -> Result<u32, SimError> {
        let b = self.soc.fabric.peek_bytes(Addr(addr), 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn reg_write(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        self.tool_write(Addr(addr), &value.to_le_bytes())
    }

    fn block_read(&mut self, addr: u32, len: usize) -> Result<Vec<u8>, SimError> {
        self.tool_read(Addr(addr), len)
    }

    fn block_write(&mut self, addr: u32, bytes: &[u8]) -> Result<(), SimError> {
        self.tool_write(Addr(addr), bytes)
    }

    fn trace_read(&mut self, ack: u64, max: usize) -> Result<TraceChunk, SimError> {
        // 1. Retire everything the host has acknowledged.
        let acked = usize::try_from(ack.saturating_sub(self.tool_port.base))
            .unwrap_or(usize::MAX)
            .min(self.tool_port.inflight.len());
        self.tool_port.inflight.drain(..acked);
        self.tool_port.base += acked as u64;
        // 2. Top the replay window up from the trace controller.
        let need = max.saturating_sub(self.tool_port.inflight.len());
        if need > 0 {
            // reason: min() clamps to u32::MAX before the cast.
            #[allow(clippy::cast_possible_truncation)]
            let fresh = self.drain_trace(need.min(u32::MAX as usize) as u32)?;
            self.tool_port.inflight.extend_from_slice(&fresh);
        }
        // 3. Hand out the window front — the same bytes for the same `ack`,
        //    however often it is asked.
        let give = max.min(self.tool_port.inflight.len());
        Ok(TraceChunk {
            base: self.tool_port.base,
            bytes: self.tool_port.inflight[..give].to_vec(),
            remaining: (self.tool_port.inflight.len() - give) as u64 + self.trace.level(),
            device_lost: self.trace.lost(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdConfig, EmulationDevice, TraceMode};
    use audo_mcds::Mcds;
    use audo_platform::config::SocConfig;
    use audo_tricore::asm::assemble;

    fn traced_ed() -> EmulationDevice {
        let image = assemble(
            "
            .org 0x80000000
        _start:
            movi d0, 0
            li d1, 500
        head:
            addi d0, d0, 1
            jne d0, d1, head
            halt
        ",
        )
        .expect("assembles");
        let mut ed = EmulationDevice::new(
            SocConfig::default(),
            EdConfig {
                trace_bytes: 64 * 1024,
                trace_mode: TraceMode::Linear,
            },
        );
        ed.soc.load_image(&image).expect("loads");
        ed.program_mcds(Mcds::builder().program_trace().build().unwrap());
        ed
    }

    #[test]
    fn trace_read_is_idempotent_until_acked() {
        let mut ed = traced_ed();
        ed.run(1_000_000, |_| {}).unwrap();
        let first = ed.trace_read(0, 32).unwrap();
        assert_eq!(first.base, 0);
        assert_eq!(first.bytes.len(), 32);
        // Same ack → byte-identical replay (a lost response is retried).
        let replay = ed.trace_read(0, 32).unwrap();
        assert_eq!(first, replay);
        // Acknowledge: the window advances and never returns old bytes.
        let next = ed.trace_read(32, 32).unwrap();
        assert_eq!(next.base, 32);
        assert_ne!(next.bytes, first.bytes);
    }

    #[test]
    fn acked_drain_equals_direct_drain() {
        let mut direct = traced_ed();
        direct.run(1_000_000, |_| {}).unwrap();
        let level = direct.trace.level();
        // reason: a 1M-cycle test run fills far less than 4 GiB of trace.
        #[allow(clippy::cast_possible_truncation)]
        let want = direct.drain_trace(level as u32).unwrap();
        let mut via_port = traced_ed();
        via_port.run(1_000_000, |_| {}).unwrap();
        let mut got = Vec::new();
        let mut ack = 0u64;
        loop {
            let chunk = via_port.trace_read(ack, 48).unwrap();
            if chunk.bytes.is_empty() && chunk.remaining == 0 {
                break;
            }
            ack += chunk.bytes.len() as u64;
            got.extend_from_slice(&chunk.bytes);
        }
        assert_eq!(got, want, "port drain must equal the direct tool path");
    }

    #[test]
    fn remaining_counts_window_and_controller() {
        let mut ed = traced_ed();
        ed.run(1_000_000, |_| {}).unwrap();
        let total = ed.trace.level();
        let chunk = ed.trace_read(0, 16).unwrap();
        assert_eq!(chunk.bytes.len() as u64 + chunk.remaining, total);
        assert_eq!(chunk.device_lost, 0);
    }
}

//! The host-tool DAP session layer: framed transactions over the budgeted
//! link, with timeouts, bounded retry, deterministic backoff and graceful
//! degradation.
//!
//! The paper's constraint — "the bandwidth of the tool interface does not
//! scale with the CPU frequency" — makes the DAP/Cerberus path the choke
//! point of the whole methodology, and a real tool has to survive that
//! path being *imperfect*: corrupted frames, dropped responses, contention
//! between trace readout and calibration writes. This module supplies:
//!
//! * [`DapEndpoint`] — the device side of the protocol (implemented by
//!   `audo_ed::EmulationDevice`),
//! * [`serve_frame`] — device-side frame service: decode, execute, respond
//!   (garbage in → silence out, the host's timeout handles the rest),
//! * [`DapSession`] — the host side: per-transaction timeout, bounded
//!   retry with deterministic exponential backoff (cycle-based, no wall
//!   clock), idempotent cumulative-ack trace drain, and a
//!   [`DapSessionStats`] report instead of panics,
//! * [`HostTool`] — arbitration between concurrent trace drain and
//!   calibration overlay writes contending for one link budget.
//!
//! Trace drain uses a go-back-N (window 1) scheme: every `TraceRead`
//! command carries the cumulative byte offset the host has safely
//! received. The device keeps bytes in flight until they are acknowledged,
//! so a corrupted or dropped response is simply re-requested — the drained
//! stream is byte-identical to a lossless drain, or (after retry
//! exhaustion) an exact *prefix* of it with the truncation reported in the
//! stats. It is never silently wrong.

use std::collections::VecDeque;

use audo_common::{varint, SimError};

use crate::faults::{FaultConfig, FaultyLink};
use crate::frame::{Frame, FrameKind, MAX_PAYLOAD};
use crate::{DapConfig, DapLink};

/// One chunk of trace stream handed out by the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceChunk {
    /// Absolute stream offset of `bytes[0]` (cumulative since reset).
    pub base: u64,
    /// The chunk payload.
    pub bytes: Vec<u8>,
    /// Bytes still buffered on the device *after* this chunk.
    pub remaining: u64,
    /// Bytes the device itself lost to EMEM overflow (ring overwrite /
    /// linear drop) — loss the session layer cannot recover.
    pub device_lost: u64,
}

/// The device side of the tool protocol: what Cerberus exposes to frames
/// arriving over the DAP pins.
pub trait DapEndpoint {
    /// Reads one 32-bit word.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses (the host sees a NAK).
    fn reg_read(&mut self, addr: u32) -> Result<u32, SimError>;

    /// Writes one 32-bit word.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    fn reg_write(&mut self, addr: u32, value: u32) -> Result<(), SimError>;

    /// Reads a block of target memory / EMEM.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    fn block_read(&mut self, addr: u32, len: usize) -> Result<Vec<u8>, SimError>;

    /// Writes a block (calibration overlay page writes go through here).
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    fn block_write(&mut self, addr: u32, bytes: &[u8]) -> Result<(), SimError>;

    /// Trace drain with cumulative acknowledge: discards everything before
    /// `ack`, then returns up to `max` bytes starting at `ack`. Must be
    /// idempotent — the same `ack` yields the same bytes until a higher
    /// `ack` arrives (retries and duplicated commands depend on it).
    ///
    /// # Errors
    ///
    /// Propagates device-internal EMEM faults.
    fn trace_read(&mut self, ack: u64, max: usize) -> Result<TraceChunk, SimError>;
}

/// Serves one received frame on the device side: decode, execute against
/// `ep`, encode the response. Undecodable frames (line noise) yield `None`
/// — a real device cannot answer a frame it cannot parse, and the host's
/// timeout covers the silence. Semantically invalid but well-formed frames
/// yield a NAK.
pub fn serve_frame(ep: &mut dyn DapEndpoint, raw: &[u8]) -> Option<Vec<u8>> {
    let Ok((frame, _)) = Frame::decode(raw) else {
        return None;
    };
    let nak = |seq: u8| Some(Frame::new(FrameKind::Nak, seq, Vec::new()).encode());
    let p = &frame.payload;
    match frame.kind {
        FrameKind::RegRead => {
            let [a0, a1, a2, a3] = *p.as_slice() else {
                return nak(frame.seq);
            };
            match ep.reg_read(u32::from_le_bytes([a0, a1, a2, a3])) {
                Ok(v) => {
                    Some(Frame::new(FrameKind::Data, frame.seq, v.to_le_bytes().to_vec()).encode())
                }
                Err(_) => nak(frame.seq),
            }
        }
        FrameKind::RegWrite => {
            let [a0, a1, a2, a3, v0, v1, v2, v3] = *p.as_slice() else {
                return nak(frame.seq);
            };
            let addr = u32::from_le_bytes([a0, a1, a2, a3]);
            let value = u32::from_le_bytes([v0, v1, v2, v3]);
            match ep.reg_write(addr, value) {
                Ok(()) => Some(Frame::new(FrameKind::Ack, frame.seq, Vec::new()).encode()),
                Err(_) => nak(frame.seq),
            }
        }
        FrameKind::BlockRead => {
            let [a0, a1, a2, a3, l0, l1] = *p.as_slice() else {
                return nak(frame.seq);
            };
            let addr = u32::from_le_bytes([a0, a1, a2, a3]);
            let len = usize::from(u16::from_le_bytes([l0, l1]));
            if len > MAX_PAYLOAD {
                return nak(frame.seq);
            }
            match ep.block_read(addr, len) {
                Ok(bytes) => Some(Frame::new(FrameKind::Data, frame.seq, bytes).encode()),
                Err(_) => nak(frame.seq),
            }
        }
        FrameKind::BlockWrite => {
            if p.len() < 4 {
                return nak(frame.seq);
            }
            let addr = u32::from_le_bytes([p[0], p[1], p[2], p[3]]);
            match ep.block_write(addr, &p[4..]) {
                Ok(()) => Some(Frame::new(FrameKind::Ack, frame.seq, Vec::new()).encode()),
                Err(_) => nak(frame.seq),
            }
        }
        FrameKind::TraceRead => {
            let Ok((ack, used)) = varint::read_u64(p) else {
                return nak(frame.seq);
            };
            if p.len() != used + 2 {
                return nak(frame.seq);
            }
            let max = usize::from(u16::from_le_bytes([p[used], p[used + 1]]));
            match ep.trace_read(ack, max) {
                Ok(chunk) => {
                    let mut payload = Vec::with_capacity(chunk.bytes.len() + 16);
                    varint::write_u64(&mut payload, chunk.base);
                    varint::write_u64(&mut payload, chunk.remaining);
                    varint::write_u64(&mut payload, chunk.device_lost);
                    payload.extend_from_slice(&chunk.bytes);
                    Some(Frame::new(FrameKind::Data, frame.seq, payload).encode())
                }
                Err(_) => nak(frame.seq),
            }
        }
        // Response kinds arriving as commands are protocol violations
        // (e.g. a reflected duplicate); the device stays silent.
        FrameKind::Ack | FrameKind::Data | FrameKind::Nak => None,
    }
}

/// Session tuning knobs. All times are CPU cycles — the session is as
/// deterministic as the rest of the simulation; no wall clock anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Cycles to wait for a response after the command left the wire.
    pub timeout_cycles: u64,
    /// Total attempts per transaction (first try + retries).
    pub max_attempts: u32,
    /// Backoff before retry `k` is `backoff_base_cycles << (k - 1)` …
    pub backoff_base_cycles: u64,
    /// … capped here (deterministic truncated exponential backoff).
    pub backoff_cap_cycles: u64,
    /// Device processing latency per exchange.
    pub turnaround_cycles: u64,
    /// Trace bytes requested per `TraceRead` transaction. Smaller chunks
    /// survive noisy links better (fewer bytes at risk per frame), larger
    /// chunks amortize the header overhead.
    pub trace_chunk: usize,
    /// Bytes per `BlockWrite` chunk (overlay pages are split into these).
    pub write_chunk: usize,
    /// Cycles to hold off polling an empty trace buffer again.
    pub empty_poll_backoff_cycles: u64,
    /// [`DapSession::drain_all`] only declares the stream truncated after
    /// this many *consecutive* failed drain transactions. The
    /// cumulative-ack protocol makes every failed `TraceRead` harmlessly
    /// resumable, so persistence costs nothing in correctness — only in
    /// the bounded extra cycles spent before giving up on a dead link.
    pub max_consecutive_failures: u32,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            timeout_cycles: 1024,
            max_attempts: 6,
            backoff_base_cycles: 64,
            backoff_cap_cycles: 1024,
            turnaround_cycles: 8,
            trace_chunk: 64,
            write_chunk: 256,
            empty_poll_backoff_cycles: 512,
            max_consecutive_failures: 4,
        }
    }
}

/// Why a transaction failed (after all retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// No valid response within the timeout, `attempts` times in a row.
    Timeout {
        /// How many attempts were made before giving up.
        attempts: u32,
    },
    /// The device answered with a NAK (semantic refusal — retrying cannot
    /// help).
    Rejected,
    /// A CRC-valid response did not match the protocol state (wrong stream
    /// offset); the session aborts rather than risk silently wrong data.
    Desync,
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::Timeout { attempts } => {
                write!(f, "transaction timed out after {attempts} attempts")
            }
            TxError::Rejected => f.write_str("device rejected the transaction (NAK)"),
            TxError::Desync => f.write_str("response desynchronized from protocol state"),
        }
    }
}

impl std::error::Error for TxError {}

/// Everything the session observed — the graceful-degradation report: a
/// damaged link shows up here, not as a panic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DapSessionStats {
    /// Transactions completed successfully.
    pub transactions: u64,
    /// Retransmissions (attempts beyond the first).
    pub retries: u64,
    /// Response timeouts observed.
    pub timeouts: u64,
    /// Frames received with a broken CRC / framing.
    pub crc_errors: u64,
    /// CRC-valid responses discarded for a wrong sequence number or kind.
    pub mismatches: u64,
    /// NAK responses.
    pub naks: u64,
    /// Transactions abandoned after retry exhaustion.
    pub failed: u64,
    /// Command frames put on the wire (including retries).
    pub frames_sent: u64,
    /// Response frames that arrived (including corrupt ones).
    pub frames_received: u64,
    /// Total payload bytes the link carried (both directions).
    pub bytes_on_wire: u64,
    /// Trace bytes drained and acknowledged.
    pub trace_bytes_drained: u64,
    /// Trace bytes known to exist but not recovered before give-up.
    pub trace_bytes_unrecovered: u64,
    /// Trace bytes the *device* lost to EMEM overflow (pre-link loss).
    pub trace_bytes_device_lost: u64,
    /// The drained stream is incomplete (prefix of the true stream).
    pub trace_truncated: bool,
    /// Calibration/overlay bytes written.
    pub overlay_bytes_written: u64,
    /// Arbitration grants to trace drain.
    pub drain_grants: u64,
    /// Arbitration grants to calibration writes.
    pub overlay_grants: u64,
    /// Link cycles spent in retry backoff waits.
    pub backoff_cycles: u64,
    /// Go-back-N rewinds: failed drain transactions that forced a later
    /// re-request from the same acknowledged offset.
    pub rewinds: u64,
}

impl DapSessionStats {
    /// One-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} transactions, {} retries, {} timeouts, {} CRC errors, {} failed; \
             trace {} B drained{}, overlay {} B written",
            self.transactions,
            self.retries,
            self.timeouts,
            self.crc_errors,
            self.failed,
            self.trace_bytes_drained,
            if self.trace_truncated {
                format!(
                    " (TRUNCATED, ≥{} B unrecovered)",
                    self.trace_bytes_unrecovered
                )
            } else {
                String::new()
            },
            self.overlay_bytes_written,
        )
    }

    /// Samples these session counters into an observability registry under
    /// the `dap.` prefix. Values are absolute snapshots.
    pub fn export_obs(&self, reg: &mut audo_obs::Registry) {
        reg.sample("dap.transactions", self.transactions);
        reg.sample("dap.retries", self.retries);
        reg.sample("dap.timeouts", self.timeouts);
        reg.sample("dap.crc_errors", self.crc_errors);
        reg.sample("dap.mismatches", self.mismatches);
        reg.sample("dap.naks", self.naks);
        reg.sample("dap.failed", self.failed);
        reg.sample("dap.frames_sent", self.frames_sent);
        reg.sample("dap.frames_received", self.frames_received);
        reg.sample("dap.bytes_on_wire", self.bytes_on_wire);
        reg.sample("dap.trace_bytes_drained", self.trace_bytes_drained);
        reg.sample("dap.trace_bytes_unrecovered", self.trace_bytes_unrecovered);
        reg.sample("dap.trace_bytes_device_lost", self.trace_bytes_device_lost);
        reg.sample("dap.trace_truncated", u64::from(self.trace_truncated));
        reg.sample("dap.overlay_bytes_written", self.overlay_bytes_written);
        reg.sample("dap.drain_grants", self.drain_grants);
        reg.sample("dap.overlay_grants", self.overlay_grants);
        reg.sample("dap.backoff_cycles", self.backoff_cycles);
        reg.sample("dap.rewinds", self.rewinds);
    }
}

/// The host-side DAP session: issues framed transactions over the budgeted
/// [`DapLink`], retries through a [`FaultyLink`], and keeps score.
#[derive(Debug, Clone)]
pub struct DapSession {
    link: DapLink,
    faults: FaultyLink,
    cfg: SessionConfig,
    seq: u8,
    trace_acked: u64,
    stats: DapSessionStats,
    attempt_starts: Vec<u64>,
    latency: audo_obs::Histogram,
}

impl DapSession {
    /// Creates a session over a fresh link.
    #[must_use]
    pub fn new(dap: DapConfig, cfg: SessionConfig, faults: FaultConfig) -> DapSession {
        DapSession {
            link: DapLink::new(dap),
            faults: FaultyLink::new(faults),
            cfg,
            seq: 0,
            trace_acked: 0,
            stats: DapSessionStats::default(),
            attempt_starts: Vec::new(),
            latency: audo_obs::Histogram::default(),
        }
    }

    /// The underlying budgeted link.
    #[must_use]
    pub fn link(&self) -> &DapLink {
        &self.link
    }

    /// Mutable link access (the session driver advances time through here).
    pub fn link_mut(&mut self) -> &mut DapLink {
        &mut self.link
    }

    /// Session configuration.
    #[must_use]
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The fault injector's own counters.
    #[must_use]
    pub fn fault_stats(&self) -> crate::faults::FaultStats {
        self.faults.stats()
    }

    /// The session report.
    #[must_use]
    pub fn stats(&self) -> &DapSessionStats {
        &self.stats
    }

    /// Cumulative trace stream offset acknowledged so far.
    #[must_use]
    pub fn trace_acked(&self) -> u64 {
        self.trace_acked
    }

    /// Link-cycle latency distribution of completed transactions, measured
    /// from the first attempt's start (so retries and backoff count).
    #[must_use]
    pub fn latency_histogram(&self) -> &audo_obs::Histogram {
        &self.latency
    }

    /// Samples the session counters and the transaction-latency histogram
    /// into an observability registry under the `dap.` prefix.
    pub fn export_obs(&self, reg: &mut audo_obs::Registry) {
        self.stats.export_obs(reg);
        reg.observe_histogram("dap.transaction_cycles", &self.latency);
    }

    /// Link-cycle timestamps at which the most recent transaction started
    /// each attempt (pinned by the retry-schedule regression test).
    #[cfg(test)]
    pub(crate) fn last_attempt_starts(&self) -> &[u64] {
        &self.attempt_starts
    }

    /// Upper bound, in cycles, on one transaction with `cmd`/`resp` wire
    /// lengths under permanent link failure — the "configured budget" the
    /// bounded-retry guarantee is stated against.
    #[cfg(test)]
    pub(crate) fn transaction_cycle_bound(&self, cmd_len: usize, resp_len: usize) -> u64 {
        let bpc = self.link.config().bytes_per_cpu_cycle();
        // reason: frame lengths are bounded by MAX_PAYLOAD and bpc > 0, so
        // ceil() yields a small non-negative integer the casts keep exact.
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let ser = |len: usize| (len as f64 / bpc).ceil() as u64 + 1;
        let per_attempt =
            ser(cmd_len) + 2 * ser(resp_len) + self.cfg.turnaround_cycles + self.cfg.timeout_cycles;
        let backoff: u64 = (1..self.cfg.max_attempts).map(|k| self.backoff(k)).sum();
        u64::from(self.cfg.max_attempts) * per_attempt + backoff
    }

    fn backoff(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1);
        if shift >= 32 {
            return self.cfg.backoff_cap_cycles;
        }
        self.cfg
            .backoff_base_cycles
            .saturating_mul(1u64 << shift)
            .min(self.cfg.backoff_cap_cycles)
    }

    fn next_seq(&mut self) -> u8 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    /// Puts `len` payload bytes on the wire: advances link time until the
    /// byte budget covers them (pre-accrued budget makes this instant —
    /// that is the same credit model the raw drain policy uses). One jump
    /// to [`DapLink::cycle_covering`] ends where advancing one cycle per
    /// partial `take` would: the partial takes add up to the whole bytes
    /// accrued since the first, so both stop at the first cycle whose
    /// accrual covers `len`, with `len` bytes consumed.
    fn transmit(&mut self, len: usize) {
        let at = self.link.cycle_covering(len).0;
        self.link.advance_cycles(at - self.link.now().0);
        self.link.take(len);
        self.stats.bytes_on_wire += len as u64;
    }

    /// One complete command/response exchange with timeout, bounded retry
    /// and deterministic backoff.
    fn transact(&mut self, ep: &mut dyn DapEndpoint, cmd: &Frame) -> Result<Frame, TxError> {
        let raw = cmd.encode();
        self.attempt_starts.clear();
        for attempt in 1..=self.cfg.max_attempts {
            self.attempt_starts.push(self.link.now().0);
            if attempt > 1 {
                self.stats.retries += 1;
            }
            self.transmit(raw.len());
            self.stats.frames_sent += 1;
            let copies = self.faults.deliver(&raw);
            self.link.advance_cycles(self.cfg.turnaround_cycles);
            let mut responses: Vec<Vec<u8>> = Vec::new();
            for copy in &copies {
                if let Some(resp) = serve_frame(ep, copy) {
                    responses.extend(self.faults.deliver(&resp));
                }
            }
            let deadline = self.link.now().0 + self.cfg.timeout_cycles;
            let mut outcome: Option<Result<Frame, TxError>> = None;
            for resp in &responses {
                self.transmit(resp.len());
                self.stats.frames_received += 1;
                match Frame::decode(resp) {
                    Ok((f, _)) if f.seq == cmd.seq && f.kind == FrameKind::Nak => {
                        outcome = Some(Err(TxError::Rejected));
                        break;
                    }
                    Ok((f, _)) if f.seq == cmd.seq => {
                        outcome = Some(Ok(f));
                        break;
                    }
                    Ok(_) => self.stats.mismatches += 1,
                    Err(_) => self.stats.crc_errors += 1,
                }
            }
            match outcome {
                Some(Ok(f)) => {
                    self.stats.transactions += 1;
                    self.latency
                        .record(self.link.now().0 - self.attempt_starts[0]);
                    return Ok(f);
                }
                Some(Err(e)) => {
                    self.stats.naks += 1;
                    self.stats.failed += 1;
                    return Err(e);
                }
                None => {
                    // Silence (or only garbage): wait out the response
                    // timeout, then back off before the next attempt.
                    let now = self.link.now().0;
                    if now < deadline {
                        self.link.advance_cycles(deadline - now);
                    }
                    self.stats.timeouts += 1;
                    if attempt < self.cfg.max_attempts {
                        let wait = self.backoff(attempt);
                        self.stats.backoff_cycles += wait;
                        self.link.advance_cycles(wait);
                    }
                }
            }
        }
        self.stats.failed += 1;
        Err(TxError::Timeout {
            attempts: self.cfg.max_attempts,
        })
    }

    /// Reads one 32-bit word.
    ///
    /// # Errors
    ///
    /// Fails with a [`TxError`] after retry exhaustion or a device NAK.
    pub fn reg_read(&mut self, ep: &mut dyn DapEndpoint, addr: u32) -> Result<u32, TxError> {
        let seq = self.next_seq();
        let cmd = Frame::new(FrameKind::RegRead, seq, addr.to_le_bytes().to_vec());
        let resp = self.transact(ep, &cmd)?;
        let [v0, v1, v2, v3] = *resp.payload.as_slice() else {
            return Err(TxError::Desync);
        };
        Ok(u32::from_le_bytes([v0, v1, v2, v3]))
    }

    /// Writes one 32-bit word.
    ///
    /// # Errors
    ///
    /// Fails with a [`TxError`] after retry exhaustion or a device NAK.
    pub fn reg_write(
        &mut self,
        ep: &mut dyn DapEndpoint,
        addr: u32,
        value: u32,
    ) -> Result<(), TxError> {
        let seq = self.next_seq();
        let mut payload = addr.to_le_bytes().to_vec();
        payload.extend_from_slice(&value.to_le_bytes());
        let cmd = Frame::new(FrameKind::RegWrite, seq, payload);
        self.transact(ep, &cmd).map(|_| ())
    }

    /// Reads `len` bytes (`len` ≤ [`MAX_PAYLOAD`]) of target memory.
    ///
    /// # Errors
    ///
    /// Fails with a [`TxError`]; [`TxError::Desync`] if the device returned
    /// the wrong number of bytes.
    pub fn block_read(
        &mut self,
        ep: &mut dyn DapEndpoint,
        addr: u32,
        len: usize,
    ) -> Result<Vec<u8>, TxError> {
        assert!(len <= MAX_PAYLOAD, "block read larger than a frame");
        let seq = self.next_seq();
        let mut payload = addr.to_le_bytes().to_vec();
        // reason: the assert above bounds len to MAX_PAYLOAD (< u16::MAX).
        #[allow(clippy::cast_possible_truncation)]
        payload.extend_from_slice(&(len as u16).to_le_bytes());
        let cmd = Frame::new(FrameKind::BlockRead, seq, payload);
        let resp = self.transact(ep, &cmd)?;
        if resp.payload.len() != len {
            return Err(TxError::Desync);
        }
        Ok(resp.payload)
    }

    /// Writes `bytes` to target memory, split into
    /// [`SessionConfig::write_chunk`]-sized transactions (calibration
    /// overlay updates use this).
    ///
    /// # Errors
    ///
    /// Fails with a [`TxError`]; bytes before the failing chunk have been
    /// written (each chunk write is idempotent, so partial retries are
    /// safe).
    pub fn block_write(
        &mut self,
        ep: &mut dyn DapEndpoint,
        addr: u32,
        bytes: &[u8],
    ) -> Result<(), TxError> {
        let chunk = self.cfg.write_chunk.clamp(1, MAX_PAYLOAD - 4);
        for (i, part) in bytes.chunks(chunk).enumerate() {
            self.write_chunk_tx(ep, addr + (i * chunk) as u32, part)?;
        }
        Ok(())
    }

    fn write_chunk_tx(
        &mut self,
        ep: &mut dyn DapEndpoint,
        addr: u32,
        part: &[u8],
    ) -> Result<(), TxError> {
        let seq = self.next_seq();
        let mut payload = addr.to_le_bytes().to_vec();
        payload.extend_from_slice(part);
        let cmd = Frame::new(FrameKind::BlockWrite, seq, payload);
        self.transact(ep, &cmd)?;
        self.stats.overlay_bytes_written += part.len() as u64;
        Ok(())
    }

    /// One `TraceRead` transaction: acknowledges everything drained so far
    /// and asks for the next chunk. Returns the newly received bytes, or
    /// `None` when the device reports the stream drained.
    ///
    /// # Errors
    ///
    /// Fails with a [`TxError`] after retry exhaustion; the protocol state
    /// (`trace_acked`) is untouched, so a later call resumes exactly where
    /// this one left off.
    pub fn drain_step(&mut self, ep: &mut dyn DapEndpoint) -> Result<Option<Vec<u8>>, TxError> {
        let result = self.drain_step_inner(ep);
        if result.is_err() {
            // Go-back-N: the ack offset stays put, so the next attempt
            // re-requests the same window.
            self.stats.rewinds += 1;
        }
        result
    }

    fn drain_step_inner(&mut self, ep: &mut dyn DapEndpoint) -> Result<Option<Vec<u8>>, TxError> {
        let seq = self.next_seq();
        let mut payload = Vec::with_capacity(12);
        varint::write_u64(&mut payload, self.trace_acked);
        // reason: min() caps the chunk at MAX_PAYLOAD - 32 (< u16::MAX).
        #[allow(clippy::cast_possible_truncation)]
        let chunk = self.cfg.trace_chunk.min(MAX_PAYLOAD - 32) as u16;
        payload.extend_from_slice(&chunk.to_le_bytes());
        let cmd = Frame::new(FrameKind::TraceRead, seq, payload);
        let resp = self.transact(ep, &cmd)?;
        let p = &resp.payload;
        let Ok((base, u1)) = varint::read_u64(p) else {
            return Err(TxError::Desync);
        };
        let Ok((remaining, u2)) = varint::read_u64(&p[u1..]) else {
            return Err(TxError::Desync);
        };
        let Ok((device_lost, u3)) = varint::read_u64(&p[u1 + u2..]) else {
            return Err(TxError::Desync);
        };
        if base != self.trace_acked {
            // A CRC-valid response for a different offset would silently
            // corrupt the stream — refuse it.
            return Err(TxError::Desync);
        }
        let data = &p[u1 + u2 + u3..];
        self.trace_acked += data.len() as u64;
        self.stats.trace_bytes_drained += data.len() as u64;
        self.stats.trace_bytes_device_lost = device_lost;
        if data.is_empty() && remaining == 0 {
            Ok(None)
        } else {
            Ok(Some(data.to_vec()))
        }
    }

    /// Drains the device's trace buffer to completion (or give-up),
    /// appending to `out`. A failed transaction leaves the cumulative ack
    /// untouched, so the drain simply retries from the same offset; only
    /// [`SessionConfig::max_consecutive_failures`] failed transactions in
    /// a row declare the link dead. Returns `true` when the stream was
    /// fully recovered; on `false` the stats flag the truncation and `out`
    /// holds an exact prefix of the true stream.
    pub fn drain_all(&mut self, ep: &mut dyn DapEndpoint, out: &mut Vec<u8>) -> bool {
        let mut consecutive_failures = 0u32;
        loop {
            match self.drain_step(ep) {
                Ok(Some(bytes)) => {
                    consecutive_failures = 0;
                    out.extend_from_slice(&bytes);
                }
                Ok(None) => return true,
                Err(_) => {
                    consecutive_failures += 1;
                    if consecutive_failures < self.cfg.max_consecutive_failures {
                        continue;
                    }
                    self.stats.trace_truncated = true;
                    // The unrecovered tail is whatever the device still
                    // holds; probe it out-of-band for the report (a best
                    // effort — the link just proved itself unreliable).
                    if let Ok(chunk) = ep.trace_read(self.trace_acked, 0) {
                        self.stats.trace_bytes_unrecovered = chunk.remaining;
                    }
                    return false;
                }
            }
        }
    }

    /// Worst-case wire bytes of one trace-drain exchange (command plus
    /// response), used by the arbitration layer to gate issue on budget.
    #[must_use]
    pub fn trace_exchange_cost(&self) -> usize {
        let cmd = Frame::wire_len(12);
        let resp = Frame::wire_len(self.cfg.trace_chunk + 32);
        cmd + resp
    }
}

/// Who gets the link when both trace drain and calibration writes want it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbitrationPolicy {
    /// Calibration overlay writes preempt trace drain: a tuning engineer's
    /// parameter change must land *now*; trace catches up afterwards.
    #[default]
    CalibrationFirst,
    /// Trace drain preempts writes (loss-averse capture sessions).
    TraceFirst,
    /// Strict alternation whenever both classes are pending.
    Alternate,
}

/// The pumped host tool: owns a [`DapSession`], a queue of pending
/// calibration writes, and a continuous trace-drain goal; [`HostTool::pump`]
/// is called once per simulated CPU cycle and issues at most one
/// transaction when the accrued link budget covers it — trace readout and
/// overlay calibration genuinely contend for the same bytes.
///
/// A pump that grants nothing computes its *due cycle*: the first link
/// cycle at which the decision can change. Until then a pump only ticks
/// the link clock. The decision reads the link budget, the write queue,
/// the poll deadline and the last grant, never the device, and between
/// grants only the budget and the clock move: the budget grows with the
/// clock (an outside `take` only shrinks it, delaying the true wake), so
/// the earliest of the poll deadline and the cycle the budget covers each
/// wanted exchange is exactly when a per-cycle check would first act.
/// [`HostTool::queue_overlay_write`] re-opens the gate.
#[derive(Debug)]
pub struct HostTool {
    /// The underlying session (exposed for stats inspection).
    pub session: DapSession,
    policy: ArbitrationPolicy,
    pending_writes: VecDeque<(u32, Vec<u8>)>,
    collected: Vec<u8>,
    next_poll_at: u64,
    last_was_trace: bool,
    /// Link cycle before which no pump can grant (the due cycle).
    quiet_until: u64,
}

impl HostTool {
    /// Creates a host tool over `session` with the given arbitration.
    #[must_use]
    pub fn new(session: DapSession, policy: ArbitrationPolicy) -> HostTool {
        HostTool {
            session,
            policy,
            pending_writes: VecDeque::new(),
            collected: Vec::new(),
            next_poll_at: 0,
            last_was_trace: false,
            quiet_until: 0,
        }
    }

    /// Queues a calibration write; it is split into
    /// [`SessionConfig::write_chunk`] transactions and issued as the
    /// arbitration policy and link budget allow.
    pub fn queue_overlay_write(&mut self, addr: u32, bytes: &[u8]) {
        let chunk = self.session.cfg.write_chunk.clamp(1, MAX_PAYLOAD - 4);
        for (i, part) in bytes.chunks(chunk).enumerate() {
            self.pending_writes
                .push_back((addr + (i * chunk) as u32, part.to_vec()));
        }
        self.quiet_until = 0;
    }

    /// Calibration writes not yet on the wire.
    #[must_use]
    pub fn pending_write_chunks(&self) -> usize {
        self.pending_writes.len()
    }

    /// Trace bytes drained so far.
    #[must_use]
    pub fn collected(&self) -> &[u8] {
        &self.collected
    }

    /// Takes ownership of the drained trace bytes.
    pub fn take_collected(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.collected)
    }

    /// Advances one CPU cycle and issues at most one transaction if the
    /// budget covers a full exchange. Transaction failures degrade
    /// gracefully: they are counted in the stats and retried on later
    /// pumps (the cumulative-ack drain makes that loss-free). Before its
    /// due cycle a pump only ticks the link clock.
    #[inline]
    pub fn pump(&mut self, ep: &mut dyn DapEndpoint) {
        self.session.link_mut().advance_cycles(1);
        if self.session.link().now().0 < self.quiet_until {
            return;
        }
        self.arbitrate(ep);
    }

    /// The pump's decision at the link's current cycle: grants at most one
    /// transaction, or records the due cycle when nothing is affordable.
    fn arbitrate(&mut self, ep: &mut dyn DapEndpoint) {
        let now = self.session.link().now().0;
        let budget = self.session.link().available();
        let write_pending = !self.pending_writes.is_empty();
        let trace_pending = now >= self.next_poll_at;
        // Strict priority *reserves* budget: while the preferred class is
        // pending, the other class does not get to snatch accrued bytes
        // even if its (cheaper) exchange is already affordable.
        let (want_write, want_trace) = match self.policy {
            ArbitrationPolicy::CalibrationFirst => (write_pending, trace_pending && !write_pending),
            ArbitrationPolicy::TraceFirst => (write_pending && !trace_pending, trace_pending),
            ArbitrationPolicy::Alternate => match (write_pending, trace_pending) {
                (true, true) if self.last_was_trace => (true, false),
                (true, true) => (false, true),
                other => other,
            },
        };
        let write_cost = self
            .pending_writes
            .front()
            .map(|(_, part)| Frame::wire_len(4 + part.len()) + Frame::wire_len(0));
        let trace_cost = self.session.trace_exchange_cost();
        let pick_write = want_write && write_cost.is_some_and(|c| budget >= c);
        let pick_trace = want_trace && budget >= trace_cost;
        if pick_write {
            self.session.stats.overlay_grants += 1;
            self.last_was_trace = false;
            let (addr, part) = self.pending_writes.pop_front().expect("front checked");
            if self.session.write_chunk_tx(ep, addr, &part).is_err() {
                // Put it back: the write stays pending, later pumps retry.
                self.pending_writes.push_front((addr, part));
            }
        } else if pick_trace {
            self.session.stats.drain_grants += 1;
            self.last_was_trace = true;
            match self.session.drain_step(ep) {
                Ok(Some(bytes)) => self.collected.extend_from_slice(&bytes),
                Ok(None) => {
                    // Buffer empty: hold off polling for a while.
                    self.next_poll_at = now + self.session.cfg.empty_poll_backoff_cycles;
                }
                Err(_) => {
                    // Ack state unchanged; the next pump resumes exactly
                    // here. Back off like an empty poll.
                    self.next_poll_at = now + self.session.cfg.empty_poll_backoff_cycles;
                }
            }
        } else {
            // Nothing affordable: the wanted set changes at the poll
            // deadline, and each wanted exchange becomes affordable at
            // the cycle the budget covers it.
            let link = self.session.link();
            let mut due = if now < self.next_poll_at {
                self.next_poll_at
            } else {
                u64::MAX
            };
            if let (true, Some(cost)) = (want_write, write_cost) {
                due = due.min(link.cycle_covering(cost).0);
            }
            if want_trace {
                due = due.min(link.cycle_covering(trace_cost).0);
            }
            self.quiet_until = due;
        }
    }

    /// Post-run completion: drains the remaining trace within
    /// `cycle_budget` link cycles. Returns `true` when fully recovered;
    /// otherwise the truncation is flagged in the session stats and the
    /// collected bytes are an exact prefix of the true stream.
    pub fn finish_drain(&mut self, ep: &mut dyn DapEndpoint, cycle_budget: u64) -> bool {
        let start = self.session.link().now().0;
        loop {
            if self.session.link().now().0.saturating_sub(start) > cycle_budget {
                self.session.stats.trace_truncated = true;
                if let Ok(chunk) = ep.trace_read(self.session.trace_acked, 0) {
                    self.session.stats.trace_bytes_unrecovered = chunk.remaining;
                }
                return false;
            }
            match self.session.drain_step(ep) {
                Ok(Some(bytes)) => self.collected.extend_from_slice(&bytes),
                Ok(None) => return true,
                Err(_) => {
                    self.session.stats.trace_truncated = true;
                    if let Ok(chunk) = ep.trace_read(self.session.trace_acked, 0) {
                        self.session.stats.trace_bytes_unrecovered = chunk.remaining;
                    }
                    return false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory endpoint: a flat register file, a byte memory, and a
    /// scripted trace stream with faithful ack/replay semantics.
    struct MockEndpoint {
        mem: std::collections::BTreeMap<u32, u8>,
        trace: Vec<u8>,
        trace_base: u64,
        lost: u64,
    }

    impl MockEndpoint {
        fn new(trace: Vec<u8>) -> MockEndpoint {
            MockEndpoint {
                mem: std::collections::BTreeMap::new(),
                trace,
                trace_base: 0,
                lost: 0,
            }
        }
    }

    impl DapEndpoint for MockEndpoint {
        fn reg_read(&mut self, addr: u32) -> Result<u32, SimError> {
            if addr == 0xDEAD_0000 {
                return Err(SimError::UnmappedAddress {
                    addr: audo_common::Addr(addr),
                });
            }
            let b = |o: u32| u32::from(*self.mem.get(&(addr + o)).unwrap_or(&0));
            Ok(b(0) | b(1) << 8 | b(2) << 16 | b(3) << 24)
        }
        fn reg_write(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
            for (i, byte) in value.to_le_bytes().iter().enumerate() {
                self.mem.insert(addr + i as u32, *byte);
            }
            Ok(())
        }
        fn block_read(&mut self, addr: u32, len: usize) -> Result<Vec<u8>, SimError> {
            Ok((0..len)
                .map(|i| *self.mem.get(&(addr + i as u32)).unwrap_or(&0))
                .collect())
        }
        fn block_write(&mut self, addr: u32, bytes: &[u8]) -> Result<(), SimError> {
            for (i, b) in bytes.iter().enumerate() {
                self.mem.insert(addr + i as u32, *b);
            }
            Ok(())
        }
        fn trace_read(&mut self, ack: u64, max: usize) -> Result<TraceChunk, SimError> {
            let drop = usize::try_from(ack.saturating_sub(self.trace_base))
                .unwrap()
                .min(self.trace.len());
            self.trace.drain(..drop);
            self.trace_base += drop as u64;
            let give = max.min(self.trace.len());
            Ok(TraceChunk {
                base: self.trace_base,
                bytes: self.trace[..give].to_vec(),
                remaining: (self.trace.len() - give) as u64,
                device_lost: self.lost,
            })
        }
    }

    fn session(faults: FaultConfig) -> DapSession {
        DapSession::new(DapConfig::default(), SessionConfig::default(), faults)
    }

    #[test]
    fn lossless_register_roundtrip() {
        let mut ep = MockEndpoint::new(Vec::new());
        let mut s = session(FaultConfig::lossless());
        s.reg_write(&mut ep, 0x100, 0xCAFE_BABE).unwrap();
        assert_eq!(s.reg_read(&mut ep, 0x100).unwrap(), 0xCAFE_BABE);
        assert_eq!(s.stats().transactions, 2);
        assert_eq!(s.stats().retries, 0);
        assert_eq!(s.stats().timeouts, 0);
    }

    #[test]
    fn latency_histogram_counts_completed_transactions() {
        let mut ep = MockEndpoint::new(Vec::new());
        let mut s = session(FaultConfig::lossless());
        s.reg_write(&mut ep, 0x100, 1).unwrap();
        assert_eq!(s.reg_read(&mut ep, 0x100).unwrap(), 1);
        let h = s.latency_histogram();
        assert_eq!(h.count(), s.stats().transactions);
        assert!(h.sum() > 0, "wire + turnaround cycles must be nonzero");
        let mut reg = audo_obs::Registry::new();
        s.export_obs(&mut reg);
        let exported = reg
            .histograms()
            .find(|(name, _)| *name == "dap.transaction_cycles")
            .map(|(_, h)| h.count());
        assert_eq!(exported, Some(2));
    }

    #[test]
    fn nak_is_not_retried() {
        let mut ep = MockEndpoint::new(Vec::new());
        let mut s = session(FaultConfig::lossless());
        assert_eq!(s.reg_read(&mut ep, 0xDEAD_0000), Err(TxError::Rejected));
        assert_eq!(s.stats().naks, 1);
        assert_eq!(s.stats().retries, 0);
    }

    #[test]
    fn lossless_drain_recovers_stream_exactly() {
        let stream: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let mut ep = MockEndpoint::new(stream.clone());
        let mut s = session(FaultConfig::lossless());
        let mut out = Vec::new();
        assert!(s.drain_all(&mut ep, &mut out));
        assert_eq!(out, stream);
        assert_eq!(s.stats().trace_bytes_drained, 1000);
        assert!(!s.stats().trace_truncated);
    }

    #[test]
    fn noisy_drain_is_exact_or_reported_truncated() {
        let stream: Vec<u8> = (0..2000u32).map(|i| (i ^ (i >> 3)) as u8).collect();
        for seed in [1u64, 2, 3, 4, 5] {
            let mut ep = MockEndpoint::new(stream.clone());
            let mut s = session(FaultConfig::uniform(5e-3, seed));
            let mut out = Vec::new();
            let complete = s.drain_all(&mut ep, &mut out);
            if complete {
                assert_eq!(out, stream, "seed {seed}");
                assert!(!s.stats().trace_truncated);
            } else {
                assert!(s.stats().trace_truncated, "seed {seed}");
                assert!(stream.starts_with(&out), "seed {seed}: prefix property");
            }
        }
    }

    #[test]
    fn duplicate_heavy_link_never_duplicates_trace_bytes() {
        let stream: Vec<u8> = (0..1500u32).map(|i| (i * 31) as u8).collect();
        let mut ep = MockEndpoint::new(stream.clone());
        let mut s = session(FaultConfig {
            duplicate: 0.5,
            ..FaultConfig::lossless()
        });
        let mut out = Vec::new();
        assert!(s.drain_all(&mut ep, &mut out));
        assert_eq!(out, stream, "duplicated frames must be deduplicated");
    }

    #[test]
    fn arbitration_calibration_first_prefers_writes() {
        let stream: Vec<u8> = vec![0x5A; 4096];
        let mut ep = MockEndpoint::new(stream);
        let s = session(FaultConfig::lossless());
        let mut tool = HostTool::new(s, ArbitrationPolicy::CalibrationFirst);
        tool.queue_overlay_write(0x2000, &[7u8; 1024]);
        let mut first_write_grant = None;
        let mut first_drain_grant = None;
        for cycle in 0..200_000u64 {
            tool.pump(&mut ep);
            if first_write_grant.is_none() && tool.session.stats().overlay_grants > 0 {
                first_write_grant = Some(cycle);
            }
            if first_drain_grant.is_none() && tool.session.stats().drain_grants > 0 {
                first_drain_grant = Some(cycle);
            }
            if tool.pending_write_chunks() == 0 && tool.session.stats().trace_bytes_drained >= 4096
            {
                break;
            }
        }
        assert_eq!(tool.pending_write_chunks(), 0, "all writes landed");
        assert_eq!(ep.block_read(0x2000, 1024).unwrap(), vec![7u8; 1024]);
        assert_eq!(tool.session.stats().trace_bytes_drained, 4096);
        assert!(
            first_write_grant.unwrap() < first_drain_grant.unwrap(),
            "calibration writes go first under CalibrationFirst"
        );
    }

    #[test]
    fn arbitration_policies_share_one_budget() {
        // With both work classes active, the total wire bytes must exceed
        // what either class alone costs — they really share the link.
        let mut ep = MockEndpoint::new(vec![1u8; 2048]);
        let s = session(FaultConfig::lossless());
        let mut tool = HostTool::new(s, ArbitrationPolicy::Alternate);
        tool.queue_overlay_write(0x8000, &[3u8; 2048]);
        for _ in 0..400_000u64 {
            tool.pump(&mut ep);
            if tool.pending_write_chunks() == 0 && tool.session.stats().trace_bytes_drained >= 2048
            {
                break;
            }
        }
        let st = tool.session.stats();
        assert_eq!(st.trace_bytes_drained, 2048);
        assert_eq!(st.overlay_bytes_written, 2048);
        assert!(st.drain_grants > 0 && st.overlay_grants > 0);
        assert!(
            st.bytes_on_wire as usize > 2048 + 2048,
            "framing overhead is paid"
        );
    }

    /// Satellite: the exact retry/backoff schedule, pinned. Attempt start
    /// cycles with the default `DapConfig`/`SessionConfig` against a dead
    /// link must not drift — tool-visible latency is part of the contract.
    #[test]
    fn retry_schedule_is_pinned() {
        let mut ep = MockEndpoint::new(Vec::new());
        let mut s = session(FaultConfig::dead(1));
        let err = s.reg_read(&mut ep, 0x40).unwrap_err();
        assert_eq!(err, TxError::Timeout { attempts: 6 });
        // RegRead command: 10 wire bytes (3 header + 1 varint LEN + 4
        // payload + 2 CRC) at 1/15 B/cycle -> 150 cycles to serialize the
        // first attempt; +8 turnaround, +1024 timeout, then backoff
        // 64 << (k-1) capped at 1024 before each retry. Retransmits are
        // instant: the byte budget keeps accruing during the timeout wait.
        //   gaps: 150+8+1024+64, then 8+1024+{128,256,512,1024}.
        assert_eq!(
            s.last_attempt_starts(),
            &[0, 1246, 2406, 3694, 5238, 7294],
            "attempts 1..=6 start cycles changed — tool-visible latency drift"
        );
        let bound = s.transaction_cycle_bound(10, 10);
        assert!(
            s.link().now().0 <= bound,
            "terminates within the configured budget: {} > {bound}",
            s.link().now().0
        );
        assert_eq!(s.stats().timeouts, 6);
        assert_eq!(s.stats().retries, 5);
        assert_eq!(s.stats().failed, 1);
    }

    /// Satellite: permanent link failure terminates — no infinite retry.
    #[test]
    fn permanent_failure_terminates_within_budget() {
        let mut ep = MockEndpoint::new(vec![0u8; 512]);
        let mut s = session(FaultConfig::dead(99));
        let mut out = Vec::new();
        let complete = s.drain_all(&mut ep, &mut out);
        assert!(!complete);
        assert!(out.is_empty());
        assert!(s.stats().trace_truncated);
        assert_eq!(s.stats().trace_bytes_unrecovered, 512);
        let cfg = SessionConfig::default();
        let bound = u64::from(cfg.max_consecutive_failures)
            * s.transaction_cycle_bound(16, Frame::wire_len(cfg.trace_chunk + 32));
        assert!(s.link().now().0 <= bound);
    }

    /// The per-cycle transmit loop `DapSession::transmit` replaced: one
    /// link cycle per partial `take` until the frame fits.
    fn transmit_by_steps(link: &mut DapLink, len: usize) {
        let mut sent = 0;
        loop {
            sent += link.take(len - sent);
            if sent == len {
                break;
            }
            link.advance_cycles(1);
        }
    }

    fn same_link(a: &DapLink, b: &DapLink) -> bool {
        (a.now(), a.consumed_millibytes, a.transferred())
            == (b.now(), b.consumed_millibytes, b.transferred())
    }

    #[test]
    fn transmit_jumps_to_where_the_step_loop_ends() {
        for pins in 1..=8u8 {
            for efficiency in [0.8, 1.0 / 3.0] {
                for mhz in [150, 133] {
                    let dap = DapConfig {
                        data_pins: pins,
                        efficiency,
                        cpu_clock: audo_common::Freq::mhz(mhz),
                        ..DapConfig::default()
                    };
                    let mut s =
                        DapSession::new(dap, SessionConfig::default(), FaultConfig::lossless());
                    for k in 0..60u64 {
                        // Idle gaps and partial budget use between frames.
                        s.link.advance_cycles(k * 53 % 97);
                        s.link.take((k % 5) as usize);
                        let len = [1usize, 10, 17, 96, 280][k as usize % 5];
                        let mut reference = s.link.clone();
                        transmit_by_steps(&mut reference, len);
                        s.transmit(len);
                        assert!(
                            same_link(&s.link, &reference),
                            "pins {pins}, eff {efficiency}, {mhz} MHz, frame {k} ({len} B)"
                        );
                    }
                }
            }
        }
    }

    impl HostTool {
        /// The pump as it was before the due-cycle gate: the full decision
        /// on every cycle.
        fn pump_per_cycle(&mut self, ep: &mut dyn DapEndpoint) {
            self.session.link_mut().advance_cycles(1);
            self.arbitrate(ep);
        }
    }

    /// A device whose trace buffer fills while it runs, read out through
    /// the replay window an Emulation Device's tool port keeps: bursts of
    /// trace separated by silent stretches, a bounded buffer that drops
    /// on overflow, and memory for overlay writes.
    struct TracedDevice {
        inner: MockEndpoint,
        buffered: std::collections::VecDeque<u8>,
        inflight: Vec<u8>,
        base: u64,
        produced: u64,
    }

    impl TracedDevice {
        const CAPACITY: usize = 256;

        fn new() -> TracedDevice {
            TracedDevice {
                inner: MockEndpoint::new(Vec::new()),
                buffered: std::collections::VecDeque::new(),
                inflight: Vec::new(),
                base: 0,
                produced: 0,
            }
        }

        /// One target cycle: in the busy half of every 40,000 cycles, a
        /// 2–9 byte message every 32 cycles on average.
        fn run_cycle(&mut self, cycle: u64) {
            let hash = cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            if cycle % 40_000 >= 20_000 || !hash.is_multiple_of(32) {
                return;
            }
            for _ in 0..2 + hash % 8 {
                if self.buffered.len() == Self::CAPACITY {
                    self.inner.lost += 1;
                } else {
                    self.buffered.push_back(self.produced as u8);
                }
                self.produced += 1;
            }
        }
    }

    impl DapEndpoint for TracedDevice {
        fn reg_read(&mut self, addr: u32) -> Result<u32, SimError> {
            self.inner.reg_read(addr)
        }
        fn reg_write(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
            self.inner.reg_write(addr, value)
        }
        fn block_read(&mut self, addr: u32, len: usize) -> Result<Vec<u8>, SimError> {
            self.inner.block_read(addr, len)
        }
        fn block_write(&mut self, addr: u32, bytes: &[u8]) -> Result<(), SimError> {
            self.inner.block_write(addr, bytes)
        }
        fn trace_read(&mut self, ack: u64, max: usize) -> Result<TraceChunk, SimError> {
            let acked = usize::try_from(ack.saturating_sub(self.base))
                .unwrap()
                .min(self.inflight.len());
            self.inflight.drain(..acked);
            self.base += acked as u64;
            let need = max
                .saturating_sub(self.inflight.len())
                .min(self.buffered.len());
            self.inflight.extend(self.buffered.drain(..need));
            let give = max.min(self.inflight.len());
            Ok(TraceChunk {
                base: self.base,
                bytes: self.inflight[..give].to_vec(),
                remaining: (self.inflight.len() - give + self.buffered.len()) as u64,
                device_lost: self.inner.lost,
            })
        }
    }

    #[test]
    fn gated_pump_matches_the_per_cycle_pump() {
        let policies = [
            ArbitrationPolicy::CalibrationFirst,
            ArbitrationPolicy::TraceFirst,
            ArbitrationPolicy::Alternate,
        ];
        for policy in policies {
            for rate in [0.0, 1e-3, 2e-2] {
                let faults = || {
                    if rate > 0.0 {
                        FaultConfig::uniform(rate, 0x5EED)
                    } else {
                        FaultConfig::lossless()
                    }
                };
                let mut gated = HostTool::new(session(faults()), policy);
                let mut per_cycle = HostTool::new(session(faults()), policy);
                let (mut dev_g, mut dev_p) = (TracedDevice::new(), TracedDevice::new());
                let overlay: Vec<u8> = (0..700u32).map(|i| (i * 13) as u8).collect();
                let mut quiet = 0u64;
                for cycle in 0..120_000u64 {
                    if cycle == 27_001 {
                        gated.queue_overlay_write(0x4000, &overlay);
                        per_cycle.queue_overlay_write(0x4000, &overlay);
                    }
                    dev_g.run_cycle(cycle);
                    dev_p.run_cycle(cycle);
                    quiet += u64::from(gated.session.link().now().0 + 1 < gated.quiet_until);
                    gated.pump(&mut dev_g);
                    per_cycle.pump_per_cycle(&mut dev_p);
                    assert_eq!(
                        gated.session.stats(),
                        per_cycle.session.stats(),
                        "{policy:?}, fault rate {rate}, cycle {cycle}"
                    );
                    assert_eq!(
                        gated.collected(),
                        per_cycle.collected(),
                        "{policy:?}, fault rate {rate}, cycle {cycle}"
                    );
                    assert!(
                        same_link(gated.session.link(), per_cycle.session.link()),
                        "{policy:?}, fault rate {rate}, cycle {cycle}"
                    );
                }
                let st = gated.session.stats();
                let at = format!("{policy:?}, fault rate {rate}");
                assert!(st.drain_grants > 0 && st.overlay_grants > 0, "{at}");
                if rate < 1e-2 {
                    // At 2% most 256-byte write frames are damaged, and
                    // the retries' link time lets the drain keep up.
                    assert_eq!(st.overlay_bytes_written, 700, "{at}");
                    assert_eq!(dev_g.block_read(0x4000, 700).unwrap(), overlay, "{at}");
                    assert!(dev_g.inner.lost > 0, "{at}: the buffer overflowed");
                }
                assert!(quiet > 100_000, "{at}: the gate skipped {quiet} pumps");
            }
        }
    }

    #[test]
    fn backoff_schedule_is_truncated_exponential() {
        let s = session(FaultConfig::lossless());
        assert_eq!(s.backoff(1), 64);
        assert_eq!(s.backoff(2), 128);
        assert_eq!(s.backoff(3), 256);
        assert_eq!(s.backoff(4), 512);
        assert_eq!(s.backoff(5), 1024);
        assert_eq!(s.backoff(6), 1024, "capped");
        assert_eq!(s.backoff(80), 1024, "shift overflow saturates, then caps");
    }
}

//! The compressed trace message protocol.
//!
//! Messages are what the MCDS writes into the emulation memory and what the
//! tool downloads over DAP/JTAG, so their size *is* the methodology's
//! bandwidth story (§5 closes on exactly this trade-off). The protocol uses
//! Nexus-style compression:
//!
//! * program flow is only reported at *discontinuities*: a direct taken
//!   branch needs just the instruction count since the last message
//!   ([`TraceMessage::FlowDirect`]) because the host knows the program
//!   image; indirect targets travel as deltas; periodic sync messages carry
//!   absolute addresses for mid-stream decode,
//! * every message carries a varint cycle-delta timestamp, preserving event
//!   order "down to cycle level" across cores and buses,
//! * rate samples are `{probe, numerator, denominator}` triples — the
//!   on-chip counting that §5 contrasts with shipping raw counters.
//!
//! Wire format: `[header byte][ts-delta varint][payload…]` with the kind in
//! the header's low 5 bits and the source id in the high 3 bits.

use audo_common::events::FlowKind;
use audo_common::{varint, AccessKind, Addr, Cycle, SimError, SourceId};

/// A decoded trace message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceMessage {
    /// A taken *direct* control transfer; the target is statically known to
    /// the host, so only the instruction count since the last flow message
    /// travels.
    FlowDirect {
        /// Emitting core.
        source: SourceId,
        /// Instructions retired since the last flow message (inclusive of
        /// the branch itself).
        icnt: u32,
    },
    /// A control transfer whose target must travel (indirect, return,
    /// exception) — or a periodic synchronisation point.
    FlowTarget {
        /// Emitting core.
        source: SourceId,
        /// Flow classification.
        kind: FlowKind,
        /// Instructions retired since the last flow message.
        icnt: u32,
        /// Absolute target address.
        target: Addr,
        /// `true` when this is a periodic sync for a direct branch.
        sync: bool,
    },
    /// One rate-probe sample: `num` events per `den` basis units.
    Counter {
        /// Probe index.
        probe: u8,
        /// Event count in the window.
        num: u64,
        /// Basis count in the window (cycles or instructions).
        den: u64,
    },
    /// Trigger-unit watchpoint.
    Watchpoint {
        /// Action-defined code.
        code: u8,
    },
    /// Qualified data-trace record.
    Data {
        /// Master that performed the access.
        source: SourceId,
        /// Read or write.
        kind: AccessKind,
        /// Access width in bytes.
        size: u8,
        /// Absolute address.
        addr: Addr,
        /// Transferred value.
        value: u32,
    },
    /// Bus-observation record.
    Bus {
        /// Granted master.
        master: SourceId,
        /// Access kind.
        kind: AccessKind,
        /// Width in bytes.
        size: u8,
        /// Address.
        addr: Addr,
    },
    /// PCP channel activity marker.
    PcpChannel {
        /// Channel number.
        channel: u8,
        /// `true` = start, `false` = exit.
        start: bool,
    },
    /// Trace-memory overflow: `lost` bytes of messages were dropped.
    Overflow {
        /// Bytes lost.
        lost: u64,
    },
}

const KIND_FLOW_DIRECT: u8 = 1;
const KIND_FLOW_TARGET: u8 = 2;
const KIND_FLOW_TARGET_SYNC: u8 = 3;
const KIND_COUNTER: u8 = 4;
const KIND_WATCHPOINT: u8 = 5;
const KIND_DATA_R: u8 = 6;
const KIND_DATA_W: u8 = 7;
const KIND_BUS: u8 = 8;
const KIND_PCP_START: u8 = 9;
const KIND_PCP_EXIT: u8 = 10;
const KIND_OVERFLOW: u8 = 11;

fn flow_kind_code(k: FlowKind) -> u8 {
    match k {
        FlowKind::BranchTaken => 0,
        FlowKind::Indirect => 1,
        FlowKind::Call => 2,
        FlowKind::Return => 3,
        FlowKind::Exception => 4,
        FlowKind::ExceptionReturn => 5,
    }
}

fn flow_kind_from(code: u8) -> Option<FlowKind> {
    Some(match code {
        0 => FlowKind::BranchTaken,
        1 => FlowKind::Indirect,
        2 => FlowKind::Call,
        3 => FlowKind::Return,
        4 => FlowKind::Exception,
        5 => FlowKind::ExceptionReturn,
        _ => return None,
    })
}

/// Stateful message encoder (address-delta and timestamp compression).
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    last_qcycle: u64,
    last_target: u32,
    last_data_addr: u32,
    last_bus_addr: u32,
    messages: u64,
    /// Timestamp unit = `2^shift` cycles ("scalable time-stamping", §3).
    shift: u8,
}

impl Encoder {
    /// Creates a fresh encoder (stream starts at cycle 0, cycle-exact
    /// timestamps).
    #[must_use]
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Creates an encoder whose timestamps count `2^shift`-cycle units:
    /// coarser stamps, shorter deltas, same message order. The decoder
    /// must be given the same shift.
    #[must_use]
    pub fn with_shift(shift: u8) -> Encoder {
        Encoder {
            shift: shift.min(20),
            ..Encoder::default()
        }
    }

    /// Messages emitted so far.
    #[must_use]
    pub fn message_count(&self) -> u64 {
        self.messages
    }

    /// Appends `msg` (timestamped at `cycle`) to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` runs backwards relative to the previous message.
    pub fn emit(&mut self, cycle: Cycle, msg: &TraceMessage, out: &mut Vec<u8>) {
        let qcycle = cycle.0 >> self.shift;
        assert!(
            qcycle >= self.last_qcycle,
            "trace timestamps must be monotonic"
        );
        let (kind, source) = match msg {
            TraceMessage::FlowDirect { source, .. } => (KIND_FLOW_DIRECT, *source),
            TraceMessage::FlowTarget { source, sync, .. } => (
                if *sync {
                    KIND_FLOW_TARGET_SYNC
                } else {
                    KIND_FLOW_TARGET
                },
                *source,
            ),
            TraceMessage::Counter { .. } => (KIND_COUNTER, SourceId(0)),
            TraceMessage::Watchpoint { .. } => (KIND_WATCHPOINT, SourceId(0)),
            TraceMessage::Data { source, kind, .. } => (
                if *kind == AccessKind::Write {
                    KIND_DATA_W
                } else {
                    KIND_DATA_R
                },
                *source,
            ),
            TraceMessage::Bus { master, .. } => (KIND_BUS, *master),
            TraceMessage::PcpChannel { start, .. } => (
                if *start {
                    KIND_PCP_START
                } else {
                    KIND_PCP_EXIT
                },
                SourceId::PCP,
            ),
            TraceMessage::Overflow { .. } => (KIND_OVERFLOW, SourceId(0)),
        };
        out.push(kind | (source.0 << 5));
        varint::write_u64(out, qcycle - self.last_qcycle);
        self.last_qcycle = qcycle;
        self.messages += 1;
        match *msg {
            TraceMessage::FlowDirect { icnt, .. } => {
                varint::write_u64(out, u64::from(icnt));
            }
            TraceMessage::FlowTarget {
                kind, icnt, target, ..
            } => {
                out.push(flow_kind_code(kind));
                varint::write_u64(out, u64::from(icnt));
                let delta = i64::from(target.0 as i32) - i64::from(self.last_target as i32);
                varint::write_i64(out, delta);
                self.last_target = target.0;
            }
            TraceMessage::Counter { probe, num, den } => {
                out.push(probe);
                varint::write_u64(out, num);
                varint::write_u64(out, den);
            }
            TraceMessage::Watchpoint { code } => out.push(code),
            TraceMessage::Data {
                size, addr, value, ..
            } => {
                out.push(size);
                let delta = i64::from(addr.0 as i32) - i64::from(self.last_data_addr as i32);
                varint::write_i64(out, delta);
                self.last_data_addr = addr.0;
                varint::write_u64(out, u64::from(value));
            }
            TraceMessage::Bus {
                kind, size, addr, ..
            } => {
                out.push(size | (if kind == AccessKind::Write { 0x80 } else { 0 }));
                let delta = i64::from(addr.0 as i32) - i64::from(self.last_bus_addr as i32);
                varint::write_i64(out, delta);
                self.last_bus_addr = addr.0;
            }
            TraceMessage::PcpChannel { channel, .. } => out.push(channel),
            TraceMessage::Overflow { lost } => varint::write_u64(out, lost),
        }
    }
}

/// Decodes a complete message stream.
///
/// # Errors
///
/// Returns [`SimError::DecodeTrace`] on malformed input.
pub fn decode_stream(bytes: &[u8]) -> Result<Vec<(Cycle, TraceMessage)>, SimError> {
    let (msgs, err) = decode_stream_inner(bytes, 0, None);
    match err {
        Some(e) => Err(e),
        None => Ok(msgs),
    }
}

/// Decodes as much of a (possibly truncated or overflow-damaged) stream as
/// possible: returns every message up to the first malformed byte, plus the
/// error that stopped decoding, if any.
#[must_use]
pub fn decode_stream_lossy(bytes: &[u8]) -> (Vec<(Cycle, TraceMessage)>, Option<SimError>) {
    decode_stream_inner(bytes, 0, None)
}

/// Lossy decode of a stream whose timestamps were encoded with
/// [`Encoder::with_shift`] (returned cycles are quantized to `2^shift`)
/// that also reports each message's encoded size in bytes (header +
/// timestamp + payload), in stream order — the input for
/// wire-compression histograms. `sizes.len()` always equals the number of
/// messages returned.
#[must_use]
pub fn decode_stream_lossy_shifted_sized(
    bytes: &[u8],
    shift: u8,
    sizes: &mut Vec<usize>,
) -> (Vec<(Cycle, TraceMessage)>, Option<SimError>) {
    decode_stream_inner(bytes, shift, Some(sizes))
}

fn decode_stream_inner(
    bytes: &[u8],
    shift: u8,
    mut sizes: Option<&mut Vec<usize>>,
) -> (Vec<(Cycle, TraceMessage)>, Option<SimError>) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut cycle = 0u64;
    let mut last_target = 0u32;
    let mut last_data_addr = 0u32;
    let mut last_bus_addr = 0u32;
    let err = |pos: usize, m: &str| SimError::DecodeTrace {
        offset: pos,
        message: m.to_string(),
    };

    while pos < bytes.len() {
        let header = bytes[pos];
        let start = pos;
        pos += 1;
        let kind = header & 0x1F;
        let source = SourceId(header >> 5);
        let (dt, used) = match varint::read_u64(&bytes[pos..]) {
            Ok(v) => v,
            Err(_) => return (out, Some(err(pos, "truncated timestamp"))),
        };
        pos += used;
        cycle += dt << shift;

        macro_rules! vu {
            () => {{
                match varint::read_u64(&bytes[pos..]) {
                    Ok((v, used)) => {
                        pos += used;
                        v
                    }
                    Err(_) => return (out, Some(err(pos, "truncated varint"))),
                }
            }};
        }
        macro_rules! vi {
            () => {{
                match varint::read_i64(&bytes[pos..]) {
                    Ok((v, used)) => {
                        pos += used;
                        v
                    }
                    Err(_) => return (out, Some(err(pos, "truncated varint"))),
                }
            }};
        }
        macro_rules! byte {
            () => {{
                match bytes.get(pos) {
                    Some(&b) => {
                        pos += 1;
                        b
                    }
                    None => return (out, Some(err(pos, "truncated payload"))),
                }
            }};
        }

        let msg = match kind {
            KIND_FLOW_DIRECT => TraceMessage::FlowDirect {
                source,
                icnt: vu!() as u32,
            },
            KIND_FLOW_TARGET | KIND_FLOW_TARGET_SYNC => {
                let Some(fk) = flow_kind_from(byte!()) else {
                    return (out, Some(err(start, "bad flow kind")));
                };
                let icnt = vu!() as u32;
                let delta = vi!();
                let target = (i64::from(last_target as i32) + delta) as u32;
                last_target = target;
                TraceMessage::FlowTarget {
                    source,
                    kind: fk,
                    icnt,
                    target: Addr(target),
                    sync: kind == KIND_FLOW_TARGET_SYNC,
                }
            }
            KIND_COUNTER => {
                let probe = byte!();
                TraceMessage::Counter {
                    probe,
                    num: vu!(),
                    den: vu!(),
                }
            }
            KIND_WATCHPOINT => TraceMessage::Watchpoint { code: byte!() },
            KIND_DATA_R | KIND_DATA_W => {
                let size = byte!();
                let delta = vi!();
                let addr = (i64::from(last_data_addr as i32) + delta) as u32;
                last_data_addr = addr;
                let value = vu!() as u32;
                TraceMessage::Data {
                    source,
                    kind: if kind == KIND_DATA_W {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    size,
                    addr: Addr(addr),
                    value,
                }
            }
            KIND_BUS => {
                let ks = byte!();
                let delta = vi!();
                let addr = (i64::from(last_bus_addr as i32) + delta) as u32;
                last_bus_addr = addr;
                TraceMessage::Bus {
                    master: source,
                    kind: if ks & 0x80 != 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    size: ks & 0x7F,
                    addr: Addr(addr),
                }
            }
            KIND_PCP_START | KIND_PCP_EXIT => TraceMessage::PcpChannel {
                channel: byte!(),
                start: kind == KIND_PCP_START,
            },
            KIND_OVERFLOW => TraceMessage::Overflow { lost: vu!() },
            other => {
                return (
                    out,
                    Some(err(start, &format!("unknown message kind {other}"))),
                )
            }
        };
        out.push((Cycle(cycle), msg));
        if let Some(sizes) = sizes.as_deref_mut() {
            sizes.push(pos - start);
        }
    }
    (out, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msgs: Vec<(u64, TraceMessage)>) {
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        for (c, m) in &msgs {
            enc.emit(Cycle(*c), m, &mut buf);
        }
        let decoded = decode_stream(&buf).expect("decodes");
        assert_eq!(decoded.len(), msgs.len());
        for ((c, m), (dc, dm)) in msgs.iter().zip(&decoded) {
            assert_eq!(Cycle(*c), *dc);
            assert_eq!(m, dm);
        }
        assert_eq!(enc.message_count(), msgs.len() as u64);
    }

    #[test]
    fn roundtrip_all_kinds() {
        roundtrip(vec![
            (
                5,
                TraceMessage::FlowDirect {
                    source: SourceId::TRICORE,
                    icnt: 17,
                },
            ),
            (
                9,
                TraceMessage::FlowTarget {
                    source: SourceId::TRICORE,
                    kind: FlowKind::Return,
                    icnt: 3,
                    target: Addr(0x8000_1234),
                    sync: false,
                },
            ),
            (
                9,
                TraceMessage::FlowTarget {
                    source: SourceId::TRICORE,
                    kind: FlowKind::BranchTaken,
                    icnt: 250,
                    target: Addr(0x8000_1000),
                    sync: true,
                },
            ),
            (
                20,
                TraceMessage::Counter {
                    probe: 3,
                    num: 250,
                    den: 1000,
                },
            ),
            (21, TraceMessage::Watchpoint { code: 42 }),
            (
                30,
                TraceMessage::Data {
                    source: SourceId::TRICORE,
                    kind: AccessKind::Write,
                    size: 4,
                    addr: Addr(0xD000_0100),
                    value: 0xFFFF_FFFF,
                },
            ),
            (
                31,
                TraceMessage::Data {
                    source: SourceId::DMA,
                    kind: AccessKind::Read,
                    size: 2,
                    addr: Addr(0xD000_00FC),
                    value: 7,
                },
            ),
            (
                40,
                TraceMessage::Bus {
                    master: SourceId::DMA,
                    kind: AccessKind::Read,
                    size: 4,
                    addr: Addr(0x9000_0000),
                },
            ),
            (
                50,
                TraceMessage::PcpChannel {
                    channel: 3,
                    start: true,
                },
            ),
            (
                90,
                TraceMessage::PcpChannel {
                    channel: 3,
                    start: false,
                },
            ),
            (100, TraceMessage::Overflow { lost: 4096 }),
        ]);
    }

    #[test]
    fn sized_decode_partitions_the_stream_exactly() {
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        let msgs = [
            TraceMessage::FlowDirect {
                source: SourceId::TRICORE,
                icnt: 17,
            },
            TraceMessage::Watchpoint { code: 42 },
            TraceMessage::Overflow { lost: 4096 },
        ];
        for (i, m) in msgs.iter().enumerate() {
            enc.emit(Cycle(i as u64 * 10), m, &mut buf);
        }
        let mut sizes = Vec::new();
        let (decoded, err) = decode_stream_lossy_shifted_sized(&buf, 0, &mut sizes);
        assert!(err.is_none());
        assert_eq!(decoded.len(), msgs.len());
        assert_eq!(sizes.len(), msgs.len());
        assert_eq!(sizes.iter().sum::<usize>(), buf.len());
        assert!(sizes.iter().all(|&s| s >= 2), "header + timestamp minimum");
    }

    #[test]
    fn nearby_data_addresses_compress_well() {
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        // First message establishes the address base.
        enc.emit(
            Cycle(0),
            &TraceMessage::Data {
                source: SourceId::TRICORE,
                kind: AccessKind::Read,
                size: 4,
                addr: Addr(0xD000_0000),
                value: 1,
            },
            &mut buf,
        );
        let after_first = buf.len();
        enc.emit(
            Cycle(1),
            &TraceMessage::Data {
                source: SourceId::TRICORE,
                kind: AccessKind::Read,
                size: 4,
                addr: Addr(0xD000_0004),
                value: 1,
            },
            &mut buf,
        );
        let second = buf.len() - after_first;
        assert!(
            second <= 5,
            "sequential data access should be ≤5 bytes, got {second}"
        );
    }

    #[test]
    fn flow_direct_is_three_bytes_or_less() {
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        enc.emit(
            Cycle(10),
            &TraceMessage::FlowDirect {
                source: SourceId::TRICORE,
                icnt: 12,
            },
            &mut buf,
        );
        assert!(buf.len() <= 3, "got {} bytes", buf.len());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_stream(&[0xFF]).is_err());
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        enc.emit(Cycle(0), &TraceMessage::Watchpoint { code: 1 }, &mut buf);
        buf.pop();
        assert!(decode_stream(&buf).is_err());
        // Unknown kind 31.
        assert!(decode_stream(&[31, 0]).is_err());
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn non_monotonic_timestamps_panic() {
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        enc.emit(Cycle(10), &TraceMessage::Watchpoint { code: 0 }, &mut buf);
        enc.emit(Cycle(5), &TraceMessage::Watchpoint { code: 0 }, &mut buf);
    }
}

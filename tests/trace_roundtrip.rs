//! Trace-protocol properties and full-stack program-flow reconstruction
//! against the golden model's retired-PC sequence.

use audo_common::events::FlowKind;
use audo_common::{AccessKind, Addr, Cycle, SourceId};
use audo_ed::{EdConfig, EmulationDevice};
use audo_mcds::msg::{decode_stream, Encoder, TraceMessage};
use audo_platform::config::SocConfig;
use audo_profiler::reconstruct::reconstruct_flow;
use audo_profiler::session::{profile, SessionOptions};
use audo_profiler::spec::ProfileSpec;
use audo_tricore::asm::assemble;
use audo_tricore::iss::Iss;
use proptest::prelude::*;

fn arb_message() -> impl Strategy<Value = TraceMessage> {
    let src = prop_oneof![
        Just(SourceId::TRICORE),
        Just(SourceId::PCP),
        Just(SourceId::DMA)
    ];
    let kind = prop_oneof![Just(AccessKind::Read), Just(AccessKind::Write)];
    let flow = prop_oneof![
        Just(FlowKind::BranchTaken),
        Just(FlowKind::Indirect),
        Just(FlowKind::Call),
        Just(FlowKind::Return),
        Just(FlowKind::Exception),
        Just(FlowKind::ExceptionReturn),
    ];
    prop_oneof![
        (src.clone(), 0u32..100_000)
            .prop_map(|(source, icnt)| TraceMessage::FlowDirect { source, icnt }),
        (
            src.clone(),
            flow,
            0u32..100_000,
            any::<u32>(),
            any::<bool>()
        )
            .prop_map(|(source, kind, icnt, t, sync)| TraceMessage::FlowTarget {
                source,
                kind,
                icnt,
                target: Addr(t),
                sync,
            }),
        (any::<u8>(), any::<u64>(), any::<u64>())
            .prop_map(|(probe, num, den)| TraceMessage::Counter { probe, num, den }),
        any::<u8>().prop_map(|code| TraceMessage::Watchpoint { code }),
        (
            src.clone(),
            kind.clone(),
            1u8..5,
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(source, kind, size, a, value)| TraceMessage::Data {
                source,
                kind,
                size,
                addr: Addr(a),
                value,
            }),
        (src, kind, 1u8..5, any::<u32>()).prop_map(|(master, kind, size, a)| {
            TraceMessage::Bus {
                master,
                kind,
                size,
                addr: Addr(a),
            }
        }),
        (any::<u8>(), any::<bool>())
            .prop_map(|(channel, start)| TraceMessage::PcpChannel { channel, start }),
        any::<u64>().prop_map(|lost| TraceMessage::Overflow { lost }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Any message sequence round-trips bit-exactly through the codec.
    #[test]
    fn message_streams_roundtrip(
        msgs in proptest::collection::vec(arb_message(), 0..60),
        deltas in proptest::collection::vec(0u64..10_000, 0..60),
    ) {
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        let mut cycle = 0u64;
        let mut expected = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            cycle += deltas.get(i).copied().unwrap_or(1);
            enc.emit(Cycle(cycle), m, &mut buf);
            expected.push((Cycle(cycle), *m));
        }
        let decoded = decode_stream(&buf).expect("clean stream decodes");
        prop_assert_eq!(decoded, expected);
    }

    /// Truncating a stream anywhere never panics and yields a decoded
    /// prefix of the full stream.
    #[test]
    fn truncated_streams_decode_a_prefix(
        msgs in proptest::collection::vec(arb_message(), 1..30),
        cut_ppm in 0u32..1_000_000,
    ) {
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            enc.emit(Cycle(i as u64 * 7), m, &mut buf);
        }
        let full = decode_stream(&buf).expect("full stream decodes");
        let cut = (buf.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
        let (partial, _err) = audo_mcds::msg::decode_stream_lossy(&buf[..cut]);
        prop_assert!(partial.len() <= full.len());
        prop_assert_eq!(&full[..partial.len()], &partial[..]);
    }
}

/// Reconstructed PC sequence must exactly match the golden model's retired
/// PCs (modulo the pre-sync prologue and post-last-flow tail).
#[test]
fn reconstruction_matches_golden_pc_sequence() {
    let src = "
        .org 0x80000000
    _start:
        la sp, 0xD0004000
        movi d0, 0
        movi d1, 25
    outer:
        movi d2, 3
        mov.a a3, d2
    inner:
        add d0, d0, d1
        call helper
        loop a3, inner
        addi d1, d1, -1
        jnz d1, outer
        halt
    helper:
        jz d0, h_zero
        xor d0, d0, d1
        ret
    h_zero:
        addi d0, d0, 7
        ret
    ";
    // Golden PC stream from the functional model.
    let image = assemble(src).unwrap();
    let mut iss = Iss::new();
    iss.map_region(Addr(0x8000_0000), 0x10000);
    iss.map_region(Addr(0xD000_0000), 0x10000);
    iss.init_csa(Addr(0xD000_8000), 32).unwrap();
    iss.load(&image).unwrap();
    iss.set_fast_path(false);
    let mut golden_pcs = Vec::new();
    while !iss.is_halted() {
        golden_pcs.push(iss.state().pc);
        iss.step().unwrap();
        assert!(golden_pcs.len() < 100_000);
    }

    // Traced run on the full Emulation Device.
    let mut ed = EmulationDevice::new(SocConfig::default(), EdConfig::default());
    ed.soc.load_image(&image).unwrap();
    let spec = ProfileSpec::new().with_program_trace().with_sync_every(8);
    let out = profile(&mut ed, &spec, &SessionOptions::default()).unwrap();
    assert!(out.decode_error.is_none());
    let rec = reconstruct_flow(&image, &out.messages).unwrap();
    assert!(!rec.pcs.is_empty());

    // The reconstruction is a contiguous slice of the golden stream.
    let start = golden_pcs
        .windows(rec.pcs.len().min(8))
        .position(|w| w == &rec.pcs[..w.len()])
        .expect("reconstruction locks onto the golden stream");
    let end = start + rec.pcs.len();
    assert!(
        end <= golden_pcs.len(),
        "reconstruction longer than golden ({end} > {})",
        golden_pcs.len()
    );
    assert_eq!(
        &golden_pcs[start..end],
        &rec.pcs[..],
        "reconstructed PCs must match the golden model exactly"
    );
    // And it covers nearly everything.
    assert!(
        rec.pcs.len() + 40 >= golden_pcs.len(),
        "coverage too small: {} of {}",
        rec.pcs.len(),
        golden_pcs.len()
    );
}

//! The decoder is total over its input space: it never panics, every
//! rejection is a `DecodeInstr` error at the PC it was given, and every
//! instruction it accepts re-encodes (at the decoded length) to bytes that
//! decode to the same instruction.

use audo_common::{Addr, SimError};
use audo_tricore::encode::{decode, encode_sized};

const PC: Addr = Addr(0x8000_1234);

/// Upper halfwords tried behind every first halfword.
const UPPERS: [u16; 4] = [0x0000, 0xFFFF, 0x5A5A, 0xA5A5];

/// Decodes `input` and checks the contract; returns whether it decoded.
fn check(input: &[u8]) -> bool {
    match decode(input, PC) {
        Ok((instr, len)) => {
            assert!(
                usize::from(len) <= input.len(),
                "{input:02x?} read past its end"
            );
            let again = encode_sized(&instr, len);
            assert_eq!(
                decode(again.as_bytes(), PC).ok(),
                Some((instr, len)),
                "{input:02x?} decoded to {instr:?} but does not round-trip"
            );
            true
        }
        Err(SimError::DecodeInstr { addr, .. }) => {
            assert_eq!(addr, PC, "{input:02x?} reported the wrong PC");
            false
        }
        Err(other) => panic!("{input:02x?}: unexpected error {other}"),
    }
}

#[test]
fn every_first_halfword_decodes_or_reports_its_pc() {
    let (mut ok, mut rejected) = (0u32, 0u32);
    for first in 0..=u16::MAX {
        let [b0, b1] = first.to_le_bytes();
        for upper in UPPERS {
            let [b2, b3] = upper.to_le_bytes();
            if check(&[b0, b1, b2, b3]) {
                ok += 1;
            } else {
                rejected += 1;
            }
            check(&[b0, b1, b2]);
        }
        check(&[b0, b1]);
    }
    for b0 in 0..=u8::MAX {
        assert!(!check(&[b0]), "one byte is never an instruction");
    }
    assert!(!check(&[]), "no bytes are never an instruction");
    // The assigned opcode space: 14 16-bit and 73 32-bit slots, less the
    // 512 `shi` words (first byte 0x45, upper halfword 0x5A5A or 0xA5A5)
    // whose amount field (0x5A5, 0xA5A) lies outside -32..=31.
    assert_eq!((ok, rejected), (88_576, 173_568));
}

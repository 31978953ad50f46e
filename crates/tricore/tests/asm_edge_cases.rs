//! Assembler edge cases and error reporting beyond the unit tests.

use audo_common::{Addr, SimError};
use audo_tricore::asm::assemble;

fn err_of(src: &str) -> String {
    assemble(src).unwrap_err().to_string()
}

#[test]
fn expression_operator_precedence_and_parens() {
    let img = assemble(
        "
        .equ A, 2 + 3 * 4
        .equ B, (2 + 3) * 4
        .equ C, 10 - 2 - 3
        .equ D, -A + 30
        .org 0x1000
        .word A, B, C, D
    ",
    )
    .unwrap();
    let b = &img.sections()[0].bytes;
    let word = |i: usize| u32::from_le_bytes([b[i * 4], b[i * 4 + 1], b[i * 4 + 2], b[i * 4 + 3]]);
    assert_eq!(word(0), 14, "multiplication binds tighter");
    assert_eq!(word(1), 20);
    assert_eq!(word(2), 5, "left-associative subtraction");
    assert_eq!(word(3), 16u32);
}

#[test]
fn hi_lo_hia_functions() {
    let img = assemble(
        "
        .equ X, 0xD0008123
        .org 0x1000
        .word lo(X), hi(X), hia(X), hia(0xD000F000)
    ",
    )
    .unwrap();
    let b = &img.sections()[0].bytes;
    let word = |i: usize| u32::from_le_bytes([b[i * 4], b[i * 4 + 1], b[i * 4 + 2], b[i * 4 + 3]]);
    assert_eq!(word(0), 0x8123);
    assert_eq!(word(1), 0xD000);
    assert_eq!(
        word(2),
        0xD001,
        "hia adjusts for a negative signed low half"
    );
    assert_eq!(word(3), 0xD001);
}

#[test]
fn char_literals_and_binary_numbers() {
    let img = assemble(".org 0\n .byte 'A', 'z'\n .half 0b1010_1010\n").unwrap();
    let b = &img.sections()[0].bytes;
    assert_eq!(b[0], b'A');
    assert_eq!(b[1], b'z');
    assert_eq!(u16::from_le_bytes([b[2], b[3]]), 0xAA);
}

#[test]
fn error_messages_carry_line_numbers() {
    let e = assemble(".org 0\n nop\n bogus_op d1\n").unwrap_err();
    match e {
        SimError::Assemble { line, ref message } => {
            assert_eq!(line, 3);
            assert!(message.contains("bogus_op"));
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn bad_operand_forms_are_rejected() {
    assert!(err_of(".org 0\n ld.w d1, [x2]\n").contains("memory operand"));
    assert!(err_of(".org 0\n ld.a a1, [a2+]4\n").contains("post-increment"));
    assert!(err_of(".org 0\n add d1, d2\n").contains("expects 3 operands"));
    assert!(err_of(".org 0\n mov d1, a2\n").contains("expected data register"));
    assert!(err_of(".org 0\n movu d1, 0x10000\n").contains("16-bit"));
    assert!(err_of(".org 0\n shi d1, d2, 40\n").contains("shift amount"));
    assert!(err_of(".org 0\n extr d1, d2, 32, 1\n").contains("pos"));
    assert!(err_of(".org 0\n .align 3\n").contains("power of two"));
    assert!(err_of(".org 0\n .word\n").contains("at least one value"));
}

#[test]
fn labels_on_their_own_line_and_multiple_labels() {
    let img = assemble(
        "
        .org 0x2000
    alpha:
    beta:  gamma: nop
        halt
    ",
    )
    .unwrap();
    assert_eq!(img.symbol("alpha"), Some(Addr(0x2000)));
    assert_eq!(img.symbol("beta"), Some(Addr(0x2000)));
    assert_eq!(img.symbol("gamma"), Some(Addr(0x2000)));
}

#[test]
fn forward_references_resolve() {
    let img = assemble(
        "
        .org 0x1000
        j end
        .word tab
    tab:
        .word 7
    end:
        halt
    ",
    )
    .unwrap();
    let tab = img.symbol("tab").unwrap();
    let b = &img.sections()[0].bytes;
    assert_eq!(u32::from_le_bytes([b[4], b[5], b[6], b[7]]), tab.0);
}

#[test]
fn sixteen_bit_compression_is_size_stable_across_passes() {
    // A program mixing every auto-compressed form assembles with consistent
    // label placement (sizes fixed in pass 1).
    let img = assemble(
        "
        .org 0x1000
    a0_lbl:
        mov d1, d2          ; 2
        add d1, d1, d2      ; 2
        sub d3, d3, d4      ; 2
        and d3, d3, d4      ; 2
        or  d5, d5, d6      ; 2
        mov.aa a1, a2       ; 2
        mov.a a1, d2        ; 2
        mov.d d1, a2        ; 2
        ld.w d1, [a2]       ; 2
        st.w d1, [a2]       ; 2
        addi d1, d1, 7      ; 2
        addi d1, d1, -8     ; 2
        debug 15            ; 2
        ret                 ; 2
    end_lbl:
    ",
    )
    .unwrap();
    let span = img.symbol("end_lbl").unwrap().0 - img.symbol("a0_lbl").unwrap().0;
    assert_eq!(span, 14 * 2, "every instruction took its 16-bit form");
}

#[test]
fn equ_must_be_defined_before_use_in_sizing() {
    // .equ after use still resolves in pass 2 for 32-bit forms.
    let img = assemble(
        "
        .org 0x1000
        movi d0, LATER
        .equ LATER, 42
    ",
    );
    assert!(img.is_ok(), "pass-2 resolution: {img:?}");
}

fn line_and_message(src: &str) -> (usize, String) {
    match assemble(src).unwrap_err() {
        SimError::Assemble { line, message } => (line, message),
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn data_values_that_do_not_fit_are_rejected() {
    for (src, bits) in [
        (".half 0x10000", "16-bit"),
        (".half 70000", "16-bit"),
        (".half -32769", "16-bit"),
        (".byte 300", "8-bit"),
        (".byte 256", "8-bit"),
        (".byte -129", "8-bit"),
    ] {
        let (line, message) = line_and_message(&format!(
            ".org 0
 nop
 {src}
"
        ));
        assert_eq!(line, 3, "{src}");
        assert!(message.contains(bits), "{src}: {message}");
    }
    let img = assemble(
        ".org 0
 .half 0xFFFF, -32768
 .byte 255, -128, 'A'
",
    )
    .unwrap();
    assert_eq!(
        img.sections()[0].bytes,
        [0xFF, 0xFF, 0x00, 0x80, 0xFF, 0x80, b'A']
    );
}

#[test]
fn addia_takes_a_signed_or_unsigned_16_bit_immediate() {
    for bad in ["0x12345", "0x10000", "-32769"] {
        let (line, message) = line_and_message(&format!(
            ".org 0
 addia a2, {bad}
"
        ));
        assert_eq!(line, 2, "{bad}");
        assert!(message.contains("16-bit"), "{bad}: {message}");
    }
    let img = assemble(
        ".org 0
 addia a2, -32768
 addia a2, 0xFFFF
",
    )
    .unwrap();
    let b = &img.sections()[0].bytes;
    assert_eq!(u16::from_le_bytes([b[2], b[3]]), 0x8000);
    assert_eq!(u16::from_le_bytes([b[6], b[7]]), 0xFFFF);
}

//! Opcode-slot tables: the decoder's assigned opcode space as data.
//!
//! TC-R's mixed 16/32-bit formats share one 7-bit opcode field (bits 7..1
//! of the first halfword, with bit 0 selecting the format). The assigned
//! indices are disjoint — 16-bit forms occupy `0..=13`, 32-bit forms
//! `16..=88` — so a single index space of [`OPCODE_SPACE`] slots covers
//! every encoding the decoder knows, and everything outside [`ASSIGNED`]
//! is rejected by [`crate::encode::decode`]. Every function here reads the
//! instruction-form table (`forms.rs`), one row per slot.
//!
//! The workload corpus and the differential fuzzer build on these:
//!
//! - [`opcode_index`] maps an executed instruction back to the table slot
//!   its canonical encoding occupies ([`opcode_index_sized`] honours
//!   widened `encode_sized` forms), which is what the ISS opcode-coverage
//!   counters record, and [`opcode_class`] folds those counts into the
//!   retired-instruction mix;
//! - [`sample_instr`] yields one representative instruction per slot, so
//!   tests can prove *every* encodable form is assemblable and coverage
//!   chasing can inject exactly the encodings a fuzz session has not yet
//!   executed.

use crate::forms::{find, form_at, FORMS};
use crate::isa::{Instr, InstrClass};

/// Size of the shared 7-bit opcode index space (both formats).
pub const OPCODE_SPACE: usize = 128;

/// Assigned opcode indices with a stable mnemonic label.
///
/// 16-bit (short) forms carry a `.s` suffix to keep them distinct from
/// the 32-bit spelling of the same operation. `ld.w.pi`/`st.w.pi` are the
/// post-increment forms. Index 68 (`ret` in the 32-bit format) decodes
/// but is never emitted by the canonical encoder — `ret` always
/// compresses to the short form, and only `encode_sized(&Ret, 4)` widens
/// to it — so it is the one assigned slot without a [`sample_instr`].
pub const ASSIGNED: &[(u8, &str)] = crate::forms::ASSIGNED;

/// The opcode index of an instruction's canonical encoding.
#[must_use]
pub fn opcode_index(instr: &Instr) -> u8 {
    opcode_index_sized(instr, 2)
}

/// The opcode index of an instruction as encoded at a specific length.
///
/// The assembler reserves sizes syntactically and widens compressible
/// instructions with [`crate::encode::encode_sized`] when an expression
/// turns out to fit the short form; an executed instruction's coverage
/// must attribute to the format that was actually fetched, so pass the
/// fetched length here. A length of 2 gives the canonical slot.
#[must_use]
pub fn opcode_index_sized(instr: &Instr, len: u8) -> u8 {
    let (form, _) = find(instr, len == 4)
        .or_else(|| find(instr, false))
        .expect("every instruction has a form");
    form.slot
}

/// The [`InstrClass`] of the instructions an assigned opcode index holds.
///
/// Exact: each slot is one [`Instr`] variant, and [`Instr::class`]
/// depends on the variant alone.
#[must_use]
pub fn opcode_class(index: u8) -> Option<InstrClass> {
    form_at(index).map(|f| f.build([0; 4]).class())
}

/// The stable label of an assigned opcode index, if any.
#[must_use]
pub fn opcode_name(index: u8) -> Option<&'static str> {
    form_at(index).map(|f| f.name)
}

/// The opcode index labelled `name`, if any (inverse of [`opcode_name`]).
#[must_use]
pub fn opcode_by_name(name: &str) -> Option<u8> {
    FORMS.iter().find(|f| f.name == name).map(|f| f.slot)
}

/// One representative instruction whose canonical encoding occupies the
/// given opcode slot.
///
/// Returns `None` for unassigned slots and for index 68 (the 32-bit `ret`
/// alias the canonical encoder never emits). Every `Some` sample is
/// pinned by this module's tests to encode to exactly its slot and to
/// round-trip through the decoder.
#[must_use]
pub fn sample_instr(index: u8) -> Option<Instr> {
    let form = form_at(index)?;
    form.sample.map(|ops| form.build(ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{decode, encode};
    use crate::isa::DReg;
    use audo_common::Addr;

    #[test]
    fn assigned_table_is_sorted_and_unique() {
        for pair in ASSIGNED.windows(2) {
            assert!(pair[0].0 < pair[1].0, "table out of order at {pair:?}");
        }
        assert_eq!(ASSIGNED.len(), 87);
    }

    #[test]
    fn every_sample_encodes_to_its_slot_and_round_trips() {
        for &(idx, name) in ASSIGNED {
            let Some(sample) = sample_instr(idx) else {
                assert_eq!(idx, 68, "only the 32-bit ret alias may lack a sample");
                continue;
            };
            assert_eq!(
                opcode_index(&sample),
                idx,
                "sample for `{name}` encodes to the wrong slot"
            );
            let e = encode(&sample);
            let (back, len) = decode(e.as_bytes(), Addr(0)).expect("sample decodes");
            assert_eq!(back, sample, "`{name}` sample round-trip");
            assert_eq!(len, e.len);
        }
    }

    #[test]
    fn unassigned_slots_are_rejected_in_both_formats() {
        let assigned: Vec<u8> = ASSIGNED.iter().map(|&(i, _)| i).collect();
        for idx in 0..OPCODE_SPACE as u8 {
            if assigned.contains(&idx) {
                continue;
            }
            let h: u16 = u16::from(idx) << 1;
            assert!(
                decode(&h.to_le_bytes(), Addr(0)).is_err(),
                "16-bit op {idx} should be rejected"
            );
            let w: u32 = 1 | (u32::from(idx) << 1);
            assert!(
                decode(&w.to_le_bytes(), Addr(0)).is_err(),
                "32-bit op {idx} should be rejected"
            );
        }
    }

    #[test]
    fn sized_index_attributes_widened_forms_to_the_wide_slot() {
        let short = Instr::Add {
            rd: DReg(1),
            ra: DReg(1),
            rb: DReg(2),
        };
        assert_eq!(opcode_index(&short), 2);
        assert_eq!(opcode_index_sized(&short, 2), 2);
        assert_eq!(opcode_index_sized(&short, 4), 21);
        let wide = Instr::Mul {
            rd: DReg(1),
            ra: DReg(2),
            rb: DReg(3),
        };
        assert_eq!(opcode_index_sized(&wide, 4), 28);
    }

    #[test]
    fn slot_class_is_the_class_of_its_sample() {
        for &(idx, name) in ASSIGNED {
            let class = opcode_class(idx).expect("assigned slot");
            if let Some(sample) = sample_instr(idx) {
                assert_eq!(class, sample.class(), "`{name}`");
            }
        }
        assert_eq!(opcode_class(68), Some(InstrClass::ControlFlow), "ret");
        assert_eq!(opcode_class(14), None);
    }

    #[test]
    fn names_and_indices_are_inverse() {
        for &(idx, name) in ASSIGNED {
            assert_eq!(opcode_name(idx), Some(name));
            assert_eq!(opcode_by_name(name), Some(idx));
        }
        assert_eq!(opcode_name(14), None);
        assert_eq!(opcode_by_name("bogus"), None);
    }
}

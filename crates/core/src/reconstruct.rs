//! Host-side program-flow reconstruction from compressed trace messages.
//!
//! The MCDS only reports control-flow *discontinuities*; the host owns the
//! program image and re-derives the full retired-PC sequence by walking the
//! code: between two flow messages every conditional branch encountered was
//! not taken (otherwise a message would exist), and an `icnt` field says
//! exactly how many instructions to walk. This is what makes "accurate
//! tracing … for the developer's viewing" (§3) possible at less than a
//! byte per instruction.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;

use audo_common::events::FlowKind;
use audo_common::{Addr, Cycle, SimError, SourceId};
use audo_mcds::TraceMessage;
use audo_obs::FoldedStacks;
use audo_tricore::decode_cache::BlockHasher;
use audo_tricore::encode::decode;
use audo_tricore::isa::{AReg, Instr};
use audo_tricore::Image;

/// Frame name used when a PC falls outside every image symbol.
const UNKNOWN_FRAME: &str = "<unknown>";

/// Most PCs reserved up front from the messages' instruction counts. A
/// real session walks about a million; a corrupt stream claiming billions
/// fails in the walk, not in the allocator.
const MAX_PC_RESERVE: u64 = 1 << 24;

/// The reconstructed execution of one core.
#[derive(Debug, Clone, Default)]
pub struct FlowReconstruction {
    /// The full retired-PC sequence (in retirement order) from the first
    /// synchronisation point onward.
    pub pcs: Vec<u32>,
    /// Instructions attributed per symbol (function-level flat profile).
    pub per_symbol: BTreeMap<String, u64>,
    /// Instructions attributed per reconstructed call stack — the exact
    /// (not sampled) flamegraph of the traced run, in folded-stack form.
    pub folded: FoldedStacks,
    /// Total instructions reconstructed.
    pub instr_count: u64,
    /// Flow messages consumed.
    pub flow_messages: u64,
}

/// Call-stack tracking state for the flamegraph attribution during the
/// flow walk.
///
/// The walker sees every retired instruction, so the stack can be rebuilt
/// from call/return instructions alone: calls push the caller's frame,
/// returns pop it, and an asynchronous exception pushes the interrupted
/// frame (the handler's symbol becomes the new leaf). The leaf frame is
/// always re-derived from the image symbol containing the current PC, which
/// also makes tail jumps between functions attribute correctly.
///
/// Frames are indices into `names`; names are joined only when a stack's
/// samples are flushed.
struct StackTracker<'a> {
    /// Frame names: the image's symbols in name order, then
    /// [`UNKNOWN_FRAME`] unless a symbol already carries that name.
    names: Vec<&'a str>,
    /// The frame of PCs outside every symbol.
    unknown: u32,
    /// Caller frames, outermost first (the leaf is implicit).
    callers: Vec<u32>,
    /// The current leaf frame, once known.
    leaf: Option<u32>,
    /// Samples attributed to the current `callers + leaf` stack but not
    /// yet flushed into the folded map.
    pending: u64,
    /// The folded line being flushed (kept for its capacity).
    line: String,
}

impl<'a> StackTracker<'a> {
    fn new(image: &'a Image) -> StackTracker<'a> {
        let mut names: Vec<&str> = image.symbols().keys().map(String::as_str).collect();
        let unknown = names
            .iter()
            .position(|&n| n == UNKNOWN_FRAME)
            .unwrap_or_else(|| {
                names.push(UNKNOWN_FRAME);
                names.len() - 1
            }) as u32;
        StackTracker {
            names,
            unknown,
            callers: Vec::new(),
            leaf: None,
            pending: 0,
            line: String::new(),
        }
    }

    fn flush(&mut self, folded: &mut FoldedStacks) {
        if self.pending > 0 {
            if let Some(leaf) = self.leaf {
                self.line.clear();
                for &frame in &self.callers {
                    self.line.push_str(self.names[frame as usize]);
                    self.line.push(';');
                }
                self.line.push_str(self.names[leaf as usize]);
                folded.add_folded(&self.line, self.pending);
            }
            self.pending = 0;
        }
    }

    /// Attributes one instruction in `frame` to the current stack.
    fn retire(&mut self, frame: u32, folded: &mut FoldedStacks) {
        if self.leaf != Some(frame) {
            self.flush(folded);
            self.leaf = Some(frame);
        }
        self.pending += 1;
    }

    /// A call retired: the current leaf becomes a caller frame.
    fn call(&mut self, folded: &mut FoldedStacks) {
        self.flush(folded);
        if let Some(leaf) = self.leaf.take() {
            self.callers.push(leaf);
        }
    }

    /// A return (or exception return) retired: drop back to the caller.
    fn ret(&mut self, folded: &mut FoldedStacks) {
        self.flush(folded);
        self.callers.pop();
        self.leaf = None;
    }
}

fn err(message: impl Into<String>) -> SimError {
    SimError::DecodeTrace {
        offset: 0,
        message: message.into(),
    }
}

fn static_target(instr: &Instr, pc: u32) -> Option<u32> {
    let t = |off: i32| pc.wrapping_add((off as u32) << 1);
    Some(match *instr {
        Instr::J { off } | Instr::Jl { off } | Instr::Call { off } => t(off),
        Instr::JCond { off, .. }
        | Instr::Jz { off, .. }
        | Instr::Jnz { off, .. }
        | Instr::Loop { off, .. } => t(i32::from(off)),
        _ => return None,
    })
}

/// What the walk needs of the instruction at one PC.
#[derive(Clone, Copy)]
struct Decoded {
    instr: Instr,
    len: u8,
    /// Index of the containing symbol in [`Image::symbols`] (name order).
    symbol: Option<u32>,
}

/// Decodes the instruction at `pc` and finds its symbol. The symbol is
/// the one [`Image::symbol_containing`] names: the closest at or below
/// `pc`, and among labels at one address the last in name order.
fn decode_at(image: &Image, pc: u32) -> Result<Decoded, SimError> {
    let (word, avail) = image
        .instr_bytes(Addr(pc))
        .ok_or_else(|| err(format!("trace walked outside the image at {:#x}", pc)))?;
    let (instr, len) = decode(&word[..avail], Addr(pc))?;
    let symbol = image
        .symbols()
        .values()
        .enumerate()
        .filter(|&(_, &a)| a <= pc)
        .max_by_key(|&(_, &a)| a)
        .map(|(i, _)| i as u32);
    Ok(Decoded { instr, len, symbol })
}

/// Reconstructs the TriCore's retired-PC stream from decoded messages.
///
/// Messages before the first synchronising [`TraceMessage::FlowTarget`] are
/// skipped (the decoder does not yet know where execution is), mirroring
/// how a real trace tool locks on.
///
/// Each distinct PC is decoded and symbolised once, so the cost is in the
/// messages and the distinct PCs walked; per walked instruction the walk
/// does one map lookup and a few counter updates.
///
/// # Errors
///
/// Returns [`SimError::DecodeTrace`] if the message stream is inconsistent
/// with the image (e.g. a claimed straight-line run crosses an
/// unconditional branch).
pub fn reconstruct_flow(
    image: &Image,
    messages: &[(Cycle, TraceMessage)],
) -> Result<FlowReconstruction, SimError> {
    let mut rec = FlowReconstruction::default();
    let mut pos: Option<u32> = None;
    let mut stack = StackTracker::new(image);
    let mut memo: HashMap<u32, Decoded, BuildHasherDefault<BlockHasher>> = HashMap::default();
    let mut per_symbol = vec![0u64; image.symbols().len()];
    let walked: u64 = messages
        .iter()
        .map(|(_, msg)| match *msg {
            TraceMessage::FlowDirect { source, icnt }
            | TraceMessage::FlowTarget { source, icnt, .. }
                if source == SourceId::TRICORE =>
            {
                u64::from(icnt)
            }
            _ => 0,
        })
        .sum();
    rec.pcs.reserve_exact(walked.min(MAX_PC_RESERVE) as usize);

    for (_, msg) in messages {
        let (icnt, explicit_target, kind) = match *msg {
            TraceMessage::FlowDirect { source, icnt } if source == SourceId::TRICORE => {
                (icnt, None, None)
            }
            TraceMessage::FlowTarget {
                source,
                icnt,
                target,
                kind,
                ..
            } if source == SourceId::TRICORE => (icnt, Some(target.0), Some(kind)),
            _ => continue,
        };
        rec.flow_messages += 1;

        // A lock-on sync (icnt = 0 with a target) re-anchors the walk after
        // a trace gap: jump without walking. An asynchronous exception can
        // legitimately carry icnt = 0 (interrupt taken right at a message
        // boundary) — it walks nothing but still nests the handler under
        // the interrupted frame.
        if icnt == 0 {
            if let Some(t) = explicit_target {
                if pos.is_some() && matches!(kind, Some(FlowKind::Exception)) {
                    stack.call(&mut rec.folded);
                }
                pos = Some(t);
                continue;
            }
        }
        let Some(mut pc) = pos else {
            // Lock on at the first message that carries an absolute target.
            if let Some(t) = explicit_target {
                pos = Some(t);
            }
            continue;
        };

        // Walk `icnt` instructions from `pc`.
        let async_flow = matches!(kind, Some(FlowKind::Exception));
        for i in 0..icnt {
            // Only successes are memoised: a failing PC fails every time.
            let Decoded { instr, len, symbol } = match memo.entry(pc) {
                Entry::Occupied(hit) => *hit.get(),
                Entry::Vacant(miss) => *miss.insert(decode_at(image, pc)?),
            };
            rec.pcs.push(pc);
            rec.instr_count += 1;
            if let Some(sym) = symbol {
                per_symbol[sym as usize] += 1;
            }
            stack.retire(symbol.unwrap_or(stack.unknown), &mut rec.folded);
            match instr {
                Instr::Call { .. } | Instr::CallI { .. } | Instr::Jl { .. } => {
                    stack.call(&mut rec.folded);
                }
                Instr::Ret | Instr::Rfe => stack.ret(&mut rec.folded),
                // `ji a11` is the return idiom paired with `jl` leaf calls.
                Instr::Ji { aa: AReg(11) } => stack.ret(&mut rec.folded),
                _ => {}
            }
            let last = i + 1 == icnt;
            if last && !async_flow {
                // The flow instruction itself: compute where it went.
                let target = match explicit_target {
                    Some(t) => t,
                    None => static_target(&instr, pc).ok_or_else(|| {
                        err(format!(
                            "direct flow message but instruction at {:#x} has no static target",
                            pc
                        ))
                    })?,
                };
                pc = target;
            } else {
                // Mid-walk: conditionals fall through; unconditional
                // transfers would have produced their own message.
                if instr.is_control_flow() && !instr.is_conditional() {
                    return Err(err(format!(
                        "straight-line walk crossed unconditional control flow at {:#x}",
                        pc
                    )));
                }
                pc = pc.wrapping_add(u32::from(len));
            }
        }
        if async_flow {
            // Asynchronous redirect (interrupt): execution resumes at the
            // vector regardless of the walked position. The interrupted
            // frame stays on the stack; the handler nests under it.
            stack.call(&mut rec.folded);
            pc = explicit_target.expect("exception flows always carry targets");
        }
        pos = Some(pc);
    }
    stack.flush(&mut rec.folded);
    rec.per_symbol = image
        .symbols()
        .keys()
        .zip(per_symbol)
        .filter(|&(_, n)| n > 0)
        .map(|(name, n)| (name.clone(), n))
        .collect();
    Ok(rec)
}

/// Sorted (descending) function-level flat profile from a reconstruction.
#[must_use]
pub fn flat_profile(rec: &FlowReconstruction) -> Vec<(String, u64, f64)> {
    let total = rec.instr_count.max(1) as f64;
    let mut v: Vec<(String, u64, f64)> = rec
        .per_symbol
        .iter()
        .map(|(s, &n)| (s.clone(), n, 100.0 * n as f64 / total))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::session::{profile, SessionOptions};
    use crate::spec::ProfileSpec;
    use audo_ed::{EdConfig, EmulationDevice};
    use audo_platform::config::SocConfig;
    use audo_tricore::asm::assemble;

    /// Runs a program with full program trace and an event oracle; returns
    /// (image, messages, ground-truth retire count).
    fn traced_run(src: &str) -> (Image, Vec<(Cycle, TraceMessage)>, u64) {
        let image = assemble(src).expect("assembles");
        let mut ed = EmulationDevice::new(SocConfig::default(), EdConfig::default());
        ed.soc.load_image(&image).expect("loads");
        let spec = ProfileSpec::new().with_program_trace().with_sync_every(8);
        let out = profile(&mut ed, &spec, &SessionOptions::default()).expect("profiles");
        assert!(out.decode_error.is_none());
        let retired = ed.soc.tricore.retired_total();
        (image, out.messages, retired)
    }

    fn lock_on(target: u32) -> (Cycle, TraceMessage) {
        (
            Cycle(0),
            TraceMessage::FlowTarget {
                source: SourceId::TRICORE,
                kind: FlowKind::BranchTaken,
                icnt: 0,
                target: Addr(target),
                sync: true,
            },
        )
    }

    fn direct(icnt: u32) -> (Cycle, TraceMessage) {
        (
            Cycle(0),
            TraceMessage::FlowDirect {
                source: SourceId::TRICORE,
                icnt,
            },
        )
    }

    fn indirect(icnt: u32, target: u32) -> (Cycle, TraceMessage) {
        (
            Cycle(0),
            TraceMessage::FlowTarget {
                source: SourceId::TRICORE,
                kind: FlowKind::Indirect,
                icnt,
                target: Addr(target),
                sync: false,
            },
        )
    }

    #[test]
    fn two_labels_at_one_address_attribute_to_the_last_name() {
        let image = assemble(
            "
            .org 0x80000000
        _start:
            movi d0, 0
        zeta:
        alpha:
            movi d1, 1
            j _start
        ",
        )
        .unwrap();
        let shared = image.symbol("zeta").unwrap();
        assert_eq!(image.symbol("alpha"), Some(shared));
        assert_eq!(image.symbol_containing(shared), Some("zeta"));
        let rec = reconstruct_flow(&image, &[lock_on(0x8000_0000), direct(3), direct(3)]).unwrap();
        let expected: BTreeMap<String, u64> = [("_start".into(), 2), ("zeta".into(), 4)].into();
        assert_eq!(rec.per_symbol, expected);
        assert_eq!(rec.folded.count("zeta"), 4);
        assert_eq!(rec.folded.count("alpha"), 0);
        assert_eq!(rec.pcs.len(), 6);
    }

    #[test]
    fn inconsistent_streams_fail_with_the_walk_errors() {
        let image = assemble(
            "
            .org 0x80000000
        _start:
            j next
        next:
            movi d0, 0
        ",
        )
        .unwrap();
        let next = image.symbol("next").unwrap().0;
        let fails = |messages: &[(Cycle, TraceMessage)], message: String| {
            assert_eq!(
                reconstruct_flow(&image, messages).unwrap_err(),
                SimError::DecodeTrace { offset: 0, message }
            );
        };
        fails(
            &[lock_on(0x9000_0000), direct(1)],
            "trace walked outside the image at 0x90000000".into(),
        );
        fails(
            &[lock_on(next), direct(1)],
            format!("direct flow message but instruction at {next:#x} has no static target"),
        );
        fails(
            &[lock_on(0x8000_0000), direct(2)],
            "straight-line walk crossed unconditional control flow at 0x80000000".into(),
        );
    }

    #[test]
    fn an_error_at_a_new_pc_follows_memo_hits() {
        let image = assemble(
            "
            .org 0x80000000
        _start:
            movi d0, 0
            movi d1, 1
        ",
        )
        .unwrap();
        assert_eq!(image.size(), 8, "two 32-bit instructions");
        // The first walk memoises both instructions; the second hits both
        // and then runs off the end of the image.
        let messages = [
            lock_on(0x8000_0000),
            indirect(2, 0x8000_0000),
            indirect(3, 0x8000_0000),
        ];
        let ok = reconstruct_flow(&image, &messages[..2]).unwrap();
        assert_eq!(ok.pcs, [0x8000_0000, 0x8000_0004]);
        assert_eq!(
            reconstruct_flow(&image, &messages).unwrap_err(),
            err("trace walked outside the image at 0x80000008")
        );
    }

    #[test]
    fn reconstruction_counts_match_hardware() {
        let (image, messages, retired) = traced_run(
            "
            .org 0x80000000
        _start:
            la sp, 0xD0004000
            movi d0, 0
            li d1, 50
        head:
            call work
            addi d0, d0, 1
            jne d0, d1, head
            halt
        work:
            addi d2, d2, 3
            addi d2, d2, -1
            ret
        ",
        );
        let rec = reconstruct_flow(&image, &messages).unwrap();
        // The reconstruction misses only the pre-sync prologue and the tail
        // after the last flow message.
        assert!(rec.instr_count > 0);
        assert!(
            rec.instr_count <= retired,
            "cannot reconstruct more than retired ({} vs {retired})",
            rec.instr_count
        );
        assert!(
            retired - rec.instr_count < 30,
            "reconstruction covers almost everything ({} of {retired})",
            rec.instr_count
        );
        // Function attribution finds the callee.
        let profile = flat_profile(&rec);
        let work = profile
            .iter()
            .find(|(s, _, _)| s == "work")
            .expect("work attributed");
        assert!(
            work.1 >= 100,
            "50 calls x 3 instructions in `work`: {}",
            work.1
        );
    }

    #[test]
    fn folded_stacks_nest_callee_under_caller() {
        let (image, messages, _) = traced_run(
            "
            .org 0x80000000
        _start:
            la sp, 0xD0004000
            movi d0, 0
            li d1, 50
        head:
            call work
            addi d0, d0, 1
            jne d0, d1, head
            halt
        work:
            addi d2, d2, 3
            addi d2, d2, -1
            ret
        ",
        );
        let rec = reconstruct_flow(&image, &messages).unwrap();
        // The callee is attributed under its caller (the `head` loop body
        // is the innermost symbol containing the call site), never as a
        // root.
        assert!(
            rec.folded.count("head;work") >= 100,
            "50 calls x 3 instructions nested under head: {}",
            rec.folded.render()
        );
        // The only rooted `work` samples are the initial lock-on (the
        // decoder cannot know the caller before the first sync point).
        assert!(
            rec.folded.count("work") <= 3,
            "work rooted beyond the lock-on artifact: {}",
            rec.folded.render()
        );
        // Every reconstructed instruction lands in exactly one stack.
        assert_eq!(rec.folded.total(), rec.instr_count);
        // Determinism: rebuilding from the same messages is identical.
        let again = reconstruct_flow(&image, &messages).unwrap();
        assert_eq!(rec.folded.render(), again.folded.render());
    }

    #[test]
    fn folded_stacks_nest_isr_under_interrupted_function() {
        let (image, messages, _) = traced_run(
            "
            .org 0x80000000
        _start:
            li d0, 0x80002000
            mtcr biv, d0
            la a2, 0xF0000000
            li d1, 2000
            st.w d1, [a2+0x08]
            st.w d1, [a2+0x10]
            movi d2, 1
            st.w d2, [a2+0x18]
            la a3, 0xF0006000
            li d3, 0x104
            st.w d3, [a3]
            enable
            movi d5, 0
        spin:
            addi d5, d5, 1
            li d6, 30000
            jne d5, d6, spin
            halt
            .org 0x80002000 + 4*32
        isr:
            addi d7, d7, 1
            rfe
        ",
        );
        let rec = reconstruct_flow(&image, &messages).unwrap();
        // The handler nests under the code it interrupted.
        let nested: u64 = rec
            .folded
            .iter()
            .filter(|(stack, _)| stack.ends_with(";isr"))
            .map(|(_, n)| n)
            .sum();
        assert!(
            nested >= 4,
            "isr nested under spin/_start: {}",
            rec.folded.render()
        );
        // At most the lock-on artifact appears rooted.
        assert!(
            rec.folded.count("isr") <= 2,
            "isr rooted beyond the lock-on artifact: {}",
            rec.folded.render()
        );
    }

    #[test]
    fn reconstructed_pcs_are_consistent_with_the_loop() {
        let (image, messages, _) = traced_run(
            "
            .org 0x80000000
        _start:
            movi d0, 0
            li d1, 10
        head:
            addi d0, d0, 1
            jne d0, d1, head
            halt
        ",
        );
        let rec = reconstruct_flow(&image, &messages).unwrap();
        let head = image.symbol("head").unwrap().0;
        let visits = rec.pcs.iter().filter(|&&pc| pc == head).count();
        assert!(visits >= 8, "loop head visited ~10 times, saw {visits}");
    }

    #[test]
    fn interrupt_flows_reconstruct_across_the_handler() {
        let (image, messages, retired) = traced_run(
            "
            .org 0x80000000
        _start:
            li d0, 0x80002000
            mtcr biv, d0
            la a2, 0xF0000000
            li d1, 2000
            st.w d1, [a2+0x08]  ; STM cmp0
            st.w d1, [a2+0x10]  ; reload
            movi d2, 1
            st.w d2, [a2+0x18]
            la a3, 0xF0006000
            li d3, 0x104        ; SRN0: prio 4, enabled, CPU
            st.w d3, [a3]
            enable
            movi d5, 0
        spin:
            addi d5, d5, 1
            li d6, 30000
            jne d5, d6, spin
            halt
            .org 0x80002000 + 4*32
        isr:
            addi d7, d7, 1
            rfe
        ",
        );
        let rec = reconstruct_flow(&image, &messages).unwrap();
        let isr_instrs = rec.per_symbol.get("isr").copied().unwrap_or(0);
        assert!(
            isr_instrs >= 4,
            "handler must appear in the reconstruction ({isr_instrs})"
        );
        assert!(retired - rec.instr_count < 40);
    }
}

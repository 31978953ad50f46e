//! Static guest-image analysis for the simulated AUDO-class SoC.
//!
//! The paper's methodology is *measurement*: run the system, observe it
//! through trace hardware, reduce the observations to characteristic
//! rates. This crate is the complementary *static* leg. From nothing but
//! a loaded [`Image`] and the platform memory map it recovers the
//! control-flow graph, classifies every statically resolvable memory
//! access, detects multi-master hazards against DMA and PCP access
//! ranges, and predicts the characteristic rates the measurement side
//! reports — so a measured profile can be cross-checked against what the
//! binary could possibly do ([`predict::check`]).
//!
//! Entry point: [`analyze`]. The result carries severity-ranked
//! [`findings::Finding`]s with deterministic JSON/text renderings and a
//! [`predict::Prediction`] with static rate bounds.

#![warn(missing_docs)]

pub mod access;
pub mod cfg;
pub mod constprop;
pub mod findings;
pub mod hazard;
pub mod loopbound;
pub mod predict;
pub mod symbols;
pub mod wcet;

use audo_common::Addr;
use audo_platform::config::{Region, SocConfig};
use audo_tricore::Image;

use access::{AccessKind, MemAccess};
use findings::{Finding, Severity};
pub use hazard::MasterRanges;

/// Everything the analyzer derived from one image.
#[derive(Debug)]
pub struct Analysis {
    /// Image name (used in reports).
    pub image_name: String,
    /// Recovered control-flow graph.
    pub cfg: cfg::Cfg,
    /// Constant-propagation solution over [`Analysis::cfg`].
    pub sol: constprop::Solution,
    /// Every static load/store site with classification.
    pub accesses: Vec<MemAccess>,
    /// Severity-ranked findings, sorted by [`Finding::sort_key`].
    pub findings: Vec<Finding>,
    /// Static rate prediction over the steady-state block set.
    pub prediction: predict::Prediction,
}

impl Analysis {
    /// Number of findings at [`Severity::Error`].
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Deterministic JSON report.
    #[must_use]
    pub fn to_json(&self) -> String {
        findings::render_json(&self.image_name, &self.findings)
    }

    /// Rustc-style text report.
    #[must_use]
    pub fn to_text(&self) -> String {
        findings::render_text(&self.image_name, &self.findings)
    }
}

/// Runs the full static analysis of `image` against `soc`'s memory map,
/// with `masters` describing concurrent DMA/PCP activity (use
/// [`MasterRanges::empty`] for a CPU-only view).
#[must_use]
pub fn analyze(image: &Image, soc: &SocConfig, masters: &MasterRanges, name: &str) -> Analysis {
    let (graph, sol) = cfg::recover_solved(image);
    let accesses = access::extract(&graph, &sol, soc);
    let g = cfg::Graph::of(&graph);

    let mut findings = Vec::new();
    access_findings(&accesses, &mut findings);
    findings.extend(hazard::detect(&accesses, masters, soc));
    loop_findings(&g, &mut findings);
    unreachable_findings(&graph, image, &mut findings);
    unresolved_findings(&graph, &mut findings);

    // Attach the enclosing symbol to every finding that has an address.
    for f in &mut findings {
        if f.context.is_none() {
            if let Some(addr) = f.addr {
                if let Some(sym) = image.symbol_containing(Addr(addr)) {
                    f.context = Some(sym.to_string());
                }
            }
        }
    }
    findings.sort_by(|x, y| x.sort_key().cmp(&y.sort_key()));
    findings.dedup();

    let prediction = predict::predict(&graph, &g, &sol, soc);
    Analysis {
        image_name: name.to_string(),
        cfg: graph,
        sol,
        accesses,
        findings,
        prediction,
    }
}

/// Memory-map contract findings: flash writes, unmapped and misaligned
/// accesses, data-flash (EEPROM) writes.
fn access_findings(accesses: &[MemAccess], out: &mut Vec<Finding>) {
    for a in accesses {
        let (Some(target), Some(region)) = (a.target, a.region) else {
            continue;
        };
        if a.kind == AccessKind::Store && region.is_pflash() {
            let mut f = Finding::new(
                Severity::Error,
                "flash-write",
                Some(a.site),
                format!("store to program flash at {target:#010x}"),
            );
            f.note =
                Some("program flash is not writable by the CPU; use data flash or RAM".to_string());
            out.push(f);
        }
        if region == Region::Unmapped {
            out.push(Finding::new(
                Severity::Error,
                "unmapped-access",
                Some(a.site),
                format!(
                    "{} targets unmapped address {target:#010x}",
                    if a.kind == AccessKind::Store {
                        "store"
                    } else {
                        "load"
                    }
                ),
            ));
        } else if target % u32::from(a.width) != 0 {
            out.push(Finding::new(
                Severity::Error,
                "misaligned-access",
                Some(a.site),
                format!(
                    "{}-byte access to {target:#010x} is not naturally aligned",
                    a.width
                ),
            ));
        }
        if a.kind == AccessKind::Store && region == Region::Dflash {
            let mut f = Finding::new(
                Severity::Info,
                "dflash-write",
                Some(a.site),
                format!("EEPROM-emulation write to data flash at {target:#010x}"),
            );
            f.note = Some("data-flash programming stalls the bus for the write-busy time".into());
            out.push(f);
        }
    }
}

/// Warns about cycles with no way out: an SCC whose blocks have no edge
/// leaving the component and contain no `halt`/`wait` (a `wait` parks the
/// core for an interrupt, which is an idle loop, not a hang).
fn loop_findings(g: &cfg::Graph, out: &mut Vec<Finding>) {
    use audo_tricore::isa::Instr;
    for comp in g.all().cyclic_sccs(&cfg::IdSet::full(g.len()), &[]) {
        let escapes = comp.iter().any(|b| {
            g.block(b)
                .edges
                .iter()
                .any(|e| g.id_of(e.to).is_none_or(|t| !comp.contains(t)))
        });
        if escapes {
            continue;
        }
        let parks = comp.iter().any(|b| {
            g.block(b)
                .instrs
                .iter()
                .any(|s| matches!(s.instr, Instr::Wait | Instr::Halt | Instr::Debug { .. }))
        });
        if parks {
            continue;
        }
        let head = g.start(comp.iter().next().expect("non-empty SCC"));
        let mut f = Finding::new(
            Severity::Warning,
            "infinite-loop",
            Some(head),
            format!("cycle of {} block(s) has no exit edge", comp.len()),
        );
        f.note = Some("no halt, wait or escaping branch anywhere in the cycle".to_string());
        out.push(f);
    }
}

/// Flags code-like symbols in flash that recursive descent never reached.
fn unreachable_findings(graph: &cfg::Cfg, image: &Image, out: &mut Vec<Finding>) {
    use audo_tricore::encode::decode;
    for (name, &a) in image.symbols() {
        // Only flag flash symbols, skip data-looking and reached ones.
        if !flash_addr(a) || graph.block_containing(a).is_some() {
            continue;
        }
        // Heuristic: decodes cleanly for a few instructions and hits a
        // terminator-like opcode within a short window.
        let mut pc = a;
        let mut decoded = 0;
        let mut looks_code = false;
        for _ in 0..12 {
            let Some((word, avail)) = image.instr_bytes(Addr(pc)) else {
                break;
            };
            let Ok((instr, len)) = decode(&word[..avail], Addr(pc)) else {
                break;
            };
            decoded += 1;
            if instr.is_control_flow() || matches!(instr, audo_tricore::isa::Instr::Halt) {
                looks_code = decoded >= 3;
                break;
            }
            pc = pc.wrapping_add(u32::from(len));
        }
        if looks_code {
            out.push(Finding::new(
                Severity::Info,
                "unreachable-code",
                Some(a),
                format!("symbol `{name}` looks like code but is never reached"),
            ));
        }
    }
}

/// Reports indirect branches the propagator could not resolve: the CFG
/// (and therefore every downstream check) is incomplete behind them.
fn unresolved_findings(graph: &cfg::Cfg, out: &mut Vec<Finding>) {
    for &site in &graph.unresolved_indirect {
        out.push(Finding::new(
            Severity::Warning,
            "unresolved-indirect",
            Some(site),
            "indirect branch target is not statically resolvable".to_string(),
        ));
    }
    for (&addr, reason) in &graph.decode_stops {
        out.push(Finding::new(
            Severity::Warning,
            "decode-stop",
            Some(addr),
            format!("control flow reaches undecodable bytes: {reason}"),
        ));
    }
}

/// `true` for program-flash addresses (either segment alias).
fn flash_addr(a: u32) -> bool {
    (0x8000_0000..0x8F00_0000).contains(&a) || (0xA000_0000..0xAF00_0000).contains(&a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use audo_tricore::asm::assemble;

    fn run(src: &str) -> Analysis {
        let image = assemble(src).expect("test source assembles");
        analyze(&image, &SocConfig::tc1797(), &MasterRanges::empty(), "test")
    }

    #[test]
    fn clean_image_has_no_findings() {
        let a = run("
    .org 0x80000000
_start:
    la a2, 0xd0000200
    st.w d0, [a2]
    ld.w d1, [a2+4]
    halt
");
        assert_eq!(a.findings, vec![], "{}", a.to_text());
        assert_eq!(a.error_count(), 0);
    }

    #[test]
    fn flash_write_and_misalignment_are_errors() {
        let a = run("
    .org 0x80000000
_start:
    la a2, 0x80002000
    st.w d0, [a2]
    la a3, 0xd0000201
    ld.w d1, [a3]
    halt
");
        let codes: Vec<&str> = a.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"flash-write"), "{codes:?}");
        assert!(codes.contains(&"misaligned-access"), "{codes:?}");
        assert_eq!(a.error_count(), 2);
    }

    #[test]
    fn unmapped_access_is_reported() {
        let a = run("
    .org 0x80000000
_start:
    la a2, 0x12345678
    ld.w d1, [a2]
    halt
");
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].code, "unmapped-access");
        assert_eq!(a.findings[0].severity, Severity::Error);
    }

    #[test]
    fn runaway_cycle_without_wait_is_warned() {
        let a = run("
    .org 0x80000000
_start:
    nop
spin:
    addi d0, d0, 1
    j spin
");
        assert!(
            a.findings.iter().any(|f| f.code == "infinite-loop"),
            "{}",
            a.to_text()
        );
        // An idle loop that waits for interrupts is fine.
        let idle = run("
    .org 0x80000000
_start:
    nop
spin:
    wait
    j spin
");
        assert!(
            idle.findings.iter().all(|f| f.code != "infinite-loop"),
            "{}",
            idle.to_text()
        );
    }

    #[test]
    fn report_is_byte_identical_across_runs() {
        let src = "
    .org 0x80000000
_start:
    la a2, 0x80002000
    st.w d0, [a2]
    halt
";
        let a = run(src);
        let b = run(src);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn context_symbol_is_attached() {
        let a = run("
    .org 0x80000000
_start:
    nop
bad_writer:
    la a2, 0x80002000
    st.w d0, [a2]
    halt
");
        let f = a
            .findings
            .iter()
            .find(|f| f.code == "flash-write")
            .expect("flash write finding");
        assert_eq!(f.context.as_deref(), Some("bad_writer"));
    }
}

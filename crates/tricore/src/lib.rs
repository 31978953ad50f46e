//! Cycle-level simulator of **TC-R**, a TriCore-class tri-issue 32-bit
//! automotive CPU: instruction set, assembler, disassembler, functional
//! golden model, and a cycle-accurate pipeline.
//!
//! This crate is the main-core substrate for the reproduction of Mayer &
//! Hellwig, *"System Performance Optimization Methodology for Infineon's
//! 32-Bit Automotive Microcontroller Architecture"* (DATE 2008). The
//! profiling methodology of that paper observes architectural event streams
//! (instructions retired per cycle, cache and flash events, stalls); this
//! core produces those streams from real machine code.
//!
//! # Layout
//!
//! | module | contents |
//! |---|---|
//! | [`isa`] | the instruction set and register model |
//! | `forms` | the instruction-form table `encode`, `opcodes`, `asm` and `disasm` read |
//! | [`encode`] | binary encode/decode (mixed 16/32-bit formats) |
//! | [`opcodes`] | assigned-opcode tables, coverage indices, per-slot samples |
//! | [`asm`] | two-pass text assembler |
//! | [`disasm`] | disassembler / listing generator |
//! | [`image`] | assembled program images and symbol tables |
//! | [`arch`] | architectural state and the context-save architecture |
//! | [`exec`] | instruction semantics shared by all execution models |
//! | [`iss`] | functional golden-model simulator |
//! | [`decode_cache`] | predecoded basic blocks shared by both execution tiers |
//! | [`bus`] | the timed memory interface a core drives |
//! | [`pipeline`] | the cycle-level tri-issue pipeline |
//! | [`mem`] | flat functional memory for tests and the ISS |
//!
//! # Example
//!
//! ```
//! use audo_common::{Addr, Cycle, EventSink, SourceId};
//! use audo_tricore::asm::assemble;
//! use audo_tricore::bus::TestBus;
//! use audo_tricore::pipeline::{Core, CoreConfig};
//!
//! let image = assemble("
//!     .org 0x1000
//!     movi d0, 6
//!     movi d1, 7
//!     mul  d2, d0, d1
//!     halt
//! ")?;
//! let mut bus = TestBus::new();
//! bus.mem.add_region(Addr(0x1000), 0x1000);
//! image.load_into(&mut bus.mem)?;
//!
//! let mut core = Core::new(CoreConfig::default(), image.entry(), SourceId::TRICORE);
//! let mut sink = EventSink::new();
//! let mut cycle = 0;
//! while !core.is_halted() {
//!     core.step(Cycle(cycle), &mut bus, None, &mut sink)?;
//!     cycle += 1;
//! }
//! assert_eq!(core.arch().d[2], 42);
//! # Ok::<(), audo_common::SimError>(())
//! ```

pub mod arch;
pub mod asm;
pub mod bus;
pub mod decode_cache;
pub mod disasm;
pub mod encode;
pub mod exec;
mod forms;
pub mod image;
pub mod isa;
pub mod iss;
pub mod mem;
pub mod opcodes;
pub mod pipeline;

pub use arch::{ArchMem, ArchState};
pub use bus::{CoreBus, FetchSlot, ReadSlot};
pub use image::Image;
pub use isa::Instr;
pub use pipeline::{Core, CoreConfig, PipelineStats, StepOutput};

//! Shared foundation types for the `audo` simulation stack.
//!
//! This crate defines the vocabulary every other crate in the workspace
//! speaks:
//!
//! * [`Cycle`], [`Addr`], [`Freq`] and [`ByteSize`] — strongly typed scalars
//!   so that cycle counts, byte addresses and clock frequencies cannot be
//!   mixed up silently.
//! * [`PerfEvent`] — the taxonomy of performance-relevant hardware events
//!   that the simulated SoC emits and that the MCDS (Multi-Core Debug
//!   Solution) observes. This mirrors the event sources listed in Mayer &
//!   Hellwig (DATE 2008), §5: cache hits/misses, flash buffer hits, bus
//!   contention, executed instructions, interrupt activity, and so on.
//! * [`EventSink`] / [`EventRecord`] — the per-cycle event transport between
//!   the product-chip components and the observation hardware.
//! * [`varint`] — the variable-length integer codec used by the trace
//!   message protocol.
//! * [`splitmix64`] — the one mixing function behind every seeded stream.
//! * [`golden`] — the golden-file check shared by every golden test.
//!
//! # Examples
//!
//! ```
//! use audo_common::{Addr, Cycle, EventSink, PerfEvent, SourceId};
//!
//! let mut sink = EventSink::new();
//! sink.emit(Cycle(10), SourceId::TRICORE, PerfEvent::InstrRetired { count: 3 });
//! assert_eq!(sink.records().len(), 1);
//! assert_eq!(Addr(0x8000_0000).offset(4), Addr(0x8000_0004));
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod events;
pub mod golden;
pub mod rng;
pub mod types;
pub mod varint;

pub use error::SimError;
pub use events::{AccessKind, BusTransaction, EventRecord, EventSink, PerfEvent, SourceId};
pub use rng::splitmix64;
pub use types::{Addr, ByteSize, Cycle, Freq};

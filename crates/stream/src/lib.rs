//! Stream types and query operators for the RFID pipeline.
//!
//! The paper's pipeline has three stream layers (§II-A):
//!
//! 1. **raw input streams** from the mobile reader — an RFID reading
//!    stream `(time, tag_id)` and a reader location stream
//!    `(time, (x, y, z))`, possibly slightly out of sync;
//! 2. **synchronized epoch batches** — the coarse-grained time steps the
//!    model works in (default epoch = 1 s), produced by low-level
//!    processing that assigns readings to epochs and averages multiple
//!    location reports within an epoch;
//! 3. the **output event stream** `(time, tag_id, (x, y, z), stats?)`
//!    produced by inference, which is what applications query.
//!
//! §II-B's point is that layer 3 is "readily queriable": this crate also
//! implements a small CQL-like operator algebra ([`operators`]) and the
//! paper's two example queries ([`queries`]) — the location-change query
//! and the fire-code (weight per square foot) query.
//!
//! [`pipeline`] wires the layers into one incremental streaming run —
//! `ReadingSource` → [`StreamSynchronizer`] → `InferenceStage` →
//! composable `EventSink`s — with measured, bounded buffering
//! (`PipelineStats`).
//!
//! One import path per item: the stream vocabulary (epochs, readings,
//! events, batches, the pipeline's traits and driver) is the `pub use`
//! list below; sinks, operators, queries, the wire codec and the digest
//! are named through their modules ([`pipeline::sinks`], [`operators`],
//! [`queries`], [`wire`], [`digest`]).

pub mod digest;
mod epoch;
mod event;
pub mod operators;
pub mod pipeline;
pub mod queries;
mod sync;
pub mod wire;

pub use epoch::Epoch;
pub use event::{EventStats, LocationEvent, ReaderLocationReport, RfidReading, TagId};
pub use pipeline::{EventSink, InferenceStage, Pipeline, PipelineStats, ReadingSource, StreamItem};
pub use sync::{synchronize_traces, EpochBatch, StreamSynchronizer};

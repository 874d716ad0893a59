//! # rfid-serve — the query-serving subsystem
//!
//! Everything upstream of this crate produces one thing: the cleaned
//! location-event stream. This crate makes that stream *queryable* —
//! while it is still being produced — by pull **and** by push:
//!
//! ```text
//!           ┌─► StoreSink ─► Arc<RwLock<EventStore>> ◄─┐
//! pipeline ─┤                                          ├─ TCP server ◄─► clients
//!           └─► hub.sink() ─► SubscriptionHub ─────────┘   (reader + writer
//!  (writer, live ingestion)    (per-subscription queues)     per connection)
//! ```
//!
//! * [`store::EventStore`] — a segmented in-memory log of the whole
//!   event stream with a per-epoch snapshot index, per-tag trail
//!   lookup, and epoch-delta snapshots;
//! * [`Query`] / [`Frame`] — the query kinds, the length-prefixed
//!   text wire protocol (every connection opens with `HELLO`, then
//!   request-id envelopes with `SUBSCRIBE` push frames and `TELEMETRY`
//!   scrapes), and typed [`WireError`] codes;
//! * [`SubscriptionHub`] — fan-out of committed location changes
//!   into bounded per-subscription queues (slow subscribers lag, they
//!   never buffer unboundedly);
//! * [`serve_with`] — a `std::net` query server with one blocked
//!   reader and writer thread per connection, plus the blocking
//!   builder-configured [`QueryClient`];
//! * [`DurableStore`] / [`SegmentLog`] — the write-ahead log under the
//!   store: one append-only file, `wal.log`, fsynced every
//!   `segment_epochs` epochs of arrivals and at every `sync()`.
//!
//! One import path per item: the store's types are named through
//! [`store`]; everything else is the `pub use` list below.
//!
//! The contract that keeps serving honest: with the default store
//! configuration, `Trail` and `SnapshotAt` answers are **bit-identical**
//! to what the in-process [`TrailSink`]/[`SnapshotSink`] compute on the
//! same stream, push subscriptions deliver exactly the
//! [`LocationChangeSink`] delta stream (pinned by
//! `tests/store_pin_sinks.rs`, root `tests/serving_queries.rs`, and
//! root `tests/serving_push.rs`), and the wire encoding round-trips
//! every `f64` exactly.
//!
//! [`TrailSink`]: rfid_stream::pipeline::sinks::TrailSink
//! [`SnapshotSink`]: rfid_stream::pipeline::sinks::SnapshotSink
//! [`LocationChangeSink`]: rfid_stream::pipeline::sinks::LocationChangeSink

mod hub;
pub(crate) mod lock;
mod log;
mod query;
mod server;
pub mod store;

pub use hub::{HubConfig, HubSink, SubscriptionHandle, SubscriptionHub};
pub use log::{DurableStore, LogError, Recovery, SegmentLog, WriteFault};
pub use query::{
    answer, ErrorCode, Frame, Query, QueryResponse, SubscriptionFilter, TelemetryCmd, WireError,
    PROTOCOL_VERSION,
};
pub use server::{
    read_frame, serve, serve_with, write_frame, ClientBuilder, QueryClient, ServerConfig,
    ServerHandle,
};

//! Multi-process engine cluster: a **router** that owns the reader
//! half of the inference engine and splits the reading stream by
//! `tag % N`, **N worker processes** each running the engine over its
//! tag partition, and a **coordinator** that k-way-merges the workers'
//! emitted events back into global tag order per completed epoch.
//!
//! ```text
//!                       EpochPlan / ResampleDirective
//!             ┌───────────────────┬───────────────────┐
//!             ▼                   ▼                   ▼
//!        ┌─────────┐         ┌─────────┐         ┌─────────┐
//!        │ worker 0│         │ worker 1│   ...   │ worker N│
//!        └────┬────┘         └────┬────┘         └────┬────┘
//!   TaskReports│                  │                   │
//!             ▲│                 ▲│                  ▲│
//!        ┌────┴┴──────────────────┴───────────────────┴────┐
//!        │ router (ClusterHead: reader filter + engine RNG)│
//!        └─────────────────────────────────────────────────┘
//!              events │ (one frame per epoch per worker)
//!                     ▼
//!        ┌─────────────────────────────────────────────────┐
//!        │ coordinator (merge_events_by_tag, per epoch)    │
//!        └─────────────────────────────────────────────────┘
//! ```
//!
//! The split itself — why the event stream stays **bit-identical** to
//! the single-process engine for every worker count — lives in
//! [`rfid_core::engine::cluster`]. This crate adds the transport: a
//! binary message layer ([`proto`]) over the same 4-byte big-endian
//! length-prefixed framing the query server speaks
//! ([`rfid_stream::wire`]), the three process loops ([`router`],
//! [`worker`], [`coordinator`]), and a child-process launcher
//! ([`LocalCluster`]) used by the integration tests.
//!
//! One import path per item: the roles, the messages and the canonical
//! scenarios are named through their modules; only the launcher is
//! exported from the root.
//!
//! All framing honors [`rfid_stream::wire::DEFAULT_MAX_FRAME_LEN`]:
//! an oversized or malformed frame is a typed error, never an
//! attacker-controlled allocation.

pub mod cli;
pub mod coordinator;
mod local;
pub mod proto;
pub mod router;
pub mod scenario;
pub mod worker;

pub use local::{ClusterOutcome, LocalCluster};

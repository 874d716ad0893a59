//! A small CQL-like operator algebra over event streams.
//!
//! Just enough of CQL (Arasu et al.) to run the paper's two example
//! queries against the cleaned event stream:
//!
//! * `[Partition By k Row n]` — a partitioned row window (crate-private;
//!   reached through `pipeline::sinks::TrailSink`)
//! * `[Range d seconds]` / `[Now]` — [`RangeWindow`]
//! * `Istream(...)` over a partitioned row window —
//!   [`ChangeDetector`] (emits only when the newest tuple of a
//!   partition differs from the previous one)
//! * `Rstream(...)` — the full relation at each evaluation instant
//!   (crate-private; reached through `pipeline::sinks::SnapshotSink`)
//! * `Group By ... Having sum(...) > c` — [`group_sum`] / [`having`].
//!
//! The `pub use` list below is the module's surface.

mod groupby;
mod istream;
mod rstream;
mod window;

pub use groupby::{group_sum, having};
pub use istream::ChangeDetector;
pub(crate) use rstream::Rstream;
pub(crate) use window::PartitionedRowWindow;
pub use window::RangeWindow;

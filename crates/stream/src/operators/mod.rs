//! A small CQL-like operator algebra over event streams.
//!
//! Just enough of CQL (Arasu et al.) to run the paper's two example
//! queries against the cleaned event stream:
//!
//! * `[Partition By k Row n]` — [`window::PartitionedRowWindow`]
//! * `[Range d seconds]` / `[Now]` — [`window::RangeWindow`]
//! * `Istream(...)` over a partitioned row window —
//!   [`istream::ChangeDetector`] (emits only when the newest tuple of a
//!   partition differs from the previous one)
//! * `Rstream(...)` — [`rstream::Rstream`] (emits the full relation at
//!   each evaluation instant)
//! * `Group By ... Having sum(...) > c` — [`groupby`] helpers.

mod groupby;
mod istream;
mod rstream;
mod window;

pub use groupby::{group_sum, having};
pub use istream::ChangeDetector;
pub(crate) use rstream::Rstream;
pub(crate) use window::PartitionedRowWindow;
pub use window::RangeWindow;

//! Spatial indexing substrate for scalable RFID inference.
//!
//! §IV-C of the paper restricts particle-filter work at each epoch to the
//! objects that are either (Case 1) read right now or (Case 2) were read
//! before *near the current reader location*. Distinguishing Case 2 from
//! Case 4 ("far away and silent") requires remembering where sensing
//! happened and which objects had particles there:
//!
//! * [`rtree::RTree`] — a simplified R\*-tree over axis-aligned bounding
//!   boxes (the paper cites Beckmann et al.'s R\*-tree and says it uses a
//!   simplified variant). Supports insertion with least-enlargement
//!   subtree choice and an R\*-style margin-driven split, plus
//!   intersection queries.
//! * [`region_index::RegionIndex`] — the two-level structure of Fig. 4:
//!   each inserted sensing-region bounding box carries the set of object
//!   ids that had at least one particle inside it; probing with the
//!   current sensing region returns the union of object sets over all
//!   overlapping past regions.

mod region_index;
mod rtree;

pub use region_index::RegionIndex;
pub use rtree::RTree;

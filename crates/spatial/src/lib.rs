//! Spatial indexing substrate for scalable RFID inference.
//!
//! §IV-C of the paper restricts particle-filter work at each epoch to the
//! objects that are either (Case 1) read right now or (Case 2) were read
//! before *near the current reader location*. Distinguishing Case 2 from
//! Case 4 ("far away and silent") requires remembering where sensing
//! happened and which objects had particles there:
//! [`RegionIndex`] is the two-level structure of Fig. 4. Each recorded
//! sensing-region bounding box carries the set of object ids that had at
//! least one particle inside it; probing with the current sensing region
//! returns the union of object sets over all overlapping past regions.
//! The boxes sit in an exact uniform grid (the paper uses a simplified
//! R\*-tree; every box the engine records is the same cube, which a grid
//! answers with less machinery).

mod region_index;

pub use region_index::RegionIndex;

//! SMURF (Jeffery et al., VLDB J. 2007) with the paper's location
//! augmentation.
//!
//! SMURF treats RFID smoothing as statistical sampling: each epoch the
//! reader "samples" the tag with some read probability `p`. Per tag it
//! keeps an adaptive window of the last `w` epochs:
//!
//! * **completeness** — the window must be long enough that a present
//!   tag is read at least once with probability `1 - δ`:
//!   `w ≥ ln(1/δ) / p̂` (the π-estimator sizes `p̂` from the window);
//! * **transition detection** — if the reads observed in the window are
//!   statistically below what `p̂` predicts (binomial mean minus 2σ),
//!   the tag likely left the range and the window shrinks to react.
//!
//! A tag is *in scope* at epoch `t` if its window contains at least one
//! read. The paper's augmentation then samples a location uniformly
//! over `read range ∩ shelf` at the reported reader position for every
//! in-scope epoch, and averages those samples into a location estimate
//! when the tag leaves scope.

use crate::common::{nearest_shelf, sample_range_shelf, LocationAccumulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_geom::{Aabb, Pose};
use rfid_stream::{Epoch, EpochBatch, EventStats, InferenceStage, LocationEvent, TagId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// SMURF tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SmurfConfig {
    /// Completeness confidence parameter δ (paper default 0.05).
    pub delta: f64,
    /// Maximum smoothing window, epochs.
    pub max_window: usize,
    /// Read range (feet) used for location sampling — the paper feeds
    /// SMURF "the read range based on our learned model".
    pub read_range: f64,
    /// Shelf areas for location sampling (the "imagined shelf" — one
    /// box per shelf row; samples use the row nearest the reported
    /// reader location).
    pub shelves: Vec<Aabb>,
    /// RNG seed for the location sampling.
    pub seed: u64,
}

impl SmurfConfig {
    /// Defaults matching the lab comparison.
    pub fn new(read_range: f64, shelves: Vec<Aabb>) -> Self {
        assert!(!shelves.is_empty());
        Self {
            delta: 0.05,
            max_window: 25,
            read_range,
            shelves,
            seed: 0xbeef,
        }
    }
}

#[derive(Debug, Clone)]
struct TagState {
    /// Presence bits of the last `window` epochs (front = oldest).
    history: VecDeque<bool>,
    /// Current adaptive window size.
    window: usize,
    /// Location samples of the current in-scope run.
    acc: LocationAccumulator,
    in_scope: bool,
    last_epoch_read: Epoch,
}

impl TagState {
    fn new() -> Self {
        Self {
            history: VecDeque::new(),
            window: 2,
            acc: LocationAccumulator::new(),
            in_scope: false,
            last_epoch_read: Epoch(0),
        }
    }

    /// Per-epoch read-rate estimate over the current window (the
    /// π-estimator simplified to the Bernoulli MLE).
    fn p_hat(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        let reads = self.history.iter().filter(|b| **b).count();
        reads as f64 / self.history.len() as f64
    }
}

/// The SMURF cleaning baseline.
pub struct Smurf {
    config: SmurfConfig,
    /// Ordered by tag so the per-epoch location-sampling RNG draws are
    /// assigned to tags deterministically: with a hash map here, the
    /// iteration (and thus draw) order changed per process, and two
    /// identical runs scored differently against ground truth.
    tags: BTreeMap<TagId, TagState>,
    rng: StdRng,
    /// Set of tag ids to ignore (shelf/reference tags).
    ignored: BTreeSet<TagId>,
}

impl Smurf {
    /// Creates a SMURF instance. `ignored` lists tag ids that are not
    /// objects (reference tags).
    pub fn new(config: SmurfConfig, ignored: impl IntoIterator<Item = TagId>) -> Self {
        let seed = config.seed;
        Self {
            config,
            tags: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed),
            ignored: ignored.into_iter().collect(),
        }
    }
}

impl InferenceStage for Smurf {
    /// Processes one epoch batch; appends location events for tags that
    /// left scope this epoch, sorted by tag.
    fn process_batch_into(&mut self, batch: &EpochBatch, out: &mut Vec<LocationEvent>) {
        let epoch = batch.epoch;
        let before = out.len();
        let read_now: BTreeSet<TagId> = batch
            .readings
            .iter()
            .filter(|t| !self.ignored.contains(t))
            .copied()
            .collect();
        // register new tags
        for tag in &read_now {
            self.tags.entry(*tag).or_insert_with(TagState::new);
        }

        let reported = batch.reader_report;
        for (tag, state) in self.tags.iter_mut() {
            let read = read_now.contains(tag);
            if read {
                state.last_epoch_read = epoch;
            }

            // slide the window
            state.history.push_back(read);
            while state.history.len() > state.window {
                state.history.pop_front();
            }

            // --- adaptive sizing (π-estimator) -----------------------
            let p = state.p_hat();
            if p > 0.0 {
                // completeness requirement
                let w_req = ((1.0 / self.config.delta).ln() / p).ceil() as usize;
                let w_req = w_req.clamp(1, self.config.max_window);
                // transition detection: estimate the read rate from the
                // older half of the window, then check whether the
                // recent half saw statistically fewer reads than that
                // rate predicts (binomial mean minus 2σ)
                let len = state.history.len();
                let half = len / 2;
                let transition = if half >= 1 {
                    let older = len - half;
                    let older_reads =
                        state.history.iter().take(older).filter(|b| **b).count() as f64;
                    // Laplace-smoothed estimate: a single-epoch older
                    // half must not yield p1 = 1 with zero variance
                    let p1 = (older_reads + 1.0) / (older as f64 + 2.0);
                    let recent_reads =
                        state.history.iter().skip(older).filter(|b| **b).count() as f64;
                    let expected = p1 * half as f64;
                    let sigma = (half as f64 * p1 * (1.0 - p1)).sqrt();
                    p1 > 0.0 && recent_reads < expected - 2.0 * sigma
                } else {
                    false
                };
                if transition {
                    state.window = (state.window / 2).max(1);
                } else if state.window < w_req {
                    state.window = (state.window * 2).clamp(1, w_req);
                } else {
                    state.window = w_req;
                }
            }

            // --- smoothing decision ----------------------------------
            let present = state.history.iter().any(|b| *b);
            if present {
                state.in_scope = true;
                // augmented SMURF: sample a location for this epoch
                if let Some(rep) = reported {
                    let pose: Pose = rep;
                    let shelf = nearest_shelf(&self.config.shelves, &pose);
                    let p =
                        sample_range_shelf(&pose.pos, self.config.read_range, shelf, &mut self.rng);
                    state.acc.push(p);
                }
            } else if state.in_scope {
                // left scope: average the samples into an event
                state.in_scope = false;
                if let Some(mean) = state.acc.mean() {
                    out.push(
                        LocationEvent::new(epoch, *tag, mean).with_stats(EventStats {
                            var: [0.0; 3],
                            support: state.acc.len() as f64,
                        }),
                    );
                }
                state.acc.clear();
            }
        }
        out[before..].sort_by_key(|e| e.tag);
    }

    /// Flushes tags still in scope at end of trace.
    fn finalize_into(&mut self, last_epoch: Epoch, out: &mut Vec<LocationEvent>) {
        let before = out.len();
        for (tag, state) in self.tags.iter_mut() {
            if state.in_scope {
                state.in_scope = false;
                if let Some(mean) = state.acc.mean() {
                    out.push(
                        LocationEvent::new(last_epoch, *tag, mean).with_stats(EventStats {
                            var: [0.0; 3],
                            support: state.acc.len() as f64,
                        }),
                    );
                }
                state.acc.clear();
            }
        }
        out[before..].sort_by_key(|e| e.tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::Point3;

    fn shelf() -> Aabb {
        Aabb::new(Point3::new(1.7, 0.0, 0.0), Point3::new(2.4, 20.0, 0.0))
    }

    fn batch(epoch: u64, reader_y: f64, tags: &[u64]) -> EpochBatch {
        EpochBatch {
            epoch: Epoch(epoch),
            readings: tags.iter().map(|t| TagId(*t)).collect(),
            reader_report: Some(Pose::new(Point3::new(0.0, reader_y, 0.0), 0.0)),
        }
    }

    fn smurf() -> Smurf {
        Smurf::new(SmurfConfig::new(4.0, vec![shelf()]), [])
    }

    #[test]
    fn missed_reads_smoothed_within_window() {
        let mut s = smurf();
        // read, miss, read pattern: tag should stay in scope throughout
        s.process_batch(&batch(0, 3.0, &[7]));
        s.process_batch(&batch(1, 3.1, &[]));
        let _ = s.process_batch(&batch(2, 3.2, &[7]));
        assert!(s.tags[&TagId(7)].in_scope);
    }

    #[test]
    fn event_emitted_when_leaving_scope() {
        let mut s = smurf();
        let mut events = Vec::new();
        for t in 0..10u64 {
            events.extend(s.process_batch(&batch(t, 3.0 + t as f64 * 0.1, &[7])));
        }
        // long silence flushes the tag out of scope
        for t in 10..40u64 {
            events.extend(s.process_batch(&batch(t, 4.0 + t as f64 * 0.1, &[])));
        }
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.tag, TagId(7));
        // location averaged over range∩shelf samples near the scan path
        assert!(shelf().contains(&e.location), "location {:?}", e.location);
        assert!(!s.tags[&TagId(7)].in_scope);
    }

    #[test]
    fn window_grows_under_low_read_rate() {
        let mut s = smurf();
        // alternate read/miss: p̂ ≈ 0.5 => required window ~ 6
        for t in 0..30u64 {
            let tags: Vec<u64> = if t % 2 == 0 { vec![7] } else { vec![] };
            s.process_batch(&batch(t, 3.0, &tags));
        }
        let w = s.tags[&TagId(7)].window;
        assert!(w >= 4, "window too small for p=0.5: {w}");
    }

    #[test]
    fn window_shrinks_on_transition() {
        let mut s = smurf();
        // high read rate, then gone
        for t in 0..12u64 {
            s.process_batch(&batch(t, 3.0, &[7]));
        }
        let w_before = s.tags[&TagId(7)].window;
        for t in 12..18u64 {
            s.process_batch(&batch(t, 3.0, &[]));
        }
        let w_after = s.tags[&TagId(7)].window;
        assert!(
            w_after < w_before.max(2),
            "window should shrink on departure: {w_before} -> {w_after}"
        );
    }

    #[test]
    fn ignored_tags_produce_nothing() {
        let mut s = Smurf::new(SmurfConfig::new(4.0, vec![shelf()]), [TagId(99)]);
        for t in 0..10u64 {
            s.process_batch(&batch(t, 3.0, &[99]));
        }
        let events = s.finalize(Epoch(10));
        assert!(events.is_empty());
    }

    #[test]
    fn finalize_flushes_in_scope_tags() {
        let mut s = smurf();
        for t in 0..5u64 {
            s.process_batch(&batch(t, 3.0, &[7]));
        }
        let events = s.finalize(Epoch(5));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].tag, TagId(7));
    }

    #[test]
    fn cannot_correct_reported_location_bias() {
        // The reported reader location is biased along y; SMURF samples
        // around the *reported* location, so its estimate inherits the
        // bias — the structural weakness our system fixes (§V-C).
        let truth_y = 5.0;
        let bias = 2.0;
        let mut s = smurf();
        for t in 0..8u64 {
            // reader is truly at y = 4..5 but reports y + bias
            let _ = s.process_batch(&batch(t, truth_y + bias, &[7]));
        }
        let events = s.finalize(Epoch(8));
        let est = events[0].location;
        assert!(
            (est.y - (truth_y + bias)).abs() < 1.5,
            "estimate should sit near the biased report, got y = {}",
            est.y
        );
    }
}

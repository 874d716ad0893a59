//! Inference-error metrics: continuous location error ([`ErrorStats`])
//! and event-level accuracy ([`EventScore`] and friends — the paper's
//! real claim is inference *quality*, so the repo scores precision,
//! recall, F1, change-detection delay, and shelf containment, not just
//! mean feet of error), and whether the uncertainty each event
//! publishes covers its error ([`Uncertainty`]).

use rfid_sim::scenario::Scenario;
use rfid_sim::{GroundTruth, WarehouseLayout};
use rfid_stream::{Epoch, LocationEvent, TagId};
use std::collections::BTreeSet;

/// Error summary of an event stream against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Mean |x_est - x_true|.
    pub mean_x: f64,
    /// Mean |y_est - y_true|.
    pub mean_y: f64,
    /// Mean Euclidean error in the XY plane — the paper's headline
    /// metric.
    pub mean_xy: f64,
    /// Worst single-event XY error.
    pub max_xy: f64,
    /// Events scored.
    pub n: usize,
    /// Events that could not be scored (no ground truth for the tag).
    pub unscored: usize,
}

impl ErrorStats {
    /// Scores events against ground truth at each event's epoch.
    pub fn score(events: &[LocationEvent], truth: &GroundTruth) -> Self {
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut sxy = 0.0;
        let mut max_xy = 0.0f64;
        let mut n = 0usize;
        let mut unscored = 0usize;
        for e in events {
            match truth.object_at(e.tag, e.epoch) {
                Some(t) => {
                    let dx = (e.location.x - t.x).abs();
                    let dy = (e.location.y - t.y).abs();
                    let dxy = e.location.dist_xy(&t);
                    sx += dx;
                    sy += dy;
                    sxy += dxy;
                    max_xy = max_xy.max(dxy);
                    n += 1;
                }
                None => unscored += 1,
            }
        }
        if n == 0 {
            return Self {
                mean_x: f64::NAN,
                mean_y: f64::NAN,
                mean_xy: f64::NAN,
                max_xy: f64::NAN,
                n: 0,
                unscored,
            };
        }
        Self {
            mean_x: sx / n as f64,
            mean_y: sy / n as f64,
            mean_xy: sxy / n as f64,
            max_xy,
            n,
            unscored,
        }
    }
}

// ---------------------------------------------------------------------
// Event-level accuracy
// ---------------------------------------------------------------------

/// Knobs of the event-level scorer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventScoreConfig {
    /// XY radius (feet) within which an event counts as correctly
    /// locating its object. The default of 1.0 ft sits between the
    /// engine's typical error (~0.2–0.5 ft) and the uniform bound's
    /// (~1.5–2 ft), so it separates the systems the paper compares.
    pub match_radius_xy: f64,
}

impl Default for EventScoreConfig {
    fn default() -> Self {
        Self {
            match_radius_xy: 1.0,
        }
    }
}

/// Confusion counts of one event stream against ground truth. Every
/// emitted event falls into exactly one of the first three buckets;
/// `missed_tags` counts ground-truth objects no event ever matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Confusion {
    /// Events within the match radius of the object's true location at
    /// the event's epoch (true positives).
    pub matched: usize,
    /// Events whose object exists at the event's epoch but whose
    /// location is off by more than the match radius.
    pub mislocated: usize,
    /// Events for objects the ground truth does not contain at the
    /// event's epoch — never existed, not yet arrived, or departed.
    pub phantom: usize,
    /// Ground-truth objects with no matched event anywhere (false
    /// negatives at the object level).
    pub missed_tags: usize,
}

/// Event-level precision/recall/F1 of a stream against ground truth.
///
/// Definitions (all per-epoch: an event is judged against the truth at
/// *its own* epoch, so stale reports of moved or departed objects count
/// against the system):
/// * **precision** = matched events / all events (1.0 for an empty
///   stream — no claims, no false claims);
/// * **recall** = objects with ≥ 1 matched event / objects in truth
///   (1.0 when the truth is empty);
/// * **f1** = harmonic mean (0.0 when precision + recall = 0).
///
/// Scoring is order-independent: permuting events (within an epoch or
/// globally) cannot change any count. Adding an unmatched event can
/// only lower precision; adding events never lowers recall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventScore {
    pub confusion: Confusion,
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    /// Events scored (all of them — unlike [`ErrorStats`], no event is
    /// ever "unscorable" here; unknown tags are phantoms).
    pub events: usize,
    /// Objects in the ground truth (the recall denominator).
    pub truth_tags: usize,
}

impl EventScore {
    /// Scores an event stream against ground truth.
    pub fn score(events: &[LocationEvent], truth: &GroundTruth, cfg: &EventScoreConfig) -> Self {
        let mut confusion = Confusion::default();
        let mut matched_tags: BTreeSet<TagId> = BTreeSet::new();
        for e in events {
            match truth.object_at(e.tag, e.epoch) {
                Some(t) if e.location.dist_xy(&t) <= cfg.match_radius_xy => {
                    confusion.matched += 1;
                    matched_tags.insert(e.tag);
                }
                Some(_) => confusion.mislocated += 1,
                None => confusion.phantom += 1,
            }
        }
        let truth_tags = truth.num_objects();
        confusion.missed_tags = truth_tags - matched_tags.len();
        let precision = if events.is_empty() {
            1.0
        } else {
            confusion.matched as f64 / events.len() as f64
        };
        let recall = if truth_tags == 0 {
            1.0
        } else {
            matched_tags.len() as f64 / truth_tags as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            confusion,
            precision,
            recall,
            f1,
            events: events.len(),
            truth_tags,
        }
    }
}

/// How quickly relocations ([`GroundTruth::relocations`]) show up in
/// the event stream. A relocation is *detected* by the first event for
/// its tag at or after the move whose location matches the truth at
/// that event's epoch (within the match radius) — i.e. the system is
/// provably reporting the post-move state, not the stale one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeDetection {
    /// Relocations in the ground truth.
    pub moves_total: usize,
    /// Relocations with a detecting event.
    pub moves_detected: usize,
    /// Mean epochs from relocation to its detecting event (0.0 when
    /// nothing was detected).
    pub mean_delay_epochs: f64,
    /// Worst detection delay (0 when nothing was detected).
    pub max_delay_epochs: u64,
}

impl ChangeDetection {
    /// Measures detection delay of every ground-truth relocation.
    pub fn score(events: &[LocationEvent], truth: &GroundTruth, cfg: &EventScoreConfig) -> Self {
        // events sorted by (tag, epoch) for an in-order scan per move
        let mut sorted: Vec<&LocationEvent> = events.iter().collect();
        sorted.sort_by_key(|e| (e.tag, e.epoch));
        let mut moves_total = 0;
        let mut moves_detected = 0;
        let mut delay_sum = 0u64;
        let mut max_delay = 0u64;
        for (tag, move_epoch, _) in truth.relocations() {
            moves_total += 1;
            // the move is superseded once the tag relocates again (or
            // departs): later detections belong to the later change
            let until: Epoch = truth
                .object_changes(tag)
                .map(|(e, _)| e)
                .find(|e| *e > move_epoch)
                .unwrap_or(Epoch(u64::MAX));
            // jump to this tag's post-move slice and scan only until
            // the move is superseded — O(log n) per relocation instead
            // of a full pass over the event vector
            let start = sorted.partition_point(|e| (e.tag, e.epoch) < (tag, move_epoch));
            let hit = sorted[start..]
                .iter()
                .take_while(|e| e.tag == tag && e.epoch < until)
                .find(|e| {
                    truth
                        .object_at(tag, e.epoch)
                        .is_some_and(|t| e.location.dist_xy(&t) <= cfg.match_radius_xy)
                });
            if let Some(e) = hit {
                moves_detected += 1;
                let d = e.epoch.since(move_epoch);
                delay_sum += d;
                max_delay = max_delay.max(d);
            }
        }
        let mean_delay_epochs = if moves_detected == 0 {
            0.0
        } else {
            delay_sum as f64 / moves_detected as f64
        };
        Self {
            moves_total,
            moves_detected,
            mean_delay_epochs,
            max_delay_epochs: max_delay,
        }
    }
}

/// Fraction of events (whose object exists at the event's epoch) that
/// place the object on the *correct shelf* — the containment question
/// ("which shelf is it on") behind the paper's compression groups. An
/// event is contained when the shelf whose y-range holds the true
/// location also holds the estimate (x within the shelf's face band).
/// Returns `f64::NAN` when no event is attributable to a shelf.
pub(crate) fn containment_accuracy(
    events: &[LocationEvent],
    truth: &GroundTruth,
    layout: &WarehouseLayout,
) -> f64 {
    let shelf_of = |y: f64, x: f64| -> Option<usize> {
        layout.shelves().iter().position(|s| {
            y >= s.bbox.min.y - 1e-9
                && y <= s.bbox.max.y + 1e-9
                && x >= s.bbox.min.x - 0.5
                && x <= s.bbox.max.x + 0.5
        })
    };
    let mut n = 0usize;
    let mut correct = 0usize;
    for e in events {
        let Some(t) = truth.object_at(e.tag, e.epoch) else {
            continue;
        };
        let Some(true_shelf) = shelf_of(t.y, t.x) else {
            continue;
        };
        n += 1;
        if shelf_of(e.location.y, e.location.x) == Some(true_shelf) {
            correct += 1;
        }
    }
    if n == 0 {
        return f64::NAN;
    }
    correct as f64 / n as f64
}

// ---------------------------------------------------------------------
// Uncertainty: does the published spread cover the error?
// ---------------------------------------------------------------------

/// How the uncertainty a group of matched events publishes
/// ([`EventStats`](rfid_stream::EventStats)) compares with their
/// actual error. `σ` is the larger XY standard deviation, half of
/// [`confidence_radius_xy`](rfid_stream::EventStats::confidence_radius_xy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Matched events carrying statistics.
    pub n: usize,
    /// Share of them whose truth lies inside `confidence_radius_xy()`
    /// (boundary included); `NaN` when `n` is 0.
    pub coverage: f64,
    /// Median of `XY error / σ` (nearest rank; `+inf` for a non-zero
    /// error under `σ = 0`); `NaN` when `n` is 0.
    pub err_sigma_p50: f64,
    /// 90th percentile of `XY error / σ`, nearest rank.
    pub err_sigma_p90: f64,
}

impl Calibration {
    /// Summarizes `(error, σ)` pairs.
    fn of(pairs: &[(f64, f64)]) -> Self {
        let n = pairs.len();
        if n == 0 {
            return Self {
                n,
                coverage: f64::NAN,
                err_sigma_p50: f64::NAN,
                err_sigma_p90: f64::NAN,
            };
        }
        let covered = pairs.iter().filter(|&&(err, sd)| err <= 2.0 * sd).count();
        let mut ratios: Vec<f64> = pairs
            .iter()
            .map(|&(err, sd)| if err == 0.0 { 0.0 } else { err / sd })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let rank = |p: f64| ratios[((p * n as f64).ceil() as usize).clamp(1, n) - 1];
        Self {
            n,
            coverage: covered as f64 / n as f64,
            err_sigma_p50: rank(0.5),
            err_sigma_p90: rank(0.9),
        }
    }
}

/// The belief an engine event was emitted from. The engine publishes a
/// compressed belief's `support` as [`rfid_core::DECOMPRESSED_PARTICLES`]
/// and an active one's as its particles' effective sample size, which
/// is not an integer in practice; that is how a consumer of the event
/// stream tells them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeliefKind {
    Active,
    Compressed,
}

impl BeliefKind {
    /// The kind an engine event's statistics say it was emitted from.
    pub fn of(stats: &rfid_stream::EventStats) -> Self {
        if stats.support == rfid_core::DECOMPRESSED_PARTICLES as f64 {
            Self::Compressed
        } else {
            Self::Active
        }
    }
}

/// [`Calibration`] of a stream's matched events, and — for an engine
/// stream, whose events say which belief they came from — of each
/// belief kind's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uncertainty {
    /// Every matched event carrying statistics.
    pub all: Calibration,
    /// Those emitted from an active particle cloud (`n` = 0 unsplit).
    pub active: Calibration,
    /// Those emitted from a compressed Gaussian (`n` = 0 unsplit).
    pub compressed: Calibration,
}

impl Uncertainty {
    /// Scores the matched events (within the match radius of the truth
    /// at their epoch) that carry statistics; `kind` splits them by
    /// [`BeliefKind`] when given.
    pub fn score(
        events: &[LocationEvent],
        truth: &GroundTruth,
        cfg: &EventScoreConfig,
        kind: Option<fn(&rfid_stream::EventStats) -> BeliefKind>,
    ) -> Self {
        let (mut all, mut active, mut compressed) = (Vec::new(), Vec::new(), Vec::new());
        for e in events {
            let (Some(t), Some(stats)) = (truth.object_at(e.tag, e.epoch), e.stats) else {
                continue;
            };
            let err = e.location.dist_xy(&t);
            if err > cfg.match_radius_xy {
                continue;
            }
            let pair = (err, 0.5 * stats.confidence_radius_xy());
            all.push(pair);
            match kind.map(|k| k(&stats)) {
                Some(BeliefKind::Active) => active.push(pair),
                Some(BeliefKind::Compressed) => compressed.push(pair),
                None => {}
            }
        }
        Self {
            all: Calibration::of(&all),
            active: Calibration::of(&active),
            compressed: Calibration::of(&compressed),
        }
    }
}

/// The full per-scenario accuracy summary: event-level scores,
/// continuous location error, change-detection delay, and shelf
/// containment — one row of the accuracy matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioScore {
    pub events: EventScore,
    pub error: ErrorStats,
    pub change: ChangeDetection,
    /// Correct-shelf fraction (`NaN` when nothing was attributable).
    pub containment: f64,
    /// The published spread against the error, unsplit.
    pub uncertainty: Uncertainty,
}

/// Scores one system's event stream against a scenario.
pub fn score_scenario(
    events: &[LocationEvent],
    sc: &Scenario,
    cfg: &EventScoreConfig,
) -> ScenarioScore {
    ScenarioScore {
        events: EventScore::score(events, &sc.trace.truth, cfg),
        error: ErrorStats::score(events, &sc.trace.truth),
        change: ChangeDetection::score(events, &sc.trace.truth, cfg),
        containment: containment_accuracy(events, &sc.trace.truth, &sc.layout),
        uncertainty: Uncertainty::score(events, &sc.trace.truth, cfg, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::Point3;
    use rfid_stream::{Epoch, TagId};

    fn truth_with(tag: u64, loc: Point3) -> GroundTruth {
        let mut g = GroundTruth::new();
        g.set_object(TagId(tag), Epoch(0), loc);
        g
    }

    fn ev_var(epoch: u64, tag: u64, x: f64, y: f64, var: f64, support: f64) -> LocationEvent {
        ev(epoch, tag, x, y).with_stats(rfid_stream::EventStats {
            var: [var, var, 0.0],
            support,
        })
    }

    #[test]
    fn uncertainty_counts_coverage_and_ranks_err_over_sigma() {
        let g = truth_with(1, Point3::new(0.0, 0.0, 0.0));
        let compressed = rfid_core::DECOMPRESSED_PARTICLES as f64;
        let events = vec![
            // σ = 0.5: errors 0.3 and 1.0 (boundary: covered) → 0.6, 2.0
            ev_var(1, 1, 0.3, 0.0, 0.25, 312.7),
            ev_var(2, 1, 0.0, 1.0, 0.25, 312.7),
            // σ = 0.1, error 0.5 → 5.0, outside; compressed
            ev_var(3, 1, 0.5, 0.0, 0.01, compressed),
            // beyond the match radius, no statistics, unknown tag: skipped
            ev_var(4, 1, 3.0, 0.0, 9.0, 312.7),
            ev(5, 1, 0.0, 0.0),
            ev_var(6, 9, 0.0, 0.0, 1.0, 312.7),
        ];
        let u = Uncertainty::score(
            &events,
            &g,
            &EventScoreConfig::default(),
            Some(BeliefKind::of),
        );
        assert_eq!(u.all.n, 3);
        assert!((u.all.coverage - 2.0 / 3.0).abs() < 1e-12);
        assert!((u.all.err_sigma_p50 - 2.0).abs() < 1e-12);
        assert!((u.all.err_sigma_p90 - 5.0).abs() < 1e-12);
        assert_eq!((u.active.n, u.compressed.n), (2, 1));
        assert_eq!(u.active.coverage, 1.0);
        assert!((u.active.err_sigma_p50 - 0.6).abs() < 1e-12);
        assert_eq!(u.compressed.coverage, 0.0);
        // unsplit: the kinds stay empty
        let u = Uncertainty::score(&events, &g, &EventScoreConfig::default(), None);
        assert_eq!((u.active.n, u.compressed.n), (0, 0));
        assert!(u.active.coverage.is_nan());
        // a zero spread covers only an exact hit
        let exact = [
            ev_var(1, 1, 0.0, 0.0, 0.0, 3.0),
            ev_var(2, 1, 0.2, 0.0, 0.0, 3.0),
        ];
        let u = Uncertainty::score(&exact, &g, &EventScoreConfig::default(), None);
        assert_eq!(u.all.coverage, 0.5);
        assert_eq!(u.all.err_sigma_p50, 0.0);
        assert_eq!(u.all.err_sigma_p90, f64::INFINITY);
    }

    #[test]
    fn scores_simple_offsets() {
        let g = truth_with(1, Point3::new(0.0, 0.0, 0.0));
        let events = vec![LocationEvent::new(
            Epoch(5),
            TagId(1),
            Point3::new(3.0, 4.0, 0.0),
        )];
        let s = ErrorStats::score(&events, &g);
        assert_eq!(s.n, 1);
        assert!((s.mean_x - 3.0).abs() < 1e-12);
        assert!((s.mean_y - 4.0).abs() < 1e-12);
        assert!((s.mean_xy - 5.0).abs() < 1e-12);
        assert!((s.max_xy - 5.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_tags_counted_unscored() {
        let g = truth_with(1, Point3::origin());
        let events = vec![LocationEvent::new(Epoch(0), TagId(9), Point3::origin())];
        let s = ErrorStats::score(&events, &g);
        assert_eq!(s.n, 0);
        assert_eq!(s.unscored, 1);
        assert!(s.mean_xy.is_nan());
    }

    fn ev(epoch: u64, tag: u64, x: f64, y: f64) -> LocationEvent {
        LocationEvent::new(Epoch(epoch), TagId(tag), Point3::new(x, y, 0.0))
    }

    #[test]
    fn event_score_buckets_and_f1() {
        let mut g = GroundTruth::new();
        g.set_object(TagId(1), Epoch(0), Point3::new(2.0, 1.0, 0.0));
        g.set_object(TagId(2), Epoch(0), Point3::new(2.0, 5.0, 0.0));
        g.set_object(TagId(3), Epoch(0), Point3::new(2.0, 9.0, 0.0));
        let cfg = EventScoreConfig::default();
        let events = vec![
            ev(10, 1, 2.0, 1.2),  // matched
            ev(10, 2, 2.0, 8.0),  // mislocated (3 ft off)
            ev(10, 99, 2.0, 1.0), // phantom (unknown tag)
        ];
        let s = EventScore::score(&events, &g, &cfg);
        assert_eq!(s.confusion.matched, 1);
        assert_eq!(s.confusion.mislocated, 1);
        assert_eq!(s.confusion.phantom, 1);
        assert_eq!(s.confusion.missed_tags, 2); // tags 2 and 3
        assert!((s.precision - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.recall - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.f1 - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn event_score_empty_stream_and_empty_truth() {
        let g = truth_with(1, Point3::origin());
        let cfg = EventScoreConfig::default();
        let s = EventScore::score(&[], &g, &cfg);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 0.0);
        assert_eq!(s.f1, 0.0);
        let s = EventScore::score(&[], &GroundTruth::new(), &cfg);
        assert_eq!((s.precision, s.recall, s.f1), (1.0, 1.0, 1.0));
    }

    #[test]
    fn departed_object_events_are_phantoms() {
        let mut g = GroundTruth::new();
        g.set_object(TagId(1), Epoch(0), Point3::origin());
        g.remove_object(TagId(1), Epoch(50));
        let cfg = EventScoreConfig::default();
        let s = EventScore::score(&[ev(60, 1, 0.0, 0.1)], &g, &cfg);
        assert_eq!(s.confusion.phantom, 1);
        let s = EventScore::score(&[ev(40, 1, 0.0, 0.1)], &g, &cfg);
        assert_eq!(s.confusion.matched, 1);
    }

    #[test]
    fn change_detection_delay_measured() {
        let mut g = GroundTruth::new();
        g.set_object(TagId(1), Epoch(0), Point3::new(2.0, 1.0, 0.0));
        g.set_object(TagId(1), Epoch(100), Point3::new(2.0, 7.0, 0.0));
        let cfg = EventScoreConfig::default();
        // a stale pre-move report, then a post-move detection at 130
        let events = vec![ev(105, 1, 2.0, 1.0), ev(130, 1, 2.0, 6.8)];
        let c = ChangeDetection::score(&events, &g, &cfg);
        assert_eq!(c.moves_total, 1);
        assert_eq!(c.moves_detected, 1);
        assert!((c.mean_delay_epochs - 30.0).abs() < 1e-12);
        assert_eq!(c.max_delay_epochs, 30);
        // without the matching event, the move goes undetected
        let c = ChangeDetection::score(&events[..1], &g, &cfg);
        assert_eq!(c.moves_detected, 0);
        assert_eq!(c.mean_delay_epochs, 0.0);
    }

    #[test]
    fn containment_scores_correct_shelf() {
        let layout = WarehouseLayout::linear(2, 8.0, 0.5, 2.0, 0.0);
        let mut g = GroundTruth::new();
        g.set_object(TagId(1), Epoch(0), Point3::new(2.0, 4.0, 0.0)); // shelf 0
        g.set_object(TagId(2), Epoch(0), Point3::new(2.0, 12.0, 0.0)); // shelf 1
        let events = vec![
            ev(5, 1, 2.0, 6.0),  // right shelf (even though 2 ft off)
            ev(5, 2, 2.0, 5.0),  // wrong shelf
            ev(5, 99, 2.0, 4.0), // unknown tag: not attributable
        ];
        let acc = containment_accuracy(&events, &g, &layout);
        assert!((acc - 0.5).abs() < 1e-12);
        assert!(containment_accuracy(&[], &g, &layout).is_nan());
    }
}

//! Metamorphic properties of the event-level scorer
//! ([`rfid_bench::metrics::EventScore`] / [`rfid_bench::metrics::ChangeDetection`]):
//!
//! 1. permuting event order (within an epoch, and in fact globally)
//!    leaves every score unchanged;
//! 2. scoring the ground truth against itself yields F1 = 1.0 exactly;
//! 3. adding spurious events (phantom tags, absent epochs, or
//!    locations beyond the match radius) can never raise precision.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_bench::metrics::{ChangeDetection, EventScore, EventScoreConfig};
use rfid_geom::Point3;
use rfid_sim::GroundTruth;
use rfid_stream::{Epoch, LocationEvent, TagId};

const MAX_EPOCH: u64 = 200;

/// A random ground truth: up to 8 objects, some arriving late, some
/// moving, some departing.
fn random_truth(rng: &mut StdRng) -> GroundTruth {
    let mut g = GroundTruth::new();
    let n = rng.gen_range(1usize..8);
    for t in 0..n {
        let tag = TagId(t as u64);
        let mut epoch = rng.gen_range(0u64..40);
        g.set_object(tag, Epoch(epoch), random_point(rng));
        // a few follow-up changes: moves, departures (only while
        // present), and re-arrivals
        let mut present = true;
        for _ in 0..rng.gen_range(0usize..3) {
            epoch += rng.gen_range(10u64..60);
            if present && rng.gen_bool(0.25) {
                g.remove_object(tag, Epoch(epoch));
                present = false;
            } else {
                g.set_object(tag, Epoch(epoch), random_point(rng));
                present = true;
            }
        }
    }
    g
}

fn random_point(rng: &mut StdRng) -> Point3 {
    Point3::new(2.0, rng.gen_range(0.0..20.0), 0.0)
}

/// Random events: a mix of matched, mislocated, and phantom.
fn random_events(rng: &mut StdRng, truth: &GroundTruth) -> Vec<LocationEvent> {
    let tags: Vec<TagId> = truth.object_tags().collect();
    let n = rng.gen_range(0usize..20);
    (0..n)
        .map(|_| {
            let epoch = Epoch(rng.gen_range(0u64..MAX_EPOCH));
            let tag = if rng.gen_bool(0.8) {
                tags[rng.gen_range(0..tags.len())]
            } else {
                TagId(10_000 + rng.gen_range(0u64..5)) // never in truth
            };
            let loc = match truth.object_at(tag, epoch) {
                Some(t) if rng.gen_bool(0.6) => Point3::new(
                    t.x,
                    t.y + rng.gen_range(-0.9..0.9), // near the truth
                    t.z,
                ),
                _ => random_point(rng),
            };
            LocationEvent::new(epoch, tag, loc)
        })
        .collect()
}

/// Fisher–Yates shuffle driven by the test RNG (the vendored rand
/// shim has no `SliceRandom::shuffle`).
fn shuffle(rng: &mut StdRng, events: &mut [LocationEvent]) {
    for i in (1..events.len()).rev() {
        let j = rng.gen_range(0usize..=i);
        events.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn permuting_events_leaves_scores_unchanged(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth = random_truth(&mut rng);
        let events = random_events(&mut rng, &truth);
        let cfg = EventScoreConfig::default();
        let base = EventScore::score(&events, &truth, &cfg);
        let base_change = ChangeDetection::score(&events, &truth, &cfg);
        let mut permuted = events.clone();
        shuffle(&mut rng, &mut permuted);
        prop_assert_eq!(base, EventScore::score(&permuted, &truth, &cfg));
        prop_assert_eq!(base_change, ChangeDetection::score(&permuted, &truth, &cfg));
    }

    #[test]
    fn truth_against_itself_scores_perfect_f1(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth = random_truth(&mut rng);
        // one event per object, at its exact true location, at an epoch
        // where it is present
        let mut events = Vec::new();
        for tag in truth.object_tags().collect::<Vec<_>>() {
            let epoch = (0..MAX_EPOCH)
                .map(Epoch)
                .find(|e| truth.object_at(tag, *e).is_some())
                .expect("every object is present at some epoch");
            events.push(LocationEvent::new(
                epoch,
                tag,
                truth.object_at(tag, epoch).unwrap(),
            ));
        }
        let s = EventScore::score(&events, &truth, &EventScoreConfig::default());
        prop_assert_eq!(s.precision, 1.0);
        prop_assert_eq!(s.recall, 1.0);
        prop_assert_eq!(s.f1, 1.0);
        prop_assert_eq!(s.confusion.mislocated, 0);
        prop_assert_eq!(s.confusion.phantom, 0);
        prop_assert_eq!(s.confusion.missed_tags, 0);
    }

    #[test]
    fn spurious_events_never_raise_precision(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth = random_truth(&mut rng);
        let cfg = EventScoreConfig::default();
        let events = random_events(&mut rng, &truth);
        let base = EventScore::score(&events, &truth, &cfg);
        // spurious = guaranteed non-matching: unknown tags, or known
        // tags displaced far beyond the match radius
        let mut spoiled = events.clone();
        let tags: Vec<TagId> = truth.object_tags().collect();
        for _ in 0..rng.gen_range(1usize..10) {
            let epoch = Epoch(rng.gen_range(0u64..MAX_EPOCH));
            let spurious = if rng.gen_bool(0.5) {
                LocationEvent::new(epoch, TagId(20_000), random_point(&mut rng))
            } else {
                let tag = tags[rng.gen_range(0..tags.len())];
                let y_off = cfg.match_radius_xy + rng.gen_range(0.5..30.0);
                let loc = match truth.object_at(tag, epoch) {
                    Some(t) => Point3::new(t.x, t.y + y_off, t.z),
                    None => random_point(&mut rng), // phantom either way
                };
                LocationEvent::new(epoch, tag, loc)
            };
            spoiled.push(spurious);
        }
        shuffle(&mut rng, &mut spoiled);
        let spoiled_score = EventScore::score(&spoiled, &truth, &cfg);
        prop_assert!(
            spoiled_score.precision <= base.precision,
            "precision rose: {} -> {}",
            base.precision,
            spoiled_score.precision
        );
        // and recall never drops from adding events
        prop_assert!(spoiled_score.recall >= base.recall);
    }
}

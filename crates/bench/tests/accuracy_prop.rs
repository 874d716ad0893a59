//! Metamorphic properties of the event-level scorer
//! ([`rfid_bench::metrics::EventScore`] / [`rfid_bench::metrics::ChangeDetection`]):
//!
//! 1. permuting event order (within an epoch, and in fact globally)
//!    leaves every score unchanged;
//! 2. scoring the ground truth against itself yields F1 = 1.0 exactly;
//! 3. adding spurious events (phantom tags, absent epochs, or
//!    locations beyond the match radius) can never raise precision;
//!
//! and of the uncertainty scorer ([`rfid_bench::metrics::Uncertainty`]):
//!
//! 4. inflating every published variance never lowers coverage;
//! 5. an event centred on the truth is covered, whatever its spread.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_bench::metrics::{BeliefKind, ChangeDetection, EventScore, EventScoreConfig, Uncertainty};
use rfid_geom::Point3;
use rfid_sim::GroundTruth;
use rfid_stream::{Epoch, EventStats, LocationEvent, TagId};

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

    #[test]
    fn inflating_every_variance_never_lowers_coverage(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth = random_truth(&mut rng);
        let events = random_events(&mut rng, &truth);
        let events = with_random_stats(&mut rng, events);
        let factor = 1.0 + rng.gen_range(0.0..10.0);
        let inflated: Vec<LocationEvent> = events
            .iter()
            .map(|e| {
                let mut e = *e;
                if let Some(s) = e.stats.as_mut() {
                    for v in &mut s.var {
                        *v *= factor;
                    }
                }
                e
            })
            .collect();
        let cfg = EventScoreConfig::default();
        let kind = Some(BeliefKind::of as fn(&EventStats) -> BeliefKind);
        let base = Uncertainty::score(&events, &truth, &cfg, kind);
        let wider = Uncertainty::score(&inflated, &truth, &cfg, kind);
        for (b, w) in [
            (base.all, wider.all),
            (base.active, wider.active),
            (base.compressed, wider.compressed),
        ] {
            prop_assert_eq!(b.n, w.n);
            if b.n > 0 {
                prop_assert!(
                    w.coverage >= b.coverage,
                    "coverage fell: {} -> {} (x{factor})",
                    b.coverage,
                    w.coverage
                );
            }
        }
    }

    #[test]
    fn an_event_centred_on_the_truth_is_covered(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth = random_truth(&mut rng);
        let events = random_events(&mut rng, &truth);
        let events: Vec<LocationEvent> = with_random_stats(&mut rng, events)
            .into_iter()
            .filter_map(|e| {
                let t = truth.object_at(e.tag, e.epoch)?;
                Some(LocationEvent { location: t, ..e })
            })
            .collect();
        let u = Uncertainty::score(&events, &truth, &EventScoreConfig::default(), None);
        prop_assert_eq!(u.all.n, events.len());
        if !events.is_empty() {
            prop_assert_eq!(u.all.coverage, 1.0);
            prop_assert_eq!(u.all.err_sigma_p90, 0.0);
        }
    }
}

/// Attaches statistics to every event: a spread from zero to a few
/// feet, on either axis, and now and then the engine's compressed
/// support.
fn with_random_stats(rng: &mut StdRng, events: Vec<LocationEvent>) -> Vec<LocationEvent> {
    events
        .into_iter()
        .map(|e| {
            let var = |rng: &mut StdRng| {
                if rng.gen_bool(0.1) {
                    0.0
                } else {
                    rng.gen_range(0.0..4.0)
                }
            };
            let support = if rng.gen_bool(0.3) {
                rfid_core::DECOMPRESSED_PARTICLES as f64
            } else {
                rng.gen_range(1.0..400.0)
            };
            e.with_stats(EventStats {
                var: [var(rng), var(rng), var(rng)],
                support,
            })
        })
        .collect()
}

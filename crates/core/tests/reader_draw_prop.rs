//! The one reader-index draw, `ReaderTables::sample_index`.
//!
//! A guide table over the reader's sampling CDF replaces the search a
//! draw used to make, and every draw of the engine (pointer refresh,
//! cone initialization, half respawn, decompression) goes through it.
//! None of that may be visible downstream, so this file pins:
//!
//! * the draw returns the index `cdf.partition_point(|c| *c < u)
//!   .min(n − 1)` returns **and leaves the RNG in the same state**, for
//!   every reader size and weight shape the engine meets — including
//!   `u` forced onto every bucket edge through a scripted RNG;
//! * `CompressedBelief::decompress` through the tables picks the
//!   indices the linear scan (`reference/linear_draw.rs`) picked.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rfid_core::{CompressedBelief, ReaderFilter, ReaderParticle, ReaderTables};
use rfid_geom::{Point3, Pose};
use rfid_stream::Epoch;

#[path = "reference/linear_draw.rs"]
mod linear_draw;

/// The spacing of the values `rng.gen::<f64>()` can return.
const GRID: f64 = 1.0 / (1u64 << 53) as f64;

/// An RNG whose next `f64` draws are the scripted values, in order.
struct Scripted {
    words: Vec<u64>,
    next: usize,
}

impl Scripted {
    /// `us` must lie on the generator's grid (multiples of 2⁻⁵³ in
    /// `[0, 1)`), which is every value a real draw can take.
    fn new(us: &[f64]) -> Self {
        let words = us
            .iter()
            .map(|&u| {
                assert!((0.0..1.0).contains(&u), "{u} is not a drawable value");
                let k = (u / GRID) as u64;
                assert_eq!(
                    (k as f64 * GRID).to_bits(),
                    u.to_bits(),
                    "{u} is off the grid"
                );
                k << 11
            })
            .collect();
        Self { words, next: 0 }
    }
}

impl RngCore for Scripted {
    fn next_u64(&mut self) -> u64 {
        let w = self.words[self.next];
        self.next += 1;
        w
    }
}

/// A reader filter holding exactly these log weights.
fn reader_with(log_w: &[f64]) -> ReaderFilter {
    let particles: Vec<ReaderParticle> = log_w
        .iter()
        .enumerate()
        .map(|(i, &log_w)| ReaderParticle {
            pose: Pose::new(Point3::new(i as f64, 0.0, 0.0), 0.0),
            log_w,
        })
        .collect();
    ReaderFilter::from_parts(particles, vec![0.0; log_w.len()], 0)
}

/// The draw as it was before the guide table: a binary search over the
/// sampling CDF, accumulated the way the tables accumulate it.
struct SearchDraw {
    cdf: Vec<f64>,
}

impl SearchDraw {
    fn of(reader: &ReaderFilter) -> Self {
        let mut cum = 0.0;
        let cdf = reader
            .particles()
            .iter()
            .map(|p| {
                cum += p.log_w.exp();
                cum
            })
            .collect();
        Self { cdf }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1) as u32
    }
}

/// The weight shapes of the issue, for `n` particles.
fn shapes(n: usize) -> Vec<(&'static str, Vec<f64>)> {
    let uniform = -(n as f64).ln();
    let mut rng = StdRng::seed_from_u64(n as u64);
    let mut out = vec![
        ("uniform", vec![uniform; n]),
        (
            "near-uniform",
            (0..n)
                .map(|_| uniform + 1e-3 * (rng.gen::<f64>() - 0.5))
                .collect(),
        ),
        (
            "one dominant",
            (0..n)
                .map(|i| if i == n / 3 { -1e-12 } else { -40.0 })
                .collect(),
        ),
        (
            "many -inf",
            (0..n)
                .map(|i| {
                    if i % 7 == 3 || i + 1 == n {
                        -((n / 7 + 1) as f64).ln()
                    } else {
                        f64::NEG_INFINITY
                    }
                })
                .collect(),
        ),
        (
            // exp(−745) is the smallest denormal, exp(−720) a larger one
            "denormal",
            (0..n)
                .map(|i| match i % 3 {
                    0 => -745.0,
                    1 => -720.0,
                    _ => -((n / 3 + 1) as f64).ln(),
                })
                .collect(),
        ),
        (
            // the total stops at 0.9: draws above it take the clamp
            "short of 1",
            vec![(0.9 / n as f64).ln(); n],
        ),
        (
            // nothing but the last particle: the clamp is the answer
            // for every draw above a denormal
            "all mass missing",
            vec![-745.0; n],
        ),
    ];
    if n.is_power_of_two() {
        // weights 1/n exactly: every CDF entry sits on a bucket edge
        out.push(("dyadic", vec![(1.0 / n as f64).ln(); n]));
    }
    out
}

/// Reader sizes: `TrustReports` builds a one-particle filter every
/// epoch; 2; the default 100; and one above the largest guide.
fn sizes() -> [usize; 4] {
    let largest = ReaderTables::guide_buckets(1 << 20);
    assert_eq!(ReaderTables::guide_buckets(largest + 1), largest);
    [1, 2, 100, largest + 1]
}

/// Drawable values around `v`: the grid point at or below it and both
/// grid neighbours (from 0.5 up these are `v`'s float neighbours).
fn around(v: f64, out: &mut Vec<f64>) {
    let k = (v / GRID).floor();
    for step in [-1.0, 0.0, 1.0] {
        let u = (k + step) * GRID;
        if (0.0..1.0).contains(&u) {
            out.push(u);
        }
    }
}

#[test]
fn scripted_draws_on_every_edge_match_the_search() {
    for n in sizes() {
        for (shape, log_w) in shapes(n) {
            let reader = reader_with(&log_w);
            let tables = reader.tables();
            let search = SearchDraw::of(&reader);
            let buckets = ReaderTables::guide_buckets(n);

            let mut us = vec![0.0, 1.0 - GRID];
            for b in 0..buckets {
                around(b as f64 / buckets as f64, &mut us);
            }
            for &c in &search.cdf {
                around(c, &mut us);
            }

            let mut fast = Scripted::new(&us);
            let mut plain = Scripted::new(&us);
            for &u in &us {
                let got = tables.sample_index(&mut fast);
                let want = search.sample(&mut plain);
                assert_eq!(got, want, "n {n} {shape}: u = {u:e}");
                assert_eq!(fast.next, plain.next, "n {n} {shape}: draws consumed");
            }
        }
    }
}

#[test]
fn guide_size_is_a_power_of_two_for_every_reader_size() {
    for n in 1..3000 {
        let k = ReaderTables::guide_buckets(n);
        assert!(k.is_power_of_two(), "{n} particles: {k} buckets");
    }
    // the operating point of the benchmark and the paper
    assert_eq!(ReaderTables::guide_buckets(100), 1024);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn seeded_draws_match_the_search_and_leave_the_same_rng(seed in any::<u64>()) {
        for n in sizes() {
            for (shape, log_w) in shapes(n) {
                let reader = reader_with(&log_w);
                let tables = reader.tables();
                let search = SearchDraw::of(&reader);
                let mut fast = StdRng::seed_from_u64(seed);
                let mut plain = StdRng::seed_from_u64(seed);
                for draw in 0..64 {
                    let got = tables.sample_index(&mut fast);
                    let want = search.sample(&mut plain);
                    prop_assert_eq!(got, want, "n {} {}: seed {} draw {}", n, shape, seed, draw);
                }
                prop_assert_eq!(fast.gen::<u64>(), plain.gen::<u64>(), "rng state");
            }
        }
    }

    /// Weights the filter itself produced: normalized, a few decades
    /// apart, some dead.
    #[test]
    fn draws_over_normalized_random_weights_match_the_linear_scan(
        seed in any::<u64>(),
        n in 1usize..300,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log_w: Vec<f64> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    f64::NEG_INFINITY
                } else {
                    rng.gen::<f64>().ln() * 6.0
                }
            })
            .collect();
        log_w[n / 2] = 0.0;
        rfid_core::log_normalize(&mut log_w);
        let reader = reader_with(&log_w);
        let tables = reader.tables();
        let mut fast = StdRng::seed_from_u64(seed ^ 1);
        let mut linear = StdRng::seed_from_u64(seed ^ 1);
        for draw in 0..200 {
            prop_assert_eq!(
                tables.sample_index(&mut fast),
                linear_draw::sample_index(&reader, &mut linear),
                "n {} seed {} draw {}", n, seed, draw
            );
        }
        prop_assert_eq!(fast.gen::<u64>(), linear.gen::<u64>(), "rng state");
    }
}

#[test]
fn decompress_picks_the_indices_of_the_linear_scan() {
    let cloud: Vec<(f64, Point3)> = (0..200)
        .map(|i| {
            (
                1.0 / 200.0,
                Point3::new(
                    5.0 + (i % 7) as f64 * 0.01,
                    5.0 + (i % 5) as f64 * 0.01,
                    0.0,
                ),
            )
        })
        .collect();
    let belief = CompressedBelief::compress(&cloud, Epoch(0)).expect("weighted cloud");
    for n_reader in [1usize, 2, 100] {
        for (shape, log_w) in shapes(n_reader) {
            let reader = reader_with(&log_w);
            for seed in 0..8u64 {
                let mut fast = StdRng::seed_from_u64(seed);
                let mut linear = StdRng::seed_from_u64(seed);
                let f = belief.decompress(10, &reader.tables(), 3, &mut fast);
                assert_eq!(f.len(), 10);
                for (i, p) in f.iter_particles().enumerate() {
                    let loc = belief.gaussian().sample(&mut linear);
                    let idx = linear_draw::sample_index(&reader, &mut linear);
                    let ctx = format!("{n_reader} readers {shape}: seed {seed} particle {i}");
                    assert_eq!(p.reader_idx, idx, "{ctx}");
                    assert_eq!(p.loc.x.to_bits(), loc.x.to_bits(), "{ctx}");
                    assert_eq!(p.loc.y.to_bits(), loc.y.to_bits(), "{ctx}");
                    assert_eq!(p.loc.z.to_bits(), loc.z.to_bits(), "{ctx}");
                }
                assert_eq!(fast.gen::<u64>(), linear.gen::<u64>(), "rng state");
            }
        }
    }
}

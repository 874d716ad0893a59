//! The one resampler, `systematic_resample`, against the plain loop.
//!
//! The library writes systematic resampling as a merge of the running
//! weight sums against the evenly spaced pointers, several advance
//! tests per probe with the verdicts added rather than branched on. The
//! plain statement below is the loop it replaced: for each pointer,
//! advance while `cum + probs[i] < u` and a later index exists, then
//! take the index. This file pins the two to the same ancestors **and
//! the same RNG state** over every weight shape the engine can hand the
//! resampler: normalized clouds, zeros (dead particles, leading and
//! trailing), one survivor, NaN members, a total that falls short of
//! one, and pointer counts `n` other than the weight count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_core::systematic_resample;

/// Systematic resampling the plain way.
fn plain(probs: &[f64], n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut out = Vec::with_capacity(n);
    let step = 1.0 / n as f64;
    let mut u = rng.gen::<f64>() * step;
    let mut cum = 0.0;
    let mut i = 0usize;
    for _ in 0..n {
        while cum + probs[i] < u && i + 1 < probs.len() {
            cum += probs[i];
            i += 1;
        }
        out.push(i as u32);
        u += step;
    }
    out
}

/// Both resamplers from the same seed: equal ancestors, ascending, and
/// the RNG left in the same state. `bufs` is one pair of buffers reused
/// across calls, so an entry a longer call left behind would show.
fn check(probs: &[f64], n: usize, seed: u64, bufs: &mut (Vec<u32>, Vec<f64>), ctx: &str) {
    let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let want = plain(probs, n, &mut a);
    let (ancestors, sums) = bufs;
    systematic_resample(probs, n, ancestors, sums, &mut b);
    assert_eq!(*ancestors, want, "{ctx}: n {n} seed {seed} probs {probs:?}");
    assert!(ancestors.windows(2).all(|p| p[0] <= p[1]), "{ctx}");
    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{ctx}: rng state");
}

/// `len` weights of one of several shapes, normalized to sum to one
/// where the shape has a positive total.
fn weights(rng: &mut StdRng, len: usize, shape: u8) -> Vec<f64> {
    let mut w: Vec<f64> = match shape {
        // a spread cloud
        0 => (0..len).map(|_| rng.gen::<f64>()).collect(),
        // heavy-tailed: most mass on a few
        1 => (0..len).map(|_| rng.gen::<f64>().powi(12)).collect(),
        // a third of the particles dead
        2 => (0..len)
            .map(|_| {
                if rng.gen_range(0..3u8) == 0 {
                    0.0
                } else {
                    rng.gen()
                }
            })
            .collect(),
        // one survivor, anywhere
        3 => {
            let mut w = vec![0.0; len];
            w[rng.gen_range(0..len)] = 1.0;
            w
        }
        // equal weights
        _ => vec![1.0; len],
    };
    let total: f64 = w.iter().sum();
    if total > 0.0 {
        for x in &mut w {
            *x /= total;
        }
    }
    w
}

#[test]
fn edge_shapes_match_the_plain_loop() {
    let mut bufs = (Vec::new(), Vec::new());
    let cases: [(&str, &[f64]); 12] = [
        ("one weight", &[1.0]),
        ("one survivor first", &[1.0, 0.0, 0.0, 0.0]),
        ("one survivor last", &[0.0, 0.0, 0.0, 1.0]),
        ("one survivor inside", &[0.0, 0.0, 1.0, 0.0, 0.0]),
        ("leading and trailing zeros", &[0.0, 0.0, 0.3, 0.7, 0.0]),
        ("all zero", &[0.0; 6]),
        ("NaN first", &[f64::NAN, 0.5, 0.5]),
        ("NaN inside", &[0.25, 0.25, f64::NAN, 0.5]),
        ("NaN last", &[0.5, 0.5, f64::NAN]),
        ("total short of one", &[0.2, 0.2, 0.2]),
        ("total past one", &[0.6, 0.6, 0.6]),
        ("infinite member", &[0.1, f64::INFINITY, 0.1]),
    ];
    for (name, probs) in cases {
        for n in [1, 2, probs.len(), 2 * probs.len() + 1, 7, 64] {
            for seed in 0..8 {
                check(probs, n, seed, &mut bufs, name);
            }
        }
    }
}

#[test]
fn engine_sized_clouds_match_the_plain_loop() {
    // the object step's shape: 1,000 weights, 1,000 pointers
    let mut bufs = (Vec::new(), Vec::new());
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = weights(&mut rng, 1000, (seed % 5) as u8);
        check(&w, 1000, seed, &mut bufs, "1000 x 1000");
    }
}

proptest! {
    #[test]
    fn random_clouds_match_the_plain_loop(
        seed in any::<u64>(),
        len in 1usize..200,
        n in 1usize..400,
        shape in 0u8..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = weights(&mut rng, len, shape);
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let want = plain(&w, n, &mut a);
        let (mut got, mut sums) = (vec![u32::MAX; 3], vec![f64::NAN; 5]);
        systematic_resample(&w, n, &mut got, &mut sums, &mut b);
        prop_assert_eq!(got, want, "len {} n {} shape {}", len, n, shape);
        prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "rng state");
    }
}

//! The math library the goldens were blessed under, pinned by value.
//!
//! Rust's `f64` transcendental methods call the platform's libm, and
//! IEEE 754 does not require those functions to be correctly rounded:
//! two conforming libms may return results one ulp apart. The golden
//! digests (`tests/golden/*.txt`), the literal digests of
//! `crates/core/tests/determinism.rs` and `BENCH_accuracy.json` depend
//! on every such bit — a one-ulp change in a weight can flip a resample,
//! and the stream diverges from there. This suite hashes each function
//! the engine calls, swept over the domain the engine uses, to one
//! FNV-1a literal. On a host where a golden moves, it names the
//! function whose results moved; if it passes there, the drift is the
//! source's.
//!
//! - `exp` on `[−745, 0]`: reader weights, the logistic sensor's
//!   sigmoid, log-space fallbacks (every argument is a log weight or a
//!   negated magnitude);
//! - `ln` on `(0, 1]`, every binade from the smallest subnormal up:
//!   Box–Muller draws, log weights of probabilities;
//! - `acos` on `[−1, 1]`: the cone sensor's minor band, bearings;
//! - `sin` and `cos` on `[−2π, 2π]`: headings, cone sampling,
//!   Box–Muller.
//!
//! Each sweep is `POINTS` arguments, both ends included: evenly spaced
//! values, or for `ln` evenly spaced bit patterns (so every binade gets
//! its share).

use rfid_repro::stream::digest::{fnv1a, FNV_OFFSET};
use std::f64::consts::PI;

/// Arguments per function.
const POINTS: usize = 100_003;

/// FNV-1a over the result bits of `f` at `POINTS` evenly spaced
/// arguments in `[lo, hi]`.
fn sweep(lo: f64, hi: f64, f: fn(f64) -> f64) -> u64 {
    let step = (hi - lo) / (POINTS - 1) as f64;
    hash((0..POINTS).map(|i| {
        let x = if i == POINTS - 1 {
            hi
        } else {
            lo + step * i as f64
        };
        f(x)
    }))
}

/// [`sweep`] over evenly spaced bit patterns between those of two
/// positive arguments.
fn sweep_bits(lo: f64, hi: f64, f: fn(f64) -> f64) -> u64 {
    let (a, b) = (lo.to_bits(), hi.to_bits());
    let step = (b - a) / (POINTS as u64 - 1);
    hash((0..POINTS as u64).map(|i| {
        let bits = if i == POINTS as u64 - 1 {
            b
        } else {
            a + step * i
        };
        f(f64::from_bits(bits))
    }))
}

fn hash(values: impl Iterator<Item = f64>) -> u64 {
    values.fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

/// The argument grid itself, so a failure can tell a moved argument
/// (float arithmetic, which IEEE 754 fixes) from a moved result.
#[test]
fn the_argument_grids_are_the_blessed_ones() {
    assert_eq!(sweep(-745.0, 0.0, |x| x), 0x3000_876c_38bb_8dab);
    assert_eq!(sweep_bits(5e-324, 1.0, |x| x), 0x6d26_d6e2_5e42_2d1c);
    assert_eq!(sweep(-1.0, 1.0, |x| x), 0x788e_fb41_a543_8853);
    assert_eq!(sweep(-2.0 * PI, 2.0 * PI, |x| x), 0x14a4_4b38_0862_4b98);
}

#[test]
fn exp_returns_the_blessed_bits() {
    assert_eq!(sweep(-745.0, 0.0, f64::exp), 0xb965_2305_1303_481f);
}

#[test]
fn ln_returns_the_blessed_bits() {
    assert_eq!(sweep_bits(5e-324, 1.0, f64::ln), 0xa6ac_2bf8_d7be_fed5);
}

#[test]
fn acos_returns_the_blessed_bits() {
    assert_eq!(sweep(-1.0, 1.0, f64::acos), 0x7935_bea0_7718_7a83);
}

#[test]
fn sin_returns_the_blessed_bits() {
    assert_eq!(sweep(-2.0 * PI, 2.0 * PI, f64::sin), 0x1561_772e_9791_8fcd);
}

#[test]
fn cos_returns_the_blessed_bits() {
    assert_eq!(sweep(-2.0 * PI, 2.0 * PI, f64::cos), 0x3503_a27c_d55b_9b61);
}

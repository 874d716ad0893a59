//! Per-object step plumbing: reproducible RNG streams and reusable
//! scratch.
//!
//! The factored decomposition (Eq. 5) makes the per-epoch object
//! updates independent given the reader filter: each object only reads
//! the (frozen) reader particle list and mutates its own particle set.
//! The engine steps the objects one after another on the calling
//! thread, in tag order; this module supplies what a step needs from
//! outside its object:
//!
//! 1. **Per-task RNG streams** ([`task_rng`]): every object step draws
//!    from its own `StdRng` seeded from `(master_seed, tag, epoch)`.
//!    The random numbers an object consumes are therefore a function of
//!    *what* is being stepped, not of *when or where* it runs — which is
//!    what lets `rfid_core::engine::cluster` split whole engines by
//!    `tag % N` across processes and still emit the single-process
//!    event stream bit for bit.
//! 2. **Scratch buffers** ([`StepScratch`]): the joint-probability
//!    buffer, the weight pass's products, columns and compaction list,
//!    the resampler's running sums and ancestor list, and the cone
//!    sampler's boxes are owned by the engine and reused across objects
//!    and epochs, so the steady-state step path performs no heap
//!    allocation. The object weights are probabilities, so a step's
//!    arithmetic is multiplications, sums and divisions over these
//!    buffers; `exp` and `ln` run only on the log-space fallback for a
//!    sum that underflows.
//!
//! More cores are spent one level up, on cluster workers (one engine
//! per `tag % N` partition; 1.28× with two workers on the benchmark's
//! `cluster_scan`). An in-process fork/join over the step queue was
//! measured and deleted (EXPERIMENTS.md PR 14 and PR 16): with the
//! spatial index on it was inside noise on a 2,000-object cold scan and
//! cost a third to a half of the throughput on a 200-object patrol.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scratch for one object step. Buffers grow to the particle
/// count on first use and are reused afterwards.
#[derive(Debug, Default, Clone)]
pub struct StepScratch {
    /// The reader's weights in probability space, exponentiated by the
    /// compression sweep's weighted cloud (a step reads the epoch's
    /// `ReaderTables::probs` instead).
    pub(crate) reader_probs: Vec<f64>,
    /// The joint probabilities: the object weights times the reader
    /// weights, divided by their sum — shared by the support staging,
    /// the ESS decision, the resampler and the moment estimate.
    pub probs: Vec<f64>,
    /// The resampler's ancestor of every slot, ascending.
    pub(crate) ancestors: Vec<u32>,
    /// The weight pass's products, weight times likelihood (the log
    /// weights, if the step falls back to log space); a resample then
    /// holds its running sums and pointers here, and gathers each
    /// coordinate column through it.
    pub(crate) incr: Vec<f64>,
    /// The particles whose likelihood the weight pass computes exactly
    /// (their verdicts first, compacted in place); a resample then
    /// gathers the pointer column through it.
    pub(crate) pending: Vec<u32>,
    /// The weight pass's columns, one entry per particle: the pointed-to
    /// reader particle's position (`x`, `y`, `z`) and heading trig
    /// (`cos φ`, `sin φ`), then the classifier's distance and bearing
    /// cosine.
    pub(crate) cols: [Vec<f64>; 7],
    /// Cone initialization's legal box per reader particle, built the
    /// first time a particle is drawn (`None` until then).
    pub(crate) cone_boxes: Vec<Option<[f64; 4]>>,
}

/// Mixes `(master_seed, tag, epoch)` into a single seed word with a
/// SplitMix64-style avalanche, so neighbouring tags and epochs land in
/// unrelated streams.
pub(crate) fn stream_seed(master_seed: u64, tag: u64, epoch: u64) -> u64 {
    let mut h = master_seed ^ 0x9E37_79B9_7F4A_7C15;
    for word in [tag, epoch] {
        h ^= word.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 29;
    }
    h
}

/// The RNG for one object step: a fresh `StdRng` on the
/// `(master_seed, tag, epoch)` stream.
pub(crate) fn task_rng(master_seed: u64, tag: u64, epoch: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(master_seed, tag, epoch))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_distinct_and_stable() {
        let a = stream_seed(7, 1, 1);
        assert_eq!(a, stream_seed(7, 1, 1), "pure function");
        // neighbouring tags/epochs/seeds all diverge
        assert_ne!(a, stream_seed(7, 2, 1));
        assert_ne!(a, stream_seed(7, 1, 2));
        assert_ne!(a, stream_seed(8, 1, 1));
        // tag/epoch must not be interchangeable
        assert_ne!(stream_seed(7, 3, 5), stream_seed(7, 5, 3));
    }
}

//! Deterministic execution of per-object updates — sequential or
//! parallel, same bits.
//!
//! The factored decomposition (Eq. 5) makes the per-epoch object
//! updates independent given the reader filter: each object only reads
//! the (frozen) reader particle list and mutates its own particle set.
//! This module supplies the three ingredients the engine needs to
//! exploit that without giving up reproducibility:
//!
//! 1. **Per-task RNG streams** ([`task_rng`]): every object step draws
//!    from its own `StdRng` seeded from `(master_seed, tag, epoch)`.
//!    The random numbers an object consumes are therefore a function of
//!    *what* is being stepped, not of *when or where* it runs — the
//!    emitted event stream is bit-identical for any `worker_threads`,
//!    including 1 (the default).
//! 2. **Scratch buffers** ([`StepScratch`], [`WorkerScratch`]): the
//!    joint-probability buffer, the resampling-count buffer, and the
//!    staged reader-support matrix are owned per worker and reused
//!    across epochs, so the steady-state step path performs no heap
//!    allocation.
//! 3. **A deterministic fork/join primitive** ([`parallel_chunks`],
//!    [`chunk_ranges`]): tasks are partitioned into contiguous chunks
//!    (`std::thread::scope`, no dependencies), and side effects that
//!    must merge into shared state (reader support, engine statistics)
//!    are *staged* per task and folded back on the calling thread in
//!    task order — the floating-point reduction order is fixed
//!    regardless of the worker count.
//!
//! Choosing `worker_threads`: object stepping is compute-bound (sensor
//! likelihoods per particle), so a good default for large workloads is
//! the number of physical cores, capped by the typical active-set size
//! — workers beyond `|active set|` idle. Small active sets (spatial
//! indexing at its best) are dominated by the reader update; keep
//! `worker_threads = 1` there and spend the cores on cluster workers
//! (`rfid_core::engine::cluster`, one engine per `tag % N` partition)
//! instead. Recorded on a 2-vCPU box (EXPERIMENTS.md PR 14): 2 threads
//! are 1.4× with the index off; with it on they make no resolvable
//! difference on a 2,000-object cold scan and cost a third of the
//! throughput on a 200-object patrol of 10-particle steps.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// Per-worker scratch for one object step. Buffers grow to the particle
/// count on first use and are reused afterwards.
#[derive(Debug, Default, Clone)]
pub struct StepScratch {
    /// Normalized joint (object × reader) log weights — written only
    /// by the log-space joint pass (first-sighting estimates and the
    /// step's underflow fallback), never by an ordinary step.
    pub joint: Vec<f64>,
    /// The step's one probability buffer: first `exp(log_w − max)` from
    /// the object-weight normalization, then — multiplied by the reader
    /// weights and divided by the sum — the joint probabilities shared
    /// by the support staging, the ESS decision, the resampler and the
    /// moment estimate.
    pub probs: Vec<f64>,
    /// Systematic-resampling replication counts.
    pub counts: Vec<u32>,
}

/// Everything one worker owns across its chunk of object steps.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// Step buffers (joint probabilities, resample counts).
    pub step: StepScratch,
    /// Staged reader support: one dense `reader.len()`-sized row per
    /// task in this worker's chunk, merged into the reader filter in
    /// global task order after the join.
    pub staged_support: Vec<f64>,
}

/// Mixes `(master_seed, tag, epoch)` into a single seed word with a
/// SplitMix64-style avalanche, so neighbouring tags and epochs land in
/// unrelated streams.
pub fn stream_seed(master_seed: u64, tag: u64, epoch: u64) -> u64 {
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
pub fn task_rng(master_seed: u64, tag: u64, epoch: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(master_seed, tag, epoch))
}

/// Splits `0..n` into `workers` contiguous near-equal ranges (the first
/// `n % workers` ranges are one longer). Ranges can be empty when
/// `workers > n`; the partition depends only on `(n, workers)`.
pub fn chunk_ranges(n: usize, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let workers = workers.max(1);
    let base = n / workers;
    let rem = n % workers;
    (0..workers).map(move |i| {
        let start = i * base + i.min(rem);
        let len = base + usize::from(i < rem);
        start..start + len
    })
}

/// Runs `f` over every task, fanning the tasks out across
/// `scratches.len()` workers in contiguous chunks. `f` receives the
/// task's *global* index, its *chunk-local* index (the row into any
/// per-chunk staging buffer), the task, and the worker's scratch.
///
/// With one worker (or one task) everything runs on the calling thread
/// — no spawn, no overhead. Correctness does not depend on the worker
/// count: any cross-task side effects must be staged inside the task or
/// scratch and merged by the caller afterwards.
pub fn parallel_chunks<T, W, F>(tasks: &mut [T], scratches: &mut [W], f: F)
where
    T: Send,
    W: Send,
    F: Fn(usize, usize, &mut T, &mut W) + Sync,
{
    let workers = scratches.len().min(tasks.len()).max(1);
    if workers <= 1 {
        let scratch = scratches.first_mut().expect("at least one scratch");
        for (i, task) in tasks.iter_mut().enumerate() {
            f(i, i, task, scratch);
        }
        return;
    }
    let n = tasks.len();
    std::thread::scope(|scope| {
        let mut rest = tasks;
        let mut scratch_rest = scratches;
        let f = &f;
        let mut first: Option<(&mut [T], &mut W, usize)> = None;
        for range in chunk_ranges(n, workers) {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let (scratch, scratch_tail) = scratch_rest.split_first_mut().expect("worker scratch");
            scratch_rest = scratch_tail;
            let start = range.start;
            if first.is_none() {
                // the calling thread works the first chunk itself
                // instead of idling behind `workers` spawns
                first = Some((chunk, scratch, start));
                continue;
            }
            scope.spawn(move || {
                for (local, task) in chunk.iter_mut().enumerate() {
                    f(start + local, local, task, scratch);
                }
            });
        }
        let (chunk, scratch, start) = first.expect("workers >= 2 implies a first chunk");
        for (local, task) in chunk.iter_mut().enumerate() {
            f(start + local, local, task, scratch);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 5, 16, 17, 100] {
            for workers in [1usize, 2, 3, 4, 7] {
                let ranges: Vec<_> = chunk_ranges(n, workers).collect();
                assert_eq!(ranges.len(), workers);
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous n={n} w={workers}");
                    next = r.end;
                }
                assert_eq!(next, n, "complete n={n} w={workers}");
                let (max, min) = (
                    ranges.iter().map(|r| r.len()).max().unwrap(),
                    ranges.iter().map(|r| r.len()).min().unwrap(),
                );
                assert!(max - min <= 1, "balanced n={n} w={workers}");
            }
        }
    }

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

    #[test]
    fn task_rng_streams_are_independent_of_worker_count() {
        // the same tasks produce the same draws whether run on 1, 2, or
        // 4 workers
        let run = |workers: usize| -> Vec<u64> {
            let mut tasks: Vec<(u64, u64)> = (0..13).map(|t| (t, 0)).collect();
            let mut scratches: Vec<WorkerScratch> =
                (0..workers).map(|_| WorkerScratch::default()).collect();
            parallel_chunks(&mut tasks, &mut scratches, |_, _, task, _| {
                task.1 = task_rng(42, task.0, 9).gen::<u64>();
            });
            tasks.into_iter().map(|(_, draw)| draw).collect()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    #[test]
    fn parallel_chunks_preserves_task_order_side_effects() {
        let mut tasks: Vec<usize> = vec![0; 101];
        let mut scratches: Vec<WorkerScratch> = (0..4).map(|_| WorkerScratch::default()).collect();
        parallel_chunks(&mut tasks, &mut scratches, |i, _, task, _| {
            *task = i * 3;
        });
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(*t, i * 3);
        }
    }
}

//! Verifies the acceptance criterion that the steady-state object step
//! performs **zero heap allocations** for an active, non-resampling
//! object: a counting global allocator brackets the hot path
//! (pointer refresh → predict → fused weight/estimate) after a warm-up
//! step has grown the scratch buffers. The last measured epoch also
//! fires a belief compression the way the engine's sweep does — the
//! weighted cloud built into caller-owned buffers, the Gaussian fitted
//! and its loss computed — which must not allocate either.
//!
//! The bracket also covers the observability layer: every metric kind
//! (counter add, gauge high-water, histogram record) and the
//! slow-epoch threshold gate are exercised inside the measured loop
//! against pre-registered handles — instrumentation must stay atomic
//! operations only, never an allocation.
//!
//! Both sensor shapes are bracketed: the logistic model, weighed one
//! call per particle, and the paper's cone, whose weight pass gathers,
//! classifies and compacts through the scratch's columns.
//!
//! This file contains exactly one `#[test]` so no concurrent test can
//! disturb the allocation counter.

// The workspace denies unsafe code; a global allocator shim is the one
// place a counting test cannot avoid it. The implementation only
// forwards to `System` around an atomic counter.
#![allow(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_core::{CompressedBelief, ObjectFilter, ReaderFilter, StepScratch};
use rfid_geom::{Point3, Pose};
use rfid_model::{BoxPrior, ConeSensor, JointModel, ModelParams};
use rfid_stream::Epoch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_object_step_allocates_nothing() {
    let model = JointModel::new(ModelParams::default_warehouse());
    let prior = BoxPrior::new(rfid_geom::Aabb::new(
        Point3::new(-20.0, -20.0, 0.0),
        Point3::new(20.0, 20.0, 0.0),
    ));
    let reader = ReaderFilter::new(50, Pose::identity());
    // per-epoch reader tables (sampling CDF and guide, weights,
    // heading trig): the engine builds them once per epoch into reused
    // buffers
    let tables = reader.tables();
    let mut rng = StdRng::seed_from_u64(99);
    let mut scratch = StepScratch::default();
    let mut filter = ObjectFilter::init_from_cone(
        &reader,
        &tables,
        4.0,
        0.6,
        500,
        0,
        Some(&prior),
        &mut scratch,
        &mut rng,
    );
    let cone = JointModel::with_sensor(
        ConeSensor::paper_default(),
        ModelParams::default_warehouse(),
    );
    let mut cone_filter = ObjectFilter::init_from_cone(
        &reader,
        &tables,
        5.0,
        0.6,
        500,
        0,
        Some(&prior),
        &mut scratch,
        &mut rng,
    );
    let mut support = vec![0.0f64; reader.len()];

    // metric handles registered before measurement (registration
    // allocates once; recording must not allocate at all)
    let reg = rfid_obs::global();
    let steps_total = reg.counter("alloc_free_steps_total");
    let step_stamp_hw = reg.gauge("alloc_free_stamp_high_water");
    let step_us = reg.histogram("alloc_free_step_us");

    // warm-up: grows the probs buffer to the particle count (a
    // resampling step warms the ancestor list and the gather spares too)
    filter.refresh_pointers(&tables, 1, &mut rng);
    filter.step_fused(
        &model,
        &reader,
        &tables,
        true,
        1.0, // force one resample so the resampler's buffers are sized
        &mut scratch,
        &mut support,
        &mut rng,
    );
    cone_filter.step_fused(
        &cone,
        &reader,
        &tables,
        true,
        0.0,
        &mut scratch,
        &mut support,
        &mut rng,
    );
    // ... and one cloud build sizes the compression sweep's buffers
    let mut cloud = Vec::new();
    filter.weighted_cloud_into(&reader, &mut scratch, &mut cloud);

    // measured steady state: pointer refresh + predict + fused step
    // over several epochs. ess_frac = 0.0 never resamples (the
    // criterion is about the active, non-resampling steady state;
    // resampling itself is also in-place and allocation-free, but the
    // post-resample estimate recompute is exercised above instead).
    //
    // The counter is process-global, and the libtest harness thread may
    // allocate concurrently (it is idle while a test runs, but not
    // provably silent under machine load). A real hot-path allocation
    // fires on *every* attempt, so retry a few times and require one
    // clean pass.
    let mut best = usize::MAX;
    for attempt in 0..3 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for stamp in 2..12u64 {
            let stamp = stamp + attempt * 100;
            let read = stamp % 2 == 0;
            filter.refresh_pointers(&tables, stamp, &mut rng);
            filter.predict(&model, &prior, read, &mut rng);
            support.fill(0.0);
            let out = filter.step_fused(
                &model,
                &reader,
                &tables,
                read,
                0.0,
                &mut scratch,
                &mut support,
                &mut rng,
            );
            assert!(!out.resampled);
            assert!(out.estimate.0.x.is_finite());
            support.fill(0.0);
            let out = cone_filter.step_fused(
                &cone,
                &reader,
                &tables,
                read,
                0.0,
                &mut scratch,
                &mut support,
                &mut rng,
            );
            assert!(!out.resampled);
            // the full instrumentation surface, inside the bracket:
            // every record path and the engine's slow-epoch gate
            steps_total.inc();
            step_stamp_hw.record_max(stamp);
            step_us.record(stamp);
            assert_eq!(rfid_obs::trace().slow_epoch_us(), 0);
            // the epoch in which the compression sweep reaches this
            // object
            if stamp % 100 == 11 {
                filter.weighted_cloud_into(&reader, &mut scratch, &mut cloud);
                let c = CompressedBelief::compress(&cloud, Epoch(stamp)).expect("weighted cloud");
                assert!(c.mean.is_finite());
            }
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        best = best.min(after - before);
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best, 0,
        "steady-state step_object hot path allocated {best} times on every attempt"
    );
}

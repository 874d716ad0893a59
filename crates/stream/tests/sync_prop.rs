//! Property: pushing a trace through [`StreamSynchronizer`]
//! incrementally — readings shuffled within epochs, items held back
//! across epoch boundaries (out-of-order between the two streams),
//! `drain_ready` called at random points — yields *exactly* the batches
//! of the one-shot [`synchronize`] over the trace's items merged in
//! time order. Items are held back by at most one epoch, within the
//! skew bound, so nothing is late; this is the contract that the
//! pipeline and every batch reference read the same synchronizer.
//!
//! Within-epoch report order is preserved (their averaged pose is a
//! float sum, so reordering would change the last ulp); everything else
//! is adversarially scrambled.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_geom::{Point3, Pose};
use rfid_stream::{
    synchronize, EpochBatch, ReaderLocationReport, RfidReading, StreamItem, StreamSynchronizer,
    TagId,
};

/// One generated epoch of raw data, already time-sorted internally.
struct EpochData {
    readings: Vec<RfidReading>,
    reports: Vec<ReaderLocationReport>,
}

fn generate_epochs(rng: &mut StdRng, epoch_len: f64) -> Vec<EpochData> {
    let n_epochs = rng.gen_range(1usize..10);
    (0..n_epochs)
        .map(|e| {
            let base = e as f64 * epoch_len;
            let n_read = rng.gen_range(0usize..6);
            let n_rep = rng.gen_range(0usize..4);
            let mut readings: Vec<RfidReading> = (0..n_read)
                .map(|_| RfidReading {
                    time: base + rng.gen_range(0.0..epoch_len * 0.999),
                    tag: TagId(rng.gen_range(0u64..8)),
                })
                .collect();
            readings.sort_by(|a, b| a.time.total_cmp(&b.time));
            let mut reports: Vec<ReaderLocationReport> = (0..n_rep)
                .map(|_| ReaderLocationReport {
                    time: base + rng.gen_range(0.0..epoch_len * 0.999),
                    pose: Pose::new(
                        Point3::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0), 0.0),
                        rng.gen_range(-3.0..3.0),
                    ),
                })
                .collect();
            reports.sort_by(|a, b| a.time.total_cmp(&b.time));
            EpochData { readings, reports }
        })
        .collect()
}

fn time(item: &StreamItem) -> f64 {
    match item {
        StreamItem::Reading(r) => r.time,
        StreamItem::Report(p) => p.time,
    }
}

fn assert_batches_equal(expect: &[EpochBatch], got: &[EpochBatch]) {
    assert_eq!(expect.len(), got.len(), "batch counts differ");
    for (a, b) in expect.iter().zip(got) {
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.readings, b.readings);
        match (&a.reader_report, &b.reader_report) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                // bit-level: the report sums must have been accumulated
                // in the same order
                assert_eq!(x.pos.x.to_bits(), y.pos.x.to_bits());
                assert_eq!(x.pos.y.to_bits(), y.pos.y.to_bits());
                assert_eq!(x.phi.to_bits(), y.phi.to_bits());
            }
            _ => panic!("report presence differs at {:?}", a.epoch),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn scrambled_incremental_push_matches_one_shot_sync(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let epoch_len = [0.5, 1.0, 2.0][rng.gen_range(0usize..3)];
        let epochs = generate_epochs(&mut rng, epoch_len);

        // expected: the one-shot over the items merged in time order
        // (a stable sort: ties go to the reading, each stream keeps its
        // order)
        let mut merged: Vec<StreamItem> = epochs
            .iter()
            .flat_map(|e| e.readings.iter().map(|r| StreamItem::Reading(*r)))
            .chain(epochs.iter().flat_map(|e| e.reports.iter().map(|p| StreamItem::Report(*p))))
            .collect();
        merged.sort_by(|a, b| time(a).total_cmp(&time(b)));
        let expect = synchronize(merged.into_iter(), epoch_len);

        // incremental: scramble within the safety envelope —
        //  * readings of an epoch in random order,
        //  * a random suffix of each epoch's items held back and pushed
        //    *after* the next epoch's readings (cross-epoch disorder),
        //  * drain_ready() after ~every third push.
        let mut sync = StreamSynchronizer::new(epoch_len);
        let mut got: Vec<EpochBatch> = Vec::new();
        let mut held_readings: Vec<RfidReading> = Vec::new();
        let mut held_reports: Vec<ReaderLocationReport> = Vec::new();
        for e in &epochs {
            let mut readings = e.readings.clone();
            // shuffle readings within the epoch
            for i in (1..readings.len()).rev() {
                let j = rng.gen_range(0usize..=i);
                readings.swap(i, j);
            }
            let keep_r = rng.gen_range(0usize..=readings.len());
            let keep_p = rng.gen_range(0usize..=e.reports.len());

            let drain = |sync: &mut StreamSynchronizer, got: &mut Vec<EpochBatch>, rng: &mut StdRng| {
                if rng.gen_range(0u32..3) == 0 {
                    got.extend(sync.drain_ready());
                }
            };

            // this epoch's kept readings arrive first...
            for r in &readings[..keep_r] {
                sync.push_reading(*r);
                drain(&mut sync, &mut got, &mut rng);
            }
            // ...then the previous epoch's held-back items (now out of
            // order behind this epoch's readings)...
            for r in held_readings.drain(..) {
                sync.push_reading(r);
                drain(&mut sync, &mut got, &mut rng);
            }
            for p in held_reports.drain(..) {
                sync.push_report(p);
                drain(&mut sync, &mut got, &mut rng);
            }
            // ...then this epoch's kept reports, in epoch-local order
            for p in &e.reports[..keep_p] {
                sync.push_report(*p);
                drain(&mut sync, &mut got, &mut rng);
            }
            held_readings.extend_from_slice(&readings[keep_r..]);
            held_reports.extend_from_slice(&e.reports[keep_p..]);
        }
        // trailing held-back items, then the end-of-trace flush
        for r in held_readings.drain(..) {
            sync.push_reading(r);
        }
        for p in held_reports.drain(..) {
            sync.push_report(p);
        }
        got.extend(sync.drain_ready());
        got.extend(sync.flush());

        assert_batches_equal(&expect, &got);
    }
}

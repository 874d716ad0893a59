//! Child-process identity gate: a real router + N workers +
//! coordinator launch must reproduce the single-process engine's event
//! stream **bit-for-bit** — same digest, same event bytes — for every
//! worker count. Uses the fast `tiny` scenario; the golden-trace
//! scenarios are covered by the root `cluster_equivalence` suite.

use rfid_cluster::coordinator::read_events_file;
use rfid_cluster::scenario::{canonical_scenario, reference_events};
use rfid_cluster::LocalCluster;
use rfid_stream::digest::event_digest;

#[test]
fn cluster_processes_match_single_process_bit_for_bit() {
    let (sc, cfg) = canonical_scenario("tiny").expect("known scenario");
    let expected = reference_events(&sc, &cfg);
    assert!(!expected.is_empty(), "tiny must emit events");
    let expected_digest = event_digest(&expected);

    let dir = std::env::temp_dir().join(format!("rfid-cluster-identity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for n in [1usize, 2, 4] {
        let out = dir.join(format!("merged-{n}.bin"));
        let outcome = LocalCluster::new("tiny", n)
            .events_out(&out)
            .run()
            .unwrap_or_else(|e| panic!("{n}-worker cluster run failed: {e}"));
        assert_eq!(
            outcome.digest, expected_digest,
            "{n} workers: merged digest diverged from the single-process engine"
        );
        assert_eq!(outcome.events, expected.len(), "{n} workers: event count");

        // digest equality is the gate; the event file proves it is not
        // vacuous — every byte of every event matches
        let merged = read_events_file(&out).expect("read merged events");
        assert_eq!(merged.len(), expected.len());
        for (i, (a, b)) in merged.iter().zip(&expected).enumerate() {
            assert_eq!(a.epoch, b.epoch, "{n} workers: event {i} epoch");
            assert_eq!(a.tag, b.tag, "{n} workers: event {i} tag");
            assert_eq!(
                a.location.x.to_bits(),
                b.location.x.to_bits(),
                "{n} workers: event {i} x"
            );
            assert_eq!(a.location.y.to_bits(), b.location.y.to_bits());
            assert_eq!(a.location.z.to_bits(), b.location.z.to_bits());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! Cluster telemetry gate: a real 2-worker launch must produce one
//! merged cluster-wide registry snapshot whose counter totals are
//! exact cluster sums — the worker partitions are disjoint, so the
//! merged `engine_readings_total` is the trace's object-reading count
//! (shelf/reader tags stay on the head), and `engine_epochs_total`
//! equals `workers x epochs` (every worker steps every epoch).

use rfid_cluster::scenario::canonical_scenario;
use rfid_cluster::LocalCluster;

#[test]
fn two_worker_cluster_merges_one_registry_snapshot() {
    let (sc, _cfg) = canonical_scenario("tiny").expect("known scenario");
    let epochs = sc.trace.epoch_batches().len() as u64;
    let readings: u64 = sc
        .trace
        .epoch_batches()
        .iter()
        .map(|b| b.readings.len() as u64)
        .sum();
    assert!(epochs > 0 && readings > 0, "tiny must have work to count");

    let dir = std::env::temp_dir().join(format!("rfid-cluster-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics_path = dir.join("cluster-metrics.txt");
    LocalCluster::new("tiny", 2)
        .metrics_out(&metrics_path)
        .run()
        .unwrap_or_else(|e| panic!("2-worker cluster run failed: {e}"));

    let text = std::fs::read_to_string(&metrics_path).expect("router wrote the merged snapshot");
    std::fs::remove_dir_all(&dir).ok();

    let metric = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("{name} missing from merged snapshot:\n{text}"))
            .trim()
            .parse()
            .expect("metric value parses")
    };
    // disjoint partitions: worker reading counts sum to the trace's
    // object readings — nonzero, and never more than the full trace
    let merged_readings = metric("engine_readings_total");
    assert!(
        merged_readings > 0 && merged_readings <= readings,
        "merged readings {merged_readings} out of range (trace total {readings})"
    );
    // every worker walks every epoch, so the merged count is N x epochs
    assert_eq!(metric("engine_epochs_total"), 2 * epochs);
    // stage histograms survive the wire merge: every epoch on every
    // worker records one infer sample
    assert_eq!(metric("engine_infer_us_count"), 2 * epochs);
    assert!(
        text.contains("engine_infer_us_bucket{le=\"+Inf\"}"),
        "histogram exposition missing from merged snapshot:\n{text}"
    );
}

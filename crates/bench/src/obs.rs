//! Registry-vs-legacy agreement and JSON embedding of metric
//! snapshots.
//!
//! The observability layer mirrors [`rfid_core::EngineStats`] onto the
//! process-global `rfid_obs` registry. The legacy struct counters are
//! still what every experiment table prints, so this module is the
//! proof that the two never diverge: [`engine_delta_agrees`] compares
//! a per-run registry *diff* against the run's legacy stats field by
//! field and demands exact `u64` equality — not approximate, because
//! the mirror records the same integers the struct accumulates.
//!
//! [`metrics_json`] serializes a snapshot as a JSON object the
//! in-tree [`crate::json::Json`] parser reads back, so the committed
//! `BENCH_*.json` trajectories can embed the registry dump of the run
//! that produced them and `experiments -- report` can render it.

use rfid_core::EngineStats;
use rfid_obs::{Snapshot, Value};

/// Checks that a registry diff taken around exactly one engine run
/// agrees with that run's legacy [`EngineStats`]: every mirrored
/// counter delta equals its struct field, and each stage histogram's
/// `_sum` equals the struct's total stage micros (the mirror records
/// the exact per-epoch `u64` deltas, so the sums reproduce the totals
/// with no rounding). Returns every discrepancy, not just the first.
pub fn engine_delta_agrees(delta: &Snapshot, stats: &EngineStats) -> Result<(), String> {
    let mut errs: Vec<String> = Vec::new();
    let mut counter = |name: &str, legacy: u64| {
        let reg = delta.counter(name);
        if reg != legacy {
            errs.push(format!("{name}: registry {reg} != legacy {legacy}"));
        }
    };
    counter("engine_epochs_total", stats.epochs);
    counter("engine_readings_total", stats.readings);
    counter("engine_object_updates_total", stats.object_updates);
    counter("engine_events_total", stats.events_emitted);
    counter("engine_object_resamples_total", stats.object_resamples);
    counter("engine_reader_resamples_total", stats.reader_resamples);
    counter("engine_compressions_total", stats.compressions);
    counter("engine_decompressions_total", stats.decompressions);
    counter("engine_half_respawns_total", stats.half_respawns);
    counter("engine_full_reinits_total", stats.full_reinits);
    for (name, legacy) in [
        ("engine_ingest_us", stats.ingest_us),
        ("engine_infer_us", stats.infer_us),
        ("engine_emit_us", stats.emit_us),
    ] {
        let sum = delta.histogram(name).map(|h| h.sum).unwrap_or(0);
        if sum != legacy {
            errs.push(format!("{name}_sum: registry {sum} != legacy {legacy}"));
        }
        let count = delta.histogram(name).map(|h| h.count).unwrap_or(0);
        if count != stats.epochs {
            errs.push(format!(
                "{name}_count: registry {count} != legacy epochs {}",
                stats.epochs
            ));
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("; "))
    }
}

/// Serializes a snapshot as a JSON object: counters and gauges as
/// integer members, each histogram as `_count`/`_sum`/`_p50`/`_p99`
/// members (the quantiles are bucket upper bounds — see
/// `rfid_obs::HistogramSnapshot::quantile`). `indent` prefixes every
/// member line so the object nests at any depth of a hand-built
/// document. The output parses with [`crate::json::Json`].
pub fn metrics_json(snap: &Snapshot, indent: &str) -> String {
    let mut members: Vec<String> = Vec::new();
    for (name, value) in snap.entries() {
        match value {
            Value::Counter(v) | Value::Gauge(v) => members.push(format!("\"{name}\": {v}")),
            Value::Histogram(h) => {
                members.push(format!("\"{name}_count\": {}", h.count));
                members.push(format!("\"{name}_sum\": {}", h.sum));
                members.push(format!("\"{name}_p50\": {}", h.quantile(0.50)));
                members.push(format!("\"{name}_p99\": {}", h.quantile(0.99)));
            }
        }
    }
    if members.is_empty() {
        return "{}".to_string();
    }
    let mut s = String::from("{\n");
    for (i, m) in members.iter().enumerate() {
        s.push_str(indent);
        s.push_str("  ");
        s.push_str(m);
        s.push_str(if i + 1 == members.len() { "\n" } else { ",\n" });
    }
    s.push_str(indent);
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use rfid_obs::Registry;

    #[test]
    fn metrics_json_round_trips_through_the_parser() {
        let r = Registry::new();
        r.counter("a_total").add(7);
        r.gauge("b_high_water").set(3);
        let h = r.histogram("c_us");
        h.record(10);
        h.record(1000);
        let text = metrics_json(&r.snapshot(), "  ");
        let doc = Json::parse(&text).expect("valid json");
        assert_eq!(doc.get("a_total").unwrap().as_f64(), Some(7.0));
        assert_eq!(doc.get("b_high_water").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("c_us_count").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("c_us_sum").unwrap().as_f64(), Some(1010.0));
        assert!(doc.get("c_us_p50").unwrap().as_f64().unwrap() >= 10.0);
        assert_eq!(metrics_json(&Registry::new().snapshot(), ""), "{}");
    }

    #[test]
    fn engine_agreement_accepts_an_exact_mirror_and_names_every_drift() {
        // build a registry diff the way the engine mirror would: stage
        // sums recorded per epoch, counters added once
        let r = Registry::new();
        r.counter("engine_epochs_total").add(2);
        r.counter("engine_readings_total").add(30);
        r.counter("engine_half_respawns_total").add(3);
        let ingest = r.histogram("engine_ingest_us");
        let infer = r.histogram("engine_infer_us");
        let emit = r.histogram("engine_emit_us");
        for (a, b, c) in [(5, 40, 1), (7, 60, 2)] {
            ingest.record(a);
            infer.record(b);
            emit.record(c);
        }
        let stats = EngineStats {
            epochs: 2,
            readings: 30,
            half_respawns: 3,
            ingest_us: 12,
            infer_us: 100,
            emit_us: 3,
            ..EngineStats::default()
        };
        engine_delta_agrees(&r.snapshot(), &stats).expect("exact mirror agrees");

        let drifted = EngineStats {
            infer_us: 99,
            readings: 31,
            full_reinits: 1,
            ..stats
        };
        let err = engine_delta_agrees(&r.snapshot(), &drifted).unwrap_err();
        assert!(err.contains("engine_infer_us_sum"), "{err}");
        assert!(err.contains("engine_readings_total"), "{err}");
        assert!(err.contains("engine_full_reinits_total"), "{err}");
    }
}

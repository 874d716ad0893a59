//! The accuracy matrix: every system (engine, SMURF, uniform) scored
//! over the adversarial scenario library plus the read-rate sweep —
//! the quality record next to the speed benchmark (`BENCHMARK.json`).
//!
//! `experiments -- accuracy --json` runs the matrix and writes
//! `BENCH_accuracy.json` at the repo root; the committed file is the
//! trajectory future PRs are judged against. The paper's headline
//! ordering — the factored filter beats SMURF beats uniform — must
//! hold as *event-level F1*, not just mean feet of error.

use crate::metrics::{score_scenario, BeliefKind, EventScoreConfig, ScenarioScore, Uncertainty};
use crate::runner::{
    run_baseline_smurf, run_baseline_uniform, run_engine_variant, EngineVariant, InferenceSensor,
};
use rfid_geom::Aabb;
use rfid_model::{ConeSensor, ModelParams};
use rfid_sim::scenario::{self, Scenario};

/// Engine and scoring knobs of one matrix run.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyConfig {
    /// Particles per object for the engine.
    pub particles_per_object: usize,
    /// Output-policy report delay (epochs). Shorter than the paper's
    /// 60 so churn departures land *after* the affected events are out.
    pub report_delay: u64,
    /// Event-matching radius etc.
    pub score: EventScoreConfig,
    /// Sampling radius handed to both baselines (the usable read
    /// range, as in the Fig. 6(b) comparison).
    pub baseline_read_range: f64,
}

impl AccuracyConfig {
    /// The committed-baseline operating point.
    pub fn standard(quick: bool) -> Self {
        Self {
            particles_per_object: if quick { 200 } else { 400 },
            report_delay: 30,
            score: EventScoreConfig::default(),
            baseline_read_range: 4.4,
        }
    }
}

/// One scenario of the matrix, with the ground-truth sensor's
/// major-range read rate (the engine infers with the matching cone).
pub struct LibraryEntry {
    pub name: &'static str,
    pub rr_major: f64,
    pub scenario: Scenario,
}

/// The read-rate sweep names (the acceptance ordering — engine F1
/// strictly above both baselines — is asserted on these rows).
pub const READ_RATE_SWEEP: [&str; 3] = ["read_rate_100", "read_rate_80", "read_rate_60"];

/// Builds the scenario library: the eight adversarial generators plus
/// the read-rate sweep. `quick` keeps a 4-scenario subset for CI
/// smoke; the committed `BENCH_accuracy.json` uses the full set.
pub fn library(quick: bool) -> Vec<LibraryEntry> {
    let seed = 4004;
    let entry = |name, rr_major, scenario| LibraryEntry {
        name,
        rr_major,
        scenario,
    };
    if quick {
        return vec![
            entry("churn", 1.0, scenario::tag_churn_trace(seed)),
            entry("dropout", 1.0, scenario::reader_dropout_trace(seed)),
            entry("read_rate_100", 1.0, scenario::read_rate_trace(1.0, seed)),
            entry("read_rate_60", 0.6, scenario::read_rate_trace(0.6, seed)),
        ];
    }
    let mut v = vec![
        entry("churn", 1.0, scenario::tag_churn_trace(seed)),
        entry("dropout", 1.0, scenario::reader_dropout_trace(seed)),
        entry("bursty", 1.0, scenario::bursty_read_rate_trace(seed)),
        entry("dense_shelf", 1.0, scenario::dense_shelf_trace(seed)),
        entry("conveyor", 1.0, scenario::conveyor_trace(seed)),
        entry("multi_room", 1.0, scenario::multi_room_trace(seed)),
        entry("cold_start", 1.0, scenario::cold_start_trace(seed)),
        entry("silent_skew", 1.0, scenario::silent_stream_trace(seed)),
    ];
    for (name, rr) in READ_RATE_SWEEP
        .iter()
        .zip([1.0f64, 0.8, 0.6])
        .map(|(n, rr)| (*n, rr))
    {
        v.push(entry(name, rr, scenario::read_rate_trace(rr, seed)));
    }
    v
}

/// One row of the matrix: one system over one scenario.
pub struct AccuracyRow {
    pub scenario: &'static str,
    pub system: &'static str,
    pub score: ScenarioScore,
}

/// Runs one system triplet over a library entry.
pub(crate) fn score_entry(entry: &LibraryEntry, cfg: &AccuracyConfig) -> Vec<AccuracyRow> {
    let sc = &entry.scenario;
    let batches = sc.trace.epoch_batches();
    let shelves: Vec<Aabb> = sc.layout.shelves().iter().map(|s| s.bbox).collect();

    let engine = run_engine_variant(
        &batches,
        &sc.layout,
        &sc.trace.shelf_tags,
        EngineVariant::Full,
        InferenceSensor::TrueCone(ConeSensor::with_rr_major(entry.rr_major)),
        ModelParams::default_warehouse(),
        cfg.particles_per_object,
        cfg.report_delay,
    );
    let smurf = run_baseline_smurf(
        &batches,
        shelves.clone(),
        cfg.baseline_read_range,
        &sc.trace.shelf_tags,
    );
    let uniform = run_baseline_uniform(
        &batches,
        shelves,
        cfg.baseline_read_range,
        &sc.trace.shelf_tags,
        21,
    );
    let mut rows: Vec<AccuracyRow> = [
        ("engine", &engine),
        ("smurf", &smurf),
        ("uniform", &uniform),
    ]
    .into_iter()
    .map(|(system, out)| AccuracyRow {
        scenario: entry.name,
        system,
        score: score_scenario(&out.events, sc, &cfg.score),
    })
    .collect();
    // only the engine's events say which belief they came from
    rows[0].score.uncertainty = Uncertainty::score(
        &engine.events,
        &sc.trace.truth,
        &cfg.score,
        Some(BeliefKind::of),
    );
    rows
}

/// The scenario names of the library (`--list`, filter validation).
pub fn scenario_names(quick: bool) -> Vec<&'static str> {
    library(quick).iter().map(|e| e.name).collect()
}

/// Runs the matrix restricted to scenarios whose name contains
/// `filter` (all of them when `None`) — single-scenario debugging
/// without a full matrix run.
pub fn run_matrix_filtered(
    cfg: &AccuracyConfig,
    quick: bool,
    filter: Option<&str>,
) -> Vec<AccuracyRow> {
    let mut rows = Vec::new();
    for entry in library(quick) {
        if filter.is_some_and(|f| !entry.name.contains(f)) {
            continue;
        }
        let triplet = score_entry(&entry, cfg);
        for r in &triplet {
            eprintln!(
                "  [{} / {}] P={:.3} R={:.3} F1={:.3} mean_xy={:.2} ft",
                r.scenario,
                r.system,
                r.score.events.precision,
                r.score.events.recall,
                r.score.events.f1,
                r.score.error.mean_xy,
            );
        }
        rows.extend(triplet);
    }
    rows
}

/// A JSON number that may be non-finite: NaN/inf serialize as `null`.
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

/// Serializes matrix rows as the `BENCH_accuracy.json` document.
pub fn to_json(rows: &[AccuracyRow], cfg: &AccuracyConfig) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"match_radius_xy_ft\": {},\n  \"particles_per_object\": {},\n  \
         \"report_delay_epochs\": {},\n  \"baseline_read_range_ft\": {},\n",
        cfg.score.match_radius_xy,
        cfg.particles_per_object,
        cfg.report_delay,
        cfg.baseline_read_range,
    ));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let e = &r.score.events;
        let c = &r.score.change;
        s.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"system\": \"{}\", \"events\": {}, \
             \"truth_tags\": {}, \"precision\": {}, \"recall\": {}, \"f1\": {}, \
             \"matched\": {}, \"mislocated\": {}, \"phantom\": {}, \"missed_tags\": {}, \
             \"mean_xy_ft\": {}, \"max_xy_ft\": {}, \"containment\": {}, \
             \"moves_total\": {}, \"moves_detected\": {}, \"mean_change_delay_epochs\": {}{}}}{}\n",
            r.scenario,
            r.system,
            e.events,
            e.truth_tags,
            jnum(e.precision),
            jnum(e.recall),
            jnum(e.f1),
            e.confusion.matched,
            e.confusion.mislocated,
            e.confusion.phantom,
            e.confusion.missed_tags,
            jnum(r.score.error.mean_xy),
            jnum(r.score.error.max_xy),
            jnum(r.score.containment),
            c.moves_total,
            c.moves_detected,
            jnum(c.mean_delay_epochs),
            uncertainty_members(&r.score.uncertainty),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The calibration members of one row, after the event scores (so the
/// members before them keep their bytes): the unsplit summary, then
/// the active and the compressed beliefs' (`null` for a baseline).
fn uncertainty_members(u: &Uncertainty) -> String {
    let mut s = String::new();
    for (suffix, c) in [
        ("", &u.all),
        ("_active", &u.active),
        ("_compressed", &u.compressed),
    ] {
        s.push_str(&format!(
            ", \"calibrated_events{suffix}\": {}, \"coverage{suffix}\": {}, \
             \"err_sigma_p50{suffix}\": {}, \"err_sigma_p90{suffix}\": {}",
            c.n,
            jnum(c.coverage),
            jnum(c.err_sigma_p50),
            jnum(c.err_sigma_p90),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_library_is_a_subset_with_required_sweep_points() {
        let quick = library(true);
        assert!(quick.len() >= 3);
        assert!(quick.iter().any(|e| e.name.starts_with("read_rate")));
        let full = library(false);
        assert!(full.len() >= 8 + 3, "full library: {}", full.len());
        for name in READ_RATE_SWEEP {
            assert!(full.iter().any(|e| e.name == name), "missing {name}");
        }
        // names are unique (they key the committed JSON)
        let mut names: Vec<_> = full.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), full.len());
    }

    #[test]
    fn scenario_filter_selects_by_substring() {
        let names = scenario_names(false);
        assert!(names.contains(&"churn"));
        // a filter matching nothing runs nothing (and is cheap enough
        // to call here — no engine run happens)
        let rows = run_matrix_filtered(
            &AccuracyConfig::standard(true),
            true,
            Some("no_such_scenario"),
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn json_escapes_non_finite_as_null() {
        assert_eq!(jnum(f64::NAN), "null");
        assert_eq!(jnum(f64::INFINITY), "null");
        assert_eq!(jnum(0.5), "0.5000");
    }
}

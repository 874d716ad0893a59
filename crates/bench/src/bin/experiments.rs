//! Regenerates every table and figure of the paper's evaluation (§V).
//!
//! One subcommand per experiment; `all` runs everything. Output goes to
//! stdout and `results/<experiment>.txt`. Absolute numbers differ from
//! the paper (different hardware, Rust instead of Java); the *shape* —
//! who wins, by roughly what factor, where curves bend — is the
//! reproduction target. See EXPERIMENTS.md for the side-by-side record.
//!
//! Usage:
//! ```text
//! cargo run -p rfid-bench --release --bin experiments -- <cmd> [--quick]
//! ```

use rfid_bench::metrics::ErrorStats;
use rfid_bench::report::{f2, f3, Report, Table};
use rfid_bench::runner::{
    run_baseline_smurf, run_baseline_uniform, run_engine_variant, run_motion_off, EngineVariant,
    InferenceSensor,
};
use rfid_learn::{calibrate, EmConfig};
use rfid_model::{
    ConeSensor, LocationPrior, LogisticSensorModel, ModelParams, ReadRateModel, SensorParams,
    SphericalSensor,
};
use rfid_sim::{scenario, GroundTruth, LabDeployment};
use rfid_stream::LocationEvent;
use std::process::ExitCode;

/// Global run options.
#[derive(Debug, Clone, Copy)]
struct Opts {
    /// Shrinks every experiment (fewer points, fewer particles) for a
    /// fast smoke pass.
    quick: bool,
}

const HELP: &str = "experiments — regenerate the paper's tables and figures\n\
\n\
subcommands:\n\
\x20 fig5a-sensor-models    true vs learned sensor heatmaps (Fig 5a-c)\n\
\x20 fig5d-lab-sensor       learned lab (spherical) sensor model (Fig 5d)\n\
\x20 fig5e-shelf-tags       error vs #shelf tags used in learning (Fig 5e)\n\
\x20 fig5f-read-rate        error vs major-range read rate (Fig 5f)\n\
\x20 fig5g-location-noise   error vs systematic reader-location bias (Fig 5g)\n\
\x20 fig5h-moving-objects   error vs object movement distance (Fig 5h)\n\
\x20 fig5ij-scalability     error and CPU time vs #objects (Fig 5i/5j)\n\
\x20 fig6b-lab-table        lab comparison vs SMURF and uniform (Fig 6b)\n\
\x20 accuracy               event-level accuracy matrix: engine vs SMURF vs\n\
\x20                        uniform over the adversarial scenario library;\n\
\x20                        exits 1 when the paper's ordering fails\n\
\x20                        (--json writes BENCH_accuracy.json;\n\
\x20                        --scenario <name> runs one scenario;\n\
\x20                        --list enumerates the library)\n\
\x20 report                 render the committed BENCH_accuracy.json as a\n\
\x20                        markdown table (for EXPERIMENTS.md); exits 1\n\
\x20                        when it is unreadable\n\
\x20 all                    run every figure\n\
\n\
flags: --quick  (smaller sweeps for a smoke pass)\n\
\n\
Speed is measured by the benchmark, not here: see BENCHMARK.json and\n\
benchmark/README.md.";

/// Exit status of a usage error (unknown subcommand or flag, missing
/// flag value); a failed verdict exits 1.
const USAGE: u8 = 2;

fn main() -> ExitCode {
    // positional parsing that knows `--scenario` takes a value, so
    // `accuracy --scenario churn` does not mistake "churn" for a
    // subcommand
    let (mut quick, mut json, mut list) = (false, false, false);
    let mut scenario_filter: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--list" => list = true,
            "--scenario" => {
                scenario_filter = args.next();
                if scenario_filter.is_none() {
                    // a forgotten value must not silently run (and with
                    // --json, overwrite) the full matrix
                    eprintln!("--scenario requires a value; see `accuracy --list`");
                    return ExitCode::from(USAGE);
                }
            }
            "--help" => {
                eprintln!("{HELP}");
                return ExitCode::SUCCESS;
            }
            s if s.starts_with("--") => {
                // a mistyped flag must not run the experiment without it
                eprintln!("unknown flag {s:?}; see `experiments -- help`");
                return ExitCode::from(USAGE);
            }
            _ => positional.push(a),
        }
    }
    let cmd = positional.first().map_or("help", String::as_str);
    let opts = Opts { quick };

    // only the subcommands that reach a verdict can fail
    let mut passed = true;
    match cmd {
        "fig5a-sensor-models" => fig5a_sensor_models(opts),
        "fig5d-lab-sensor" => fig5d_lab_sensor(opts),
        "fig5e-shelf-tags" => fig5e_shelf_tags(opts),
        "fig5f-read-rate" => fig5f_read_rate(opts),
        "fig5g-location-noise" => fig5g_location_noise(opts),
        "fig5h-moving-objects" => fig5h_moving_objects(opts),
        "fig5i-scalability-error" | "fig5j-scalability-time" | "fig5ij-scalability" => {
            fig5ij_scalability(opts)
        }
        "fig6b-lab-table" => fig6b_lab_table(opts),
        "accuracy" => passed = accuracy(opts, json, scenario_filter.as_deref(), list),
        "report" => passed = report(),
        "all" => {
            fig5a_sensor_models(opts);
            fig5d_lab_sensor(opts);
            fig5e_shelf_tags(opts);
            fig5f_read_rate(opts);
            fig5g_location_noise(opts);
            fig5h_moving_objects(opts);
            fig5ij_scalability(opts);
            fig6b_lab_table(opts);
        }
        "help" => eprintln!("{HELP}"),
        _ => {
            eprintln!("unknown subcommand {cmd:?}\n\n{HELP}");
            return ExitCode::from(USAGE);
        }
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------

fn score(events: &[LocationEvent], truth: &GroundTruth) -> ErrorStats {
    ErrorStats::score(events, truth)
}

/// Learns a sensor model (and noise parameters) from a calibration
/// trace with `known_shelf_tags` known tags out of 20 total.
fn learn_from_20_tags(known_shelf_tags: usize, seed: u64, opts: Opts) -> ModelParams {
    let sc = scenario::small_trace(20 - known_shelf_tags, known_shelf_tags, seed);
    let batches = sc.trace.epoch_batches();
    let mut init = ModelParams::default_warehouse();
    // start from a weakly-informed model so learning has work to do
    init.sensor = SensorParams {
        a: [2.0, -0.2, -0.05],
        b: [-0.1, -0.5],
    };
    let cfg = EmConfig {
        iterations: if opts.quick { 2 } else { 4 },
        ..EmConfig::default()
    };
    calibrate(&batches, &sc.trace.shelf_tags, &sc.layout, init, &cfg).params
}

/// ASCII heatmap of a read-rate model over the forward field of view.
fn heatmap<S: ReadRateModel>(model: &S, max_d: f64) -> String {
    let chars = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut out = String::new();
    // rows: lateral offset +2.5 (top) to -2.5 (bottom); cols: distance
    for li in (-10..=10).rev() {
        let lateral = li as f64 * 0.25;
        for di in 0..=24 {
            let fwd = di as f64 * max_d / 24.0;
            let d = (fwd * fwd + lateral * lateral).sqrt();
            let theta = lateral.atan2(fwd).abs();
            let p = model.p_read_dt(d, theta);
            let idx = ((p * 9.0).round() as usize).min(9);
            out.push(chars[idx]);
        }
        out.push('\n');
    }
    out
}

fn default_report_delay() -> u64 {
    60
}

// ---------------------------------------------------------------------
// Fig. 5(a)-(c): sensor models, true vs learned
// ---------------------------------------------------------------------

fn fig5a_sensor_models(opts: Opts) {
    let mut r = Report::new(
        "fig5a_sensor_models",
        "Fig 5(a)-(c): true simulator sensor model vs models learned by EM",
    );
    let cone = ConeSensor::paper_default();
    r.line("True sensor model (cone, 30deg major + 15deg minor, 4 ft):");
    r.line(&heatmap(&cone, 5.0));

    for &k in &[20usize, 4, 0] {
        let params = learn_from_20_tags(k, 1001 + k as u64, opts);
        let m = LogisticSensorModel::new(params.sensor);
        r.line(&format!(
            "Learned sensor model using {k} shelf tags (a = [{:.2}, {:.2}, {:.2}], b = [{:.2}, {:.2}]):",
            params.sensor.a[0], params.sensor.a[1], params.sensor.a[2],
            params.sensor.b[0], params.sensor.b[1]
        ));
        r.line(&heatmap(&m, 5.0));
    }
    r.line("# paper: learned-with-20 is close to true; quality degrades gradually");
    r.line("# with fewer shelf tags; 0 shelf tags lands in a local maximum.");
    r.finish();
}

// ---------------------------------------------------------------------
// Fig. 5(d): learned lab sensor model
// ---------------------------------------------------------------------

fn fig5d_lab_sensor(opts: Opts) {
    let mut r = Report::new(
        "fig5d_lab_sensor",
        "Fig 5(d): sensor model learned from the (simulated) lab reader",
    );
    let lab = LabDeployment::standard();
    let trace = lab.generate(500, 2024);
    let batches = trace.epoch_batches();
    let mut init = ModelParams::default_warehouse();
    init.sensor = SensorParams {
        a: [2.0, -0.2, -0.05],
        b: [-0.1, -0.5],
    };
    let cfg = EmConfig {
        iterations: if opts.quick { 2 } else { 4 },
        ..EmConfig::default()
    };
    let learned = calibrate(&batches, &trace.shelf_tags, &lab.prior(), init, &cfg).params;
    let truth = SphericalSensor::for_timeout_ms(500);
    r.line("True lab antenna (spherical, wide minor range):");
    r.line(&heatmap(&truth, 3.5));
    r.line("Learned from the lab trace:");
    r.line(&heatmap(&LogisticSensorModel::new(learned.sensor), 3.5));
    r.line("# paper: the learned lab model is spherical with a wide minor range,");
    r.line("# read rate inversely related to the angle from the antenna center.");
    r.finish();
}

// ---------------------------------------------------------------------
// Fig. 5(e): inference error vs shelf tags used in learning
// ---------------------------------------------------------------------

fn fig5e_shelf_tags(opts: Opts) {
    let mut r = Report::new(
        "fig5e_shelf_tags",
        "Fig 5(e): inference error vs number of shelf tags used in learning",
    );
    let particles = if opts.quick { 300 } else { 1000 };
    let test = scenario::small_trace(10, 4, 555);
    let batches = test.trace.epoch_batches();
    let params = ModelParams::default_warehouse();

    // reference curves
    let true_run = run_engine_variant(
        &batches,
        &test.layout,
        &test.trace.shelf_tags,
        EngineVariant::Factored,
        InferenceSensor::TrueCone(ConeSensor::paper_default()),
        params,
        particles,
        default_report_delay(),
    );
    let true_err = score(&true_run.events, &test.trace.truth).mean_xy;
    let uni_run = run_baseline_uniform(
        &batches,
        vec![LocationPrior::bounds(&test.layout)],
        4.4,
        &test.trace.shelf_tags,
        9,
    );
    let uni_err = score(&uni_run.events, &test.trace.truth).mean_xy;

    let ks: Vec<usize> = if opts.quick {
        vec![0, 4, 20]
    } else {
        vec![0, 2, 4, 8, 12, 16, 20]
    };
    let mut t = Table::new(vec![
        "shelf tags",
        "uniform (ft)",
        "learned model (ft)",
        "true model (ft)",
    ]);
    for &k in &ks {
        let learned = learn_from_20_tags(k, 2000 + k as u64, opts);
        let run = run_engine_variant(
            &batches,
            &test.layout,
            &test.trace.shelf_tags,
            EngineVariant::Factored,
            InferenceSensor::Logistic(learned.sensor),
            learned,
            particles,
            default_report_delay(),
        );
        let err = score(&run.events, &test.trace.truth).mean_xy;
        t.row(vec![k.to_string(), f2(uni_err), f2(err), f2(true_err)]);
    }
    r.table(&t);
    r.line("# paper: learned-model error close to true-model error for >= 4 shelf");
    r.line("# tags, much better than uniform; 0 shelf tags degrades (local maximum).");
    r.finish();
}

// ---------------------------------------------------------------------
// Fig. 5(f): read-rate sweep
// ---------------------------------------------------------------------

fn fig5f_read_rate(opts: Opts) {
    let mut r = Report::new(
        "fig5f_read_rate",
        "Fig 5(f): inference error vs read rate in the major detection range",
    );
    let particles = if opts.quick { 300 } else { 1000 };
    let rrs: Vec<f64> = if opts.quick {
        vec![1.0, 0.7, 0.5]
    } else {
        vec![1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
    };
    let mut t = Table::new(vec!["read rate (%)", "uniform (ft)", "inference (ft)"]);
    for &rr in &rrs {
        let sc = scenario::read_rate_trace(rr, 333);
        let batches = sc.trace.epoch_batches();
        let run = run_engine_variant(
            &batches,
            &sc.layout,
            &sc.trace.shelf_tags,
            EngineVariant::Factored,
            InferenceSensor::TrueCone(ConeSensor::with_rr_major(rr)),
            ModelParams::default_warehouse(),
            particles,
            default_report_delay(),
        );
        let uni = run_baseline_uniform(
            &batches,
            vec![LocationPrior::bounds(&sc.layout)],
            4.4,
            &sc.trace.shelf_tags,
            10,
        );
        t.row(vec![
            format!("{:.0}", rr * 100.0),
            f2(score(&uni.events, &sc.trace.truth).mean_xy),
            f2(score(&run.events, &sc.trace.truth).mean_xy),
        ]);
    }
    r.table(&t);
    r.line("# paper: inference degrades only slowly as the read rate drops,");
    r.line("# staying well below the uniform bound.");
    r.finish();
}

// ---------------------------------------------------------------------
// Fig. 5(g): reader-location noise sweep
// ---------------------------------------------------------------------

fn fig5g_location_noise(opts: Opts) {
    let mut r = Report::new(
        "fig5g_location_noise",
        "Fig 5(g): error vs systematic reader-location bias along y (sigma_y = 0.2)",
    );
    let particles = if opts.quick { 500 } else { 2000 };
    let mus: Vec<f64> = if opts.quick {
        vec![0.1, 0.5, 1.0]
    } else {
        vec![0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0]
    };
    let sigma_y = 0.2;
    let mut t = Table::new(vec![
        "mu_y (ft)",
        "uniform",
        "motion model Off",
        "model On - learned",
        "model On - true",
    ]);
    for &mu in &mus {
        let sc = scenario::location_noise_trace(mu, sigma_y, 444);
        let batches = sc.trace.epoch_batches();
        let cone = ConeSensor::paper_default();

        // true sensing parameters
        let mut true_params = ModelParams::default_warehouse();
        true_params.sensing.mu = rfid_geom::Vec3::new(0.0, mu, 0.0);
        true_params.sensing.sigma = rfid_geom::Vec3::new(0.01, sigma_y, 0.0);

        let on_true = run_engine_variant(
            &batches,
            &sc.layout,
            &sc.trace.shelf_tags,
            EngineVariant::Factored,
            InferenceSensor::TrueCone(cone),
            true_params,
            particles,
            default_report_delay(),
        );

        // learned sensing parameters (EM on a training trace with the
        // same noise regime)
        let train = scenario::location_noise_trace(mu, sigma_y, 445);
        let em_cfg = EmConfig {
            iterations: if opts.quick { 2 } else { 3 },
            ..EmConfig::default()
        };
        let learned = calibrate(
            &train.trace.epoch_batches(),
            &train.trace.shelf_tags,
            &train.layout,
            ModelParams::default_warehouse(),
            &em_cfg,
        )
        .params;
        let mut learned_params = ModelParams::default_warehouse();
        learned_params.sensing = learned.sensing;
        learned_params.motion = learned.motion;
        let on_learned = run_engine_variant(
            &batches,
            &sc.layout,
            &sc.trace.shelf_tags,
            EngineVariant::Factored,
            InferenceSensor::TrueCone(cone),
            learned_params,
            particles,
            default_report_delay(),
        );

        let off = run_motion_off(
            &batches,
            &sc.layout,
            &sc.trace.shelf_tags,
            InferenceSensor::TrueCone(cone),
            ModelParams::default_warehouse(),
            particles,
            default_report_delay(),
        );
        let uni = run_baseline_uniform(
            &batches,
            vec![LocationPrior::bounds(&sc.layout)],
            4.4,
            &sc.trace.shelf_tags,
            11,
        );
        t.row(vec![
            f2(mu),
            f2(score(&uni.events, &sc.trace.truth).mean_xy),
            f2(score(&off.events, &sc.trace.truth).mean_xy),
            f2(score(&on_learned.events, &sc.trace.truth).mean_xy),
            f2(score(&on_true.events, &sc.trace.truth).mean_xy),
        ]);
    }
    r.table(&t);
    r.line("# paper: without the motion model the error grows ~linearly in mu_y;");
    r.line("# the full model corrects the systematic error (mostly via shelf tags),");
    r.line("# and learned sensing parameters approach the true-parameter curve.");
    r.finish();
}

// ---------------------------------------------------------------------
// Fig. 5(h): moving objects
// ---------------------------------------------------------------------

fn fig5h_moving_objects(opts: Opts) {
    let mut r = Report::new(
        "fig5h_moving_objects",
        "Fig 5(h): inference error vs distance of object movement",
    );
    let particles = if opts.quick { 300 } else { 1000 };
    let dists: Vec<f64> = if opts.quick {
        vec![0.5, 4.0, 20.0]
    } else {
        vec![0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0, 15.0, 20.0]
    };
    let mut t = Table::new(vec!["move distance (ft)", "uniform", "inference"]);
    // score only the moved object, averaged over seeds: its post-move
    // events carry the sensitivity the figure is about (the other 15
    // static objects would dilute it 15:1)
    let seeds: &[u64] = if opts.quick { &[666] } else { &[666, 667, 668] };
    for &d in &dists {
        let mut err_inf = 0.0;
        let mut err_uni = 0.0;
        for &seed in seeds {
            let sc = scenario::moving_object_trace(d, 200, seed);
            let batches = sc.trace.epoch_batches();
            let moved_only = |events: &[LocationEvent]| -> Vec<LocationEvent> {
                events
                    .iter()
                    .filter(|e| e.tag == scenario::MOVED_TAG)
                    .copied()
                    .collect()
            };
            let run = run_engine_variant(
                &batches,
                &sc.layout,
                &sc.trace.shelf_tags,
                EngineVariant::Factored,
                InferenceSensor::TrueCone(ConeSensor::paper_default()),
                ModelParams::default_warehouse(),
                particles,
                default_report_delay(),
            );
            let uni = run_baseline_uniform(
                &batches,
                vec![LocationPrior::bounds(&sc.layout)],
                4.4,
                &sc.trace.shelf_tags,
                12,
            );
            err_inf += score(&moved_only(&run.events), &sc.trace.truth).mean_xy;
            err_uni += score(&moved_only(&uni.events), &sc.trace.truth).mean_xy;
        }
        t.row(vec![
            f2(d),
            f2(err_uni / seeds.len() as f64),
            f2(err_inf / seeds.len() as f64),
        ]);
    }
    r.table(&t);
    r.line("# paper: error peaks for mid-range moves (~2-6 ft) where old and new");
    r.line("# locations are hard to tell apart; large moves trigger full particle");
    r.line("# re-creation and the error drops back down.");
    r.finish();
}

// ---------------------------------------------------------------------
// Fig. 5(i)/(j): scalability
// ---------------------------------------------------------------------

fn fig5ij_scalability(opts: Opts) {
    let mut r = Report::new(
        "fig5ij_scalability",
        "Fig 5(i)/(j): inference error and CPU time per reading vs number of objects",
    );
    let particles = if opts.quick { 200 } else { 1000 };
    let unfactored_particles = if opts.quick { 5_000 } else { 50_000 };

    struct Row {
        variant: &'static str,
        n: usize,
        err: f64,
        ms: f64,
        rps: f64,
        mem_mb: f64,
    }
    let mut rows: Vec<Row> = Vec::new();

    let sizes_unf: &[usize] = if opts.quick { &[10] } else { &[10, 20] };
    let sizes_fac: &[usize] = if opts.quick {
        &[10, 100]
    } else {
        &[10, 100, 500]
    };
    let sizes_idx: &[usize] = if opts.quick {
        &[10, 100, 1000]
    } else {
        &[10, 100, 1000, 10_000]
    };
    let sizes_full: &[usize] = if opts.quick {
        &[10, 100, 1000]
    } else {
        &[10, 100, 1000, 10_000, 20_000]
    };

    let run_one = |variant: EngineVariant, n: usize, rows: &mut Vec<Row>| {
        let sc = scenario::scalability_trace(n, 777);
        let batches = sc.trace.epoch_batches();
        let out = run_engine_variant(
            &batches,
            &sc.layout,
            &sc.trace.shelf_tags,
            variant,
            InferenceSensor::TrueCone(ConeSensor::paper_default()),
            ModelParams::default_warehouse(),
            particles,
            default_report_delay(),
        );
        let err = score(&out.events, &sc.trace.truth).mean_xy;
        eprintln!(
            "  [{}] n={n}: err={:.2} ft, {:.3} ms/reading",
            variant.label(),
            err,
            out.ms_per_reading()
        );
        rows.push(Row {
            variant: variant.label(),
            n,
            err,
            ms: out.ms_per_reading(),
            rps: out.readings_per_sec(),
            mem_mb: out.memory_bytes as f64 / (1024.0 * 1024.0),
        });
    };

    for &n in sizes_unf {
        run_one(
            EngineVariant::Unfactored {
                particles: unfactored_particles,
            },
            n,
            &mut rows,
        );
    }
    for &n in sizes_fac {
        run_one(EngineVariant::Factored, n, &mut rows);
    }
    for &n in sizes_idx {
        run_one(EngineVariant::FactoredIndexed, n, &mut rows);
    }
    for &n in sizes_full {
        run_one(EngineVariant::Full, n, &mut rows);
    }

    let mut t = Table::new(vec![
        "variant",
        "#objects",
        "error XY (ft)",
        "ms/reading",
        "readings/s",
        "memory (MB)",
    ]);
    for row in &rows {
        t.row(vec![
            row.variant.to_string(),
            row.n.to_string(),
            f2(row.err),
            f3(row.ms),
            format!("{:.0}", row.rps),
            f2(row.mem_mb),
        ]);
    }
    r.table(&t);
    r.line("# paper: the unfactorized filter is orders of magnitude slower and");
    r.line("# stops scaling around 20 objects; factorization gets to hundreds;");
    r.line("# the spatial index makes the per-reading cost flat in #objects; and");
    r.line("# compression cuts cost and memory further (>1500 readings/s).");
    r.finish();
}

// ---------------------------------------------------------------------
// Accuracy matrix: event-level scores over the adversarial library
// ---------------------------------------------------------------------

/// Runs the accuracy matrix (engine vs SMURF vs uniform over the
/// adversarial scenario library × read-rate sweep) and, with `--json`,
/// seeds `BENCH_accuracy.json` — the quality trajectory future PRs are
/// judged against. `--scenario <name>` restricts the run to matching
/// scenarios (for debugging one workload without the full matrix);
/// `--list` only enumerates the library. Returns whether the paper's
/// ordering held on every sweep point run — and, unfiltered, that at
/// least one was.
fn accuracy(opts: Opts, json: bool, scenario_filter: Option<&str>, list: bool) -> bool {
    use rfid_bench::accuracy::{
        run_matrix_filtered, scenario_names, to_json, AccuracyConfig, READ_RATE_SWEEP,
    };

    if list {
        println!("accuracy scenario library (full / [quick subset]):");
        let quick = scenario_names(true);
        for name in scenario_names(false) {
            let marker = if quick.contains(&name) {
                " [quick]"
            } else {
                ""
            };
            println!("  {name}{marker}");
        }
        return true;
    }
    if let Some(f) = scenario_filter {
        let names = scenario_names(opts.quick);
        if !names.iter().any(|n| n.contains(f)) {
            eprintln!("--scenario {f:?} matches nothing; available: {names:?}");
            std::process::exit(USAGE.into());
        }
    }

    let mut r = Report::new(
        "accuracy",
        "Event-level accuracy matrix: engine vs SMURF vs uniform per scenario",
    );
    let cfg = AccuracyConfig::standard(opts.quick);
    let rows = run_matrix_filtered(&cfg, opts.quick, scenario_filter);

    let mut t = Table::new(vec![
        "scenario",
        "system",
        "events",
        "precision",
        "recall",
        "F1",
        "mean XY (ft)",
        "containment",
        "moves det.",
        "delay (ep)",
    ]);
    for row in &rows {
        let e = &row.score.events;
        let c = &row.score.change;
        t.row(vec![
            row.scenario.to_string(),
            row.system.to_string(),
            e.events.to_string(),
            f3(e.precision),
            f3(e.recall),
            f3(e.f1),
            f2(row.score.error.mean_xy),
            if row.score.containment.is_finite() {
                f3(row.score.containment)
            } else {
                "-".to_string()
            },
            format!("{}/{}", c.moves_detected, c.moves_total),
            f2(c.mean_delay_epochs),
        ]);
    }
    r.table(&t);

    // the paper's headline ordering, as event-level F1 on the sweep
    let f1_of = |scenario: &str, system: &str| {
        rows.iter()
            .find(|r| r.scenario == scenario && r.system == system)
            .map(|r| r.score.events.f1)
    };
    let mut ordering_holds = true;
    let mut checked = 0usize;
    for sweep in READ_RATE_SWEEP {
        let (Some(eng), Some(smf), Some(uni)) = (
            f1_of(sweep, "engine"),
            f1_of(sweep, "smurf"),
            f1_of(sweep, "uniform"),
        ) else {
            // a missing point must be reported, never silently counted
            // as passing (quick mode runs a sweep subset)
            r.line(&format!("{sweep}: not in this run — skipped"));
            continue;
        };
        checked += 1;
        let ok = eng > smf && eng > uni;
        ordering_holds &= ok;
        r.line(&format!(
            "{sweep}: engine F1 {eng:.3} vs smurf {smf:.3} / uniform {uni:.3} — {}",
            if ok {
                "engine strictly ahead"
            } else {
                "ORDERING VIOLATED"
            }
        ));
    }
    r.line(&if checked == 0 {
        "# WARNING: no read-rate sweep point was run — ordering unchecked.".to_string()
    } else if ordering_holds {
        format!(
            "# paper ordering holds: factored filter > SMURF, uniform on all {checked}/{} sweep \
             points run.",
            READ_RATE_SWEEP.len()
        )
    } else {
        "# WARNING: the paper's headline ordering failed on the read-rate sweep.".to_string()
    });
    r.finish();

    if json {
        if scenario_filter.is_some() {
            // a filtered run must never overwrite the committed
            // full-matrix trajectory
            eprintln!("  --scenario is set: refusing to write a partial BENCH_accuracy.json");
        } else {
            std::fs::write("BENCH_accuracy.json", to_json(&rows, &cfg))
                .expect("write BENCH_accuracy.json");
            eprintln!("  wrote BENCH_accuracy.json");
        }
    }
    // a filtered run may legitimately contain no sweep point
    ordering_holds && (checked > 0 || scenario_filter.is_some())
}

// ---------------------------------------------------------------------
// Report: the committed BENCH_accuracy.json trajectory as markdown
// ---------------------------------------------------------------------

/// Columns of the accuracy table as `(header, key, decimals)`.
const ACCURACY_COLUMNS: [(&str, &str, usize); 11] = [
    ("scenario", "scenario", 0),
    ("system", "system", 0),
    ("events", "events", 0),
    ("precision", "precision", 3),
    ("recall", "recall", 3),
    ("F1", "f1", 3),
    ("mean XY (ft)", "mean_xy_ft", 2),
    ("containment", "containment", 3),
    ("moves det.", "moves_detected", 0),
    ("moves total", "moves_total", 0),
    ("delay (ep)", "mean_change_delay_epochs", 2),
];

/// Renders the `rows` array of a parsed BENCH document as a markdown
/// table using the accuracy column specs.
fn md_table_from(doc: &rfid_bench::json::Json) -> Option<Table> {
    let rows = doc.get("rows")?.as_arr()?;
    let mut t = Table::new(
        ACCURACY_COLUMNS
            .iter()
            .map(|(h, _, _)| h.to_string())
            .collect(),
    );
    for row in rows {
        t.row(
            ACCURACY_COLUMNS
                .iter()
                .map(|(_, key, decimals)| {
                    row.get(key)
                        .map(|v| v.cell(*decimals))
                        .unwrap_or_else(|| "-".to_string())
                })
                .collect(),
        );
    }
    Some(t)
}

/// Renders the committed `BENCH_accuracy.json` as a markdown table —
/// the single source for the table pasted into EXPERIMENTS.md. Returns
/// whether it rendered.
fn report() -> bool {
    use rfid_bench::json::Json;

    const PATH: &str = "BENCH_accuracy.json";
    let mut r = Report::new("report", "Committed benchmark trajectories (markdown)");
    let table = std::fs::read_to_string(PATH)
        .map_err(|e| format!("not found ({e})"))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("failed to parse: {e}")))
        .and_then(|doc| md_table_from(&doc).ok_or_else(|| "has no rows array".into()));
    let rendered = table.is_ok();
    match table {
        Ok(t) => {
            r.line(&format!("### Accuracy (`{PATH}`)\n"));
            r.line(&t.render_markdown());
        }
        Err(why) => r.line(&format!("### Accuracy\n\n`{PATH}` {why}.\n")),
    }
    r.finish();
    rendered
}

// ---------------------------------------------------------------------
// Fig. 6(b): lab table vs SMURF and uniform
// ---------------------------------------------------------------------

fn fig6b_lab_table(opts: Opts) {
    let mut r = Report::new(
        "fig6b_lab_table",
        "Fig 6(b): simulated lab deployment — our system vs SMURF (improved) vs uniform",
    );
    let lab = LabDeployment::standard();
    let particles = if opts.quick { 400 } else { 1500 };

    // learn the sensor + noise parameters once from a 500 ms trace
    let train = lab.generate(500, 4242);
    let mut init = ModelParams::default_warehouse();
    init.sensor = SensorParams {
        a: [2.0, -0.2, -0.05],
        b: [-0.1, -0.5],
    };
    let em_cfg = EmConfig {
        iterations: if opts.quick { 2 } else { 4 },
        ..EmConfig::default()
    };
    let lab_prior = lab.prior();
    let learned = calibrate(
        &train.epoch_batches(),
        &train.shelf_tags,
        &lab_prior,
        init,
        &em_cfg,
    )
    .params;
    // the baselines' sampling radius: the *usable* read range (where
    // the learned read rate is still substantial), not the faint tail
    let read_range = LogisticSensorModel::new(learned.sensor).detection_range(0.2);
    r.line(&format!(
        "learned read range: {:.2} ft; learned sensing bias (x, y) = ({:.2}, {:.2})",
        read_range, learned.sensing.mu.x, learned.sensing.mu.y
    ));

    let timeouts: &[u32] = if opts.quick { &[500] } else { &[250, 500, 750] };
    let mut t = Table::new(vec![
        "timeout (shelf)",
        "ours X",
        "ours Y",
        "ours XY",
        "SMURF X",
        "SMURF Y",
        "SMURF XY",
        "unif X",
        "unif Y",
        "unif XY",
    ]);
    let mut ours_sum = 0.0;
    let mut smurf_sum = 0.0;
    let mut count = 0.0;
    for &small in &[true, false] {
        for &timeout in timeouts {
            let trace = lab.generate(timeout, 5000 + timeout as u64 + small as u64);
            let batches = trace.epoch_batches();
            let shelves = vec![lab.imagined_shelf(0, small), lab.imagined_shelf(1, small)];

            let ours = run_engine_variant(
                &batches,
                &lab_prior,
                &trace.shelf_tags,
                EngineVariant::Factored,
                InferenceSensor::Logistic(learned.sensor),
                learned,
                particles,
                default_report_delay(),
            );
            let smurf =
                run_baseline_smurf(&batches, shelves.clone(), read_range, &trace.shelf_tags);
            let unif = run_baseline_uniform(
                &batches,
                shelves,
                read_range,
                &trace.shelf_tags,
                13 + timeout as u64,
            );
            let so = score(&ours.events, &trace.truth);
            let ss = score(&smurf.events, &trace.truth);
            let su = score(&unif.events, &trace.truth);
            ours_sum += so.mean_xy;
            smurf_sum += ss.mean_xy;
            count += 1.0;
            t.row(vec![
                format!("{timeout} ({})", if small { "SS" } else { "LS" }),
                f2(so.mean_x),
                f2(so.mean_y),
                f2(so.mean_xy),
                f2(ss.mean_x),
                f2(ss.mean_y),
                f2(ss.mean_xy),
                f2(su.mean_x),
                f2(su.mean_y),
                f2(su.mean_xy),
            ]);
        }
    }
    r.table(&t);
    let reduction = 100.0 * (1.0 - (ours_sum / count) / (smurf_sum / count));
    r.line(&format!(
        "average error reduction of our system vs SMURF: {reduction:.0}%  (paper: 49%)"
    ));
    r.line("# paper: ours 0.39-0.54 ft; SMURF 1.3-1.7x ours on the small shelf and");
    r.line("# >2.7x on the large shelf (it cannot correct dead-reckoning drift,");
    r.line("# and its x error is pinned at half the shelf depth).");
    r.finish();
}

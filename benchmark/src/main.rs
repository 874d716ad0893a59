//! `rfid-benchmark`: measures the RFID inference stack from outside,
//! by timing calls into its public functions.
//!
//! ```text
//! rfid-benchmark run [--workload W] [--seed S] [--passes K | --seconds T] [--trace [0|1]] [--smoke]
//! rfid-benchmark compare A B
//! rfid-benchmark catalogue
//! ```

mod catalogue;
mod compare;
mod harness;
mod layers;
mod report;
mod run;
mod source;
mod spans;
mod stats;
mod workloads;

use catalogue::{Workload, WORKLOADS};
use run::RunOpts;
use std::process::ExitCode;

/// The seed of a run that names none: the paper's conference date.
const DEFAULT_SEED: u64 = 20090329;

const USAGE: &str = "usage:
  rfid-benchmark run [--workload W] [--seed S] [--passes K | --seconds T] [--trace [0|1]] [--smoke]
  rfid-benchmark compare A B        (A, B: result files or directories, comma-separated)
  rfid-benchmark catalogue          (prints BENCHMARK.json as the catalogue defines it)

workloads: cold_scan, durable_patrol, serve_live, cluster_scan (default: all four)";

#[derive(Debug)]
struct RunArgs {
    workloads: Vec<&'static Workload>,
    seed: u64,
    passes: Option<usize>,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        passes: None,
        seconds: None,
        traced: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w =
                    catalogue::workload(&name).ok_or_else(|| format!("unknown workload {name}"))?;
                parsed.workloads = vec![w];
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--passes" => {
                let k: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--passes: {e}"))?;
                if k == 0 {
                    return Err("--passes must be at least 1".into());
                }
                parsed.passes = Some(k);
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                // bare `--trace` switches tracing on; the driver says 0 or 1
                parsed.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Measured passes of a run: `--passes`, else as many as fit
/// `--seconds` (default: the driver's run length) at the workload's
/// reference pass time. `--smoke` is always one pass.
fn passes_for(w: &Workload, args: &RunArgs) -> usize {
    if args.smoke {
        return 1;
    }
    args.passes
        .unwrap_or_else(|| w.passes_in(args.seconds.unwrap_or(f64::from(catalogue::RUN_SECONDS))))
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let mut all_correct = true;
    for w in &args.workloads {
        let outcome = run::run(&RunOpts {
            workload: w,
            seed: args.seed,
            passes: passes_for(w, &args),
            traced: args.traced,
            smoke: args.smoke,
        });
        report::print(&outcome);
        report::write_files(&outcome).map_err(|e| format!("writing benchmark/out: {e}"))?;
        all_correct &= outcome.correct();
        // last, for the driver: one JSON object on one line
        println!("{}", report::driver_line(&outcome));
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_command(rest),
        Some((cmd, [a, b])) if cmd == "compare" => compare::compare(a, b).map(|worse| !worse),
        Some((cmd, [])) if cmd == "catalogue" => {
            print!("{}", catalogue::benchmark_json());
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_bench::json::Json;
    use std::collections::BTreeSet;
    use std::time::Instant;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            catalogue::benchmark_json(),
            "regenerate with `rfid-benchmark catalogue > BENCHMARK.json`"
        );
        let doc = Json::parse(&committed).expect("valid JSON");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let end_to_end = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert!(end_to_end.iter().all(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            bound > 0.0 && bound <= 0.25
        }));
        let all: Vec<String> = ["workloads", "end_to_end", "per_layer"]
            .iter()
            .flat_map(|k| names(&doc, k))
            .collect();
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            all.len(),
            "a name is used once"
        );
        assert!(names(&doc, "end_to_end").contains(&"setup_s".to_owned()));
    }

    #[test]
    fn driver_arguments_parse_and_pick_passes() {
        let args: Vec<String> = "--workload serve_live --seed 7 --seconds 20 --trace 0"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let parsed = parse_run(&args).unwrap();
        assert_eq!(parsed.workloads.len(), 1);
        assert_eq!((parsed.seed, parsed.traced), (7, false));
        assert_eq!(passes_for(parsed.workloads[0], &parsed), 3);
        // the bare command measures what the driver's does
        let bare = parse_run(&[]).unwrap();
        for w in &WORKLOADS {
            assert_eq!(
                passes_for(w, &bare),
                w.passes_in(f64::from(catalogue::RUN_SECONDS))
            );
        }
        // a bare --trace switches tracing on, whatever follows
        let args: Vec<String> = ["--trace", "--passes", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let parsed = parse_run(&args).unwrap();
        assert!(parsed.traced);
        assert_eq!(parsed.workloads.len(), 4);
        assert!(parsed.workloads.iter().all(|w| passes_for(w, &parsed) == 4));
        assert!(parse_run(&["--workload".to_owned(), "nope".to_owned()]).is_err());
        assert!(parse_run(&["--passes".to_owned(), "0".to_owned()]).is_err());
    }

    /// One smoke run of every workload, traced, in under 15 s: every
    /// output check green, and a result document that parses and
    /// carries exactly the catalogue's names.
    #[test]
    fn smoke_run_of_all_four_workloads_is_green_and_well_formed() {
        let started = Instant::now();
        let contract = Json::parse(&catalogue::benchmark_json()).unwrap();
        let per_layer_names: BTreeSet<String> = names(&contract, "per_layer").into_iter().collect();
        let end_to_end_names: BTreeSet<String> =
            names(&contract, "end_to_end").into_iter().collect();
        assert_eq!(
            names(&contract, "workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for w in &WORKLOADS {
            let outcome = run::run(&RunOpts {
                workload: w,
                seed: DEFAULT_SEED,
                passes: 1,
                traced: true,
                smoke: true,
            });
            for c in &outcome.checks {
                assert!(c.ok, "{}: {} ({})", w.name, c.name, c.detail);
            }
            assert!(outcome.correct(), "{} is not correct", w.name);
            assert_eq!(outcome.failed, 0);
            assert!(
                outcome.unattributed_share < 0.02,
                "{}: {}",
                w.name,
                outcome.unattributed_share
            );

            let doc = Json::parse(&report::result_json(&outcome)).expect("result JSON parses");
            assert_eq!(doc.get("workload").and_then(Json::as_str), Some(w.name));
            let layers: BTreeSet<String> = doc
                .get("per_layer")
                .and_then(Json::as_obj)
                .unwrap()
                .keys()
                .cloned()
                .collect();
            assert_eq!(layers, per_layer_names);
            let walls: Vec<String> = doc
                .get("wall")
                .and_then(Json::as_obj)
                .unwrap()
                .keys()
                .cloned()
                .collect();
            let wall_names: Vec<&str> = catalogue::wall().map(|(name, _)| name).collect();
            assert_eq!(walls.len(), wall_names.len());
            assert!(walls.iter().all(|n| wall_names.contains(&n.as_str())));
            // every metric the run holds is a catalogue metric, marked
            // measured exactly where the catalogue says this workload
            // measures it
            let reported = doc.get("end_to_end").and_then(Json::as_obj).unwrap();
            for (name, entry) in reported {
                let m = catalogue::end_to_end(name).expect("a catalogue metric");
                assert_eq!(
                    entry.get("measured"),
                    Some(&Json::Bool(m.measured_on(w.name))),
                    "{}: {name}",
                    w.name
                );
            }
            // (the repo's JSON reader is quadratic in document size:
            // parse a trace file of the first hundred spans)
            assert!(!outcome.spans.is_empty());
            let head = report::RunOutcome {
                spans: outcome.spans[..outcome.spans.len().min(100)].to_vec(),
                ..outcome.clone()
            };
            assert!(Json::parse(&report::trace_json(&head)).is_ok());

            // the driver's two lines carry exactly the contract's names
            for (traced, expected) in [(true, &per_layer_names), (false, &end_to_end_names)] {
                let line = report::driver_line(&report::RunOutcome {
                    traced,
                    ..outcome.clone()
                });
                let doc = Json::parse(&line).expect("driver line parses");
                let got: BTreeSet<String> = doc
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .unwrap()
                    .keys()
                    .cloned()
                    .collect();
                assert_eq!(&got, expected);
                assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
                let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
                if !traced {
                    // the line carries the run's own values, none zero
                    for (name, m) in metrics {
                        let on_line = m.get("value").and_then(Json::as_f64);
                        let held = outcome.end_to_end[name.as_str()];
                        assert_eq!(on_line, held, "{}: {name}", w.name);
                        assert!(held.is_some_and(|v| v > 0.0));
                    }
                }
            }
        }
        assert!(
            started.elapsed().as_secs() < 15,
            "smoke took {:?}",
            started.elapsed()
        );
    }
}

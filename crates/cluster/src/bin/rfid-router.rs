//! Router binary: binds, prints `LISTENING <addr>`, accepts
//! `--workers` connections, and drives the `--scenario` trace through
//! the cluster.
//!
//! ```text
//! rfid-router --listen 127.0.0.1:0 --workers 2 --scenario tiny
//! ```

use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = rfid_cluster::cli::parse(&["--listen", "--workers", "--scenario", "--metrics-out"]);
    let (listen, workers, scenario) = match (
        args.get("--listen"),
        args.get("--workers").and_then(|w| w.parse::<usize>().ok()),
        args.get("--scenario"),
    ) {
        (Some(l), Some(w), Some(s)) if w >= 1 => (l.clone(), w, s.clone()),
        _ => {
            eprintln!(
                "usage: rfid-router --listen ADDR --workers N --scenario NAME \
                 [--metrics-out PATH]"
            );
            return ExitCode::from(2);
        }
    };
    let metrics_out = args.get("--metrics-out").cloned();
    let Some((sc, cfg)) = rfid_cluster::scenario::canonical_scenario(&scenario) else {
        eprintln!(
            "unknown scenario {scenario:?} (tiny, small_warehouse, low_read_rate, moving_object)"
        );
        return ExitCode::from(2);
    };
    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("LISTENING {}", listener.local_addr().expect("bound"));
    let _ = std::io::stdout().flush();
    let engine = rfid_cluster::scenario::build_engine(&sc, &cfg);
    match rfid_cluster::router::run_router(&listener, workers, engine, &sc.trace.epoch_batches()) {
        Ok(summary) => {
            println!(
                "epochs {} readings {} object_updates {} reader_resamples {}",
                summary.epochs, summary.readings, summary.object_updates, summary.reader_resamples
            );
            if let Some(path) = metrics_out {
                // the merged cluster-wide registry view, in the same
                // text exposition TELEMETRY serves
                if let Err(e) = std::fs::write(&path, summary.metrics.render()) {
                    eprintln!("router: writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("router: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Worker binary: connects to the router and coordinator (with a
//! bounded retry while they come up), then runs the epoch loop over
//! its `tag % N` partition until the router sends FINISH.
//!
//! ```text
//! rfid-worker --index 0 --router ADDR --coordinator ADDR --scenario tiny
//! ```

use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn connect_retry(addr: &str, deadline: Duration) -> std::io::Result<TcpStream> {
    let start = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if start.elapsed() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
}

fn main() -> ExitCode {
    let args = rfid_cluster::cli::parse(&["--index", "--router", "--coordinator", "--scenario"]);
    let (index, router, coordinator, scenario) = match (
        args.get("--index").and_then(|v| v.parse::<usize>().ok()),
        args.get("--router"),
        args.get("--coordinator"),
        args.get("--scenario"),
    ) {
        (Some(i), Some(r), Some(c), Some(s)) => (i, r.clone(), c.clone(), s.clone()),
        _ => {
            eprintln!(
                "usage: rfid-worker --index I --router ADDR --coordinator ADDR --scenario NAME"
            );
            return ExitCode::from(2);
        }
    };
    let Some((sc, cfg)) = rfid_cluster::scenario::canonical_scenario(&scenario) else {
        eprintln!("unknown scenario {scenario:?}");
        return ExitCode::from(2);
    };
    let deadline = Duration::from_secs(10);
    let (router, coordinator) = match (
        connect_retry(&router, deadline),
        connect_retry(&coordinator, deadline),
    ) {
        (Ok(r), Ok(c)) => (r, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("worker {index}: connect: {e}");
            return ExitCode::FAILURE;
        }
    };
    let engine = rfid_cluster::scenario::build_engine(&sc, &cfg);
    match rfid_cluster::worker::run_worker(index, router, coordinator, engine) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("worker {index}: {e}");
            ExitCode::FAILURE
        }
    }
}

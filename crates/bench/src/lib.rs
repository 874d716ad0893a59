//! Experiment harness regenerating every table and figure of §V.
//!
//! * [`metrics`] — scoring of event streams against ground truth: the
//!   paper's continuous "Inference Error in XY Plane (ft)" plus
//!   event-level precision/recall/F1, change-detection delay, and
//!   shelf containment.
//! * [`accuracy`] — the accuracy matrix (every system over the
//!   adversarial scenario library), seeding `BENCH_accuracy.json`.
//! * [`golden`] — bit-exact event-stream digests backing the
//!   `tests/golden/` regression harness.
//! * [`runner`] — drives each system (our engine in its four variants,
//!   SMURF, uniform) over a scenario and collects events, wall-clock
//!   cost, and memory.
//! * [`recovery`] / [`fault`] — the durable run, its kill-and-resume
//!   cycle and the fault plans behind the `recovery_harness` binary, the
//!   recovery test suites and the benchmark's `durable_patrol` (which is
//!   where recovery is timed).
//! * [`report`] — plain-text tables written to stdout and to
//!   `results/<experiment>.txt`.
//! * [`json`] — a minimal JSON reader so `experiments -- report` can
//!   render the committed `BENCH_accuracy.json` as a markdown table.
//!
//! Speed is measured by the `benchmark/` package (`BENCHMARK.json`),
//! not here.
//!
//! Every item is named through its module (`rfid_bench::metrics::…`);
//! the root re-exports nothing.
//!
//! The `experiments` binary exposes one subcommand per figure/table;
//! see `cargo run -p rfid-bench --release --bin experiments -- help`.

pub mod accuracy;
pub mod fault;
pub mod golden;
pub mod json;
pub mod metrics;
pub mod recovery;
pub mod report;
pub mod runner;

//! What a run leaves behind: the printed metric table, the result and
//! trace files under `benchmark/out/`, and the one-line JSON object
//! the driver reads.

use crate::catalogue::{self, Workload, END_TO_END, PER_LAYER};
use crate::harness::Check;
use crate::spans::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Metric name -> value; `None` when the run's sample could not carry
/// the statistic (a p99 over fewer than 1,000 samples).
pub type Values = BTreeMap<&'static str, Option<f64>>;

/// The box the numbers were taken on.
#[derive(Debug, Clone)]
pub struct Env {
    pub nproc: usize,
    pub load_average: String,
    /// Jiffies of hypervisor steal over the run (`/proc/stat`).
    pub steal_delta: u64,
    pub git_commit: String,
}

/// The cumulative steal jiffies of the `cpu` line of `/proc/stat`.
pub fn steal_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8).map(str::to_owned))
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

impl Env {
    pub fn capture(steal_before: u64) -> Env {
        let git_commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            load_average: std::fs::read_to_string("/proc/loadavg")
                .map(|s| s.trim().to_owned())
                .unwrap_or_default(),
            steal_delta: steal_jiffies().saturating_sub(steal_before),
            git_commit,
        }
    }
}

/// Everything one run of one workload measured.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub workload: &'static Workload,
    pub seed: u64,
    pub passes: usize,
    pub traced: bool,
    /// Passes run a second time because the box broke their schedule.
    pub voided_passes: u64,
    /// Seeds of the measured passes, after the health guard.
    pub pass_seeds: Vec<u64>,
    /// Every end-to-end metric of the catalogue: the run's value where
    /// this workload measures the metric, and where it does not, the
    /// mean number of raw readings in a measured pass. The driver wants
    /// a value for every metric from every workload, never zero and
    /// never constant; an input size is none of the workload's timings,
    /// exact for a seed and a percent apart between seeds, so it cannot
    /// move with the code. The table, the result file and the driver
    /// line all print this one map; the first two mark what is not
    /// measured, and `compare` skips it.
    pub end_to_end: Values,
    /// The `wall.*` metrics, from the untraced passes; `None` where the
    /// workload has no such quantity (printed and written as 0).
    pub wall: Values,
    /// The gates and wall metrics this workload measures, on each pass
    /// alone.
    pub per_pass: BTreeMap<&'static str, Vec<Option<f64>>>,
    /// Per-layer values (traced runs only; every catalogue name).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Pass self time no layer accounts for, as a share of the passes'
    /// wall (traced runs only).
    pub unattributed_share: f64,
    pub timed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub env: Env,
    /// Spans of the first traced pass.
    pub spans: Vec<Span>,
}

impl RunOutcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
            && self
                .end_to_end
                .iter()
                .all(|(_, v)| v.is_some_and(f64::is_finite))
    }
}

/// `benchmark/out`, beside the manifest the binary was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), num)
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints every metric by name with its unit, then the checks.
pub fn print(out: &RunOutcome) {
    let w = out.workload;
    println!(
        "== {} seed {} passes {}{} ({:.1} s timed, nproc {}, steal {} jiffies, load {})",
        w.name,
        out.seed,
        out.passes,
        if out.traced { " traced" } else { "" },
        out.timed_s,
        out.env.nproc,
        out.env.steal_delta,
        out.env.load_average,
    );
    for m in &END_TO_END {
        let note = if m.measured_on(w.name) {
            ""
        } else {
            "  (not measured here: readings per pass)"
        };
        match out.end_to_end.get(m.name) {
            Some(Some(v)) => println!("  {:<28} {:>16.4} {}{note}", m.name, v, m.unit),
            Some(None) => println!("  {:<28} {:>16} {}", m.name, "too few samples", m.unit),
            None => {}
        }
    }
    for (name, unit) in catalogue::wall() {
        println!(
            "  {:<28} {:>16.4} {}",
            name,
            out.wall[name].unwrap_or(0.0),
            unit
        );
    }
    if out.traced {
        for (name, unit) in PER_LAYER.iter().filter(|(n, _)| !n.starts_with("wall.")) {
            println!("  {:<28} {:>16.4} {}", name, out.per_layer[name], unit);
        }
        println!(
            "  pass self time outside every layer: {:.3}% of the traced passes' wall",
            out.unattributed_share * 100.0
        );
    }
    for c in &out.checks {
        if !c.ok {
            println!("  CHECK FAILED {}: {}", c.name, c.detail);
        }
    }
    if out.voided_passes > 0 {
        println!(
            "  {} voided passes were run a second time",
            out.voided_passes
        );
    }
    println!(
        "  {} of {} output checks green, {} of {} operations failed",
        out.checks.iter().filter(|c| c.ok).count(),
        out.checks.len(),
        out.failed,
        out.attempted,
    );
}

/// The result document of one run.
pub fn result_json(out: &RunOutcome) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": {},", quote(out.workload.name));
    let _ = writeln!(s, "  \"seed\": {},", out.seed);
    let _ = writeln!(s, "  \"passes\": {},", out.passes);
    let _ = writeln!(s, "  \"traced\": {},", out.traced);
    let _ = writeln!(s, "  \"voided_passes\": {},", out.voided_passes);
    let _ = writeln!(
        s,
        "  \"pass_seeds\": [{}],",
        out.pass_seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(s, "  \"nproc\": {},", out.env.nproc);
    let _ = writeln!(s, "  \"steal_delta\": {},", out.env.steal_delta);
    let _ = writeln!(s, "  \"load_average\": {},", quote(&out.env.load_average));
    let _ = writeln!(s, "  \"git_commit\": {},", quote(&out.env.git_commit));
    let _ = writeln!(s, "  \"timed_s\": {},", num(out.timed_s));
    let _ = writeln!(s, "  \"attempted\": {},", out.attempted);
    let _ = writeln!(s, "  \"failed\": {},", out.failed);
    let _ = writeln!(s, "  \"correct\": {},", out.correct());
    s.push_str("  \"end_to_end\": {\n");
    let rows: Vec<String> = out
        .end_to_end
        .iter()
        .map(|(name, v)| {
            let m = catalogue::end_to_end(name).expect("catalogue metric");
            let per_pass: Vec<String> = out
                .per_pass
                .get(name)
                .map(|values| values.iter().map(|v| opt(*v)).collect())
                .unwrap_or_default();
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"measured\": {}, \"per_pass\": [{}]}}",
                quote(name),
                opt(*v),
                quote(m.unit),
                quote(m.better.as_str()),
                num(m.bound),
                m.measured_on(out.workload.name),
                per_pass.join(", ")
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  },\n  \"wall\": {\n");
    let rows: Vec<String> = catalogue::wall()
        .map(|(name, unit)| {
            let per_pass: Vec<String> = out
                .per_pass
                .get(name)
                .map(|values| values.iter().map(|v| opt(*v)).collect())
                .unwrap_or_default();
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"per_pass\": [{}]}}",
                quote(name),
                num(out.wall[name].unwrap_or(0.0)),
                quote(unit),
                quote(catalogue::per_layer_better(name).as_str()),
                per_pass.join(", ")
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  },\n  \"per_layer\": {\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .filter(|_| out.traced)
        .map(|(name, unit)| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(out.per_layer[name]),
                quote(unit)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    let _ = write!(
        s,
        "\n  }},\n  \"unattributed_share\": {},\n  \"checks\": [\n",
        num(out.unattributed_share)
    );
    let rows: Vec<String> = out
        .checks
        .iter()
        .map(|c| {
            format!(
                "    {{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                quote(&c.name),
                c.ok,
                quote(&c.detail)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// The spans of the first traced pass, one object per span.
pub fn trace_json(out: &RunOutcome) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": {},", quote(out.workload.name));
    let _ = writeln!(s, "  \"seed\": {},", out.seed);
    s.push_str("  \"spans\": [\n");
    let rows: Vec<String> = out
        .spans
        .iter()
        .map(|sp| {
            format!(
                "    {{\"name\": {}, \"id\": \"{}:{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                quote(sp.name),
                sp.pass,
                sp.id,
                sp.start_ns,
                sp.end_ns,
                sp.parent.map_or_else(|| "null".to_owned(), |p| p.to_string())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// Writes `out/<workload>.json` (and `out/trace-<workload>.json` for a
/// traced run).
pub fn write_files(out: &RunOutcome) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{}.json", out.workload.name)),
        result_json(out),
    )?;
    if out.traced {
        std::fs::write(
            dir.join(format!("trace-{}.json", out.workload.name)),
            trace_json(out),
        )?;
    }
    Ok(())
}

/// The object the driver reads off the last line of stdout: every
/// end-to-end metric of the catalogue for an untraced run, every
/// per-layer metric for a traced one.
pub fn driver_line(out: &RunOutcome) -> String {
    let metrics: Vec<String> = if out.traced {
        PER_LAYER
            .iter()
            .map(|(name, unit)| metric_entry(name, out.per_layer[name], unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = out.end_to_end.get(m.name).copied().flatten();
                metric_entry(m.name, v.unwrap_or(f64::NAN), m.unit)
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn metric_entry(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        quote(name),
        if value.is_finite() {
            format!("{value}")
        } else {
            "0".to_owned()
        },
        quote(unit)
    )
}

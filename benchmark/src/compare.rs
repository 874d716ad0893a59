//! `compare A B`: applies the catalogue's bounds to two sets of result
//! files, per (workload, end-to-end metric), and judges the `wall.*`
//! metrics, which have no bound, by whether the runs separate.

use crate::catalogue::{self, Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartile_spread};
use rfid_bench::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The baseline's own spread is wider than the bound, and the runs
    /// of the two sides overlap: the bound cannot be applied.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The values one side holds for one (workload, metric): the pooled
/// value of each run, and the per-pass values of its runs.
#[derive(Debug, Default, Clone)]
pub struct Side {
    pub runs: Vec<f64>,
    pub per_pass: Vec<f64>,
}

impl Side {
    /// Run-to-run spread as a share of the median: the quartile
    /// distance of the runs when there are at least four, otherwise
    /// that of the per-pass values scaled down to a run of that many
    /// passes.
    fn spread_share(&self) -> f64 {
        let center = median(&self.runs).unwrap_or(0.0).abs();
        if center == 0.0 {
            return 0.0;
        }
        if self.runs.len() >= 4 {
            return quartile_spread(&self.runs).unwrap_or(0.0) / center;
        }
        let passes_per_run = (self.per_pass.len() / self.runs.len().max(1)).max(1) as f64;
        quartile_spread(&self.per_pass).unwrap_or(0.0) / passes_per_run.sqrt() / center
    }
}

/// Whether every run of `winner` reads better than every run of
/// `loser`. A lone run per side always "separates", so it takes four.
fn separated(winner: &Side, loser: &Side, better: Better) -> bool {
    let beats = |w: f64, l: f64| match better {
        Better::Lower => w < l,
        Better::Higher => w > l,
    };
    winner.runs.len() >= 4
        && loser.runs.len() >= 4
        && winner
            .runs
            .iter()
            .all(|w| loser.runs.iter().all(|l| beats(*w, *l)))
}

/// Judges the change `b` against the baseline `a`. With a bound: the
/// medians may differ by it, and the verdict is `unresolved` when the
/// baseline's own spread is wider, unless the runs separate. Without
/// one (a `wall.*` metric): `worse` or `better` only when the runs
/// separate, `same` inside the baseline's own spread, else
/// `unresolved`.
pub fn judge(a: &Side, b: &Side, better: Better, bound: Option<f64>) -> Verdict {
    let (Some(ma), Some(mb)) = (median(&a.runs), median(&b.runs)) else {
        return Verdict::Unresolved;
    };
    if ma == mb {
        return Verdict::Same;
    }
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // positive: worse
    let change = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let (b_wins, a_wins) = (separated(b, a, better), separated(a, b, better));
    let Some(bound) = bound else {
        return match (b_wins, a_wins) {
            (true, _) => Verdict::Better,
            (_, true) => Verdict::Worse,
            _ if change.abs() <= a.spread_share() => Verdict::Same,
            _ => Verdict::Unresolved,
        };
    };
    if a.spread_share() > bound && !b_wins && !a_wins {
        return Verdict::Unresolved;
    }
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Result files named by `arg`: the file itself, or every
/// `<workload>*.json` of a directory (trace files excluded).
fn result_files(arg: &Path) -> std::io::Result<Vec<PathBuf>> {
    if !arg.is_dir() {
        return Ok(vec![arg.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(arg)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && WORKLOADS.iter().any(|w| name.starts_with(w.name))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// The runs of one side: values per (workload, metric), and per
/// workload the operations that failed in any run (a run whose
/// `correct` is false counts at least one).
#[derive(Debug, Default)]
struct Table {
    values: BTreeMap<(String, String), Side>,
    failed: BTreeMap<String, u64>,
}

fn load(args: &[PathBuf]) -> Result<Table, String> {
    let mut table = Table::default();
    for arg in args {
        for file in result_files(arg).map_err(|e| format!("{}: {e}", arg.display()))? {
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
            let workload = doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}: no workload", file.display()))?;
            let metrics = doc
                .get("end_to_end")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{}: no end_to_end", file.display()))?;
            let failed = doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let correct = doc.get("correct") == Some(&Json::Bool(true));
            *table.failed.entry(workload.to_owned()).or_default() +=
                failed.max(u64::from(!correct));
            let walls = doc.get("wall").and_then(Json::as_obj);
            for (name, entry) in metrics.iter().chain(walls.into_iter().flatten()) {
                let side = table
                    .values
                    .entry((workload.to_owned(), name.clone()))
                    .or_default();
                if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                    side.runs.push(v);
                }
                if let Some(values) = entry.get("per_pass").and_then(Json::as_arr) {
                    side.per_pass.extend(values.iter().filter_map(Json::as_f64));
                }
            }
        }
    }
    Ok(table)
}

/// Prints one verdict per (workload, metric) a workload measures and
/// returns whether any is `worse`. A failed operation or output check
/// in a run of `b` is `worse` whatever its share of the operations
/// attempted: one digest mismatch among 100,000 pushed items moves
/// `ok_share` by less than any bound. `a` and `b` are comma-separated
/// lists of result files or directories.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let split = |s: &str| s.split(',').map(PathBuf::from).collect::<Vec<_>>();
    let (ta, tb) = (load(&split(a))?, load(&split(b))?);
    let mut any_worse = false;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for w in &WORKLOADS {
        let gates = END_TO_END
            .iter()
            .filter(|m| m.measured_on(w.name))
            .map(|m| (m.name, m.better, Some(m.bound)));
        let walls = catalogue::wall().map(|(n, _)| (n, catalogue::per_layer_better(n), None));
        for (name, better, bound) in gates.chain(walls) {
            let key = (w.name.to_owned(), name.to_owned());
            let (Some(sa), Some(sb)) = (ta.values.get(&key), tb.values.get(&key)) else {
                continue;
            };
            let (ma, mb) = (
                median(&sa.runs).unwrap_or(f64::NAN),
                median(&sb.runs).unwrap_or(f64::NAN),
            );
            if bound.is_none() && ma == 0.0 && mb == 0.0 {
                // the workload has no such quantity
                continue;
            }
            let verdict = judge(sa, sb, better, bound);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<16} {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>7}  {}",
                w.name,
                name,
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                bound.map_or_else(|| "-".to_owned(), |b| format!("{:.1}%", b * 100.0)),
                verdict.as_str()
            );
        }
        if let Some(failed) = tb.failed.get(w.name).filter(|f| **f > 0) {
            any_worse = true;
            println!(
                "{:<16} {failed} operations or output checks failed in B: worse",
                w.name
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(runs: &[f64]) -> Side {
        Side {
            runs: runs.to_vec(),
            per_pass: Vec::new(),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let a = side(&[100.0, 101.0, 99.0, 100.0]);
        // lower is better: +20% is worse, -20% better, +2% the same
        assert_eq!(
            judge(&a, &side(&[120.0; 4]), Better::Lower, Some(0.10)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &side(&[80.0; 4]), Better::Lower, Some(0.10)),
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &side(&[102.0; 4]), Better::Lower, Some(0.10)),
            Verdict::Same
        );
        // higher is better flips it
        assert_eq!(
            judge(&a, &side(&[80.0; 4]), Better::Higher, Some(0.10)),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_separate() {
        let noisy = side(&[80.0, 95.0, 105.0, 120.0]);
        assert_eq!(
            judge(
                &noisy,
                &side(&[110.0, 112.0, 111.0, 113.0]),
                Better::Lower,
                Some(0.05)
            ),
            Verdict::Unresolved
        );
        // every run of the change reads worse than every baseline run
        assert_eq!(
            judge(
                &noisy,
                &side(&[150.0, 151.0, 152.0, 153.0]),
                Better::Lower,
                Some(0.05)
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn without_a_bound_only_separated_runs_are_better_or_worse() {
        let a = side(&[100.0, 104.0, 96.0, 101.0]);
        assert_eq!(
            judge(
                &a,
                &side(&[110.0, 111.0, 112.0, 113.0]),
                Better::Lower,
                None
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                &a,
                &side(&[110.0, 111.0, 112.0, 113.0]),
                Better::Higher,
                None
            ),
            Verdict::Better
        );
        // overlapping runs: inside the baseline's own spread is the
        // same, beyond it nobody can say
        assert_eq!(
            judge(&a, &side(&[99.0, 103.0, 102.0, 101.0]), Better::Lower, None),
            Verdict::Same
        );
        assert_eq!(
            judge(
                &a,
                &side(&[103.0, 120.0, 121.0, 122.0]),
                Better::Lower,
                None
            ),
            Verdict::Unresolved
        );
    }

    #[test]
    fn one_failed_operation_in_the_change_is_worse() {
        let dir = crate::report::out_dir().join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, failed: u64, correct: bool| {
            let path = dir.join(name);
            std::fs::write(
                &path,
                format!(
                    "{{\"workload\": \"cold_scan\", \"failed\": {failed}, \"correct\": {correct}, \
                     \"end_to_end\": {{\"ok_share\": {{\"value\": {}, \"per_pass\": []}}}}}}",
                    1.0 - failed as f64 / 100_000.0
                ),
            )
            .unwrap();
            path.to_str().unwrap().to_owned()
        };
        let clean = file("cold_scan-a.json", 0, true);
        // one digest mismatch among 100,000 operations is inside any
        // bound on ok_share, and still worse
        let one_failed = file("cold_scan-b.json", 1, false);
        let unchecked = file("cold_scan-c.json", 0, false);
        let verdicts = (
            compare(&clean, &clean),
            compare(&clean, &one_failed),
            compare(&clean, &unchecked),
            compare(&one_failed, &clean),
        );
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(verdicts, (Ok(false), Ok(true), Ok(true), Ok(false)));
    }

    #[test]
    fn a_single_run_falls_back_to_its_per_pass_spread() {
        let a = Side {
            runs: vec![100.0],
            per_pass: vec![60.0, 90.0, 110.0, 140.0],
        };
        // per-pass quartile distance 65 over sqrt(4) passes = 32.5%
        assert_eq!(
            judge(&a, &side(&[104.0]), Better::Lower, Some(0.05)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&a, &side(&[104.0]), Better::Lower, Some(0.40)),
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &side(&[100.0]), Better::Lower, Some(0.05)),
            Verdict::Same
        );
    }
}

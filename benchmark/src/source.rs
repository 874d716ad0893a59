//! The benchmark's load generator: healthy traces derived from the
//! run seed, and the open-loop pacer of `serve_live`.
//!
//! Run length comes from many short traces, never one long one: the
//! simulator's true reader pose is an unbounded random walk, so a long
//! trace loses its readings with time (`endurance_trace(500, 40, 3)`
//! reads nothing after epoch 4,000).

use crate::catalogue::Workload;
use rfid_sim::scenario::{endurance_trace, Scenario};
use rfid_sim::SimTrace;
use rfid_stream::StreamItem;
use std::time::{Duration, Instant};

/// No pass is longer than this; reader drift stays small inside it.
pub const MAX_PASS_EPOCHS: u64 = 4001;

/// A trace is rejected when the readings of its last quarter fall
/// below this share of its first quarter's: the reader walked off.
const MIN_QUARTER_RATIO: f64 = 0.6;

/// A trace is rejected when its reading count is further than this
/// share from the shape's reference count. Engine time follows epochs
/// and objects, not readings, so without the band `readings_per_s`
/// would mostly measure how close to the shelf a seed's reader drifted
/// (counts range 8k-19k across seeds of one shape).
const DENSITY_BAND: f64 = 0.02;

/// Seeds the reference reading count of a shape is the median of.
const REFERENCE_SEEDS: u64 = 32;

/// Whether the trace kept its readings to the end: the last quarter of
/// its time span must hold at least [`MIN_QUARTER_RATIO`] of the first
/// quarter's readings.
pub fn quarters_healthy(trace: &SimTrace) -> bool {
    let end = trace.reports.last().map_or(0.0, |r| r.time) + trace.epoch_len;
    let quarter = end / 4.0;
    let first = trace.readings.iter().filter(|r| r.time < quarter).count();
    let last = trace
        .readings
        .iter()
        .filter(|r| r.time >= end - quarter)
        .count();
    first > 0 && last as f64 >= MIN_QUARTER_RATIO * first as f64
}

fn within_band(readings: usize, reference: usize) -> bool {
    (readings as f64 - reference as f64).abs() <= DENSITY_BAND * reference as f64
}

/// Cuts the trace's raw streams at `max_epochs` epochs.
fn truncate(trace: &mut SimTrace, max_epochs: u64) {
    let end = max_epochs as f64 * trace.epoch_len;
    trace.readings.retain(|r| r.time < end);
    trace.reports.retain(|r| r.time < end);
}

/// One generated pass: the scenario, its merged raw stream, and counts.
#[derive(Debug)]
pub struct PassInput {
    pub seed: u64,
    pub scenario: Scenario,
    pub items: Vec<StreamItem>,
    pub readings: u64,
    pub epochs: u64,
}

impl PassInput {
    fn new(seed: u64, scenario: Scenario) -> Self {
        let items: Vec<StreamItem> = scenario.trace.stream().collect();
        Self {
            seed,
            readings: scenario.trace.readings.len() as u64,
            epochs: scenario.trace.reports.len() as u64,
            items,
            scenario,
        }
    }

    /// The same pass cut to its first `epochs` epochs (warm-up passes).
    pub fn shortened(&self, epochs: u64) -> PassInput {
        let mut scenario = self.scenario.clone();
        truncate(&mut scenario.trace, epochs);
        PassInput::new(self.seed, scenario)
    }
}

/// SplitMix64's finalizer: spreads neighbouring run seeds over the
/// whole seed space, so that runs seeded 1, 2, 3 do not walk into the
/// same first healthy trace.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic trace generator of one workload: derived seeds count
/// up from `mix64(seed)`, and pass `k` takes the next one whose trace
/// passes the health guard.
#[derive(Debug)]
pub struct Generator {
    objects: usize,
    rounds: usize,
    next_seed: u64,
    reference: usize,
    pub seeds_skipped: u64,
}

impl Generator {
    pub fn new(workload: &Workload, objects: usize, seed: u64) -> Self {
        let mut counts: Vec<usize> = (0..REFERENCE_SEEDS)
            .map(|s| {
                let mut sc = endurance_trace(objects, workload.rounds, s);
                truncate(&mut sc.trace, MAX_PASS_EPOCHS);
                sc.trace.readings.len()
            })
            .collect();
        counts.sort_unstable();
        Self {
            objects,
            rounds: workload.rounds,
            next_seed: mix64(seed),
            reference: counts[counts.len() / 2],
            seeds_skipped: 0,
        }
    }

    pub fn next_pass(&mut self) -> PassInput {
        loop {
            let seed = self.next_seed;
            self.next_seed = self.next_seed.wrapping_add(1);
            let mut sc = endurance_trace(self.objects, self.rounds, seed);
            truncate(&mut sc.trace, MAX_PASS_EPOCHS);
            if quarters_healthy(&sc.trace) && within_band(sc.trace.readings.len(), self.reference) {
                return PassInput::new(seed, sc);
            }
            self.seeds_skipped += 1;
        }
    }
}

/// The pacer stops sleeping and starts spinning this long before an
/// item is due.
const SPIN_WINDOW: Duration = Duration::from_micros(150);

/// How late an open-loop generator released its items.
#[derive(Debug, Clone)]
pub struct Lateness {
    /// An item released further than this behind its due time counts
    /// as late.
    tolerance: Duration,
    pub late_us: Vec<f64>,
    pub late_items: u64,
}

impl Lateness {
    pub fn new(tolerance: Duration) -> Self {
        Self {
            tolerance,
            late_us: Vec::new(),
            late_items: 0,
        }
    }

    /// Books one release: lateness is how far `released` lies past
    /// `due`, zero when the item went out on time.
    pub fn record(&mut self, due: Instant, released: Instant) {
        let late = released.saturating_duration_since(due);
        self.late_us.push(late.as_secs_f64() * 1e6);
        if late > self.tolerance {
            self.late_items += 1;
        }
    }

    /// Share of items released later than the tolerance.
    pub fn late_share(&self) -> f64 {
        if self.late_us.is_empty() {
            return 0.0;
        }
        self.late_items as f64 / self.late_us.len() as f64
    }
}

/// Open-loop schedule: item times scaled so that `epochs_per_s` epochs
/// fall due per wall second from `start`, whatever the system under
/// test does.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    start: Instant,
    /// Trace time at which the schedule starts.
    t0: f64,
    wall_per_trace_second: f64,
}

impl Pacer {
    pub fn new(start: Instant, t0: f64, epoch_len: f64, epochs_per_s: f64) -> Self {
        Self {
            start,
            t0,
            wall_per_trace_second: 1.0 / (epoch_len * epochs_per_s),
        }
    }

    /// When the item stamped `time` (trace seconds) is due.
    pub fn due(&self, time: f64) -> Instant {
        self.start
            + Duration::from_secs_f64(((time - self.t0) * self.wall_per_trace_second).max(0.0))
    }

    /// Waits until `due` (sleeping, then spinning over the last
    /// [`SPIN_WINDOW`]) and returns the release instant. Returns at
    /// once when the schedule is already behind.
    pub fn wait_until(&self, due: Instant) -> Instant {
        loop {
            let now = Instant::now();
            if now >= due {
                return now;
            }
            let left = due - now;
            if left > SPIN_WINDOW {
                std::thread::sleep(left - SPIN_WINDOW);
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue;

    #[test]
    fn a_drifting_trace_is_rejected() {
        // the reader walks off the shelf: nothing is read after epoch
        // 4,000 of 20,000
        let drifting = endurance_trace(500, 40, 3);
        let end = 4000.0 * drifting.trace.epoch_len;
        let late = drifting
            .trace
            .readings
            .iter()
            .filter(|r| r.time >= end)
            .count();
        assert!(
            late * 100 < drifting.trace.readings.len(),
            "{late} readings after epoch 4,000"
        );
        assert!(!quarters_healthy(&drifting.trace));
        // a short trace of the same family keeps its readings
        assert!(quarters_healthy(&endurance_trace(200, 4, 1).trace));
    }

    #[test]
    fn generator_is_deterministic_bounded_and_skips_unhealthy_seeds() {
        let w = catalogue::workload(catalogue::SERVE_LIVE).unwrap();
        let mut a = Generator::new(w, 50, 20090329);
        let mut b = Generator::new(w, 50, 20090329);
        let mut skipped_to = Vec::new();
        for _ in 0..4 {
            let (pa, pb) = (a.next_pass(), b.next_pass());
            assert_eq!(pa.seed, pb.seed);
            assert_eq!(pa.items.len(), pb.items.len());
            assert!(pa.epochs <= MAX_PASS_EPOCHS);
            assert!(quarters_healthy(&pa.scenario.trace));
            skipped_to.push(pa.seed);
        }
        // derived seeds only move forward, and every skipped one is counted
        assert!(skipped_to.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a.seeds_skipped, skipped_to[3] - mix64(20090329) - 3);
        // neighbouring run seeds start far apart
        assert_ne!(
            Generator::new(w, 50, 20090330).next_pass().seed,
            skipped_to[0]
        );
    }

    #[test]
    fn passes_never_exceed_the_epoch_cap() {
        // 1,000 objects x 4 rounds is 4,005 epochs untruncated
        let w = catalogue::workload(catalogue::SERVE_LIVE).unwrap();
        let pass = Generator::new(w, w.objects, 7).next_pass();
        assert_eq!(pass.epochs, MAX_PASS_EPOCHS);
        assert!(pass.shortened(100).epochs == 100);
    }

    #[test]
    fn lateness_counts_from_the_due_time_and_never_goes_negative() {
        let t = Instant::now();
        let at = |us: u64| t + Duration::from_micros(us);
        let mut l = Lateness::new(Duration::from_micros(250));
        l.record(at(1000), at(900)); // early: waited for, released on time
        l.record(at(1000), at(1100)); // 100 us late: inside the tolerance
        l.record(at(1000), at(1400)); // 400 us late
        l.record(at(1000), at(6000)); // a 5 ms stall
        assert_eq!(l.late_us, vec![0.0, 100.0, 400.0, 5000.0]);
        assert_eq!(l.late_items, 2);
        assert_eq!(l.late_share(), 0.5);
    }

    #[test]
    fn pacer_schedule_is_independent_of_the_consumer() {
        let start = Instant::now();
        // epochs of 1 s trace time at 400 epochs/s: 2.5 ms apart,
        // counted from trace time 10
        let p = Pacer::new(start, 10.0, 1.0, 400.0);
        assert_eq!(p.due(10.0), start);
        assert_eq!(p.due(9.0), start, "items before t0 are due at once");
        assert_eq!(p.due(14.0) - start, Duration::from_millis(10));
        // an overdue item is released immediately, and its lateness is
        // measured against the schedule, not against the release before
        let due = Instant::now() - Duration::from_millis(3);
        let released = p.wait_until(due);
        assert!(released.duration_since(due) >= Duration::from_millis(3));
        // an item in the future is never released early
        let due = Instant::now() + Duration::from_micros(400);
        assert!(p.wait_until(due) >= due);
    }
}

//! Intended reader motion, one step per epoch.
//!
//! A trajectory is the *noise-free* plan: the generator adds motion
//! noise per the paper's `R_t = R_{t-1} + Δ + ε`. Plans cover the
//! paper's scenarios: a single linear scan down the aisle, multiple
//! rounds of scan (the scalability tests use "two rounds of scan"), and
//! the lab pattern (scan one row, turn around, scan the other).

use rfid_geom::{Point3, Vec3};

/// One epoch's intended movement: displacement plus heading change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    pub delta: Vec3,
    pub dphi: f64,
}

/// A complete plan: start pose and a step per epoch.
#[derive(Debug, Clone)]
pub struct Trajectory {
    pub start_pos: Point3,
    pub start_phi: f64,
    steps: Vec<Step>,
}

impl Trajectory {
    /// Builds a trajectory from explicit parts.
    pub fn new(start_pos: Point3, start_phi: f64, steps: Vec<Step>) -> Self {
        Self {
            start_pos,
            start_phi,
            steps,
        }
    }

    /// Number of epochs (the start pose is epoch 0; steps produce epochs
    /// `1..=len`).
    pub(crate) fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// The per-epoch steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// A single pass down the aisle: start at `(0, 0)` facing `+x`
    /// (toward the shelves), advance `speed` feet per epoch along `+y`
    /// until `length` feet are covered.
    pub(crate) fn linear_scan(length: f64, speed: f64) -> Self {
        assert!(speed > 0.0 && length > 0.0);
        let n = (length / speed).ceil() as usize;
        let steps = vec![
            Step {
                delta: Vec3::new(0.0, speed, 0.0),
                dphi: 0.0,
            };
            n
        ];
        Self::new(Point3::origin(), 0.0, steps)
    }

    /// `rounds` passes over the aisle, reversing direction at each end
    /// (down, back, down, ...), still facing the shelves the whole time.
    /// The scalability experiments use two rounds.
    pub(crate) fn rounds_scan(length: f64, speed: f64, rounds: usize) -> Self {
        assert!(rounds >= 1);
        let n = (length / speed).ceil() as usize;
        let mut steps = Vec::with_capacity(n * rounds);
        for r in 0..rounds {
            let dir = if r % 2 == 0 { 1.0 } else { -1.0 };
            for _ in 0..n {
                steps.push(Step {
                    delta: Vec3::new(0.0, dir * speed, 0.0),
                    dphi: 0.0,
                });
            }
        }
        Self::new(Point3::origin(), 0.0, steps)
    }

    /// The lab pattern of §V-C: scan up one row of tags facing `+x`,
    /// turn around (180° over `turn_epochs` epochs while advancing to
    /// the second aisle side), then scan back down facing `-x`.
    pub(crate) fn lab_two_rows(row_length: f64, speed: f64, turn_epochs: usize) -> Self {
        let n = (row_length / speed).ceil() as usize;
        let mut steps = Vec::new();
        for _ in 0..n {
            steps.push(Step {
                delta: Vec3::new(0.0, speed, 0.0),
                dphi: 0.0,
            });
        }
        // turn in place toward the other row
        let turn_epochs = turn_epochs.max(1);
        for _ in 0..turn_epochs {
            steps.push(Step {
                delta: Vec3::zero(),
                dphi: std::f64::consts::PI / turn_epochs as f64,
            });
        }
        for _ in 0..n {
            steps.push(Step {
                delta: Vec3::new(0.0, -speed, 0.0),
                dphi: 0.0,
            });
        }
        Self::new(Point3::origin(), 0.0, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cumulative intended poses, one per epoch (`num_steps() + 1`
    /// entries including the start).
    fn intended_poses(t: &Trajectory) -> Vec<(Point3, f64)> {
        let mut out = vec![(t.start_pos, t.start_phi)];
        for s in &t.steps {
            let (pos, phi) = *out.last().unwrap();
            out.push((pos + s.delta, rfid_geom::angles::wrap_pi(phi + s.dphi)));
        }
        out
    }

    #[test]
    fn linear_scan_covers_length() {
        let t = Trajectory::linear_scan(10.0, 0.1);
        assert_eq!(t.num_steps(), 100);
        let poses = intended_poses(&t);
        assert_eq!(poses.len(), 101);
        assert!((poses.last().unwrap().0.y - 10.0).abs() < 1e-9);
        assert_eq!(poses[0].1, 0.0);
    }

    #[test]
    fn rounds_scan_returns_to_start() {
        let t = Trajectory::rounds_scan(10.0, 0.1, 2);
        let poses = intended_poses(&t);
        assert!((poses.last().unwrap().0.y - 0.0).abs() < 1e-9);
        assert_eq!(t.num_steps(), 200);
    }

    #[test]
    fn lab_two_rows_turns_around() {
        let t = Trajectory::lab_two_rows(13.0, 0.1, 5);
        let poses = intended_poses(&t);
        // after the turn, heading is pi (facing -x)
        let mid = 130 + 5;
        assert!((poses[mid].1.abs() - std::f64::consts::PI).abs() < 1e-9);
        // ends back near y = 0
        assert!(poses.last().unwrap().0.y.abs() < 1e-9);
    }
}

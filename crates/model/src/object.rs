//! The object location model of §III-A.
//!
//! Warehouse objects are stationary but occasionally relocate: with
//! probability `α` per epoch an object moves, and "the new location is
//! distributed uniformly across all shelves". The model deliberately
//! carries no information about *where* the object went — the particle
//! filter recovers the new location from subsequent readings.
//!
//! The "uniform across all shelves" distribution depends on the shelf
//! geometry, which lives in the simulator crate; the [`LocationPrior`]
//! trait decouples the two.

use crate::params::ObjectParams;
use rand::Rng;
use rfid_geom::{Aabb, Point3};

/// A distribution over legal object locations (in practice: uniform over
/// the union of shelf surfaces). Implemented by the warehouse layout.
// `Send + Sync` supertraits: priors are immutable model data, and the
// engine that owns one is moved onto pipeline, server and cluster-worker
// threads.
pub trait LocationPrior: Send + Sync {
    /// Draws a location uniformly over the legal space.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point3;

    /// Density of the uniform prior at `p` (0 outside the legal space).
    fn pdf(&self, p: &Point3) -> f64;

    /// True when `p` is a legal object location.
    fn contains(&self, p: &Point3) -> bool {
        self.pdf(p) > 0.0
    }

    /// Bounding box of the legal space.
    fn bounds(&self) -> Aabb;

    /// A box that every legal location lies in: `contains(p)` implies
    /// `support_bounds().contains(p)`. The cone sampler draws its
    /// candidates inside it, so no candidate outside it pays for
    /// [`pdf`](Self::pdf). Unlike
    /// [`bounds`](Self::bounds) it must cover any tolerance band
    /// `contains` accepts; the default is the whole space, which can
    /// never be wrong.
    fn support_bounds(&self) -> Aabb {
        Aabb::new(
            Point3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
            Point3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
        )
    }
}

/// A trivially simple prior: uniform over one box. Useful for tests and
/// as the "imagined shelf" of the lab evaluation (§V-C restricts
/// location sampling to a small or large imagined shelf area).
#[derive(Debug, Clone, Copy)]
pub struct BoxPrior {
    bbox: Aabb,
}

impl BoxPrior {
    /// Uniform prior over `bbox`.
    pub fn new(bbox: Aabb) -> Self {
        Self { bbox }
    }
}

impl LocationPrior for BoxPrior {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point3 {
        let b = &self.bbox;
        Point3::new(
            if b.max.x > b.min.x {
                rng.gen_range(b.min.x..=b.max.x)
            } else {
                b.min.x
            },
            if b.max.y > b.min.y {
                rng.gen_range(b.min.y..=b.max.y)
            } else {
                b.min.y
            },
            if b.max.z > b.min.z {
                rng.gen_range(b.min.z..=b.max.z)
            } else {
                b.min.z
            },
        )
    }

    fn pdf(&self, p: &Point3) -> f64 {
        if !self.bbox.contains(p) {
            return 0.0;
        }
        let area = self.bbox.area_xy().max(1e-12);
        let dz = self.bbox.max.z - self.bbox.min.z;
        if dz > 0.0 {
            1.0 / (area * dz)
        } else {
            1.0 / area
        }
    }

    fn bounds(&self) -> Aabb {
        self.bbox
    }

    fn support_bounds(&self) -> Aabb {
        self.bbox
    }
}

/// Uniform prior over a union of boxes (e.g. the two shelf rows of the
/// lab deployment): sampling picks a box with probability proportional
/// to its XY area, then a uniform point inside it.
#[derive(Debug, Clone)]
pub struct MultiBoxPrior {
    boxes: Vec<Aabb>,
    total_area: f64,
}

impl MultiBoxPrior {
    /// Builds the prior; panics on an empty box list.
    pub fn new(boxes: Vec<Aabb>) -> Self {
        assert!(!boxes.is_empty(), "MultiBoxPrior needs at least one box");
        let total_area = boxes.iter().map(|b| b.area_xy().max(1e-12)).sum();
        Self { boxes, total_area }
    }

    /// The component boxes.
    pub fn boxes(&self) -> &[Aabb] {
        &self.boxes
    }
}

impl LocationPrior for MultiBoxPrior {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point3 {
        let mut pick = rng.gen_range(0.0..self.total_area);
        for b in &self.boxes {
            let a = b.area_xy().max(1e-12);
            if pick <= a {
                return BoxPrior::new(*b).sample(rng);
            }
            pick -= a;
        }
        BoxPrior::new(*self.boxes.last().expect("non-empty")).sample(rng)
    }

    fn pdf(&self, p: &Point3) -> f64 {
        for b in &self.boxes {
            if b.contains(p) {
                return 1.0 / self.total_area;
            }
        }
        0.0
    }

    fn bounds(&self) -> Aabb {
        let mut out = Aabb::empty();
        for b in &self.boxes {
            out = out.union(b);
        }
        out
    }
}

/// Samples and scores object-location transitions
/// `p(O_{t,i} | O_{t-1,i})`.
#[derive(Debug, Clone, Copy)]
pub struct ObjectLocationModel {
    params: ObjectParams,
}

impl ObjectLocationModel {
    /// Builds the model from its parameters.
    pub fn new(params: ObjectParams) -> Self {
        Self { params }
    }

    /// The per-epoch relocation probability `α`.
    pub fn alpha(&self) -> f64 {
        self.params.alpha
    }

    /// Samples `O_t` given `O_{t-1}`: stays put with probability
    /// `1 - α`, otherwise relocates uniformly under `prior`.
    pub fn sample_next<P: LocationPrior + ?Sized, R: Rng + ?Sized>(
        &self,
        prev: &Point3,
        prior: &P,
        rng: &mut R,
    ) -> Point3 {
        if rng.gen::<f64>() < self.params.alpha {
            prior.sample(rng)
        } else {
            *prev
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn prior() -> BoxPrior {
        BoxPrior::new(Aabb::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(10.0, 4.0, 0.0),
        ))
    }

    #[test]
    fn box_prior_samples_inside() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = prior();
        for _ in 0..1000 {
            let s = p.sample(&mut rng);
            assert!(p.contains(&s), "sample outside: {s:?}");
            assert_eq!(s.z, 0.0);
        }
    }

    #[test]
    fn box_prior_pdf_uniform() {
        let p = prior();
        let inside = Point3::new(5.0, 2.0, 0.0);
        let outside = Point3::new(-1.0, 2.0, 0.0);
        assert!((p.pdf(&inside) - 1.0 / 40.0).abs() < 1e-12);
        assert_eq!(p.pdf(&outside), 0.0);
    }

    #[test]
    fn stationary_object_mostly_stays() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = ObjectLocationModel::new(ObjectParams { alpha: 0.01 });
        let p = prior();
        let start = Point3::new(5.0, 2.0, 0.0);
        let n = 10_000;
        let moved = (0..n)
            .filter(|_| m.sample_next(&start, &p, &mut rng).dist(&start) > 1e-12)
            .count();
        let frac = moved as f64 / n as f64;
        assert!((frac - 0.01).abs() < 0.005, "moved fraction {frac}");
    }

    #[test]
    fn alpha_one_always_relocates_uniformly() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = ObjectLocationModel::new(ObjectParams { alpha: 1.0 });
        let p = prior();
        let start = Point3::new(5.0, 2.0, 0.0);
        let mut mean_x = 0.0;
        let n = 5000;
        for _ in 0..n {
            mean_x += m.sample_next(&start, &p, &mut rng).x;
        }
        mean_x /= n as f64;
        assert!((mean_x - 5.0).abs() < 0.2, "mean_x {mean_x}");
    }

    #[test]
    fn multibox_samples_cover_both_boxes() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Aabb::new(Point3::new(1.0, 0.0, 0.0), Point3::new(2.0, 10.0, 0.0));
        let b = Aabb::new(Point3::new(-2.0, 0.0, 0.0), Point3::new(-1.0, 10.0, 0.0));
        let p = MultiBoxPrior::new(vec![a, b]);
        let mut left = 0;
        let mut right = 0;
        for _ in 0..2000 {
            let s = p.sample(&mut rng);
            assert!(p.contains(&s), "off-prior sample {s:?}");
            if s.x > 0.0 {
                right += 1;
            } else {
                left += 1;
            }
        }
        // equal-area boxes: roughly half each
        assert!(left > 800 && right > 800, "left {left} right {right}");
    }

    #[test]
    fn multibox_pdf_uniform_and_zero_outside() {
        let a = Aabb::new(Point3::new(1.0, 0.0, 0.0), Point3::new(2.0, 10.0, 0.0));
        let b = Aabb::new(Point3::new(-2.0, 0.0, 0.0), Point3::new(-1.0, 10.0, 0.0));
        let p = MultiBoxPrior::new(vec![a, b]);
        let inside_a = Point3::new(1.5, 5.0, 0.0);
        let inside_b = Point3::new(-1.5, 5.0, 0.0);
        let outside = Point3::new(0.0, 5.0, 0.0);
        assert!((p.pdf(&inside_a) - 1.0 / 20.0).abs() < 1e-12);
        assert_eq!(p.pdf(&inside_a), p.pdf(&inside_b));
        assert_eq!(p.pdf(&outside), 0.0);
        assert!(p.bounds().contains(&outside)); // bounds is the hull
    }
}

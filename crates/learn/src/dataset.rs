//! Training rows for the sensor-model fit.

use rfid_geom::{Point3, Pose};
use rfid_model::SensorParams;

/// One weighted observation for logistic regression: the feature vector
/// `[1, d, d², θ, θ²]`, the binary outcome (read / missed), and an
/// importance weight (posterior mass of the hidden state that produced
/// the geometry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorRow {
    pub features: [f64; 5],
    pub read: bool,
    pub weight: f64,
}

impl SensorRow {
    /// Builds a row from reader pose and tag location.
    pub(crate) fn from_geometry(reader: &Pose, tag: &Point3, read: bool, weight: f64) -> Self {
        let (d, th) = reader.range_bearing(tag);
        Self {
            features: SensorParams::features(d, th),
            read,
            weight,
        }
    }

    /// Builds a row directly from distance and angle.
    pub fn from_dt(d: f64, theta: f64, read: bool, weight: f64) -> Self {
        Self {
            features: SensorParams::features(d, theta),
            read,
            weight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_row_matches_dt_row() {
        let pose = Pose::new(Point3::new(0.0, 0.0, 0.0), 0.0);
        let tag = Point3::new(3.0, 0.0, 0.0);
        let a = SensorRow::from_geometry(&pose, &tag, true, 1.0);
        let b = SensorRow::from_dt(3.0, 0.0, true, 1.0);
        assert_eq!(a, b);
        assert_eq!(a.features, [1.0, 3.0, 9.0, 0.0, 0.0]);
    }
}

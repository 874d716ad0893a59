//! The joint dynamic Bayesian network (Eq. 2) assembled from its four
//! component models.
//!
//! [`JointModel`] is the object the inference engine and the EM learner
//! both consume: it exposes exactly the local conditional densities that
//! appear in the factorization, so the particle-filter weight update
//! (Eq. 5) and the EM expected log-likelihood are written against one
//! definition of the model.

use crate::motion::MotionModel;
use crate::object::ObjectLocationModel;
use crate::params::ModelParams;
use crate::sensing::LocationSensingModel;
use crate::sensor::{LogisticSensorModel, ReadRateModel};
use rfid_geom::{Point3, Pose};

/// The full generative model `p(R, R̂, O, Ô | S)` of Eq. 2.
///
/// Generic over the sensor model so that inference can run either with
/// the learnable logistic sensor (the system's normal mode) or with a
/// ground-truth sensor shape (the "True Sensor Model" curves of
/// Fig. 5(e)).
#[derive(Debug, Clone, Copy)]
pub struct JointModel<S = LogisticSensorModel> {
    pub sensor: S,
    pub motion: MotionModel,
    pub sensing: LocationSensingModel,
    pub object: ObjectLocationModel,
    params: ModelParams,
}

impl JointModel<LogisticSensorModel> {
    /// Assembles the joint model from a parameter bundle.
    pub fn new(params: ModelParams) -> Self {
        Self {
            sensor: LogisticSensorModel::new(params.sensor),
            motion: MotionModel::new(params.motion),
            sensing: LocationSensingModel::new(params.sensing),
            object: ObjectLocationModel::new(params.object),
            params,
        }
    }
}

impl<S: ReadRateModel> JointModel<S> {
    /// Assembles a joint model around an arbitrary sensor shape (e.g.
    /// the simulator's true cone). The `params.sensor` field is kept
    /// for bookkeeping but the supplied `sensor` is what inference
    /// weights with.
    pub fn with_sensor(sensor: S, params: ModelParams) -> Self {
        Self {
            sensor,
            motion: MotionModel::new(params.motion),
            sensing: LocationSensingModel::new(params.sensing),
            object: ObjectLocationModel::new(params.object),
            params,
        }
    }

    /// The parameter bundle this model was built from.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Reader-particle incremental log weight (the `w_rt` term of
    /// Eq. 5): location-report likelihood plus the shelf-tag reading
    /// likelihoods. `shelf_obs` pairs each *known* shelf-tag location
    /// with whether it was read this epoch.
    pub fn reader_log_weight<'a, I>(
        &self,
        hypothesis: &Pose,
        reported: Option<&Pose>,
        shelf_obs: I,
    ) -> f64
    where
        I: IntoIterator<Item = (&'a Point3, bool)>,
    {
        let mut lw = match reported {
            Some(r) => self.sensing.log_likelihood(hypothesis, r),
            None => 0.0,
        };
        for (loc, read) in shelf_obs {
            lw += self.sensor.log_likelihood(hypothesis, loc, read);
        }
        lw
    }

    /// Object-particle incremental log weight (the `w_ti` term of
    /// Eq. 5): the sensor likelihood of the observed reading outcome
    /// given the hypothesized reader pose and object location.
    #[inline]
    pub fn object_log_weight(&self, reader: &Pose, object: &Point3, read: bool) -> f64 {
        self.sensor.log_likelihood(reader, object, read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use rfid_geom::Point3;

    fn model() -> JointModel {
        JointModel::new(ModelParams::default_warehouse())
    }

    #[test]
    fn reader_weight_prefers_consistent_pose() {
        let m = model();
        let truth = Pose::new(Point3::new(0.0, 5.0, 0.0), 0.0);
        let report = truth; // unbiased sensing, honest report
        let good = truth;
        let bad = Pose::new(Point3::new(0.0, 8.0, 0.0), 0.0);
        let w_good = m.reader_log_weight(&good, Some(&report), std::iter::empty());
        let w_bad = m.reader_log_weight(&bad, Some(&report), std::iter::empty());
        assert!(w_good > w_bad);
    }

    #[test]
    fn shelf_tag_evidence_disambiguates_pose() {
        // Fig. 2(c): a reader-pose sample near an observed shelf tag
        // gets more weight than one far from it, even with no location
        // report at all.
        let m = model();
        let shelf = Point3::new(1.0, 5.0, 0.0);
        let near = Pose::new(Point3::new(0.0, 5.0, 0.0), 0.0);
        let far = Pose::new(Point3::new(0.0, 25.0, 0.0), 0.0);
        let w_near = m.reader_log_weight(&near, None, [(&shelf, true)]);
        let w_far = m.reader_log_weight(&far, None, [(&shelf, true)]);
        assert!(w_near > w_far);
    }

    #[test]
    fn missed_shelf_tag_penalizes_close_pose() {
        // Conversely, claiming to be right next to a shelf tag that was
        // NOT read costs weight relative to being far from it.
        let m = model();
        let shelf = Point3::new(1.0, 5.0, 0.0);
        let near = Pose::new(Point3::new(0.0, 5.0, 0.0), 0.0);
        let far = Pose::new(Point3::new(0.0, 25.0, 0.0), 0.0);
        let w_near = m.reader_log_weight(&near, None, [(&shelf, false)]);
        let w_far = m.reader_log_weight(&far, None, [(&shelf, false)]);
        assert!(w_far > w_near);
    }

    #[test]
    fn object_weight_prefers_in_range_location_on_read() {
        let m = model();
        let reader = Pose::identity();
        let close = Point3::new(1.0, 0.0, 0.0);
        let far = Point3::new(20.0, 0.0, 0.0);
        assert!(
            m.object_log_weight(&reader, &close, true) > m.object_log_weight(&reader, &far, true)
        );
        // and the reverse for a miss
        assert!(
            m.object_log_weight(&reader, &far, false) > m.object_log_weight(&reader, &close, false)
        );
    }

    #[test]
    fn weights_compose_additively() {
        // The reader weight with a location report and two shelf tags
        // equals the sum of the individual terms (Eq. 5 factorization).
        let m = model();
        let h = Pose::new(Point3::new(0.0, 5.0, 0.0), 0.0);
        let rep = Pose::new(Point3::new(0.01, 5.01, 0.0), 0.0);
        let s1 = Point3::new(1.0, 5.0, 0.0);
        let s2 = Point3::new(1.0, 6.0, 0.0);
        let total = m.reader_log_weight(&h, Some(&rep), [(&s1, true), (&s2, false)]);
        let parts = m.sensing.log_likelihood(&h, &rep)
            + m.sensor.log_likelihood(&h, &s1, true)
            + m.sensor.log_likelihood(&h, &s2, false);
        assert!((total - parts).abs() < 1e-12);
    }
}

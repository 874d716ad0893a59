//! `Rstream`: emit the full relation at each evaluation instant.
//!
//! CQL's `Rstream(R)` streams the entire contents of relation `R` at
//! every time instant. In this mini-algebra an [`Rstream`] wraps an
//! evaluation function applied to a windowed relation and records each
//! instant's emission, which is what the fire-code query's outer
//! `Select Rstream(...)` needs.

/// Streams snapshots of a derived relation.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rstream<T> {
    emissions: Vec<(f64, Vec<T>)>,
}

impl<T> Rstream<T> {
    /// Creates an empty Rstream log.
    pub(crate) fn new() -> Self {
        Self {
            emissions: Vec::new(),
        }
    }

    /// Emits the relation contents computed at `time`. Empty relations
    /// are recorded too (an instant can legitimately produce nothing).
    pub(crate) fn emit(&mut self, time: f64, relation: Vec<T>) {
        self.emissions.push((time, relation));
    }

    /// All emissions so far, in order.
    pub(crate) fn emissions(&self) -> &[(f64, Vec<T>)] {
        &self.emissions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut r = Rstream::new();
        r.emit(1.0, vec!["a"]);
        r.emit(2.0, vec![]);
        r.emit(3.0, vec!["b", "c"]);
        assert_eq!(r.emissions().len(), 3);
        assert_eq!(r.emissions()[2], (3.0, vec!["b", "c"]));
    }
}

//! The plain statement of the reader-index draw: one uniform `u`, then
//! an O(n) scan with an `exp` per step. `ReaderTables::sample_index`
//! (CDF + guide table) is pinned against it in index and RNG state by
//! `reader_draw_prop.rs`; the library draws only through the tables.

use rand::Rng;
use rfid_core::ReaderFilter;

/// Draws a particle index according to the reader's current weights.
pub(crate) fn sample_index<R: Rng + ?Sized>(reader: &ReaderFilter, rng: &mut R) -> u32 {
    let particles = reader.particles();
    let u: f64 = rng.gen();
    let mut cum = 0.0;
    for (i, p) in particles.iter().enumerate() {
        cum += p.log_w.exp();
        if u <= cum {
            return i as u32;
        }
    }
    (particles.len() - 1) as u32
}

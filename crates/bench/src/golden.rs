//! Golden-trace digests: a compact, bit-exact fingerprint of an event
//! stream, committed under `tests/golden/` and checked by the root
//! `golden_trace` suite. Any unintended change to the inference math —
//! a constant, an RNG draw, a merge order — flips the digest and fails
//! tier-1 instead of passing silently.
//!
//! A digest file carries the FNV-1a hash of *every* event's full bit
//! pattern plus the first few events spelled out, so a mismatch shows
//! where the stream diverged, not just that it did. Regenerate with
//! the bless path:
//!
//! ```text
//! RFID_GOLDEN_BLESS=1 cargo test --test golden_trace
//! ```

use rfid_stream::LocationEvent;
use std::fmt::Write as _;

/// Events spelled out at the head of a digest file.
pub(crate) const DIGEST_HEAD_EVENTS: usize = 8;

/// Re-exported from `rfid_stream::digest`, where the cluster
/// coordinator shares the same definition (PR 9).
pub use rfid_stream::digest::event_digest;

/// Renders the committed digest-file content for one scenario:
/// header, whole-stream hash, and the first eight (`DIGEST_HEAD_EVENTS`)
/// events with their float payloads as raw bits (display rounding must
/// never mask a drift).
pub fn render_digest(scenario: &str, config: &str, events: &[LocationEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# golden event-stream digest — regenerate with:\n\
         #   RFID_GOLDEN_BLESS=1 cargo test --test golden_trace"
    );
    let _ = writeln!(out, "scenario: {scenario}");
    let _ = writeln!(out, "config: {config}");
    let _ = writeln!(out, "events: {}", events.len());
    let _ = writeln!(out, "hash: {:#018x}", event_digest(events));
    for (i, e) in events.iter().take(DIGEST_HEAD_EVENTS).enumerate() {
        let _ = writeln!(
            out,
            "event {i}: epoch={} tag={} x={:#018x} y={:#018x} z={:#018x}",
            e.epoch.0,
            e.tag.0,
            e.location.x.to_bits(),
            e.location.y.to_bits(),
            e.location.z.to_bits(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::Point3;
    use rfid_stream::{Epoch, TagId};

    fn ev(epoch: u64, tag: u64, y: f64) -> LocationEvent {
        LocationEvent::new(Epoch(epoch), TagId(tag), Point3::new(2.0, y, 0.0))
    }

    // bit-sensitivity of the hash itself is covered where it lives now
    // (rfid_stream::digest); here only the rendered file format

    #[test]
    fn render_contains_hash_and_head() {
        let events = vec![ev(1, 1, 3.0); 12];
        let s = render_digest("test_scenario", "cfg", &events);
        assert!(s.contains("scenario: test_scenario"));
        assert!(s.contains("events: 12"));
        assert!(s.contains("hash: 0x"));
        assert_eq!(s.matches("event ").count(), DIGEST_HEAD_EVENTS);
    }
}

//! Bit-exact event-stream digests.
//!
//! [`event_digest`] is the fingerprint behind the golden-trace suite
//! (`rfid_bench::golden` renders the committed files) and the cluster's
//! bit-identical gate: a coordinator hashes the merged event stream and
//! the digest must equal the single-process engine's for every worker
//! count. It lives here, next to [`LocationEvent`], so both the bench
//! crate and the cluster binaries share one definition.
//!
//! [`fnv1a`] is the workspace's one FNV-1a: the WAL's record checksum
//! (`rfid_serve::log`) and the checkpoint's checksum and config
//! fingerprint (`rfid_core::engine::checkpoint`) call it too.

use crate::LocationEvent;

/// FNV-1a 64-bit offset basis: the `h` a fresh hash starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running FNV-1a hash `h` (start from
/// [`FNV_OFFSET`]).
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a hash over the full bit pattern of every event: epoch, tag,
/// location bits, and (when present) the statistics bits. Bit-exact —
/// two streams hash equal iff a bit-level comparison would pass.
pub fn event_digest(events: &[LocationEvent]) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a(h, &(events.len() as u64).to_le_bytes());
    for e in events {
        h = fnv1a(h, &e.epoch.0.to_le_bytes());
        h = fnv1a(h, &e.tag.0.to_le_bytes());
        for v in [e.location.x, e.location.y, e.location.z] {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
        match e.stats {
            None => h = fnv1a(h, &[0u8]),
            Some(s) => {
                h = fnv1a(h, &[1u8]);
                h = fnv1a(h, &s.support.to_bits().to_le_bytes());
                for v in s.var {
                    h = fnv1a(h, &v.to_bits().to_le_bytes());
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Epoch, EventStats, TagId};
    use rfid_geom::Point3;

    fn ev(epoch: u64, tag: u64, y: f64) -> LocationEvent {
        LocationEvent::new(Epoch(epoch), TagId(tag), Point3::new(2.0, y, 0.0))
    }

    #[test]
    fn digest_is_bit_sensitive() {
        let a = vec![ev(1, 1, 3.0), ev(2, 2, 4.0)];
        let base = event_digest(&a);
        // any single-field change moves the hash
        let mut b = a.clone();
        b[1].location.y = f64::from_bits(b[1].location.y.to_bits() ^ 1);
        assert_ne!(base, event_digest(&b), "last-ulp drift must be caught");
        let mut c = a.clone();
        c[0].epoch = Epoch(7);
        assert_ne!(base, event_digest(&c));
        let mut d = a.clone();
        d[0].stats = Some(EventStats::default());
        assert_ne!(base, event_digest(&d));
        // order matters: the stream is an ordered contract
        let e = vec![a[1], a[0]];
        assert_ne!(base, event_digest(&e));
        // and equality holds for equal streams
        assert_eq!(base, event_digest(&a.clone()));
    }

    #[test]
    fn empty_and_len_prefix() {
        assert_ne!(event_digest(&[]), event_digest(&[ev(0, 0, 0.0)]));
    }
}

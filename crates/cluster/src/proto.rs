//! The cluster's control-plane messages, serialized over the shared
//! length-prefixed framing ([`rfid_stream::wire`]).
//!
//! Every payload starts with a one-byte message kind. Integers are
//! little-endian; `f64`s travel as raw bit patterns (`to_bits`), so a
//! decoded plan or directive is **bit-identical** to the encoded one —
//! the cluster's equivalence gate tolerates no rounding. The event
//! data plane (worker → coordinator) reuses the `EVENTS_*` frames of
//! [`rfid_stream::wire::WireEventSink`] unchanged.
//!
//! Decoding is strict: short payloads, unknown kinds, and trailing
//! bytes are all typed [`WireFormatError`]s, never panics or silent
//! truncation (the adversarial suite in this module drives every
//! byte-boundary cut).

use rfid_core::engine::cluster::{EpochPlan, ResampleDirective, TaskReport};
use rfid_core::{ReaderParticle, ReaderRemap};
use rfid_obs::{HistogramSnapshot, Snapshot, Value, HISTOGRAM_BUCKETS};
use rfid_stream::wire::{
    self, put_f64, put_pose, put_str, put_u32, put_u64, put_u8, PayloadReader, WireFormatError,
    DEFAULT_MAX_FRAME_LEN,
};
use rfid_stream::{Epoch, TagId};
use std::io::{self, Read, Write};

/// Worker → router/coordinator: identifies the connection.
pub(crate) const MSG_HELLO: u8 = 0x10;
/// Router → worker: one epoch's plan (this worker's partition only).
pub(crate) const MSG_PLAN: u8 = 0x11;
/// Worker → router: the stepped objects' task reports.
pub(crate) const MSG_REPORTS: u8 = 0x12;
/// Router → worker: the resample directive (will-resample epochs only).
pub(crate) const MSG_RESAMPLE: u8 = 0x13;
/// Router → worker: end of trace; finalize and shut down.
pub(crate) const MSG_FINISH: u8 = 0x14;
/// Worker → router: the worker's registry snapshot, sent once after
/// FINISH (covering the final resample and flush). The router merges
/// the workers' snapshots into the cluster-wide view.
pub(crate) const MSG_METRICS: u8 = 0x15;

/// Writes one message frame (kind byte + body).
pub(crate) fn write_msg<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    wire::write_frame(w, payload, DEFAULT_MAX_FRAME_LEN)?;
    w.flush()
}

/// Reads one message frame; `Ok(None)` on clean EOF at a boundary.
pub fn read_msg<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    wire::read_frame(r, DEFAULT_MAX_FRAME_LEN)
}

fn format_err(e: WireFormatError) -> io::Error {
    e.into()
}

/// Expects the next frame to carry `kind`, returning its body reader
/// position past the kind byte.
pub(crate) fn expect_msg<R: Read>(r: &mut R, kind: u8) -> io::Result<Vec<u8>> {
    let payload = read_msg(r)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("peer closed while a 0x{kind:02x} message was expected"),
        )
    })?;
    if payload.first() != Some(&kind) {
        return Err(format_err(WireFormatError::BadTag(
            payload.first().copied().unwrap_or(0xFF),
        )));
    }
    Ok(payload)
}

pub(crate) fn encode_hello(index: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    put_u8(&mut out, MSG_HELLO);
    put_u32(&mut out, index);
    out
}

pub(crate) fn decode_hello(payload: &[u8]) -> Result<u32, WireFormatError> {
    let mut r = PayloadReader::new(payload);
    match r.u8()? {
        MSG_HELLO => {}
        other => return Err(WireFormatError::BadTag(other)),
    }
    let index = r.u32()?;
    r.finish()?;
    Ok(index)
}

fn put_reader(out: &mut Vec<u8>, reader: &[ReaderParticle]) {
    put_u32(out, reader.len() as u32);
    for p in reader {
        put_pose(out, &p.pose);
        put_f64(out, p.log_w);
    }
}

fn take_reader(r: &mut PayloadReader<'_>) -> Result<Vec<ReaderParticle>, WireFormatError> {
    let n = r.count_u32()?;
    let mut reader = Vec::with_capacity(n);
    for _ in 0..n {
        let pose = r.pose()?;
        let log_w = r.f64()?;
        reader.push(ReaderParticle { pose, log_w });
    }
    Ok(reader)
}

/// Encodes worker `index`'s view of a plan: the shared reader state
/// plus only that worker's readings partition.
pub fn encode_plan(plan: &EpochPlan, index: usize) -> Vec<u8> {
    let mut out = Vec::new();
    put_u8(&mut out, MSG_PLAN);
    put_u64(&mut out, plan.epoch.0);
    put_pose(&mut out, &plan.reader_est);
    put_u8(&mut out, plan.will_resample as u8);
    put_reader(&mut out, &plan.reader);
    let readings = &plan.readings[index];
    put_u32(&mut out, readings.len() as u32);
    for tag in readings {
        put_u64(&mut out, tag.0);
    }
    out
}

/// Decodes a worker-view plan. The result has exactly one readings
/// partition — drive it with `process_epoch(&plan, 0, …)`.
pub fn decode_plan(payload: &[u8]) -> Result<EpochPlan, WireFormatError> {
    let mut r = PayloadReader::new(payload);
    match r.u8()? {
        MSG_PLAN => {}
        other => return Err(WireFormatError::BadTag(other)),
    }
    let epoch = Epoch(r.u64()?);
    let reader_est = r.pose()?;
    let will_resample = r.u8()? != 0;
    let reader = take_reader(&mut r)?;
    let n = r.count_u32()?;
    let mut readings = Vec::with_capacity(n);
    for _ in 0..n {
        readings.push(TagId(r.u64()?));
    }
    r.finish()?;
    Ok(EpochPlan {
        epoch,
        reader_est,
        will_resample,
        reader,
        readings: vec![readings],
    })
}

pub fn encode_reports(epoch: Epoch, reports: &[TaskReport]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u8(&mut out, MSG_REPORTS);
    put_u64(&mut out, epoch.0);
    put_u32(&mut out, reports.len() as u32);
    for t in reports {
        put_u64(&mut out, t.tag.0);
        put_u32(&mut out, t.support.len() as u32);
        for v in &t.support {
            put_f64(&mut out, *v);
        }
        put_u32(&mut out, t.reader_hist.len() as u32);
        for c in &t.reader_hist {
            put_u32(&mut out, *c);
        }
    }
    out
}

pub fn decode_reports(payload: &[u8]) -> Result<(Epoch, Vec<TaskReport>), WireFormatError> {
    let mut r = PayloadReader::new(payload);
    match r.u8()? {
        MSG_REPORTS => {}
        other => return Err(WireFormatError::BadTag(other)),
    }
    let epoch = Epoch(r.u64()?);
    let n = r.count_u32()?;
    let mut reports = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = TagId(r.u64()?);
        let ns = r.count_u32()?;
        let mut support = Vec::with_capacity(ns);
        for _ in 0..ns {
            support.push(r.f64()?);
        }
        let nh = r.count_u32()?;
        let mut reader_hist = Vec::with_capacity(nh);
        for _ in 0..nh {
            reader_hist.push(r.u32()?);
        }
        reports.push(TaskReport {
            tag,
            support,
            reader_hist,
        });
    }
    r.finish()?;
    Ok((epoch, reports))
}

/// Encodes worker `index`'s view of a resample directive: the shared
/// remap and post-resample reader, plus only the draw lists for tags
/// that worker owns (`tag % num_workers == index`).
pub fn encode_resample(d: &ResampleDirective, index: usize, num_workers: usize) -> Vec<u8> {
    let mut out = Vec::new();
    put_u8(&mut out, MSG_RESAMPLE);
    let fd = d.remap.first_descendant();
    put_u32(&mut out, fd.len() as u32);
    for slot in fd {
        match slot {
            Some(v) => {
                put_u8(&mut out, 1);
                put_u32(&mut out, *v);
            }
            None => {
                put_u8(&mut out, 0);
                put_u32(&mut out, 0);
            }
        }
    }
    put_u32(&mut out, d.remap.num_new());
    put_reader(&mut out, &d.reader);
    let mine: Vec<&(TagId, Vec<u32>)> = d
        .draws
        .iter()
        .filter(|(tag, _)| (tag.0 % num_workers as u64) as usize == index)
        .collect();
    put_u32(&mut out, mine.len() as u32);
    for (tag, vals) in mine {
        put_u64(&mut out, tag.0);
        put_u32(&mut out, vals.len() as u32);
        for v in vals {
            put_u32(&mut out, *v);
        }
    }
    out
}

pub fn decode_resample(payload: &[u8]) -> Result<ResampleDirective, WireFormatError> {
    let mut r = PayloadReader::new(payload);
    match r.u8()? {
        MSG_RESAMPLE => {}
        other => return Err(WireFormatError::BadTag(other)),
    }
    let nf = r.count_u32()?;
    let mut fd = Vec::with_capacity(nf);
    for _ in 0..nf {
        let present = r.u8()? != 0;
        let v = r.u32()?;
        fd.push(present.then_some(v));
    }
    let num_new = r.u32()?;
    let reader = take_reader(&mut r)?;
    let nd = r.count_u32()?;
    let mut draws = Vec::with_capacity(nd);
    for _ in 0..nd {
        let tag = TagId(r.u64()?);
        let nv = r.count_u32()?;
        let mut vals = Vec::with_capacity(nv);
        for _ in 0..nv {
            vals.push(r.u32()?);
        }
        draws.push((tag, vals));
    }
    r.finish()?;
    Ok(ResampleDirective {
        remap: ReaderRemap::from_parts(fd, num_new),
        reader,
        draws,
    })
}

const VALUE_COUNTER: u8 = 0;
const VALUE_GAUGE: u8 = 1;
const VALUE_HISTOGRAM: u8 = 2;

/// Encodes one registry snapshot. Histograms ship only their nonzero
/// buckets (index + count pairs), so a quiet worker's frame stays
/// tiny.
pub fn encode_metrics(epoch: Epoch, snap: &Snapshot) -> Vec<u8> {
    let mut out = Vec::new();
    put_u8(&mut out, MSG_METRICS);
    put_u64(&mut out, epoch.0);
    put_u32(&mut out, snap.entries().len() as u32);
    for (name, value) in snap.entries() {
        put_str(&mut out, name);
        match value {
            Value::Counter(v) => {
                put_u8(&mut out, VALUE_COUNTER);
                put_u64(&mut out, *v);
            }
            Value::Gauge(v) => {
                put_u8(&mut out, VALUE_GAUGE);
                put_u64(&mut out, *v);
            }
            Value::Histogram(h) => {
                put_u8(&mut out, VALUE_HISTOGRAM);
                put_u64(&mut out, h.count);
                put_u64(&mut out, h.sum);
                let nonzero = h.buckets.iter().filter(|b| **b != 0).count();
                put_u32(&mut out, nonzero as u32);
                for (i, b) in h.buckets.iter().enumerate() {
                    if *b != 0 {
                        put_u8(&mut out, i as u8);
                        put_u64(&mut out, *b);
                    }
                }
            }
        }
    }
    out
}

pub fn decode_metrics(payload: &[u8]) -> Result<(Epoch, Snapshot), WireFormatError> {
    let mut r = PayloadReader::new(payload);
    match r.u8()? {
        MSG_METRICS => {}
        other => return Err(WireFormatError::BadTag(other)),
    }
    let epoch = Epoch(r.u64()?);
    let n = r.count_u32()?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str_field()?.to_string();
        let value = match r.u8()? {
            VALUE_COUNTER => Value::Counter(r.u64()?),
            VALUE_GAUGE => Value::Gauge(r.u64()?),
            VALUE_HISTOGRAM => {
                let mut h = HistogramSnapshot {
                    count: r.u64()?,
                    sum: r.u64()?,
                    ..HistogramSnapshot::default()
                };
                let nb = r.u32()? as usize;
                for _ in 0..nb {
                    let i = r.u8()? as usize;
                    if i >= HISTOGRAM_BUCKETS {
                        return Err(WireFormatError::BadTag(i as u8));
                    }
                    h.buckets[i] = r.u64()?;
                }
                Value::Histogram(h)
            }
            other => return Err(WireFormatError::BadTag(other)),
        };
        entries.push((name, value));
    }
    r.finish()?;
    Ok((epoch, Snapshot::from_entries(entries)))
}

pub(crate) fn encode_finish(last_epoch: Epoch) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    put_u8(&mut out, MSG_FINISH);
    put_u64(&mut out, last_epoch.0);
    out
}

pub(crate) fn decode_finish(payload: &[u8]) -> Result<Epoch, WireFormatError> {
    let mut r = PayloadReader::new(payload);
    match r.u8()? {
        MSG_FINISH => {}
        other => return Err(WireFormatError::BadTag(other)),
    }
    let e = Epoch(r.u64()?);
    r.finish()?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::{Point3, Pose};

    fn particle(i: u64) -> ReaderParticle {
        ReaderParticle {
            pose: Pose {
                pos: Point3::new(i as f64 + 0.125, -(i as f64), 2.5),
                phi: 0.1 * i as f64,
            },
            log_w: -(i as f64) * 0.75,
        }
    }

    fn sample_plan() -> EpochPlan {
        EpochPlan {
            epoch: Epoch(42),
            reader_est: Pose {
                pos: Point3::new(1.0, 2.0, 3.0),
                phi: 0.5,
            },
            will_resample: true,
            reader: (0..3).map(particle).collect(),
            readings: vec![vec![TagId(0), TagId(2)], vec![TagId(1), TagId(3)]],
        }
    }

    #[test]
    fn plan_roundtrips_bit_exactly_per_worker() {
        let plan = sample_plan();
        for index in 0..2 {
            let enc = encode_plan(&plan, index);
            let dec = decode_plan(&enc).expect("decode");
            assert_eq!(dec.epoch, plan.epoch);
            assert_eq!(dec.will_resample, plan.will_resample);
            assert_eq!(
                dec.reader_est.pos.x.to_bits(),
                plan.reader_est.pos.x.to_bits()
            );
            assert_eq!(dec.reader_est.phi.to_bits(), plan.reader_est.phi.to_bits());
            assert_eq!(dec.reader.len(), plan.reader.len());
            for (a, b) in dec.reader.iter().zip(&plan.reader) {
                assert_eq!(a.pose.pos.y.to_bits(), b.pose.pos.y.to_bits());
                assert_eq!(a.log_w.to_bits(), b.log_w.to_bits());
            }
            assert_eq!(dec.readings, vec![plan.readings[index].clone()]);
        }
    }

    #[test]
    fn reports_roundtrip() {
        let reports = vec![
            TaskReport {
                tag: TagId(7),
                support: vec![0.25, -1.5, f64::MIN_POSITIVE],
                reader_hist: vec![3, 0, 9],
            },
            TaskReport {
                tag: TagId(11),
                support: vec![],
                reader_hist: vec![],
            },
        ];
        let enc = encode_reports(Epoch(9), &reports);
        let (epoch, dec) = decode_reports(&enc).expect("decode");
        assert_eq!(epoch, Epoch(9));
        assert_eq!(dec.len(), 2);
        assert_eq!(dec[0].tag, TagId(7));
        assert_eq!(dec[0].support[2].to_bits(), f64::MIN_POSITIVE.to_bits());
        assert_eq!(dec[0].reader_hist, vec![3, 0, 9]);
        assert_eq!(dec[1].support.len(), 0);
    }

    #[test]
    fn resample_roundtrips_and_partitions_draws() {
        let d = ResampleDirective {
            remap: ReaderRemap::from_parts(vec![Some(0), None, Some(1)], 2),
            reader: (0..2).map(particle).collect(),
            draws: vec![
                (TagId(0), vec![1, 0]),
                (TagId(1), vec![]),
                (TagId(2), vec![0]),
                (TagId(3), vec![1, 1, 0]),
            ],
        };
        // worker 1 of 2 owns the odd tags only
        let enc = encode_resample(&d, 1, 2);
        let dec = decode_resample(&enc).expect("decode");
        assert_eq!(dec.remap.first_descendant(), d.remap.first_descendant());
        assert_eq!(dec.remap.num_new(), 2);
        assert_eq!(dec.reader.len(), 2);
        assert_eq!(
            dec.draws,
            vec![(TagId(1), vec![]), (TagId(3), vec![1, 1, 0])]
        );
    }

    /// A snapshot with all three metric kinds, built from a scratch
    /// registry.
    fn sample_metrics() -> Snapshot {
        let reg = rfid_obs::Registry::new();
        reg.counter("engine_epochs_total").add(12);
        reg.gauge("pipeline_sync_pending_high_water").set(3);
        let h = reg.histogram("engine_infer_us");
        h.record(0);
        h.record(900);
        h.record(1_000_000);
        reg.snapshot()
    }

    #[test]
    fn metrics_roundtrip_bit_exactly() {
        let snap = sample_metrics();
        let enc = encode_metrics(Epoch(6), &snap);
        let (epoch, dec) = decode_metrics(&enc).expect("decode");
        assert_eq!(epoch, Epoch(6));
        assert_eq!(dec, snap);
        // an empty snapshot also roundtrips
        let empty = Snapshot::default();
        let (_, dec) = decode_metrics(&encode_metrics(Epoch(0), &empty)).unwrap();
        assert_eq!(dec, empty);
    }

    #[test]
    fn metrics_with_bad_bucket_index_is_rejected() {
        let snap = sample_metrics();
        let mut enc = encode_metrics(Epoch(1), &snap);
        // the first histogram bucket index byte follows:
        // kind(1) + epoch(8) + n(4) + entries... locate by scanning
        // for the histogram marker after its name
        let name = b"engine_infer_us";
        let at = enc
            .windows(name.len())
            .position(|w| w == name)
            .expect("name present");
        // name + kind byte + count(8) + sum(8) + nonzero(4) → index
        let idx_pos = at + name.len() + 1 + 8 + 8 + 4;
        enc[idx_pos] = 200; // out of range
        assert!(matches!(
            decode_metrics(&enc),
            Err(WireFormatError::BadTag(200))
        ));
    }

    #[test]
    fn hello_and_finish_roundtrip() {
        assert_eq!(decode_hello(&encode_hello(3)).unwrap(), 3);
        assert_eq!(decode_finish(&encode_finish(Epoch(77))).unwrap(), Epoch(77));
    }

    // ---- adversarial decoding: the cluster framing must fail typed,
    // never panic or over-allocate ----

    #[test]
    fn truncation_at_every_byte_boundary_is_a_typed_error() {
        let frames: Vec<Vec<u8>> = vec![
            encode_plan(&sample_plan(), 0),
            encode_reports(
                Epoch(3),
                &[TaskReport {
                    tag: TagId(1),
                    support: vec![1.0],
                    reader_hist: vec![2],
                }],
            ),
            encode_resample(
                &ResampleDirective {
                    remap: ReaderRemap::from_parts(vec![None, Some(0)], 1),
                    reader: vec![particle(0)],
                    draws: vec![(TagId(0), vec![0])],
                },
                0,
                1,
            ),
            encode_hello(1),
            encode_finish(Epoch(5)),
            encode_metrics(Epoch(2), &sample_metrics()),
        ];
        for full in frames {
            for cut in 0..full.len() {
                let part = &full[..cut];
                // whichever decoder matches the kind must reject the cut
                let outcome: Result<(), WireFormatError> = match full[0] {
                    MSG_PLAN => decode_plan(part).map(|_| ()),
                    MSG_REPORTS => decode_reports(part).map(|_| ()),
                    MSG_RESAMPLE => decode_resample(part).map(|_| ()),
                    MSG_HELLO => decode_hello(part).map(|_| ()),
                    MSG_FINISH => decode_finish(part).map(|_| ()),
                    MSG_METRICS => decode_metrics(part).map(|_| ()),
                    other => panic!("unexpected kind {other}"),
                };
                assert!(
                    outcome.is_err(),
                    "kind 0x{:02x} cut at byte {cut}/{} decoded",
                    full[0],
                    full.len()
                );
            }
        }
    }

    #[test]
    fn garbage_after_a_valid_message_is_trailing_bytes() {
        let mut enc = encode_hello(0);
        enc.extend_from_slice(&[0xAB, 0xCD]);
        match decode_hello(&enc) {
            Err(WireFormatError::TrailingBytes(2)) => {}
            other => panic!("wanted TrailingBytes(2), got {other:?}"),
        }
    }

    #[test]
    fn wrong_kind_is_bad_tag() {
        let enc = encode_hello(0);
        assert!(matches!(
            decode_plan(&enc),
            Err(WireFormatError::BadTag(MSG_HELLO))
        ));
    }

    #[test]
    fn oversized_frame_is_refused_before_allocation() {
        // a length prefix claiming 1 GiB against the default cap
        let mut buf: &[u8] = &(1u32 << 30).to_be_bytes();
        let err = read_msg(&mut buf).expect_err("oversized");
        assert!(wire::OversizedFrame::from_io(&err).is_some(), "{err}");
    }
}

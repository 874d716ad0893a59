//! The coordinator process: accepts one event stream per worker and
//! reconstructs the single-process emission order, one epoch at a
//! time. Every worker sends exactly one `EVENTS` frame per epoch (even
//! when it emitted nothing), so a round of frames *is* the epoch
//! barrier; within a round the lists are k-way merged by tag
//! (`rfid_stream::wire::merge_by_tag`, the merge the router's head
//! runs over support rows).

use crate::proto;
use rfid_stream::digest::event_digest;
use rfid_stream::wire::{
    self, decode_event_frame, merge_events_by_tag, EventFrame, EVENTS_EPOCH, EVENTS_FINAL,
};
use rfid_stream::LocationEvent;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::TcpListener;
use std::path::Path;

/// The merged output of a cluster run.
#[derive(Debug, Clone)]
pub struct MergedEvents {
    pub events: Vec<LocationEvent>,
    /// FNV-1a digest over the merged stream — comparable to the
    /// committed golden digests and the single-process engine.
    pub digest: u64,
}

/// Accepts `num_workers` event streams and merges them to completion
/// (one `EVENTS_FINAL` frame per worker ends the run).
pub fn run_coordinator(listener: &TcpListener, num_workers: usize) -> io::Result<MergedEvents> {
    let mut conns: Vec<Option<BufReader<std::net::TcpStream>>> =
        (0..num_workers).map(|_| None).collect();
    for _ in 0..num_workers {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut r = BufReader::new(stream);
        let hello = proto::expect_msg(&mut r, proto::MSG_HELLO)?;
        let index = proto::decode_hello(&hello).map_err(io::Error::from)? as usize;
        if index >= num_workers || conns[index].is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad or duplicate worker index {index}"),
            ));
        }
        conns[index] = Some(r);
    }
    let mut conns: Vec<BufReader<std::net::TcpStream>> = conns
        .into_iter()
        .map(|c| c.expect("all slots filled"))
        .collect();
    merge_streams(&mut conns)
}

/// The transport-free merge core (driven directly by unit tests).
fn merge_streams<R: Read>(conns: &mut [BufReader<R>]) -> io::Result<MergedEvents> {
    let mut merged: Vec<LocationEvent> = Vec::new();
    let mut round: Vec<Vec<LocationEvent>> = vec![Vec::new(); conns.len()];
    loop {
        let mut kinds = [0usize; 2];
        let mut epoch = None;
        for (i, conn) in conns.iter_mut().enumerate() {
            let Some(payload) = proto::read_msg(conn)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("worker {i} closed mid-run"),
                ));
            };
            let EventFrame {
                kind,
                epoch: e,
                events,
            } = decode_event_frame(&payload).map_err(io::Error::from)?;
            kinds[usize::from(kind == EVENTS_FINAL)] += 1;
            if kind == EVENTS_EPOCH {
                match epoch {
                    None => epoch = Some(e),
                    Some(prev) if prev != e => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "worker {i} is at epoch {} while the round is at {}",
                                e.0, prev.0
                            ),
                        ));
                    }
                    Some(_) => {}
                }
            }
            round[i] = events;
        }
        if kinds[0] != 0 && kinds[1] != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "workers disagree on end-of-run",
            ));
        }
        merge_events_by_tag(&round, &mut merged);
        if kinds[1] == conns.len() {
            break;
        }
    }
    let digest = event_digest(&merged);
    Ok(MergedEvents {
        events: merged,
        digest,
    })
}

/// Writes a merged stream to a file: `count u64`, then each event in
/// the wire encoding (bit-exact; see [`wire::encode_event`]).
pub fn write_events_file(path: &Path, events: &[LocationEvent]) -> io::Result<()> {
    let mut out = Vec::new();
    wire::put_u64(&mut out, events.len() as u64);
    for e in events {
        wire::encode_event(e, &mut out);
    }
    let mut f = BufWriter::new(std::fs::File::create(path)?);
    f.write_all(&out)?;
    f.flush()
}

/// Reads a file written by [`write_events_file`].
pub fn read_events_file(path: &Path) -> io::Result<Vec<LocationEvent>> {
    let buf = std::fs::read(path)?;
    let mut r = wire::PayloadReader::new(&buf);
    let n = r.count_u64()?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(wire::decode_event(&mut r)?);
    }
    r.finish()?;
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::Point3;
    use rfid_stream::wire::WireEventSink;
    use rfid_stream::{Epoch, EventSink, TagId};

    fn ev(epoch: u64, tag: u64) -> LocationEvent {
        LocationEvent::new(Epoch(epoch), TagId(tag), Point3::new(tag as f64, 0.5, -0.0))
    }

    /// Two workers' streams (hello-free, as `merge_streams` takes them)
    /// interleave back into global tag order, epoch by epoch.
    #[test]
    fn merge_reconstructs_global_order_across_streams() {
        let mut streams = Vec::new();
        for (worker, tags) in [[0u64, 2], [1, 3]].iter().enumerate() {
            let mut buf = Vec::new();
            let mut sink = WireEventSink::new(&mut buf);
            for epoch in 0..3u64 {
                for t in tags {
                    // worker 1's epoch-1 frame is deliberately empty
                    if !(worker == 1 && epoch == 1) {
                        sink.on_event(&ev(epoch, *t));
                    }
                }
                sink.on_epoch_complete(Epoch(epoch));
            }
            sink.on_event(&ev(3, tags[0]));
            sink.on_finish();
            assert!(sink.io_error().is_none());
            streams.push(buf);
        }
        let mut conns: Vec<BufReader<&[u8]>> = streams
            .iter()
            .map(|s| BufReader::new(s.as_slice()))
            .collect();
        let merged = merge_streams(&mut conns).expect("merge");
        let tags: Vec<u64> = merged.events.iter().map(|e| e.tag.0).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 0, 2, 0, 1, 2, 3, 0, 1]);
        let epochs: Vec<u64> = merged.events.iter().map(|e| e.epoch.0).collect();
        assert_eq!(epochs, vec![0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn a_worker_dying_mid_run_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        let mut sink = WireEventSink::new(&mut buf);
        sink.on_event(&ev(0, 0));
        sink.on_epoch_complete(Epoch(0));
        // stream ends without an EVENTS_FINAL frame
        let mut conns = vec![BufReader::new(buf.as_slice())];
        let err = merge_streams(&mut conns).expect_err("mid-run EOF");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn events_file_roundtrips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("rfid-cluster-evfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.bin");
        let events = vec![ev(0, 1), ev(5, 2)];
        write_events_file(&path, &events).unwrap();
        let back = read_events_file(&path).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in back.iter().zip(&events) {
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.tag, b.tag);
            assert_eq!(a.location.z.to_bits(), b.location.z.to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! The router process: owns the [`ClusterHead`] (reader filter +
//! engine RNG), splits each epoch's object readings by
//! `tag % num_workers`, and drives the per-epoch plan / reports /
//! resample exchange with every worker.

use crate::proto;
use crate::scenario::Engine;
use rfid_core::engine::cluster::{ClusterHead, TaskReport};
use rfid_stream::{Epoch, EpochBatch};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};

/// What the router observed over a completed run.
#[derive(Debug, Clone)]
pub struct RouterSummary {
    pub epochs: u64,
    pub readings: u64,
    /// Cluster-wide object steps (merged from the workers' reports).
    pub object_updates: u64,
    pub reader_resamples: u64,
    /// The cluster-wide registry view: every worker's FINISH snapshot
    /// merged in metric-name order (counters and histogram buckets
    /// add, gauges max — the worker partitions are disjoint, so the
    /// sums are exact cluster totals). The head's own registry is not
    /// folded in: its epoch/reading counters re-count the same trace
    /// and would double the totals.
    pub metrics: rfid_obs::Snapshot,
}

struct WorkerConn {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

/// Accepts `num_workers` connections, keyed by the index each worker
/// announces in its HELLO.
fn accept_workers(listener: &TcpListener, num_workers: usize) -> io::Result<Vec<WorkerConn>> {
    let mut slots: Vec<Option<WorkerConn>> = (0..num_workers).map(|_| None).collect();
    for _ in 0..num_workers {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut r = BufReader::new(stream.try_clone()?);
        let w = BufWriter::new(stream);
        let hello = proto::expect_msg(&mut r, proto::MSG_HELLO)?;
        let index = proto::decode_hello(&hello).map_err(io::Error::from)? as usize;
        if index >= num_workers || slots[index].is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad or duplicate worker index {index}"),
            ));
        }
        slots[index] = Some(WorkerConn { r, w });
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect())
}

/// Runs the full trace through the cluster: one plan broadcast, one
/// report collection, and (on resample epochs) one directive broadcast
/// per epoch, then a FINISH barrier.
pub fn run_router(
    listener: &TcpListener,
    num_workers: usize,
    engine: Engine,
    batches: &[EpochBatch],
) -> io::Result<RouterSummary> {
    let mut conns = accept_workers(listener, num_workers)?;
    let mut head = ClusterHead::new(engine, num_workers);
    let mut last_epoch = Epoch(0);
    for batch in batches {
        last_epoch = batch.epoch;
        let plan = head.begin_epoch(batch);
        for (i, conn) in conns.iter_mut().enumerate() {
            proto::write_msg(&mut conn.w, &proto::encode_plan(&plan, i))?;
        }
        let mut reports: Vec<Vec<TaskReport>> = Vec::with_capacity(num_workers);
        for conn in conns.iter_mut() {
            let payload = proto::expect_msg(&mut conn.r, proto::MSG_REPORTS)?;
            let (epoch, list) = proto::decode_reports(&payload).map_err(io::Error::from)?;
            if epoch != batch.epoch {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "reports for epoch {} while in epoch {}",
                        epoch.0, batch.epoch.0
                    ),
                ));
            }
            reports.push(list);
        }
        let directive = head.finish_epoch(&reports);
        if directive.is_some() != plan.will_resample {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "resample prediction diverged from the resample decision",
            ));
        }
        if let Some(d) = &directive {
            for (i, conn) in conns.iter_mut().enumerate() {
                proto::write_msg(&mut conn.w, &proto::encode_resample(d, i, num_workers))?;
            }
        }
    }
    for conn in conns.iter_mut() {
        proto::write_msg(&mut conn.w, &proto::encode_finish(last_epoch))?;
        conn.w.flush()?;
    }
    // a worker acknowledges FINISH with its one metrics snapshot
    // (covering its finalize flush), then closes its connection
    let mut metrics = rfid_obs::Snapshot::default();
    for conn in conns.iter_mut() {
        let payload = proto::expect_msg(&mut conn.r, proto::MSG_METRICS)?;
        let (_, snap) = proto::decode_metrics(&payload).map_err(io::Error::from)?;
        metrics.merge(&snap);
        let mut sink = [0u8; 64];
        loop {
            match conn.r.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected bytes after FINISH",
                    ))
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
    let stats = head.stats();
    Ok(RouterSummary {
        epochs: stats.epochs,
        readings: stats.readings,
        object_updates: stats.object_updates,
        reader_resamples: stats.reader_resamples,
        metrics,
    })
}

//! The worker process: a [`ClusterWorker`] over one `tag % N` object
//! partition, fed plans by the router and streaming its due events to
//! the coordinator (one `EVENTS` frame per epoch — the frame itself is
//! the epoch barrier, even when empty). Its registry snapshot ships
//! to the router once, after FINISH.

use crate::proto;
use crate::scenario::Engine;
use rfid_core::engine::cluster::ClusterWorker;
use rfid_stream::wire::WireEventSink;
use rfid_stream::{EventSink, LocationEvent};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;

/// Runs the worker loop until the router sends FINISH. `index` must
/// match the `--index` the launcher assigned; it selects the readings
/// partition in every plan.
pub fn run_worker(
    index: usize,
    router: TcpStream,
    coordinator: TcpStream,
    engine: Engine,
) -> io::Result<()> {
    router.set_nodelay(true)?;
    coordinator.set_nodelay(true)?;
    let mut rr = BufReader::new(router.try_clone()?);
    let mut rw = BufWriter::new(router);
    proto::write_msg(&mut rw, &proto::encode_hello(index as u32))?;

    let mut cw = BufWriter::new(coordinator);
    proto::write_msg(&mut cw, &proto::encode_hello(index as u32))?;
    let mut events_out = WireEventSink::new(cw);

    let mut worker = ClusterWorker::new(engine);
    let mut events: Vec<LocationEvent> = Vec::new();
    loop {
        let Some(payload) = proto::read_msg(&mut rr)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "router closed before FINISH",
            ));
        };
        match payload.first().copied() {
            Some(proto::MSG_PLAN) => {
                let plan = proto::decode_plan(&payload).map_err(io::Error::from)?;
                events.clear();
                // the wire plan carries only this worker's partition
                let reports = worker.process_epoch(&plan, 0, &mut events);
                for e in &events {
                    events_out.on_event(e);
                }
                events_out.on_epoch_complete(plan.epoch);
                if let Some(e) = events_out.io_error() {
                    return Err(io::Error::new(e.kind(), e.to_string()));
                }
                proto::write_msg(&mut rw, &proto::encode_reports(plan.epoch, &reports))?;
                let directive = if plan.will_resample {
                    let payload = proto::expect_msg(&mut rr, proto::MSG_RESAMPLE)?;
                    Some(proto::decode_resample(&payload).map_err(io::Error::from)?)
                } else {
                    None
                };
                // publishes the epoch: one stage-timer sample; the
                // registry itself ships once, after FINISH
                worker.apply_resample(plan.epoch, directive.as_ref());
            }
            Some(proto::MSG_FINISH) => {
                let last_epoch = proto::decode_finish(&payload).map_err(io::Error::from)?;
                events.clear();
                worker.finalize_into(last_epoch, &mut events);
                for e in &events {
                    events_out.on_event(e);
                }
                events_out.on_finish();
                if let Some(e) = events_out.io_error() {
                    return Err(io::Error::new(e.kind(), e.to_string()));
                }
                // this process's registry snapshot (engine stage
                // timers, step counters), finalize flush included
                let snap = rfid_obs::global().snapshot();
                proto::write_msg(&mut rw, &proto::encode_metrics(last_epoch, &snap))?;
                rw.flush()?;
                return Ok(());
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected message kind {other:?} from the router"),
                ))
            }
        }
    }
}

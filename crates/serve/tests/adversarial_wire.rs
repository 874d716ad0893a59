//! Adversarial peers against a live query server: oversized length
//! prefixes, frames truncated at every byte boundary, garbage after a
//! valid frame, non-UTF-8 payloads, and a poisoned store lock. The
//! server must answer with a typed `ERR BAD_REQUEST` where a reply is
//! possible, close the connection cleanly, and keep serving everyone
//! else. The stream-level twins of these tests live in
//! `rfid_stream::wire`; this file checks the server glue.

use rfid_geom::Point3;
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_serve::{
    read_frame, serve, serve_with, write_frame, ErrorCode, Frame, HubConfig, Query, QueryClient,
    ServerConfig, SubscriptionFilter, SubscriptionHub,
};
use rfid_stream::{Epoch, EventSink, LocationEvent, TagId};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, RwLock};
use std::time::Duration;

fn seeded_store(tags: u64, epochs: u64) -> EventStore {
    let mut store = EventStore::new(StoreConfig::default().with_segment_epochs(8));
    for e in 0..epochs {
        for t in 0..tags {
            store.push(&LocationEvent::new(
                Epoch(e),
                TagId(t),
                Point3::new(t as f64, e as f64, 0.0),
            ));
        }
        store.complete_epoch(Epoch(e));
    }
    store
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// Opens the conversation: `HELLO 2` out, `HELLO 2` back.
fn greet(stream: &mut TcpStream) {
    write_frame(stream, "HELLO 2").unwrap();
    let reply = read_frame(stream).unwrap();
    assert_eq!(reply.as_deref(), Some("HELLO 2"), "handshake");
}

/// Reads until EOF, asserting the connection was closed by the server.
fn assert_closed(stream: &mut TcpStream) {
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .expect("read to EOF after the error reply");
    assert!(
        rest.is_empty(),
        "no frames may follow the error reply: {rest:?}"
    );
}

#[test]
fn oversized_prefix_gets_typed_error_then_clean_close() {
    let store = Arc::new(RwLock::new(seeded_store(2, 4)));
    let handle = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        SubscriptionHub::new(HubConfig::default()),
        ServerConfig::default().with_max_frame_len(64),
    )
    .expect("bind");

    let mut raw = connect(handle.addr());
    // announce 16 MiB against a 64-byte cap; never send the payload
    raw.write_all(&(16u32 << 20).to_be_bytes()).unwrap();
    let reply = read_frame(&mut raw).unwrap().expect("an error reply");
    assert!(
        reply.starts_with("ERR 0 BAD_REQUEST"),
        "oversized prefix answered {reply:?}"
    );
    assert!(
        reply.contains("exceeds") && reply.contains("64"),
        "the reply names the cap: {reply:?}"
    );
    assert_closed(&mut raw);

    // in-cap frames on a fresh connection still work
    let mut ok = connect(handle.addr());
    greet(&mut ok);
    write_frame(&mut ok, "1 CURRENT 1").unwrap();
    let resp = read_frame(&mut ok).unwrap().expect("a reply");
    assert!(resp.starts_with("OK 1 "), "{resp:?}");
    handle.shutdown();
}

#[test]
fn truncation_at_every_byte_boundary_never_wedges_the_server() {
    let store = Arc::new(RwLock::new(seeded_store(2, 4)));
    let handle = serve("127.0.0.1:0", Arc::clone(&store)).expect("bind");

    let mut wire = Vec::new();
    write_frame(&mut wire, "1 CURRENT 1").unwrap();
    for cut in 0..wire.len() {
        let mut raw = connect(handle.addr());
        greet(&mut raw);
        raw.write_all(&wire[..cut]).unwrap();
        raw.shutdown(Shutdown::Write).unwrap();
        // the server drops the half-frame without replying or dying
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).expect("server closes its side");
        assert!(
            rest.is_empty(),
            "cut at byte {cut}: no reply to a half-frame, got {rest:?}"
        );
    }

    // after every truncation the server still answers a whole frame
    let mut client = QueryClient::connect(handle.addr())
        .timeout(Duration::from_secs(10))
        .establish()
        .expect("connect");
    let rows = client
        .query(&Query::CurrentLocation(TagId(1)))
        .expect("query after truncation storm")
        .into_rows()
        .expect("rows");
    assert_eq!(rows.len(), 1);
    handle.shutdown();
}

#[test]
fn garbage_after_valid_frame_answers_then_closes() {
    let store = Arc::new(RwLock::new(seeded_store(2, 4)));
    let handle = serve("127.0.0.1:0", Arc::clone(&store)).expect("bind");

    let mut raw = connect(handle.addr());
    let mut wire = Vec::new();
    write_frame(&mut wire, "HELLO 2").unwrap();
    write_frame(&mut wire, "1 CURRENT 1").unwrap();
    // 0xFFFFFFFF reads as a 4 GiB announcement — over any sane cap
    wire.extend_from_slice(&[0xFF; 32]);
    raw.write_all(&wire).unwrap();

    // the valid frames are answered first…
    let hello = read_frame(&mut raw).unwrap().expect("handshake reply");
    assert_eq!(hello, "HELLO 2");
    let first = read_frame(&mut raw).unwrap().expect("query reply");
    assert!(first.starts_with("OK 1 "), "{first:?}");
    // …then the garbage draws the typed error and the close
    let err = read_frame(&mut raw).unwrap().expect("error reply");
    assert!(err.starts_with("ERR 0 BAD_REQUEST"), "{err:?}");
    assert_closed(&mut raw);
    handle.shutdown();
}

#[test]
fn non_utf8_payload_is_bad_request_not_a_dead_worker() {
    let store = Arc::new(RwLock::new(seeded_store(2, 4)));
    let handle = serve("127.0.0.1:0", Arc::clone(&store)).expect("bind");

    let mut raw = connect(handle.addr());
    let payload = [0xC3u8, 0x28, 0xA0, 0xA1]; // invalid UTF-8 sequences
    raw.write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    raw.write_all(&payload).unwrap();
    let err = read_frame(&mut raw).unwrap().expect("error reply");
    assert!(err.starts_with("ERR 0 BAD_REQUEST"), "{err:?}");
    assert!(err.contains("UTF-8"), "{err:?}");
    assert_closed(&mut raw);
    handle.shutdown();
}

#[test]
fn poisoned_store_lock_recovers_instead_of_cascading() {
    let store = Arc::new(RwLock::new(seeded_store(3, 4)));
    let handle = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        SubscriptionHub::new(HubConfig::default()),
        ServerConfig::default(),
    )
    .expect("bind");

    // a writer dies while holding the guard: the lock is now poisoned
    {
        let poisoner = Arc::clone(&store);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.write().unwrap();
            panic!("writer dies mid-update");
        })
        .join();
    }
    assert!(store.is_poisoned(), "the store lock must be poisoned");

    // the client and a raw connection both still answer from the
    // recovered guard
    let mut client = QueryClient::connect(handle.addr())
        .timeout(Duration::from_secs(10))
        .establish()
        .expect("connect");
    let rows = client
        .query(&Query::CurrentLocation(TagId(2)))
        .expect("query a poisoned store")
        .into_rows()
        .expect("rows");
    assert_eq!(rows.len(), 1, "data survives the poisoning");

    let mut raw = connect(handle.addr());
    greet(&mut raw);
    write_frame(&mut raw, "1 CURRENT 0").unwrap();
    let resp = read_frame(&mut raw).unwrap().expect("raw reply");
    assert!(resp.starts_with("OK 1 "), "{resp:?}");
    handle.shutdown();
}

#[test]
fn a_response_past_the_frame_cap_is_a_typed_err_on_a_live_connection() {
    // 120,000 tags at full-precision coordinates: one SNAPSHOT encodes
    // to ~7.5 MB, past the 4 MiB frame cap every peer enforces
    let mut store = EventStore::new(StoreConfig::default());
    for t in 0..120_000u64 {
        let (x, y) = (t as f64 / 7.0, t as f64 / 3.0);
        store.push(&LocationEvent::new(
            Epoch(0),
            TagId(t),
            Point3::new(x, y, 0.0),
        ));
    }
    store.complete_epoch(Epoch(0));
    let store = Arc::new(RwLock::new(store));
    let handle = serve("127.0.0.1:0", Arc::clone(&store)).expect("bind");
    let mut client = QueryClient::connect(handle.addr())
        .timeout(Duration::from_secs(30))
        .establish()
        .expect("connect");
    let err = client
        .query(&Query::SnapshotAt(Epoch(0)))
        .expect("an answer, not a broken connection")
        .error()
        .cloned()
        .expect("an oversized answer is an error");
    assert_eq!(err.code, ErrorCode::BadRequest);
    assert!(
        err.message.contains("exceeds") && err.message.contains(&(4u32 << 20).to_string()),
        "the error names the size and the cap: {err:?}"
    );
    // the same connection keeps serving
    let rows = client
        .query(&Query::CurrentLocation(TagId(7)))
        .expect("query after the refusal")
        .into_rows()
        .expect("rows");
    assert_eq!(rows.len(), 1);
    handle.shutdown();
}

#[test]
fn a_push_past_the_frame_cap_arrives_in_frames_on_a_live_connection() {
    // the over-cap SNAPSHOT's 120,000 tags, committed as one epoch's
    // delta: one PUSH would encode to ~7.5 MB, past the 4 MiB cap
    let events: Vec<LocationEvent> = (0..120_000u64)
        .map(|t| {
            let (x, y) = (t as f64 / 7.0, t as f64 / 3.0);
            LocationEvent::new(Epoch(0), TagId(t), Point3::new(x, y, 0.0))
        })
        .collect();
    let mut store = EventStore::new(StoreConfig::default());
    for e in &events {
        store.push(e);
    }
    store.complete_epoch(Epoch(0));
    let handle = serve("127.0.0.1:0", Arc::new(RwLock::new(store))).expect("bind");
    let mut client = QueryClient::connect(handle.addr())
        .timeout(Duration::from_secs(30))
        .establish()
        .expect("connect");
    let sub = client
        .subscribe(&SubscriptionFilter::All)
        .expect("subscribe");

    let mut sink = handle.hub().sink();
    for e in &events {
        sink.on_event(e);
    }
    sink.on_epoch_complete(Epoch(0));

    let mut rows = Vec::new();
    let mut frames = 0;
    while rows.len() < events.len() {
        match client.next_push().expect("a PUSH frame the client accepts") {
            Frame::Push {
                id,
                epoch,
                rows: got,
            } => {
                assert_eq!(
                    (id, epoch),
                    (sub, 0),
                    "every frame carries the delta's epoch"
                );
                assert!(!got.is_empty(), "no empty PUSH frames");
                rows.extend(got);
                frames += 1;
            }
            other => panic!("a split is not a drop: {other:?}"),
        }
    }
    assert!(frames > 1, "the delta spans consecutive frames");
    let want: Vec<_> = events
        .iter()
        .map(|e| (e.tag, e.epoch, e.location))
        .collect();
    let got: Vec<_> = rows.iter().map(|r| (r.tag, r.epoch, r.location)).collect();
    assert!(
        got == want,
        "the frames' rows, concatenated, are the committed delta"
    );
    assert_eq!(handle.hub().dropped_rows(), 0);
    // the same connection keeps serving
    let rows = client
        .query(&Query::CurrentLocation(TagId(7)))
        .expect("query after the split delta")
        .into_rows()
        .expect("rows");
    assert_eq!(rows.len(), 1);
    handle.shutdown();
}

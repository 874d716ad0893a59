//! Protocol integration tests over real TCP: HELLO negotiation, the
//! rule that every connection opens with HELLO, typed errors that never
//! cost the connection, interleaved push + pull frames on one
//! connection, subscriber lag, and shutdown under load.

use rfid_geom::Point3;
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_serve::{read_frame, write_frame};
use rfid_serve::{
    serve, serve_with, Frame, HubConfig, Query, QueryClient, ServerConfig, SubscriptionFilter,
    SubscriptionHub,
};
use rfid_stream::{Epoch, EventSink, LocationEvent, TagId};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, RwLock};
use std::time::Duration;

fn seeded_store(tags: u64, epochs: u64) -> EventStore {
    let mut store = EventStore::new(StoreConfig::default().with_segment_epochs(8));
    for e in 0..epochs {
        for t in 0..tags {
            store.push(&LocationEvent::new(
                Epoch(e),
                TagId(t),
                Point3::new(t as f64 * 0.25, e as f64 * 0.5, 0.0),
            ));
        }
        store.complete_epoch(Epoch(e));
    }
    store
}

fn v2_client(addr: std::net::SocketAddr) -> QueryClient {
    QueryClient::connect(addr)
        .timeout(Duration::from_secs(10))
        .establish()
        .expect("connect v2")
}

#[test]
fn hello_negotiates_and_rejects_with_typed_errors() {
    let store = Arc::new(RwLock::new(seeded_store(2, 4)));
    let handle = serve("127.0.0.1:0", store).expect("bind");

    // raw handshakes, one connection each
    let cases: &[(&str, &str)] = &[
        ("HELLO 2", "HELLO 2"),
        // a future client is negotiated down to what the server speaks
        ("HELLO 99", "HELLO 2"),
        ("HELLO 0", "ERR 0 UNSUPPORTED_VERSION"),
        ("HELLO two", "ERR 0 BAD_REQUEST"),
    ];
    for (req, want_prefix) in cases {
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        write_frame(&mut raw, req).unwrap();
        let resp = read_frame(&mut raw).unwrap().expect("handshake reply");
        assert!(
            resp.starts_with(want_prefix),
            "{req:?} answered {resp:?}, wanted prefix {want_prefix:?}"
        );
    }
    handle.shutdown();
}

fn raw_connect(addr: std::net::SocketAddr) -> TcpStream {
    let raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw
}

#[test]
fn a_first_frame_other_than_hello_gets_one_typed_err_then_eof() {
    let store = Arc::new(RwLock::new(seeded_store(2, 4)));
    let handle = serve("127.0.0.1:0", store).expect("bind");

    // a bare query and an enveloped one, each before any HELLO
    for first in ["CURRENT 1", "1 CURRENT 1"] {
        let mut raw = raw_connect(handle.addr());
        write_frame(&mut raw, first).unwrap();
        let resp = read_frame(&mut raw).unwrap().expect("a refusal frame");
        assert!(
            resp.starts_with("ERR 0 UNSUPPORTED_VERSION "),
            "{first:?} answered {resp:?}"
        );
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest)
            .expect("the server closes cleanly");
        assert!(rest.is_empty(), "{first:?}: nothing follows the refusal");
    }

    // a HELLO below 2 is refused, but the connection stays open for a
    // HELLO the server speaks
    let mut raw = raw_connect(handle.addr());
    write_frame(&mut raw, "HELLO 1").unwrap();
    let resp = read_frame(&mut raw).unwrap().expect("a refusal frame");
    assert!(
        resp.starts_with("ERR 0 UNSUPPORTED_VERSION "),
        "HELLO 1 answered {resp:?}"
    );
    write_frame(&mut raw, "HELLO 2").unwrap();
    assert_eq!(read_frame(&mut raw).unwrap().as_deref(), Some("HELLO 2"));
    write_frame(&mut raw, "5 CURRENT 1").unwrap();
    let resp = read_frame(&mut raw).unwrap().expect("a query reply");
    assert!(resp.starts_with("OK 5 1\n"), "{resp:?}");
    handle.shutdown();
}

#[test]
fn unknown_verb_is_a_typed_err_not_a_disconnect() {
    let store = Arc::new(RwLock::new(seeded_store(2, 4)));
    let handle = serve("127.0.0.1:0", store).expect("bind");

    // v2: the ERR frame echoes the request id and carries the code
    let mut client = v2_client(handle.addr());
    let raw = client.query_raw("7 FROB 1").unwrap();
    assert!(raw.starts_with("ERR 7 UNKNOWN_VERB"), "got {raw:?}");
    // an envelope with an unreadable id still gets an addressable ERR
    let raw = client.query_raw("FROB 1").unwrap();
    assert!(raw.starts_with("ERR 0 BAD_REQUEST"), "got {raw:?}");
    // the connection survives both
    let resp = client.query(&Query::SnapshotAt(Epoch(3))).unwrap();
    assert_eq!(resp.rows().map(<[_]>::len), Some(2));
    handle.shutdown();
}

#[test]
fn push_and_pull_interleave_on_one_connection() {
    let store = Arc::new(RwLock::new(seeded_store(4, 4)));
    let hub = SubscriptionHub::new(HubConfig::default());
    let handle = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        hub.clone(),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = v2_client(handle.addr());

    let sub_id = client
        .subscribe(&SubscriptionFilter::All)
        .expect("subscribe");

    // feed committed deltas while pull queries run on the same
    // connection: every pull response must carry its own id even with
    // push frames in flight
    let mut sink = hub.sink();
    for round in 0..20u64 {
        let e = 4 + round;
        sink.on_event(&LocationEvent::new(
            Epoch(e),
            TagId(round % 4),
            Point3::new(round as f64, -1.0, 0.0),
        ));
        sink.on_epoch_complete(Epoch(e));
        let resp = client.query(&Query::CurrentLocation(TagId(1))).unwrap();
        assert!(resp.rows().is_some(), "pull answered mid-push");
    }

    // all 20 single-row pushes arrive, in commit order, id-tagged
    let mut seen = 0u64;
    let mut last_epoch = None;
    while seen < 20 {
        match client.next_push().expect("push frame") {
            Frame::Push { id, epoch, rows } => {
                assert_eq!(id, sub_id);
                assert!(
                    last_epoch.is_none_or(|prev| epoch > prev),
                    "commit order preserved ({last_epoch:?} then {epoch})"
                );
                last_epoch = Some(epoch);
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].location.x, seen as f64);
                seen += 1;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn unsubscribe_stops_delivery() {
    let store = Arc::new(RwLock::new(seeded_store(2, 2)));
    let hub = SubscriptionHub::new(HubConfig::default());
    let handle = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        hub.clone(),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = v2_client(handle.addr());

    let sub = client
        .subscribe(&SubscriptionFilter::Tags(vec![TagId(0)]))
        .unwrap();
    let mut sink = hub.sink();
    sink.on_event(&LocationEvent::new(
        Epoch(2),
        TagId(0),
        Point3::new(5.0, 0.0, 0.0),
    ));
    sink.on_epoch_complete(Epoch(2));
    assert!(matches!(client.next_push().unwrap(), Frame::Push { .. }));

    client.unsubscribe(sub).expect("unsubscribe");
    // cancelling an unknown subscription is a typed error
    let err = client.unsubscribe(999).expect_err("unknown subscription");
    assert!(err.to_string().contains("UNKNOWN_SUBSCRIPTION"), "{err}");

    // further commits produce nothing for this connection: the next
    // frame after a follow-up pull is that pull's response, with no
    // push frame sneaking in ahead of it
    sink.on_event(&LocationEvent::new(
        Epoch(3),
        TagId(0),
        Point3::new(9.0, 0.0, 0.0),
    ));
    sink.on_epoch_complete(Epoch(3));
    std::thread::sleep(Duration::from_millis(50)); // give fan-out a chance to leak
    let got = client.query_raw("55 CURRENT 0").unwrap();
    assert!(
        got.starts_with("OK 55"),
        "push leaked after unsubscribe: {got:?}"
    );
    // the hub pruned the cancelled registration on that commit
    assert_eq!(hub.subscriber_count(), 0);
    handle.shutdown();
}

#[test]
fn lagged_subscriber_gets_counted_notice_over_tcp() {
    // tiny outbox + tiny queue: once the non-reading subscriber jams
    // its socket, commits overflow the bounded queue and drop
    let store = Arc::new(RwLock::new(seeded_store(2, 2)));
    let hub = SubscriptionHub::new(HubConfig::default().with_queue_frames(8));
    let handle = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        hub.clone(),
        ServerConfig::default().with_outbox_high_water(4 << 10),
    )
    .expect("bind");
    let mut client = QueryClient::connect(handle.addr())
        .timeout(Duration::from_secs(30))
        .establish()
        .expect("connect");
    let sub_id = client
        .subscribe(&SubscriptionFilter::All)
        .expect("subscribe");

    // Push while the client reads nothing, one epoch at a time, until
    // the hub drops its first frame. The bounded queue overflows as
    // soon as the connection's writer stops draining it: because the
    // outbox high-water plus the kernel socket buffers are full (TCP
    // autotuning can balloon that prefix to several MB), or simply
    // because this thread got ahead of the writer. Stopping at the
    // first drop makes the outcome exact either way — one overflow run
    // of one frame; the cap (~130 MB of rows) only bounds a run that
    // never lags.
    let mut sink = hub.sink();
    let (max_epochs, rows_per_epoch) = (64_000u64, 80u64);
    let mut epochs = 0u64;
    while hub.dropped_rows() == 0 {
        assert!(epochs < max_epochs, "the subscriber never lagged");
        for t in 0..rows_per_epoch {
            sink.on_event(&LocationEvent::new(
                Epoch(2 + epochs),
                TagId(t),
                // move every tag every epoch so threshold 0 fires
                Point3::new(epochs as f64, t as f64, 0.0),
            ));
        }
        sink.on_epoch_complete(Epoch(2 + epochs));
        epochs += 1;
    }
    assert_eq!(hub.dropped_rows(), rows_per_epoch, "one frame dropped");
    let total_rows = epochs * rows_per_epoch;
    // arrival stamps of the committed frames, in commit order: the
    // first delta arrives at 0, the one completed at epoch E at E + 1
    let mut stamps = (0..epochs).map(|k| if k == 0 { 0 } else { 2 + k });

    // now drain: every frame arrives in commit order except the dropped
    // one, and the one LAGGED notice sits exactly in its place
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    while delivered + dropped < total_rows {
        match client.next_push().expect("drain") {
            Frame::Push { id, epoch, rows } => {
                assert_eq!(id, sub_id);
                assert_eq!(Some(epoch), stamps.next(), "frames arrive in commit order");
                delivered += rows.len() as u64;
            }
            Frame::Lagged { id, dropped: d } => {
                assert_eq!(id, sub_id);
                assert_eq!(dropped, 0, "one overflow run, one LAGGED notice");
                assert_eq!(d, rows_per_epoch, "the notice counts the dropped rows");
                dropped += d;
                stamps.next().expect("the notice stands in for a frame");
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(dropped, rows_per_epoch, "the subscriber lagged");
    assert_eq!(delivered + dropped, total_rows, "every row accounted for");
    handle.shutdown();
}

#[test]
fn shutdown_joins_cleanly_under_load() {
    let store = Arc::new(RwLock::new(seeded_store(8, 16)));
    let hub = SubscriptionHub::new(HubConfig::default());
    let handle = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        hub.clone(),
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = handle.addr();

    // three peers that leave the server blocked, not busy: an idle
    // greeted connection, a peer stuck halfway through a frame, and a
    // subscriber that reads nothing while more is committed than the
    // socket buffers hold (the hub drops only once the connection has
    // stopped draining its queue)
    let mut idle = raw_connect(addr);
    write_frame(&mut idle, "HELLO 2").unwrap();
    assert_eq!(read_frame(&mut idle).unwrap().as_deref(), Some("HELLO 2"));
    let mut half = raw_connect(addr);
    write_frame(&mut half, "HELLO 2").unwrap();
    assert_eq!(read_frame(&mut half).unwrap().as_deref(), Some("HELLO 2"));
    half.write_all(&100u32.to_be_bytes()).unwrap();
    half.write_all(b"1 SNAPSHO").unwrap();
    let mut stuck = v2_client(addr);
    stuck
        .subscribe(&SubscriptionFilter::All)
        .expect("subscribe");
    let mut sink = hub.sink();
    let mut epochs = 0u64;
    while hub.dropped_rows() == 0 {
        assert!(epochs < 20_000, "the silent subscriber never lagged");
        for t in 0..1000u64 {
            sink.on_event(&LocationEvent::new(
                Epoch(16 + epochs),
                TagId(t),
                Point3::new(epochs as f64, t as f64, 0.0),
            ));
        }
        sink.on_epoch_complete(Epoch(16 + epochs));
        epochs += 1;
    }

    // clients hammer pulls and hold subscriptions while we shut down
    let clients: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                let Ok(mut client) = QueryClient::connect(addr)
                    .timeout(Duration::from_secs(5))
                    .establish()
                else {
                    return;
                };
                let _ = client.subscribe(&SubscriptionFilter::All);
                for i in 0..10_000u64 {
                    let q = match (c + i) % 2 {
                        0 => Query::SnapshotAt(Epoch(i % 16)),
                        _ => Query::CurrentLocation(TagId(i % 8)),
                    };
                    if client.query(&q).is_err() {
                        return; // server went away mid-load: expected
                    }
                }
            })
        })
        .collect();
    // let the load build, then stop; shutdown must join every server
    // thread without a wake-up connection
    std::thread::sleep(Duration::from_millis(100));
    let begun = std::time::Instant::now();
    handle.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        begun.elapsed()
    );
    for c in clients {
        c.join().expect("client thread");
    }
    // the blocked peers were closed, not abandoned
    for peer in [&mut idle, &mut half] {
        let mut rest = Vec::new();
        peer.read_to_end(&mut rest).expect("EOF after shutdown");
        assert!(rest.is_empty(), "nothing follows on shutdown: {rest:?}");
    }
    drop(stuck);
    // the listener is gone
    assert!(
        TcpStream::connect(addr).is_err(),
        "accepting after shutdown"
    );
}

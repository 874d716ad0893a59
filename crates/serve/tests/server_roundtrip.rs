//! Gating end-to-end server test: binds an ephemeral port, issues one
//! of each query kind over real TCP, and checks the responses —
//! including concurrent clients and queries racing a live writer.

use rfid_geom::Point3;
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_serve::{serve, Query, QueryClient, QueryResponse};
use rfid_stream::{Epoch, LocationEvent, TagId};
use std::sync::{Arc, RwLock};
use std::time::Duration;

fn connect(addr: std::net::SocketAddr) -> QueryClient {
    QueryClient::connect(addr)
        .timeout(Duration::from_secs(10))
        .establish()
        .expect("connect")
}

fn seeded_store() -> EventStore {
    let mut store = EventStore::new(StoreConfig::default().with_segment_epochs(4));
    for e in 0..10u64 {
        store.push(&LocationEvent::new(
            Epoch(e),
            TagId(1),
            Point3::new(e as f64 * 0.5, 1.25, 0.0),
        ));
        if e % 2 == 0 {
            store.push(&LocationEvent::new(
                Epoch(e),
                TagId(2),
                Point3::new(8.0, -0.5, 0.0),
            ));
        }
        store.complete_epoch(Epoch(e));
    }
    store
}

fn rows(resp: QueryResponse) -> Vec<rfid_serve::store::LocationRow> {
    match resp {
        QueryResponse::Rows(r) => r,
        QueryResponse::Error(e) => panic!("unexpected error response: {e}"),
    }
}

#[test]
fn one_of_each_query_kind_over_tcp() {
    let store = Arc::new(RwLock::new(seeded_store()));
    let handle = serve("127.0.0.1:0", Arc::clone(&store)).expect("bind ephemeral port");
    let mut client = connect(handle.addr());

    // CURRENT: the latest event of tag 1
    let current = rows(client.query(&Query::CurrentLocation(TagId(1))).unwrap());
    assert_eq!(current.len(), 1);
    assert_eq!(current[0].epoch, Epoch(9));
    assert_eq!(current[0].location.x.to_bits(), (4.5f64).to_bits());

    // TRAIL: tag 2 reported on even epochs 4..=8
    let trail = rows(
        client
            .query(&Query::Trail {
                tag: TagId(2),
                from: Epoch(4),
                to: Epoch(8),
            })
            .unwrap(),
    );
    assert_eq!(
        trail.iter().map(|r| r.epoch.0).collect::<Vec<_>>(),
        vec![4, 6, 8]
    );

    // SNAPSHOT: historical point-in-time, sorted by tag
    let snap = rows(client.query(&Query::SnapshotAt(Epoch(5))).unwrap());
    assert_eq!(snap.len(), 2);
    assert_eq!((snap[0].tag, snap[0].epoch), (TagId(1), Epoch(5)));
    assert_eq!((snap[1].tag, snap[1].epoch), (TagId(2), Epoch(4)));

    // CONTAIN: only tag 2 sits at x = 8
    let contained = rows(
        client
            .query(&Query::Containment {
                x0: 7.0,
                y0: -1.0,
                x1: 9.0,
                y1: 1.0,
                epoch: Epoch(9),
            })
            .unwrap(),
    );
    assert_eq!(contained.len(), 1);
    assert_eq!(contained[0].tag, TagId(2));

    // an unknown tag answers zero rows, not an error
    assert!(rows(client.query(&Query::CurrentLocation(TagId(77))).unwrap()).is_empty());

    // malformed requests get an ERR frame and the connection survives
    let raw = client.query_raw("FROB 1 2 3").unwrap();
    assert!(raw.starts_with("ERR "), "got {raw:?}");
    assert_eq!(
        rows(client.query(&Query::SnapshotAt(Epoch(0))).unwrap()).len(),
        2
    );

    handle.shutdown();
}

#[test]
fn concurrent_clients_and_writer() {
    let store = Arc::new(RwLock::new(seeded_store()));
    let handle = serve("127.0.0.1:0", Arc::clone(&store)).expect("bind");
    let addr = handle.addr();

    // a writer keeps appending epochs while clients query
    let writer_store = Arc::clone(&store);
    let writer = std::thread::spawn(move || {
        for e in 10..200u64 {
            let mut guard = writer_store.write().unwrap();
            guard.push(&LocationEvent::new(
                Epoch(e),
                TagId(1),
                Point3::new(e as f64 * 0.5, 1.25, 0.0),
            ));
            guard.complete_epoch(Epoch(e));
        }
    });

    let clients: Vec<_> = (0..3)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = connect(addr);
                for i in 0..50u64 {
                    let q = match (c + i) % 3 {
                        0 => Query::CurrentLocation(TagId(1)),
                        1 => Query::SnapshotAt(Epoch(i)),
                        _ => Query::Trail {
                            tag: TagId(1),
                            from: Epoch(0),
                            to: Epoch(i),
                        },
                    };
                    match client.query(&q).expect("query over live server") {
                        QueryResponse::Rows(_) => {}
                        QueryResponse::Error(e) => panic!("error: {e}"),
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    writer.join().expect("writer thread");

    // after the writer finished, the served answer reflects it
    let mut client = connect(addr);
    let current = rows(client.query(&Query::CurrentLocation(TagId(1))).unwrap());
    assert_eq!(current[0].epoch, Epoch(199));
    handle.shutdown();
}

#[test]
fn slow_client_splitting_a_frame_does_not_desync_the_protocol() {
    use rfid_serve::{read_frame, write_frame};
    use std::io::Write;
    use std::net::TcpStream;

    let store = Arc::new(RwLock::new(seeded_store()));
    let handle = serve("127.0.0.1:0", Arc::clone(&store)).expect("bind");
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_nodelay(true).unwrap();
    write_frame(&mut raw, "HELLO 2").unwrap();
    assert_eq!(read_frame(&mut raw).unwrap().as_deref(), Some("HELLO 2"));

    // dribble one CURRENT request: length prefix, a pause longer than
    // the server's read-timeout poll tick, then the payload in two
    // halves — the handler must keep its partial progress across ticks
    let payload = b"1 CURRENT 1";
    raw.write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    raw.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(250));
    raw.write_all(&payload[..4]).unwrap();
    raw.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(250));
    raw.write_all(&payload[4..]).unwrap();
    raw.flush().unwrap();

    let resp = read_frame(&mut raw).unwrap().expect("a response frame");
    assert!(resp.starts_with("OK 1 1\n"), "desynced response: {resp:?}");

    // and the connection still works for a promptly-written follow-up
    write_frame(&mut raw, "2 SNAPSHOT 9").unwrap();
    let resp = read_frame(&mut raw).unwrap().expect("second response");
    assert!(resp.starts_with("OK 2 2\n"), "got {resp:?}");
    handle.shutdown();
}

#[test]
fn shutdown_then_connect_fails() {
    let store = Arc::new(RwLock::new(EventStore::new(StoreConfig::default())));
    let handle = serve("127.0.0.1:0", store).expect("bind");
    let addr = handle.addr();
    handle.shutdown();
    // the listener is gone: a fresh connect (or the first query on a
    // racy accept) must fail rather than hang
    let attempt = QueryClient::connect(addr)
        .timeout(Duration::from_secs(2))
        .establish()
        .and_then(|mut c| c.query(&Query::CurrentLocation(TagId(0))));
    assert!(attempt.is_err(), "server accepted after shutdown");
}

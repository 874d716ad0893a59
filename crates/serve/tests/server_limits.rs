//! The connection-bound contract: with
//! `ServerConfig::max_connections`, an accept past the bound receives
//! one typed `ERR OVERLOADED` frame and a clean close — never a silent
//! hang — and closing an admitted connection frees its slot for the
//! next client.

use rfid_serve::store::EventStore;
use rfid_serve::{
    read_frame, serve_with, ErrorCode, Frame, Query, QueryClient, QueryResponse, ServerConfig,
    SubscriptionHub,
};
use rfid_stream::Epoch;
use std::net::TcpStream;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

#[test]
fn overflow_connections_get_a_typed_error_and_slots_recycle() {
    let store = Arc::new(RwLock::new(EventStore::default()));
    let server = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        SubscriptionHub::default(),
        ServerConfig::default().with_max_connections(2),
    )
    .expect("bind");

    let connect = || {
        QueryClient::connect(server.addr())
            .timeout(Duration::from_secs(2))
            .establish()
    };
    // fill the bound
    let mut c1 = connect().expect("first connection fits");
    let _c2 = connect().expect("second connection fits");
    // both admitted connections actually serve queries
    let resp = c1.query(&Query::SnapshotAt(Epoch(0))).expect("query");
    assert!(matches!(resp, QueryResponse::Rows(_)));

    // the third is refused with the typed error. A raw stream (which
    // writes nothing first) reads the refusal frame deterministically.
    let mut raw = TcpStream::connect(server.addr()).expect("tcp connect");
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let payload = read_frame(&mut raw)
        .expect("refusal frame readable")
        .expect("a frame, not bare EOF");
    let frame = Frame::parse(&payload).expect("refusal frame parses");
    let Frame::Err { id: 0, error } = frame else {
        panic!("expected ERR, got {frame:?}");
    };
    assert_eq!(error.code, ErrorCode::Overloaded);
    assert!(error.message.contains("limit"), "got {:?}", error.message);
    // ...followed by a clean close
    assert_eq!(read_frame(&mut raw).expect("clean EOF"), None);

    // a handshaking client sees the refusal as a failed establish
    assert!(connect().is_err(), "over-limit establish must fail");

    // dropping an admitted connection frees its slot (once its
    // threads have seen the close)
    drop(c1);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut readmitted = None;
    while Instant::now() < deadline {
        match connect() {
            Ok(c) => {
                readmitted = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let mut c3 = readmitted.expect("slot recycles after a close");
    let resp = c3.query(&Query::SnapshotAt(Epoch(0))).expect("query");
    assert!(matches!(resp, QueryResponse::Rows(_)));

    server.shutdown();
}

#[test]
fn a_config_outside_the_builder_bounds_is_refused_before_binding() {
    // the fields are public, so a struct literal bypasses the `with_*`
    // asserts
    let hostile = [
        ServerConfig {
            max_connections: 0,
            ..ServerConfig::default()
        },
        ServerConfig {
            max_frame_len: 15,
            ..ServerConfig::default()
        },
    ];
    for cfg in hostile {
        let store = Arc::new(RwLock::new(EventStore::default()));
        match serve_with("127.0.0.1:0", store, SubscriptionHub::default(), cfg) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{cfg:?}"),
            Ok(server) => {
                server.shutdown();
                panic!("{cfg:?} was served");
            }
        }
    }
}

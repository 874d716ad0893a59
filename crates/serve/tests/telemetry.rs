//! The live observability surface over real TCP: `TELEMETRY` scrapes
//! return the store/hub/server metric families, the slow-query log
//! records verbs past the threshold (and nothing when off), and outbox
//! backpressure stalls — previously invisible — show up as stall
//! transitions plus stalled time.
//!
//! The metrics registry is process-wide and cumulative, and the tests
//! in this binary run in parallel, so every assertion here is
//! monotone: `>=` against a before-snapshot (diff), or grep-positive
//! for lines only this test can produce.

use rfid_geom::Point3;
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_serve::{
    serve_with, Query, QueryClient, ServerConfig, SubscriptionFilter, SubscriptionHub, TelemetryCmd,
};
use rfid_stream::{Epoch, EventSink, LocationEvent, TagId};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

fn connect(addr: std::net::SocketAddr) -> QueryClient {
    QueryClient::connect(addr)
        .timeout(Duration::from_secs(10))
        .establish()
        .expect("connect")
}

/// Parses a counter/gauge line (`name value`) out of an exposition
/// body; 0 when absent (the family may not be registered yet).
fn metric(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

fn seeded_store() -> EventStore {
    let mut store = EventStore::new(StoreConfig::default().with_segment_epochs(4));
    for e in 0..10u64 {
        store.push(&LocationEvent::new(
            Epoch(e),
            TagId(1),
            Point3::new(e as f64 * 0.5, 1.25, 0.0),
        ));
        store.complete_epoch(Epoch(e));
    }
    store
}

#[test]
fn telemetry_scrape_returns_store_hub_and_server_families() {
    let store = Arc::new(RwLock::new(seeded_store()));
    let hub = SubscriptionHub::default();
    let handle = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        hub,
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = connect(handle.addr());

    // at least one query first, so its verb histogram has a sample
    client
        .query(&Query::SnapshotAt(Epoch(5)))
        .expect("snapshot query")
        .into_rows()
        .expect("rows");

    let body = client.telemetry(TelemetryCmd::Metrics).expect("scrape");
    // the seeded store pushed 10 events into the shared registry
    assert!(metric(&body, "store_events_total") >= 10, "{body}");
    assert!(body.contains("store_tags "), "{body}");
    // hub counters are registered (zero is fine) the moment a hub exists
    assert!(body.contains("hub_delivered_total "), "{body}");
    assert!(body.contains("hub_dropped_total "), "{body}");
    assert!(body.contains("hub_lagged_total "), "{body}");
    // the snapshot query we just made landed in its verb histogram
    assert!(
        metric(&body, "server_query_us_snapshot_count") >= 1,
        "{body}"
    );
    assert!(
        body.contains("server_query_us_snapshot_bucket{le=\"+Inf\"}"),
        "{body}"
    );
    // stall counters exist even on a server that never stalled
    assert!(body.contains("server_outbox_stalls_total "), "{body}");

    // TRACE answers too (possibly empty), and the scrape never takes
    // the store lock — hold the write lock and scrape anyway
    let guard = store.write().expect("writer lock");
    let trace = client.telemetry(TelemetryCmd::Trace).expect("trace scrape");
    drop(guard);
    for line in trace.lines() {
        assert!(line.contains("dur_us="), "malformed trace line {line:?}");
    }
    handle.shutdown();
}

#[test]
fn slow_query_log_records_verbs_and_stays_off_by_default() {
    // server A: default config — the slow-query log is OFF. CONTAIN is
    // issued only here (in this whole binary), so any slow_query
    // what=CONTAIN line would prove the default leaked.
    let store = Arc::new(RwLock::new(seeded_store()));
    let handle_off = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        SubscriptionHub::default(),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut off = connect(handle_off.addr());
    off.query(&Query::Containment {
        x0: -10.0,
        y0: -10.0,
        x1: 10.0,
        y1: 10.0,
        epoch: Epoch(9),
    })
    .expect("containment")
    .into_rows()
    .expect("rows");

    // server B: a 1µs threshold — every request is slow
    let handle_slow = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        SubscriptionHub::default(),
        ServerConfig::default().with_slow_query_us(1),
    )
    .expect("bind");
    let mut slow = connect(handle_slow.addr());
    slow.query(&Query::Trail {
        tag: TagId(1),
        from: Epoch(0),
        to: Epoch(9),
    })
    .expect("trail")
    .into_rows()
    .expect("rows");

    let trace = slow.telemetry(TelemetryCmd::Trace).expect("trace");
    assert!(
        trace
            .lines()
            .any(|l| l.starts_with("slow_query") && l.contains("what=TRAIL")),
        "threshold crossed but no slow_query entry:\n{trace}"
    );
    assert!(
        !trace.contains("what=CONTAIN"),
        "slow-query log recorded on a default (disabled) server:\n{trace}"
    );
    handle_off.shutdown();
    handle_slow.shutdown();
}

#[test]
fn outbox_stalls_are_counted_and_timed_and_overflow_lags() {
    let store = Arc::new(RwLock::new(EventStore::new(StoreConfig::default())));
    let hub = SubscriptionHub::new(rfid_serve::HubConfig::default().with_queue_frames(128));
    // a 1 KiB high-water mark: once the kernel buffers fill, the
    // outbox crosses it almost immediately
    let handle = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        hub.clone(),
        ServerConfig::default().with_outbox_high_water(1024),
    )
    .expect("bind");

    let mut scraper = connect(handle.addr());
    let before = scraper.telemetry(TelemetryCmd::Metrics).expect("scrape");

    let mut subscriber = connect(handle.addr());
    subscriber
        .subscribe(&SubscriptionFilter::All)
        .expect("subscribe");

    // commit far more push volume than the socket buffers can absorb
    // while the subscriber reads nothing: the connection must stall
    // and the bounded queue must overflow into a LAGGED run
    let mut sink = hub.sink();
    for e in 0..200u64 {
        for t in 0..4000u64 {
            sink.on_event(&LocationEvent::new(
                Epoch(e),
                TagId(t),
                Point3::new(e as f64 + 0.123456789, t as f64, 0.0),
            ));
        }
        sink.on_epoch_complete(Epoch(e));
    }

    let deadline = Instant::now() + Duration::from_secs(30);
    let stalled = loop {
        let body = scraper.telemetry(TelemetryCmd::Metrics).expect("scrape");
        if metric(&body, "server_outbox_stalls_total")
            > metric(&before, "server_outbox_stalls_total")
        {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "connection never stalled: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        metric(&stalled, "hub_dropped_total") > metric(&before, "hub_dropped_total"),
        "bounded queue never overflowed:\n{stalled}"
    );
    assert!(
        metric(&stalled, "hub_lagged_total") > metric(&before, "hub_lagged_total"),
        "overflow run not counted:\n{stalled}"
    );

    // drain: reading frames un-stalls the connection, which records
    // the stalled duration; the overflow surfaces as a LAGGED frame
    let mut saw_lagged = false;
    loop {
        match subscriber.next_push() {
            Ok(rfid_serve::Frame::Lagged { .. }) => saw_lagged = true,
            Ok(_) => {}
            // queue exhausted: the read times out or the test is done
            Err(_) => break,
        }
        let body = scraper.telemetry(TelemetryCmd::Metrics).expect("scrape");
        if saw_lagged
            && metric(&body, "server_outbox_stalled_us_total")
                > metric(&before, "server_outbox_stalled_us_total")
        {
            break;
        }
        assert!(Instant::now() < deadline, "stall never exited: {body}");
    }
    assert!(saw_lagged, "subscriber never received its LAGGED notice");
    let after = scraper.telemetry(TelemetryCmd::Metrics).expect("scrape");
    assert!(
        metric(&after, "server_outbox_stalled_us_total")
            > metric(&before, "server_outbox_stalled_us_total"),
        "stall exit never recorded its duration:\n{after}"
    );
    handle.shutdown();
}

//! An idle server costs no CPU: with one idle greeted connection and
//! one subscribed connection that nothing is committed to, every
//! server thread except the accept loop (which polls its stop flag)
//! sleeps in a blocking call. Read from `/proc/self/task/*/stat`, so
//! the test is Linux-only.

#![cfg(target_os = "linux")]

use rfid_serve::store::EventStore;
use rfid_serve::{read_frame, serve, write_frame, QueryClient, SubscriptionFilter};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`,
/// 100 on every mainstream Linux build).
const TICKS_PER_S: u64 = 100;

/// CPU (user + system) spent so far by each `rfid-serve*` thread of
/// this process other than the accept loop, in ticks, keyed by tid.
fn server_thread_ticks() -> HashMap<String, (String, u64)> {
    let mut ticks = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("list threads") {
        let dir = task.expect("thread entry").path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited between the listing and here
        };
        let comm = comm.trim().to_string();
        if !comm.starts_with("rfid-serve") || comm.starts_with("rfid-serve-acce") {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(dir.join("stat")) else {
            continue;
        };
        // fields after the parenthesised name: state is field 3, so
        // utime (14) and stime (15) sit at offsets 11 and 12
        let rest = &stat[stat.rfind(')').expect("stat names the thread") + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let used: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        let tid = dir.file_name().unwrap().to_string_lossy().into_owned();
        ticks.insert(tid, (comm, used));
    }
    ticks
}

#[test]
fn an_idle_server_does_not_spin() {
    let store = Arc::new(RwLock::new(EventStore::default()));
    let handle = serve("127.0.0.1:0", store).expect("bind");

    let mut idle = TcpStream::connect(handle.addr()).expect("connect");
    write_frame(&mut idle, "HELLO 2").unwrap();
    assert_eq!(read_frame(&mut idle).unwrap().as_deref(), Some("HELLO 2"));
    let mut subscriber = QueryClient::connect(handle.addr())
        .timeout(Duration::from_secs(10))
        .establish()
        .expect("connect");
    subscriber
        .subscribe(&SubscriptionFilter::All)
        .expect("subscribe");

    let before = server_thread_ticks();
    assert!(!before.is_empty(), "no rfid-serve threads found");
    std::thread::sleep(Duration::from_secs(2));
    let after = server_thread_ticks();

    let budget_ms = 20;
    for (tid, (comm, used)) in &after {
        let start = before.get(tid).map_or(0, |(_, t)| *t);
        let ms = (used - start) * 1000 / TICKS_PER_S;
        assert!(
            ms <= budget_ms,
            "{comm} (tid {tid}) used {ms} ms of CPU in 2 s of idling (budget {budget_ms} ms)"
        );
    }
    handle.shutdown();
}

//! The event-driven TCP query server and its blocking client.
//!
//! ## Connection layer
//!
//! A **sharded, non-blocking worker pool** (std-only): one accept
//! thread runs a non-blocking accept loop (waking on the stop flag
//! directly — no self-connect tricks) and deals connections round-robin
//! to `ServerConfig::workers` worker threads. Each worker owns its
//! connections outright and multiplexes them with
//! `TcpStream::set_nonblocking`: per iteration it flushes pending
//! output, reads whatever bytes are available, processes every
//! complete frame, and drains subscription queues into connections
//! with room. Workers spin-yield briefly when idle and then sleep a
//! short interval, so quiet servers cost ~0 CPU while busy ones never
//! sleep.
//!
//! All query evaluation takes only **read** locks on the store, so any
//! number of pulls proceed in parallel with each other and interleave
//! with the single writer (the ingestion pipeline holding the same
//! `Arc` through a `StoreSink`).
//!
//! ## Backpressure
//!
//! Each connection buffers outbound bytes in an outbox. When the
//! outbox passes `ServerConfig::outbox_high_water` the worker stops
//! reading new requests from that connection *and* stops appending
//! push frames to it — pushes then pool in the subscription's bounded
//! queue, whose overflow policy (drop oldest, one `LAGGED` notice per
//! run) is the hub's. A slow subscriber costs a bounded queue, never
//! an unbounded buffer or a desynced frame.
//!
//! Framing is the 4-byte big-endian length prefix from
//! [`crate::query`] — one frame per request, one frame per response or
//! push, many frames per connection.
//!
//! ## Handshake
//!
//! A connection's first frame must be `HELLO <version>` with a version
//! of at least [`PROTOCOL_VERSION`]; the server answers with the
//! negotiated version. A `HELLO` below it is refused with a typed
//! `ERR 0 UNSUPPORTED_VERSION` and the connection stays open for
//! another try. Any other first frame draws that same single `ERR`
//! frame and a clean close — a typed answer, never a guess at what an
//! ungreeted peer meant.

use crate::hub::{SubscriptionHandle, SubscriptionHub};
use crate::query::{
    answer, ErrorCode, Frame, Query, QueryResponse, Request, RequestKind, SubscriptionFilter,
    TelemetryCmd, WireError, PROTOCOL_VERSION,
};
use crate::store::EventStore;
use rfid_stream::wire;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on a single frame's payload (a request line or a
/// response document). Guards the server against garbage prefixes.
pub(crate) const MAX_FRAME_BYTES: u32 = 4 << 20;

/// How often the accept loop re-checks the stop flag while no
/// connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Idle iterations a worker spin-yields before sleeping.
const IDLE_SPINS: u32 = 64;

/// How long an idle worker sleeps between polls once spinning has not
/// produced work. Bounds worst-case added latency on an otherwise idle
/// server.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

/// Server knobs. The fields are public, so [`serve_with`] re-checks the
/// bounds the `with_*` builders assert and refuses a config outside
/// them. How long an idle worker spins and sleeps is not a knob
/// (`IDLE_SPINS`, `IDLE_SLEEP`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads sharing the connections (>= 1).
    pub workers: usize,
    /// Outbox size (bytes) past which a connection stops being read
    /// and stops receiving push frames until it drains.
    pub outbox_high_water: usize,
    /// Accepted connections the server holds at once. An accept past
    /// the bound gets a best-effort `ERR` frame with
    /// [`ErrorCode::Overloaded`] and a clean close — never a silent
    /// hang. `None` is unlimited.
    pub max_connections: Option<usize>,
    /// Largest frame payload accepted from a peer, in bytes. The
    /// 4-byte length prefix is untrusted input: a frame announcing
    /// more than this is answered with a typed `ERR BAD_REQUEST` and a
    /// clean close *before* any allocation, so a corrupt or malicious
    /// prefix can neither balloon memory nor kill the worker silently.
    pub max_frame_len: u32,
    /// Requests slower than this many microseconds are recorded into
    /// the process trace ring (readable via `TELEMETRY TRACE`), with
    /// their verb, duration, and connection id. 0 (the default)
    /// disables the slow-query log entirely.
    pub slow_query_us: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(1, 4),
            outbox_high_water: 256 << 10,
            max_connections: None,
            max_frame_len: MAX_FRAME_BYTES,
            slow_query_us: 0,
        }
    }
}

impl ServerConfig {
    /// Default config with a worker count (>= 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "at least one worker");
        self.workers = workers;
        self
    }

    /// Default config with an outbox high-water mark in bytes.
    pub fn with_outbox_high_water(mut self, bytes: usize) -> Self {
        self.outbox_high_water = bytes;
        self
    }

    /// Default config with a connection bound (>= 1).
    pub fn with_max_connections(mut self, max: usize) -> Self {
        assert!(max >= 1, "at least one connection");
        self.max_connections = Some(max);
        self
    }

    /// Default config with a frame-payload cap in bytes (>= 16, so a
    /// HELLO still fits).
    pub fn with_max_frame_len(mut self, bytes: u32) -> Self {
        assert!(bytes >= 16, "frames must at least fit a HELLO");
        self.max_frame_len = bytes;
        self
    }

    /// Default config with a slow-query threshold in microseconds
    /// (0 disables).
    pub fn with_slow_query_us(mut self, us: u64) -> Self {
        self.slow_query_us = us;
        self
    }

    /// The bounds the `with_*` builders assert, for a config built as
    /// a struct literal (the fields are public).
    fn check(&self) -> io::Result<()> {
        let reason = if self.workers == 0 {
            "workers must be >= 1"
        } else if self.max_connections == Some(0) {
            "max_connections must be >= 1"
        } else if self.max_frame_len < 16 {
            "max_frame_len must be >= 16 (a HELLO must fit)"
        } else {
            return Ok(());
        };
        Err(io::Error::new(io::ErrorKind::InvalidInput, reason))
    }
}

/// Writes one length-prefixed frame (the byte framing is shared with
/// the cluster wire layer in `rfid_stream::wire`).
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    wire::write_frame(w, payload.as_bytes(), MAX_FRAME_BYTES)?;
    w.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on a clean EOF at a
/// frame boundary. The announced length is checked against
/// `MAX_FRAME_BYTES` *before* any allocation; an oversized prefix
/// surfaces as an error carrying [`wire::OversizedFrame`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<String>> {
    match wire::read_frame(r, MAX_FRAME_BYTES)? {
        None => Ok(None),
        Some(payload) => String::from_utf8(payload)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
    }
}

/// A frame that cannot be accepted: either its announced length is
/// over the connection's cap (detected before allocating) or its
/// payload is not UTF-8. Both are peer-input faults, answered with a
/// typed `ERR BAD_REQUEST` and a clean close instead of a silent drop.
#[derive(Debug)]
enum FrameDecodeError {
    Oversized { len: u32, max: u32 },
    Encoding(std::str::Utf8Error),
}

impl std::fmt::Display for FrameDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameDecodeError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameDecodeError::Encoding(e) => write!(f, "frame payload is not UTF-8: {e}"),
        }
    }
}

impl From<FrameDecodeError> for io::Error {
    fn from(e: FrameDecodeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// An incremental frame decoder: bytes go in as they arrive (partial
/// frames survive between reads — a slow peer must never desync the
/// framing), complete frames come out.
#[derive(Debug)]
struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
    /// Per-connection cap on the announced payload length
    /// ([`ServerConfig::max_frame_len`]).
    max: u32,
}

impl FrameBuf {
    fn new(max: u32) -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            max,
        }
    }

    fn extend(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// The next complete frame, if the buffer holds one.
    fn next_frame(&mut self) -> Result<Option<String>, FrameDecodeError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.pos..self.pos + 4]
            .try_into()
            .expect("4 bytes checked");
        let len = u32::from_be_bytes(len_bytes);
        if len > self.max {
            // checked before the payload is buffered or allocated
            return Err(FrameDecodeError::Oversized { len, max: self.max });
        }
        let total = 4 + len as usize;
        if avail < total {
            self.compact();
            return Ok(None);
        }
        let payload = std::str::from_utf8(&self.buf[self.pos + 4..self.pos + total])
            .map_err(FrameDecodeError::Encoding)?
            .to_string();
        self.pos += total;
        self.compact();
        Ok(Some(payload))
    }

    fn compact(&mut self) {
        // reclaim consumed prefix once it dominates the buffer
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 16 << 10) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// A running query server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads running for the
/// process lifetime.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    hub: SubscriptionHub,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (use port 0 to let the OS pick).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hub feeding this server's push subscriptions. Compose its
    /// [`SubscriptionHub::sink`] into the ingestion pipeline next to
    /// the store's `StoreSink`.
    pub fn hub(&self) -> &SubscriptionHub {
        &self.hub
    }

    /// Stops the server and joins every thread. The non-blocking
    /// accept loop and the workers observe the flag within their poll
    /// interval — no wake-up connection needed. In-flight responses
    /// already in an outbox are not flushed further; clients see EOF.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and serves queries against `store` with default
/// config and a private hub (reachable via [`ServerHandle::hub`]).
/// `addr` is typically `"127.0.0.1:0"` (tests, benches) or a fixed
/// port (deployments).
pub fn serve(addr: &str, store: Arc<RwLock<EventStore>>) -> io::Result<ServerHandle> {
    serve_with(
        addr,
        store,
        SubscriptionHub::default(),
        ServerConfig::default(),
    )
}

/// [`serve`] with an explicit hub (shared with the ingestion side)
/// and config. A config outside the bounds the `with_*` builders
/// assert (no worker, no connection slot, a frame cap below a HELLO)
/// is [`io::ErrorKind::InvalidInput`] before anything is bound.
pub fn serve_with(
    addr: &str,
    store: Arc<RwLock<EventStore>>,
    hub: SubscriptionHub,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    cfg.check()?;
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::with_capacity(cfg.workers + 1);
    let mut senders = Vec::with_capacity(cfg.workers);
    for w in 0..cfg.workers {
        let (tx, rx) = mpsc::channel::<(TcpStream, ConnPermit)>();
        senders.push(tx);
        let store = Arc::clone(&store);
        let hub = hub.clone();
        let stop = Arc::clone(&stop);
        threads.push(
            std::thread::Builder::new()
                .name(format!("rfid-serve-worker-{w}"))
                .spawn(move || worker_loop(rx, store, hub, stop, cfg))?,
        );
    }
    let accept_stop = Arc::clone(&stop);
    let max_connections = cfg.max_connections;
    threads.insert(
        0,
        std::thread::Builder::new()
            .name("rfid-serve-accept".into())
            .spawn(move || accept_loop(listener, senders, accept_stop, max_connections))?,
    );
    Ok(ServerHandle {
        addr: local,
        stop,
        hub,
        threads,
    })
}

/// A slot in the connection count, released when the worker drops the
/// connection.
#[derive(Debug)]
struct ConnPermit(Arc<AtomicUsize>);

impl ConnPermit {
    /// Takes a slot unless `max` are already held.
    fn acquire(count: &Arc<AtomicUsize>, max: Option<usize>) -> Option<Self> {
        let prev = count.fetch_add(1, Ordering::SeqCst);
        if max.is_some_and(|m| prev >= m) {
            count.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(Self(Arc::clone(count)))
    }
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Tells an over-limit peer why it is being closed: one best-effort
/// `ERR` frame with [`ErrorCode::Overloaded`], then the close. The
/// accepted socket is still blocking, so a short write timeout bounds
/// how long a pathological peer can hold the accept loop.
fn refuse_connection(mut stream: TcpStream, max: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let frame = Frame::Err {
        id: 0,
        error: WireError::new(
            ErrorCode::Overloaded,
            format!("connection limit of {max} reached, try again later"),
        ),
    };
    let _ = write_frame(&mut stream, &frame.encode());
}

/// Non-blocking accept loop: deals connections round-robin to the
/// workers, sleeping [`ACCEPT_POLL`] when none are pending so the stop
/// flag is observed directly. Accepts past
/// [`ServerConfig::max_connections`] are refused with a typed error.
fn accept_loop(
    listener: TcpListener,
    senders: Vec<mpsc::Sender<(TcpStream, ConnPermit)>>,
    stop: Arc<AtomicBool>,
    max_connections: Option<usize>,
) {
    let count = Arc::new(AtomicUsize::new(0));
    let mut next = 0usize;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let Some(permit) = ConnPermit::acquire(&count, max_connections) else {
                    refuse_connection(stream, max_connections.expect("bounded"));
                    continue;
                };
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                // a worker that exited (only at shutdown) drops its
                // receiver; the send error is then irrelevant
                let _ = senders[next % senders.len()].send((stream, permit));
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Process-wide connection id counter; ids appear in slow-query trace
/// entries so one connection's requests can be correlated.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// One multiplexed connection owned by a worker.
struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    outbuf: VecDeque<u8>,
    /// Whether the peer's `HELLO` has been accepted.
    greeted: bool,
    subs: Vec<SubscriptionHandle>,
    closed: bool,
    /// Process-unique id (trace correlation).
    id: u64,
    /// When the outbox crossed the high-water mark and stalled the
    /// connection; `None` while draining normally.
    stalled_since: Option<Instant>,
    /// Held for the connection's lifetime; dropping it releases the
    /// slot counted against `ServerConfig::max_connections`.
    _permit: ConnPermit,
}

impl Conn {
    fn new(stream: TcpStream, permit: ConnPermit, max_frame_len: u32) -> Self {
        Self {
            stream,
            inbuf: FrameBuf::new(max_frame_len),
            outbuf: VecDeque::new(),
            greeted: false,
            subs: Vec::new(),
            closed: false,
            id: NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed),
            stalled_since: None,
            _permit: permit,
        }
    }

    fn enqueue(&mut self, payload: &str) {
        let bytes = payload.as_bytes();
        debug_assert!(bytes.len() as u64 <= MAX_FRAME_BYTES as u64);
        self.outbuf
            .extend((bytes.len() as u32).to_be_bytes().iter().copied());
        self.outbuf.extend(bytes.iter().copied());
    }

    /// Answers a fault the connection cannot recover from with one
    /// `ERR 0` frame, flushed best-effort, and marks it closed.
    fn refuse(&mut self, error: WireError) {
        self.enqueue(&Frame::Err { id: 0, error }.encode());
        let _ = self.flush();
        self.closed = true;
    }

    /// Writes as much buffered output as the socket accepts.
    fn flush(&mut self) -> io::Result<usize> {
        let mut written = 0usize;
        while !self.outbuf.is_empty() {
            let (front, _) = self.outbuf.as_slices();
            match self.stream.write(front) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted 0 bytes",
                    ))
                }
                Ok(n) => {
                    self.outbuf.drain(..n);
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(written)
    }
}

/// The server's registry handles, fetched once per worker thread:
/// per-verb request latency histograms plus outbox stall accounting.
struct ServeMetrics {
    current: rfid_obs::Histogram,
    trail: rfid_obs::Histogram,
    snapshot: rfid_obs::Histogram,
    contain: rfid_obs::Histogram,
    subscribe: rfid_obs::Histogram,
    unsubscribe: rfid_obs::Histogram,
    telemetry: rfid_obs::Histogram,
    /// Below-to-above high-water transitions of any outbox.
    stalls: rfid_obs::Counter,
    /// Total microseconds connections spent stalled (added when a
    /// stall ends).
    stalled_us: rfid_obs::Counter,
}

impl ServeMetrics {
    fn registered() -> Self {
        let reg = rfid_obs::global();
        Self {
            current: reg.histogram("server_query_us_current"),
            trail: reg.histogram("server_query_us_trail"),
            snapshot: reg.histogram("server_query_us_snapshot"),
            contain: reg.histogram("server_query_us_contain"),
            subscribe: reg.histogram("server_query_us_subscribe"),
            unsubscribe: reg.histogram("server_query_us_unsubscribe"),
            telemetry: reg.histogram("server_query_us_telemetry"),
            stalls: reg.counter("server_outbox_stalls_total"),
            stalled_us: reg.counter("server_outbox_stalled_us_total"),
        }
    }

    fn for_verb(&self, verb: &str) -> Option<&rfid_obs::Histogram> {
        Some(match verb {
            "CURRENT" => &self.current,
            "TRAIL" => &self.trail,
            "SNAPSHOT" => &self.snapshot,
            "CONTAIN" => &self.contain,
            "SUBSCRIBE" => &self.subscribe,
            "UNSUBSCRIBE" => &self.unsubscribe,
            "TELEMETRY" => &self.telemetry,
            _ => return None,
        })
    }

    /// Records one served request: its verb histogram, and a
    /// slow-query trace entry when past the configured threshold.
    fn observe_request(
        &self,
        cfg: &ServerConfig,
        conn_id: u64,
        verb: &'static str,
        start: Instant,
    ) {
        let dur_us = start.elapsed().as_micros() as u64;
        if let Some(h) = self.for_verb(verb) {
            h.record(dur_us);
        }
        if cfg.slow_query_us > 0 && dur_us >= cfg.slow_query_us {
            let mut entry = rfid_obs::TraceEntry::new("slow_query", dur_us);
            entry.what = verb;
            entry.conn = conn_id;
            rfid_obs::trace().record(entry);
        }
    }
}

fn worker_loop(
    incoming: mpsc::Receiver<(TcpStream, ConnPermit)>,
    store: Arc<RwLock<EventStore>>,
    hub: SubscriptionHub,
    stop: Arc<AtomicBool>,
    cfg: ServerConfig,
) {
    let metrics = ServeMetrics::registered();
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut spins = 0u32;
    while !stop.load(Ordering::SeqCst) {
        let mut progressed = false;
        while let Ok((stream, permit)) = incoming.try_recv() {
            conns.push(Conn::new(stream, permit, cfg.max_frame_len));
            progressed = true;
        }
        for conn in conns.iter_mut() {
            match pump(conn, &store, &hub, &cfg, &metrics, &mut scratch) {
                Ok(p) => progressed |= p,
                Err(_) => conn.closed = true,
            }
        }
        conns.retain_mut(|c| {
            if c.closed {
                for sub in &c.subs {
                    sub.cancel();
                }
                false
            } else {
                true
            }
        });
        if progressed {
            spins = 0;
        } else if spins < IDLE_SPINS {
            spins += 1;
            std::thread::yield_now();
        } else {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    // shutdown: cancel subscriptions so the hub prunes them
    for conn in &conns {
        for sub in &conn.subs {
            sub.cancel();
        }
    }
}

/// One service iteration of one connection: flush, read + process,
/// drain subscriptions, flush. Returns whether any progress happened.
fn pump(
    conn: &mut Conn,
    store: &RwLock<EventStore>,
    hub: &SubscriptionHub,
    cfg: &ServerConfig,
    metrics: &ServeMetrics,
    scratch: &mut [u8],
) -> io::Result<bool> {
    let mut progressed = conn.flush()? > 0;

    // process buffered requests and read new ones, but only while the
    // peer drains its responses — a pipelining client cannot grow the
    // outbox past the high-water mark plus one response
    loop {
        while conn.outbuf.len() < cfg.outbox_high_water {
            match conn.inbuf.next_frame() {
                Ok(Some(payload)) => {
                    process_frame(conn, store, hub, cfg, metrics, &payload);
                    if conn.closed {
                        return Ok(true);
                    }
                    progressed = true;
                }
                Ok(None) => break,
                Err(e) => {
                    // a peer-input fault (oversized or non-UTF-8
                    // frame): tell the peer why, then close cleanly —
                    // the framing cannot be resynced after this
                    conn.refuse(WireError::bad_request(e.to_string()));
                    return Ok(true);
                }
            }
        }
        if conn.outbuf.len() >= cfg.outbox_high_water {
            break;
        }
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.closed = true;
                return Ok(true);
            }
            Ok(n) => {
                conn.inbuf.extend(&scratch[..n]);
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }

    // drain subscription queues into the outbox while there is room
    let mut i = 0;
    while i < conn.subs.len() && conn.outbuf.len() < cfg.outbox_high_water {
        if let Some(frame) = conn.subs[i].poll() {
            conn.enqueue(&frame.encode());
            progressed = true;
        } else {
            i += 1;
        }
    }

    progressed |= conn.flush()? > 0;

    // stall transition accounting: entering a stall (outbox at or past
    // the high-water mark) counts once; leaving it adds the stalled
    // duration. Both edges were previously invisible to operators.
    let stalled = conn.outbuf.len() >= cfg.outbox_high_water;
    match (stalled, conn.stalled_since) {
        (true, None) => {
            conn.stalled_since = Some(Instant::now());
            metrics.stalls.inc();
        }
        (false, Some(since)) => {
            metrics.stalled_us.add(since.elapsed().as_micros() as u64);
            conn.stalled_since = None;
        }
        _ => {}
    }
    Ok(progressed)
}

/// Handles one request frame, appending whatever response frames it
/// produces to the connection's outbox.
fn process_frame(
    conn: &mut Conn,
    store: &RwLock<EventStore>,
    hub: &SubscriptionHub,
    cfg: &ServerConfig,
    metrics: &ServeMetrics,
    payload: &str,
) {
    if let Some(rest) = payload.strip_prefix("HELLO") {
        let reply = match rest.trim().parse::<u32>() {
            Ok(v) if v >= PROTOCOL_VERSION => {
                conn.greeted = true;
                Frame::Hello {
                    version: v.min(PROTOCOL_VERSION),
                }
            }
            Ok(v) => Frame::Err {
                id: 0,
                error: WireError::new(
                    ErrorCode::UnsupportedVersion,
                    format!("version {v} not supported (server speaks {PROTOCOL_VERSION})"),
                ),
            },
            Err(e) => Frame::Err {
                id: 0,
                error: WireError::bad_request(format!("HELLO: bad version: {e}")),
            },
        };
        conn.enqueue(&reply.encode());
        return;
    }
    if !conn.greeted {
        conn.refuse(WireError::new(
            ErrorCode::UnsupportedVersion,
            format!("the first frame must be HELLO {PROTOCOL_VERSION}"),
        ));
        return;
    }
    let frame = match Request::parse(payload) {
        Ok(req) => {
            let verb = req.kind.verb();
            let start = Instant::now();
            let frame = process_request(conn, store, hub, req);
            metrics.observe_request(cfg, conn.id, verb, start);
            frame
        }
        Err((id, error)) => Frame::Err { id, error },
    };
    conn.enqueue(&frame.encode());
}

/// Evaluates one parsed request into its response frame.
fn process_request(
    conn: &mut Conn,
    store: &RwLock<EventStore>,
    hub: &SubscriptionHub,
    req: Request,
) -> Frame {
    let id = req.id;
    match req.kind {
        RequestKind::Query(q) => {
            let guard = crate::lock::read_recover(store.read());
            match answer(&guard, &q) {
                QueryResponse::Rows(rows) => Frame::Ok { id, rows },
                QueryResponse::Error(error) => Frame::Err { id, error },
            }
        }
        RequestKind::Subscribe(filter) => {
            if conn.subs.iter().any(|s| s.id() == id) {
                return Frame::Err {
                    id,
                    error: WireError::bad_request(format!("subscription id {id} already in use")),
                };
            }
            conn.subs.push(hub.subscribe(id, filter));
            Frame::Ok { id, rows: vec![] }
        }
        RequestKind::Unsubscribe(sub_id) => match conn.subs.iter().position(|s| s.id() == sub_id) {
            Some(i) => {
                conn.subs.remove(i).cancel();
                Frame::Ok { id, rows: vec![] }
            }
            None => Frame::Err {
                id,
                error: WireError::new(
                    ErrorCode::UnknownSubscription,
                    format!("no subscription {sub_id} on this connection"),
                ),
            },
        },
        // answered from the process-wide registry/trace ring without
        // ever taking the store lock — a scrape can never contend
        // with ingestion or queries
        RequestKind::Telemetry(cmd) => Frame::Telemetry {
            id,
            body: match cmd {
                TelemetryCmd::Metrics => rfid_obs::global().snapshot().render(),
                TelemetryCmd::Trace => rfid_obs::trace().render(),
            },
        },
    }
}

// ---------------------------------------------------------------------
// client
// ---------------------------------------------------------------------

/// Configures a [`QueryClient`] before the TCP connect + handshake.
/// Obtained from [`QueryClient::connect`]; finished with
/// [`ClientBuilder::establish`].
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    addr: SocketAddr,
    timeout: Option<Duration>,
}

impl ClientBuilder {
    /// Read/write timeout for every socket operation. Reads that time
    /// out mid-frame keep their partial progress — the next call
    /// resumes the same frame, never desyncing the framing.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Connects and performs the `HELLO` handshake. Any reply other
    /// than `HELLO` [`PROTOCOL_VERSION`] is [`io::ErrorKind::InvalidData`].
    pub fn establish(self) -> io::Result<QueryClient> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        let mut client = QueryClient {
            stream,
            next_id: 1,
            inbuf: FrameBuf::new(MAX_FRAME_BYTES),
            pending_pushes: VecDeque::new(),
        };
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
        };
        write_frame(&mut client.stream, &hello.encode())?;
        match Frame::parse(&client.read_frame_buffered()?) {
            Ok(reply) if reply == hello => Ok(client),
            Ok(Frame::Err { error, .. }) => {
                Err(invalid_data(format!("server refused handshake: {error}")))
            }
            other => Err(invalid_data(format!(
                "unexpected handshake reply: {other:?}"
            ))),
        }
    }
}

/// A blocking client speaking the framed text protocol.
///
/// ```no_run
/// # use rfid_serve::{Query, QueryClient};
/// # use std::time::Duration;
/// # let addr: std::net::SocketAddr = "127.0.0.1:4000".parse().unwrap();
/// let mut client = QueryClient::connect(addr)
///     .timeout(Duration::from_secs(2))
///     .establish()?;
/// let rows = client.query(&Query::SnapshotAt(rfid_stream::Epoch(40)))?.into_rows();
/// # std::io::Result::Ok(())
/// ```
#[derive(Debug)]
pub struct QueryClient {
    stream: TcpStream,
    next_id: u64,
    inbuf: FrameBuf,
    /// Push/lag frames that arrived while waiting for a pull response.
    pending_pushes: VecDeque<Frame>,
}

impl QueryClient {
    /// Starts building a connection to a server. The builder's
    /// [`ClientBuilder::establish`] performs the TCP connect and
    /// handshake.
    pub fn connect(addr: SocketAddr) -> ClientBuilder {
        ClientBuilder {
            addr,
            timeout: None,
        }
    }

    /// Reads one frame, buffering partial progress across timeouts so
    /// an expired [`ClientBuilder::timeout`] never desyncs framing.
    fn read_frame_buffered(&mut self) -> io::Result<String> {
        loop {
            if let Some(frame) = self.inbuf.next_frame()? {
                return Ok(frame);
            }
            let mut chunk = [0u8; 16 << 10];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.inbuf.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one query and waits for its response; push frames that
    /// arrive in between are retained for [`QueryClient::next_push`].
    pub fn query(&mut self, query: &Query) -> io::Result<QueryResponse> {
        match self.request(RequestKind::Query(*query))? {
            Frame::Ok { rows, .. } => Ok(QueryResponse::Rows(rows)),
            Frame::Err { error, .. } => Ok(QueryResponse::Error(error)),
            other => Err(unexpected(&other)),
        }
    }

    /// Registers a push subscription and returns its id. Frames then
    /// arrive via [`QueryClient::next_push`].
    pub fn subscribe(&mut self, filter: &SubscriptionFilter) -> io::Result<u64> {
        match self.request(RequestKind::Subscribe(filter.clone()))? {
            Frame::Ok { id, .. } => Ok(id),
            other => Err(refused(other)),
        }
    }

    /// Cancels a subscription made on this connection. Already-queued
    /// push frames may still arrive before the acknowledgement.
    pub fn unsubscribe(&mut self, subscription: u64) -> io::Result<()> {
        match self.request(RequestKind::Unsubscribe(subscription))? {
            Frame::Ok { .. } => Ok(()),
            other => Err(refused(other)),
        }
    }

    /// Scrapes the server's observability surface: the metrics
    /// registry in text exposition, or the slow-epoch/slow-query trace
    /// ring.
    pub fn telemetry(&mut self, cmd: TelemetryCmd) -> io::Result<String> {
        match self.request(RequestKind::Telemetry(cmd))? {
            Frame::Telemetry { body, .. } => Ok(body),
            other => Err(refused(other)),
        }
    }

    /// The next push or lag frame: [`Frame::Push`] or
    /// [`Frame::Lagged`]. Blocks until one arrives (or the configured
    /// timeout expires — partial frames survive the timeout).
    pub fn next_push(&mut self) -> io::Result<Frame> {
        if let Some(frame) = self.pending_pushes.pop_front() {
            return Ok(frame);
        }
        let payload = self.read_frame_buffered()?;
        match Frame::parse(&payload).map_err(invalid_data)? {
            frame @ (Frame::Push { .. } | Frame::Lagged { .. }) => Ok(frame),
            other => Err(invalid_data(format!(
                "expected a push frame, got {other:?}"
            ))),
        }
    }

    /// Sends a raw request line and returns the next non-push frame's
    /// payload (protocol tests).
    pub fn query_raw(&mut self, line: &str) -> io::Result<String> {
        write_frame(&mut self.stream, line)?;
        loop {
            let payload = self.read_frame_buffered()?;
            match Frame::parse(&payload) {
                Ok(frame @ (Frame::Push { .. } | Frame::Lagged { .. })) => {
                    self.pending_pushes.push_back(frame)
                }
                _ => return Ok(payload),
            }
        }
    }

    /// Sends one request under a fresh id and reads frames until the
    /// one answering it (`OK`, `ERR` or `TELEMETRY` echoing the id),
    /// stashing push and lag frames that interleave.
    fn request(&mut self, kind: RequestKind) -> io::Result<Frame> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &Request { id, kind }.encode())?;
        loop {
            let payload = self.read_frame_buffered()?;
            let frame = Frame::parse(&payload).map_err(invalid_data)?;
            match frame {
                Frame::Ok { id: got, .. }
                | Frame::Err { id: got, .. }
                | Frame::Telemetry { id: got, .. }
                    if got == id =>
                {
                    return Ok(frame)
                }
                Frame::Push { .. } | Frame::Lagged { .. } => self.pending_pushes.push_back(frame),
                other => return Err(unexpected(&other)),
            }
        }
    }
}

fn invalid_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn unexpected(frame: &Frame) -> io::Error {
    invalid_data(format!("response for unexpected request: {frame:?}"))
}

/// The error for a request the server answered with `ERR` (its typed
/// error's text) or with the wrong kind of frame.
fn refused(frame: Frame) -> io::Error {
    match frame {
        Frame::Err { error, .. } => invalid_data(error),
        other => unexpected(&other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "SNAPSHOT 7").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("SNAPSHOT 7"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frames_are_refused() {
        let mut r = io::Cursor::new((MAX_FRAME_BYTES + 1).to_be_bytes().to_vec());
        assert!(read_frame(&mut r).is_err());
        let mut fb = FrameBuf::new(MAX_FRAME_BYTES);
        fb.extend(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "CURRENT 1").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn frame_buf_reassembles_byte_dribbles() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "CURRENT 1").unwrap();
        write_frame(&mut wire, "SNAPSHOT 9 SINCE 4").unwrap();
        let mut fb = FrameBuf::new(MAX_FRAME_BYTES);
        let mut got = Vec::new();
        for b in wire {
            fb.extend(&[b]);
            while let Some(f) = fb.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, vec!["CURRENT 1", "SNAPSHOT 9 SINCE 4"]);
    }
}

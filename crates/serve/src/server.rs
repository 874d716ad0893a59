//! The TCP query server and its blocking client.
//!
//! ## Connection layer
//!
//! **One connection, two blocked threads** (std-only). A non-blocking
//! accept loop (re-checking the stop flag every `ACCEPT_POLL`) gives
//! each admitted connection a reader, blocked in `wire::read_frame`,
//! that answers requests into the connection's outbox, and a writer,
//! waiting on the connection's condition variable until the outbox or
//! a subscription queue holds something, that writes with a blocking
//! `write`. Hub commits wake the writers they queue to. Nothing polls.
//!
//! Queries take only **read** locks on the store, so pulls proceed in
//! parallel and interleave with the single writer (the ingestion
//! pipeline's `StoreSink`). Store and hub locks are never held
//! together; the hub wakes a writer only after releasing its own.
//!
//! ## Backpressure
//!
//! Each connection buffers outbound bytes in an outbox. While the
//! bytes not yet written reach `ServerConfig::outbox_high_water` the
//! reader reads no new request from that connection *and* the writer
//! moves no push frame into it — pushes then pool in the
//! subscription's bounded queue, whose overflow policy (drop oldest,
//! one `LAGGED` notice per run) is the hub's. A slow subscriber costs
//! a bounded queue, never an unbounded buffer or a desynced frame.
//!
//! Framing is the 4-byte big-endian length prefix from
//! [`crate::query`] — one frame per request, one frame per response or
//! push, many frames per connection. A response too large for one
//! frame is answered with a typed `ERR BAD_REQUEST` instead; a push
//! delta too large for one frame goes out as consecutive `PUSH` frames
//! of the same arrival epoch.
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
use crate::lock::{mutex_recover, read_recover, recover};
use crate::query::{
    answer, ErrorCode, Frame, Query, QueryResponse, Request, RequestKind, SubscriptionFilter,
    TelemetryCmd, WireError, PROTOCOL_VERSION,
};
use crate::store::EventStore;
use rfid_stream::wire::{self, OversizedFrame};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, Weak};
use std::task::{Wake, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on a single frame's payload (a request line or a
/// response document). Guards the server against garbage prefixes.
pub(crate) const MAX_FRAME_BYTES: u32 = 4 << 20;

/// How often the accept loop re-checks the stop flag while no
/// connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Server knobs. The fields are public, so [`serve_with`] re-checks the
/// bounds the `with_*` builders assert and refuses a config outside
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Outbox size (bytes) past which a connection stops being read
    /// and stops receiving push frames until it drains.
    pub outbox_high_water: usize,
    /// Connections held at once (>= 1), each costing a reader and a
    /// writer thread. An accept past the bound, or one no thread can
    /// be spawned for, gets a best-effort `ERR` frame with
    /// [`ErrorCode::Overloaded`] and a clean close — never a hang.
    pub max_connections: usize,
    /// Largest frame payload accepted from a peer, in bytes. The
    /// 4-byte length prefix is untrusted input: a frame announcing
    /// more than this is answered with a typed `ERR BAD_REQUEST` and a
    /// clean close *before* any allocation, so a corrupt or malicious
    /// prefix can neither balloon memory nor kill the connection
    /// silently.
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
            outbox_high_water: 256 << 10,
            max_connections: 256,
            max_frame_len: MAX_FRAME_BYTES,
            slow_query_us: 0,
        }
    }
}

impl ServerConfig {
    /// Default config with an outbox high-water mark in bytes.
    pub fn with_outbox_high_water(mut self, bytes: usize) -> Self {
        self.outbox_high_water = bytes;
        self
    }

    /// Default config with a connection bound (>= 1).
    pub fn with_max_connections(mut self, max: usize) -> Self {
        assert!(max >= 1, "at least one connection");
        self.max_connections = max;
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
        let reason = if self.max_connections == 0 {
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

/// An incremental frame decoder for the client: bytes go in as they
/// arrive (partial frames survive a read timeout — a slow server must
/// never desync the framing), complete frames of up to
/// `MAX_FRAME_BYTES` come out.
#[derive(Debug, Default)]
struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuf {
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
        if len > MAX_FRAME_BYTES {
            // checked before the payload is buffered or allocated
            let max = MAX_FRAME_BYTES;
            return Err(FrameDecodeError::Oversized { len, max });
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
    server: Arc<Server>,
    accept: JoinHandle<()>,
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
        &self.server.hub
    }

    /// Stops the server and joins every thread: the accept loop sees
    /// the flag within its poll interval, then every live connection's
    /// socket is shut down, which wakes its blocked reader and writer.
    /// Responses not yet written are dropped; clients see EOF.
    pub fn shutdown(self) {
        self.server.stop.store(true, Ordering::SeqCst);
        let _ = self.accept.join();
        let conns: Vec<_> = mutex_recover(self.server.conns.lock())
            .drain()
            .map(|(_, entry)| entry)
            .collect();
        for (conn, _) in &conns {
            conn.close();
        }
        for (_, thread) in conns {
            let _ = thread.join();
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
/// assert (no connection slot, a frame cap below a HELLO) is
/// [`io::ErrorKind::InvalidInput`] before anything is bound.
pub fn serve_with(
    addr: &str,
    store: Arc<RwLock<EventStore>>,
    hub: SubscriptionHub,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    cfg.check()?;
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let reg = rfid_obs::global();
    let requests = VERBS.iter().map(|&verb| {
        let name = format!("server_query_us_{}", verb.to_ascii_lowercase());
        (verb, reg.histogram(&name))
    });
    let server = Arc::new(Server {
        store,
        hub,
        cfg,
        requests: requests.collect(),
        stalls: reg.counter("server_outbox_stalls_total"),
        stalled_us: reg.counter("server_outbox_stalled_us_total"),
        stop: AtomicBool::new(false),
        conns: Mutex::default(),
    });
    let accept = {
        let server = Arc::clone(&server);
        std::thread::Builder::new()
            .name("rfid-serve-accept".into())
            .spawn(move || server.accept_loop(listener))?
    };
    Ok(ServerHandle {
        addr,
        server,
        accept,
    })
}

/// Tells a peer the server cannot take why it is being closed: one
/// best-effort `ERR` frame with [`ErrorCode::Overloaded`], then the
/// close (when the caller drops the stream). A short write timeout
/// bounds how long a pathological peer can hold the caller.
fn refuse_connection(mut stream: &TcpStream, reason: String) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let frame = Frame::Err {
        id: 0,
        error: WireError::new(ErrorCode::Overloaded, reason),
    };
    let _ = write_frame(&mut stream, &frame.encode());
}

/// Process-wide connection id counter; ids appear in slow-query trace
/// entries so one connection's requests can be correlated.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// One connection: its socket, and the state its reader, its writer
/// and the hub's wakes meet at.
struct Conn {
    /// Process-unique id (trace correlation, the live-connection table).
    id: u64,
    stream: TcpStream,
    state: Mutex<ConnState>,
    /// Signalled whenever the outbox, a subscription queue or the
    /// connection's end may have changed.
    wake: Condvar,
}

#[derive(Default)]
struct ConnState {
    /// Encoded frames, length prefixes included, not yet taken by the
    /// writer.
    outbox: Vec<u8>,
    /// Bytes the writer took from the outbox and is writing; they
    /// count against the high-water mark until written.
    in_flight: usize,
    subs: Vec<SubscriptionHandle>,
    /// The reader is done: the writer sends what the outbox holds,
    /// then closes.
    draining: bool,
    /// The connection is over: both threads stop without writing more.
    closed: bool,
    /// When the unwritten bytes reached the high-water mark and
    /// stalled the connection; `None` while draining normally.
    stalled_since: Option<Instant>,
}

impl ConnState {
    fn enqueue(&mut self, payload: &str) {
        self.outbox
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.outbox.extend_from_slice(payload.as_bytes());
    }

    /// Queues a frame polled from a subscription. A `PUSH` past the
    /// frame cap goes out as consecutive `PUSH` frames of the same
    /// subscription and arrival epoch, rows in order, each under the
    /// cap: one call, under one hold of the lock, so nothing
    /// interleaves.
    fn enqueue_push(&mut self, frame: Frame) {
        let text = frame.encode();
        match frame {
            Frame::Push {
                id,
                epoch,
                mut rows,
            } if text.len() > MAX_FRAME_BYTES as usize && rows.len() > 1 => {
                let tail = rows.split_off(rows.len() / 2);
                self.enqueue_push(Frame::Push { id, epoch, rows });
                self.enqueue_push(Frame::Push {
                    id,
                    epoch,
                    rows: tail,
                });
            }
            _ => self.enqueue(&text),
        }
    }

    /// Bytes queued or being written.
    fn pending(&self) -> usize {
        self.outbox.len() + self.in_flight
    }
}

impl Conn {
    fn lock(&self) -> MutexGuard<'_, ConnState> {
        mutex_recover(self.state.lock())
    }

    /// Ends the connection: the socket is shut down, so both threads
    /// stop at their next wait, read or write.
    fn close(&self) {
        self.lock().closed = true;
        let _ = self.stream.shutdown(Shutdown::Both);
        self.wake.notify_all();
    }
}

/// The hub's handle on a connection's writer. Weak, so a registration
/// the hub has not pruned yet keeps no closed socket open.
struct WriterWaker(Weak<Conn>);

impl Wake for WriterWaker {
    fn wake(self: Arc<Self>) {
        if let Some(conn) = self.0.upgrade() {
            // taking the lock orders the wake after any poll the writer
            // made under it, so none is lost
            drop(conn.lock());
            conn.wake.notify_all();
        }
    }
}

/// The verbs whose request latency the server records, each into
/// `server_query_us_<verb>`.
const VERBS: [&str; 7] = [
    "CURRENT",
    "TRAIL",
    "SNAPSHOT",
    "CONTAIN",
    "SUBSCRIBE",
    "UNSUBSCRIBE",
    "TELEMETRY",
];

/// A live connection and the thread serving it.
type ConnEntry = (Arc<Conn>, JoinHandle<()>);

/// What every thread of one server shares.
struct Server {
    store: Arc<RwLock<EventStore>>,
    hub: SubscriptionHub,
    cfg: ServerConfig,
    /// Request latency histograms, one per verb.
    requests: Vec<(&'static str, rfid_obs::Histogram)>,
    /// Below-to-above high-water transitions of any outbox.
    stalls: rfid_obs::Counter,
    /// Total microseconds connections spent stalled (added when a
    /// stall ends).
    stalled_us: rfid_obs::Counter,
    stop: AtomicBool,
    /// The live connections, counted against
    /// [`ServerConfig::max_connections`], that shutdown closes and
    /// joins; each removes itself once its threads are done.
    conns: Mutex<HashMap<u64, ConnEntry>>,
}

impl Server {
    /// Records one served request: its verb histogram, and a
    /// slow-query trace entry when past the configured threshold.
    fn observe_request(&self, conn_id: u64, verb: &'static str, start: Instant) {
        let dur_us = start.elapsed().as_micros() as u64;
        if let Some((_, h)) = self.requests.iter().find(|(v, _)| *v == verb) {
            h.record(dur_us);
        }
        if self.cfg.slow_query_us > 0 && dur_us >= self.cfg.slow_query_us {
            let mut entry = rfid_obs::TraceEntry::new("slow_query", dur_us);
            entry.what = verb;
            entry.conn = conn_id;
            rfid_obs::trace().record(entry);
        }
    }

    /// Non-blocking accept loop, sleeping [`ACCEPT_POLL`] when no
    /// connection is pending so the stop flag is observed directly.
    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        while !self.stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
    }

    /// Gives an accepted connection its thread, or refuses it with a
    /// typed error past [`ServerConfig::max_connections`].
    fn admit(self: &Arc<Self>, stream: TcpStream) {
        // the connection is inserted under the lock its thread takes to
        // remove itself, so one that ends at once leaves no entry behind
        let mut conns = mutex_recover(self.conns.lock());
        let max = self.cfg.max_connections;
        if conns.len() >= max {
            drop(conns);
            let reason = format!("connection limit of {max} reached, try again later");
            return refuse_connection(&stream, reason);
        }
        let _ = stream.set_nodelay(true);
        let conn = Arc::new(Conn {
            id: NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed),
            stream,
            state: Mutex::default(),
            wake: Condvar::new(),
        });
        let (server, ours) = (Arc::clone(self), Arc::clone(&conn));
        let spawned = std::thread::Builder::new()
            .name(format!("rfid-serve-read-{}", conn.id))
            .spawn(move || server.run(&ours));
        match spawned {
            Ok(thread) => {
                conns.insert(conn.id, (conn, thread));
            }
            Err(_) => {
                drop(conns);
                refuse_connection(&conn.stream, "no thread for the connection".into());
            }
        }
    }

    /// One connection's life: the reader runs on this thread beside a
    /// scoped writer, then the connection cancels its subscriptions and
    /// leaves the table, freeing its slot.
    fn run(&self, conn: &Arc<Conn>) {
        std::thread::scope(|s| {
            let writer = std::thread::Builder::new()
                .name(format!("rfid-serve-write-{}", conn.id))
                .spawn_scoped(s, || {
                    self.write_loop(conn);
                    conn.close();
                });
            if writer.is_err() {
                return refuse_connection(&conn.stream, "no thread for the connection".into());
            }
            self.read_loop(conn);
            conn.lock().draining = true;
            conn.wake.notify_all();
        });
        for sub in conn.lock().subs.drain(..) {
            sub.cancel();
        }
        mutex_recover(self.conns.lock()).remove(&conn.id);
    }

    /// Reads and answers frames until the peer leaves, sends a frame
    /// the connection cannot survive, or the connection closes. Waits
    /// while the unwritten bytes are at the high-water mark: a
    /// pipelining client cannot grow the outbox past it plus one
    /// response.
    fn read_loop(&self, conn: &Arc<Conn>) {
        let mut input = BufReader::new(&conn.stream);
        let mut greeted = false;
        loop {
            let mut st = conn.lock();
            while st.pending() >= self.cfg.outbox_high_water && !st.closed {
                st = recover(conn.wake.wait(st));
            }
            if st.closed {
                return;
            }
            drop(st);
            let frame = match wire::read_frame(&mut input, self.cfg.max_frame_len) {
                Ok(Some(bytes)) => {
                    String::from_utf8(bytes).map_err(|e| FrameDecodeError::Encoding(e.utf8_error()))
                }
                Err(e) => match OversizedFrame::from_io(&e) {
                    Some(OversizedFrame { len, max }) => {
                        Err(FrameDecodeError::Oversized { len, max })
                    }
                    // EOF inside a frame, a reset, or a shut-down socket
                    None => return,
                },
                Ok(None) => return,
            };
            match frame {
                Ok(payload) if self.process_frame(conn, &mut greeted, &payload) => {}
                Ok(_) => return,
                // a peer-input fault (oversized or non-UTF-8 frame):
                // tell the peer why, then close cleanly — the framing
                // cannot be resynced after this
                Err(e) => return self.send(conn, &refusal(WireError::bad_request(e.to_string()))),
            }
        }
    }

    /// Writes the outbox, refilled from the subscription queues while
    /// below the high-water mark, waiting while both are empty; stops
    /// when the connection closes or, once the reader is done, when
    /// the outbox is empty.
    fn write_loop(&self, conn: &Conn) {
        let mut sending = Vec::new();
        loop {
            let mut st = conn.lock();
            loop {
                if st.closed {
                    return;
                }
                if !st.draining {
                    let mut i = 0;
                    while i < st.subs.len() && st.pending() < self.cfg.outbox_high_water {
                        match st.subs[i].poll() {
                            Some(frame) => st.enqueue_push(frame),
                            None => i += 1,
                        }
                    }
                    self.account(&mut st);
                }
                if !st.outbox.is_empty() {
                    break;
                }
                if st.draining {
                    return;
                }
                st = recover(conn.wake.wait(st));
            }
            std::mem::swap(&mut st.outbox, &mut sending);
            st.in_flight = sending.len();
            drop(st);
            let written = (&conn.stream).write_all(&sending);
            sending.clear();
            let mut st = conn.lock();
            st.in_flight = 0;
            self.account(&mut st);
            drop(st);
            conn.wake.notify_all();
            if written.is_err() {
                return;
            }
        }
    }

    /// Stall transition accounting, after the unwritten byte count
    /// moved: reaching the high-water mark counts one stall, falling
    /// back below it adds the stalled duration.
    fn account(&self, st: &mut ConnState) {
        let stalled = st.pending() >= self.cfg.outbox_high_water;
        match (stalled, st.stalled_since) {
            (true, None) => {
                st.stalled_since = Some(Instant::now());
                self.stalls.inc();
            }
            (false, Some(since)) => {
                self.stalled_us.add(since.elapsed().as_micros() as u64);
                st.stalled_since = None;
            }
            _ => {}
        }
    }

    /// Queues one frame's text and wakes the writer.
    fn send(&self, conn: &Conn, payload: &str) {
        self.queue(conn, conn.lock(), payload);
    }

    fn queue(&self, conn: &Conn, mut st: MutexGuard<'_, ConnState>, payload: &str) {
        st.enqueue(payload);
        self.account(&mut st);
        drop(st);
        conn.wake.notify_all();
    }

    /// Handles one request frame, queueing whatever response it
    /// produces; false when the connection must close after it.
    fn process_frame(&self, conn: &Arc<Conn>, greeted: &mut bool, payload: &str) -> bool {
        if let Some(rest) = payload.strip_prefix("HELLO") {
            let reply = match rest.trim().parse::<u32>() {
                Ok(v) if v >= PROTOCOL_VERSION => {
                    *greeted = true;
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
            self.send(conn, &reply.encode());
            return true;
        }
        if !*greeted {
            let error = WireError::new(
                ErrorCode::UnsupportedVersion,
                format!("the first frame must be HELLO {PROTOCOL_VERSION}"),
            );
            self.send(conn, &refusal(error));
            return false;
        }
        match Request::parse(payload) {
            Ok(req) => {
                let verb = req.kind.verb();
                let start = Instant::now();
                self.answer(conn, req);
                self.observe_request(conn.id, verb, start);
            }
            Err((id, error)) => self.send(conn, &Frame::Err { id, error }.encode()),
        }
        true
    }

    /// Evaluates one parsed request and queues its response.
    fn answer(&self, conn: &Arc<Conn>, req: Request) {
        let id = req.id;
        let frame = match req.kind {
            RequestKind::Query(q) => {
                let guard = read_recover(self.store.read());
                match answer(&guard, &q) {
                    QueryResponse::Rows(rows) => Frame::Ok { id, rows },
                    QueryResponse::Error(error) => Frame::Err { id, error },
                }
            }
            // registered and acknowledged under one hold of the
            // connection's lock, so the writer cannot drain the
            // subscription's first PUSH ahead of its OK
            RequestKind::Subscribe(filter) => {
                let mut st = conn.lock();
                let frame = if st.subs.iter().any(|s| s.id() == id) {
                    Frame::Err {
                        id,
                        error: WireError::bad_request(format!(
                            "subscription id {id} already in use"
                        )),
                    }
                } else {
                    let waker = Waker::from(Arc::new(WriterWaker(Arc::downgrade(conn))));
                    st.subs
                        .push(self.hub.subscribe_waking(id, filter, Some(waker)));
                    Frame::Ok { id, rows: vec![] }
                };
                return self.queue(conn, st, &frame.encode());
            }
            RequestKind::Unsubscribe(sub_id) => {
                let mut st = conn.lock();
                match st.subs.iter().position(|s| s.id() == sub_id) {
                    Some(i) => {
                        st.subs.remove(i).cancel();
                        Frame::Ok { id, rows: vec![] }
                    }
                    None => Frame::Err {
                        id,
                        error: WireError::new(
                            ErrorCode::UnknownSubscription,
                            format!("no subscription {sub_id} on this connection"),
                        ),
                    },
                }
            }
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
        };
        let text = frame.encode();
        if text.len() <= MAX_FRAME_BYTES as usize {
            return self.send(conn, &text);
        }
        // an answer no peer would accept: a typed refusal keeps the
        // connection's framing intact
        let error = WireError::bad_request(format!(
            "response of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame cap",
            text.len()
        ));
        self.send(conn, &Frame::Err { id, error }.encode());
    }
}

/// The `ERR 0` frame that answers a fault the connection cannot
/// recover from; the connection closes once it is written.
fn refusal(error: WireError) -> String {
    Frame::Err { id: 0, error }.encode()
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
            inbuf: FrameBuf::default(),
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
        let mut fb = FrameBuf::default();
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
        let mut fb = FrameBuf::default();
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

//! The query API and its wire form.
//!
//! Five pull-query kinds cover the paper's serving questions — where is
//! object X now, what trail did it take, what was the full picture at
//! epoch E (optionally only what *changed* since an earlier epoch), and
//! what is inside this shelf region — plus a push kind:
//!
//! * [`Query::CurrentLocation`] — latest known location of one tag;
//! * [`Query::Trail`] — a tag's events over an epoch range;
//! * [`Query::SnapshotAt`] — the latest-location relation as known
//!   when an epoch completed;
//! * [`Query::SnapshotDelta`] — the same relation restricted to rows
//!   whose backing event *arrived* after an earlier epoch (the cheap
//!   way for a dashboard to refresh: full snapshot once, deltas after);
//! * [`Query::Containment`] — the snapshot filtered to an XY region;
//! * [`RequestKind::Subscribe`] — server push: location *changes*
//!   streamed as they commit, filtered by region, tag set, or none.
//!
//! ## Wire grammar
//!
//! The TCP protocol is length-prefixed text: every frame is a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 (no
//! serde is available offline, and text keeps the protocol inspectable
//! with three lines of any language).
//!
//! Every connection opens with `HELLO <version>`, the version at least
//! [`PROTOCOL_VERSION`]; the server answers `HELLO <negotiated>`, the
//! lower of the two versions. From then on every request carries a
//! client-chosen **request id**, every response echoes it, and
//! server-push frames for subscriptions interleave with responses on
//! the same connection — the id is what keeps them apart. A first
//! frame that is not `HELLO` is answered with one
//! `ERR 0 UNSUPPORTED_VERSION` frame and a clean close.
//!
//! ```text
//! hello       = "HELLO" SP version
//! request     = id SP (query | subscribe | unsubscribe | telemetry)
//! query       = current | trail | snapshot | contain
//! current     = "CURRENT"  SP tag
//! trail       = "TRAIL"    SP tag SP from-epoch SP to-epoch
//! snapshot    = "SNAPSHOT" SP epoch ["SINCE" SP since-epoch]
//! contain     = "CONTAIN"  SP x0 SP y0 SP x1 SP y1 SP epoch
//! subscribe   = "SUBSCRIBE" SP filter
//! filter      = "ALL" | "REGION" SP x0 SP y0 SP x1 SP y1
//!             | "TAGS" 1*(SP tag)
//! unsubscribe = "UNSUBSCRIBE" SP subscription-id
//! telemetry   = "TELEMETRY" ["METRICS" / "TRACE"]
//! frame       = "HELLO" SP version
//!             | "OK"     SP id SP row-count *(LF row)
//!             | "ERR"    SP id SP code SP message
//!             | "PUSH"   SP sub-id SP arrival-epoch SP row-count *(LF row)
//!             | "LAGGED" SP sub-id SP dropped-row-count
//!             | "TELEMETRY" SP id SP byte-count LF body
//! row         = tag SP epoch SP x SP y SP z
//! tag, epoch  = u64 decimal
//! x0..y1      = f64 decimal (Rust round-trip formatting)
//! ```
//!
//! `TELEMETRY` scrapes the process-wide observability surface:
//! `METRICS` (the default) returns the metrics registry in text
//! exposition, `TRACE` the slow-epoch/slow-query ring. Both are answered
//! without touching the store lock.
//!
//! A subscription's id is the id of the `SUBSCRIBE` request that
//! created it (`OK id 0` acknowledges it). `PUSH` frames carry the
//! arrival epoch whose completion committed the delta; their rows are
//! location *changes* ([`LocationChangeSink`] semantics — one row per
//! tag whose location moved). One arrival epoch's delta may span
//! consecutive `PUSH` frames of that epoch, rows in order, when it is
//! too large for one frame. A subscriber that falls behind gets its
//! oldest pending frames dropped (bounded queues, never unbounded
//! buffering) and exactly one `LAGGED` frame per overflow run counting
//! the dropped rows.
//!
//! ## Error codes
//!
//! `ERR` frames carry a machine-readable [`ErrorCode`] token that
//! round-trips the wire. Every code is request-level: the store answers
//! every query it is asked. An `ERR` whose code token is unknown is a
//! malformed frame (`BAD_REQUEST`), like any other.
//!
//! Floats are formatted with Rust's shortest round-trip `Display`, so
//! a parsed response reproduces the server's `f64`s **bit-for-bit** —
//! the bit-identical-to-sinks contract survives the wire.
//!
//! [`LocationChangeSink`]: rfid_stream::pipeline::sinks::LocationChangeSink

use crate::store::{EventStore, LocationRow};
use rfid_geom::Point3;
use rfid_stream::pipeline::sinks::LocationUpdate;
use rfid_stream::{Epoch, TagId};

/// The protocol version this crate speaks; a `HELLO` below it is
/// refused.
pub const PROTOCOL_VERSION: u32 = 2;

// ---------------------------------------------------------------------
// typed wire errors
// ---------------------------------------------------------------------

/// Machine-readable error codes; the token after `ERR` on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line did not parse (missing/trailing/bad arguments).
    BadRequest,
    /// The request verb is not part of the protocol.
    UnknownVerb,
    /// Any frame before `HELLO`, or a `HELLO` below 2.
    UnsupportedVersion,
    /// `UNSUBSCRIBE` named a subscription this connection does not own.
    UnknownSubscription,
    /// The server is at its connection limit
    /// ([`crate::server::ServerConfig::max_connections`]); retry later
    /// or against another replica.
    Overloaded,
}

impl ErrorCode {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "BAD_REQUEST",
            ErrorCode::UnknownVerb => "UNKNOWN_VERB",
            ErrorCode::UnsupportedVersion => "UNSUPPORTED_VERSION",
            ErrorCode::UnknownSubscription => "UNKNOWN_SUBSCRIPTION",
            ErrorCode::Overloaded => "OVERLOADED",
        }
    }

    /// Parses a wire token.
    pub(crate) fn from_token(token: &str) -> Option<ErrorCode> {
        Some(match token {
            "BAD_REQUEST" => ErrorCode::BadRequest,
            "UNKNOWN_VERB" => ErrorCode::UnknownVerb,
            "UNSUPPORTED_VERSION" => ErrorCode::UnsupportedVersion,
            "UNKNOWN_SUBSCRIPTION" => ErrorCode::UnknownSubscription,
            "OVERLOADED" => ErrorCode::Overloaded,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed wire error: a round-tripping code plus a human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub code: ErrorCode,
    pub message: String,
}

impl WireError {
    /// An error with a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// A `BAD_REQUEST` error.
    pub(crate) fn bad_request(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadRequest, message)
    }

    /// Encodes the text after `"ERR "` (and after the id in a frame).
    pub fn encode(&self) -> String {
        format!("{} {}", self.code, self.message.replace('\n', " "))
    }

    /// Decodes the text after `"ERR "`: a code token, then the message.
    /// A text that does not lead with a known code is itself a
    /// `BAD_REQUEST` decode error.
    pub fn decode(text: &str) -> Result<WireError, WireError> {
        let (head, message) = text.split_once(' ').unwrap_or((text, ""));
        ErrorCode::from_token(head)
            .map(|code| WireError::new(code, message))
            .ok_or_else(|| WireError::bad_request(format!("ERR: unknown code {head:?}")))
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// queries, subscriptions, request envelopes
// ---------------------------------------------------------------------

/// One pull query against the event store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Latest known location of a tag (0 or 1 row).
    CurrentLocation(TagId),
    /// A tag's events with event epoch in `[from, to]`.
    Trail { tag: TagId, from: Epoch, to: Epoch },
    /// The latest-location relation as known when `epoch` completed.
    SnapshotAt(Epoch),
    /// The rows of `SnapshotAt(at)` whose backing event **arrived**
    /// after `since` completed — an incremental refresh for a client
    /// that already holds the snapshot at `since`.
    SnapshotDelta { at: Epoch, since: Epoch },
    /// Snapshot rows inside the XY region `[x0, x1] × [y0, y1]`.
    Containment {
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
        epoch: Epoch,
    },
}

/// What a subscription wants pushed: every location change, changes
/// inside a region, or changes of an explicit tag set.
#[derive(Debug, Clone, PartialEq)]
pub enum SubscriptionFilter {
    /// Every location change.
    All,
    /// Changes whose new XY location lies in `[x0, x1] × [y0, y1]`.
    Region { x0: f64, y0: f64, x1: f64, y1: f64 },
    /// Changes of these tags.
    Tags(Vec<TagId>),
}

impl SubscriptionFilter {
    /// Whether a fired location change matches this filter.
    pub fn matches(&self, update: &LocationUpdate) -> bool {
        match self {
            SubscriptionFilter::All => true,
            SubscriptionFilter::Region { x0, y0, x1, y1 } => {
                let p = &update.location;
                p.x >= *x0 && p.x <= *x1 && p.y >= *y0 && p.y <= *y1
            }
            SubscriptionFilter::Tags(tags) => tags.contains(&update.tag),
        }
    }

    /// The filter's wire text (after `"SUBSCRIBE "`).
    pub fn encode(&self) -> String {
        match self {
            SubscriptionFilter::All => "ALL".to_string(),
            SubscriptionFilter::Region { x0, y0, x1, y1 } => {
                format!("REGION {x0} {y0} {x1} {y1}")
            }
            SubscriptionFilter::Tags(tags) => {
                let mut s = String::from("TAGS");
                for t in tags {
                    s.push(' ');
                    s.push_str(&t.0.to_string());
                }
                s
            }
        }
    }
}

/// A request: a client-chosen id plus what to do. Responses echo
/// the id, which is what lets pull responses and push frames share one
/// connection.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Request {
    /// Client-chosen; echoed on the response (and on every `PUSH` of a
    /// subscription this request created).
    pub id: u64,
    pub kind: RequestKind,
}

/// The operations a request can carry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RequestKind {
    /// A pull query, answered with one `OK`/`ERR` frame.
    Query(Query),
    /// Registers a push subscription under this request's id.
    Subscribe(SubscriptionFilter),
    /// Cancels the subscription created by request `.0`.
    Unsubscribe(u64),
    /// An observability scrape, answered with one `TELEMETRY` frame.
    /// Served entirely from the process-wide registry/trace ring —
    /// never touches the store lock.
    Telemetry(TelemetryCmd),
}

/// What a `TELEMETRY` request scrapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryCmd {
    /// The metrics registry in text exposition (the default).
    Metrics,
    /// The slow-epoch/slow-query trace ring, newest last.
    Trace,
}

impl RequestKind {
    /// The wire verb, for per-verb latency accounting.
    pub(crate) fn verb(&self) -> &'static str {
        match self {
            RequestKind::Query(Query::CurrentLocation(_)) => "CURRENT",
            RequestKind::Query(Query::Trail { .. }) => "TRAIL",
            RequestKind::Query(Query::SnapshotAt(_) | Query::SnapshotDelta { .. }) => "SNAPSHOT",
            RequestKind::Query(Query::Containment { .. }) => "CONTAIN",
            RequestKind::Subscribe(_) => "SUBSCRIBE",
            RequestKind::Unsubscribe(_) => "UNSUBSCRIBE",
            RequestKind::Telemetry(_) => "TELEMETRY",
        }
    }
}

/// A whitespace-token cursor with typed argument accessors — the one
/// parsing path for every verb.
struct Args<'a> {
    op: &'a str,
    parts: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> Args<'a> {
    fn u64(&mut self, name: &str) -> Result<u64, WireError> {
        let op = self.op;
        self.parts
            .next()
            .ok_or_else(|| WireError::bad_request(format!("{op}: missing {name}")))?
            .parse::<u64>()
            .map_err(|e| WireError::bad_request(format!("{op}: bad {name}: {e}")))
    }

    fn f64(&mut self, name: &str) -> Result<f64, WireError> {
        let op = self.op;
        self.parts
            .next()
            .ok_or_else(|| WireError::bad_request(format!("{op}: missing {name}")))?
            .parse::<f64>()
            .map_err(|e| WireError::bad_request(format!("{op}: bad {name}: {e}")))
    }

    fn end(mut self) -> Result<(), WireError> {
        match self.parts.next() {
            Some(_) => Err(WireError::bad_request(format!(
                "{}: trailing arguments",
                self.op
            ))),
            None => Ok(()),
        }
    }
}

impl Query {
    /// The request line (without envelope or length prefix).
    pub fn encode(&self) -> String {
        match self {
            Query::CurrentLocation(tag) => format!("CURRENT {}", tag.0),
            Query::Trail { tag, from, to } => format!("TRAIL {} {} {}", tag.0, from.0, to.0),
            Query::SnapshotAt(epoch) => format!("SNAPSHOT {}", epoch.0),
            Query::SnapshotDelta { at, since } => format!("SNAPSHOT {} SINCE {}", at.0, since.0),
            Query::Containment {
                x0,
                y0,
                x1,
                y1,
                epoch,
            } => format!("CONTAIN {x0} {y0} {x1} {y1} {}", epoch.0),
        }
    }

    /// Parses a query line: the body of a request after its id.
    pub fn parse(line: &str) -> Result<Query, WireError> {
        let mut parts = line.split_ascii_whitespace();
        let op = parts
            .next()
            .ok_or_else(|| WireError::bad_request("empty request"))?;
        let mut args = Args { op, parts };
        let q = match op {
            "CURRENT" => Query::CurrentLocation(TagId(args.u64("tag")?)),
            "TRAIL" => Query::Trail {
                tag: TagId(args.u64("tag")?),
                from: Epoch(args.u64("from-epoch")?),
                to: Epoch(args.u64("to-epoch")?),
            },
            "SNAPSHOT" => {
                let at = Epoch(args.u64("epoch")?);
                match args.parts.next() {
                    None => return Ok(Query::SnapshotAt(at)),
                    Some("SINCE") => Query::SnapshotDelta {
                        at,
                        since: Epoch(args.u64("since-epoch")?),
                    },
                    Some(other) => {
                        return Err(WireError::bad_request(format!(
                            "SNAPSHOT: expected SINCE, got {other:?}"
                        )))
                    }
                }
            }
            "CONTAIN" => Query::Containment {
                x0: args.f64("x0")?,
                y0: args.f64("y0")?,
                x1: args.f64("x1")?,
                y1: args.f64("y1")?,
                epoch: Epoch(args.u64("epoch")?),
            },
            other => {
                return Err(WireError::new(
                    ErrorCode::UnknownVerb,
                    format!("unknown request {other:?}"),
                ))
            }
        };
        args.end()?;
        Ok(q)
    }
}

impl RequestKind {
    /// The line after the id (a query, `SUBSCRIBE ...`, or
    /// `UNSUBSCRIBE ...`).
    pub(crate) fn encode(&self) -> String {
        match self {
            RequestKind::Query(q) => q.encode(),
            RequestKind::Subscribe(f) => format!("SUBSCRIBE {}", f.encode()),
            RequestKind::Unsubscribe(sub) => format!("UNSUBSCRIBE {sub}"),
            RequestKind::Telemetry(TelemetryCmd::Metrics) => "TELEMETRY METRICS".to_string(),
            RequestKind::Telemetry(TelemetryCmd::Trace) => "TELEMETRY TRACE".to_string(),
        }
    }

    /// Parses the line after the id.
    pub(crate) fn parse(line: &str) -> Result<RequestKind, WireError> {
        let mut parts = line.split_ascii_whitespace();
        let op = parts
            .next()
            .ok_or_else(|| WireError::bad_request("empty request"))?;
        match op {
            "SUBSCRIBE" => {
                let mut args = Args { op, parts };
                let filter = match args.parts.next() {
                    Some("ALL") => SubscriptionFilter::All,
                    Some("REGION") => SubscriptionFilter::Region {
                        x0: args.f64("x0")?,
                        y0: args.f64("y0")?,
                        x1: args.f64("x1")?,
                        y1: args.f64("y1")?,
                    },
                    Some("TAGS") => {
                        let mut tags = Vec::new();
                        for t in args.parts.by_ref() {
                            tags.push(TagId(t.parse::<u64>().map_err(|e| {
                                WireError::bad_request(format!("SUBSCRIBE: bad tag: {e}"))
                            })?));
                        }
                        if tags.is_empty() {
                            return Err(WireError::bad_request("SUBSCRIBE TAGS: no tags"));
                        }
                        return Ok(RequestKind::Subscribe(SubscriptionFilter::Tags(tags)));
                    }
                    other => {
                        return Err(WireError::bad_request(format!(
                            "SUBSCRIBE: expected ALL/REGION/TAGS, got {other:?}"
                        )))
                    }
                };
                args.end()?;
                Ok(RequestKind::Subscribe(filter))
            }
            "UNSUBSCRIBE" => {
                let mut args = Args { op, parts };
                let sub = args.u64("subscription-id")?;
                args.end()?;
                Ok(RequestKind::Unsubscribe(sub))
            }
            "TELEMETRY" => {
                let mut args = Args { op, parts };
                let cmd = match args.parts.next() {
                    None | Some("METRICS") => TelemetryCmd::Metrics,
                    Some("TRACE") => TelemetryCmd::Trace,
                    Some(other) => {
                        return Err(WireError::bad_request(format!(
                            "TELEMETRY: expected METRICS or TRACE, got {other:?}"
                        )))
                    }
                };
                args.end()?;
                Ok(RequestKind::Telemetry(cmd))
            }
            _ => Query::parse(line).map(RequestKind::Query),
        }
    }
}

impl Request {
    /// The request line: `id SP kind`.
    pub(crate) fn encode(&self) -> String {
        format!("{} {}", self.id, self.kind.encode())
    }

    /// Parses a request line. On failure, the error carries the
    /// request id when one could be read (0 otherwise) so the server
    /// can still address its `ERR` frame.
    pub(crate) fn parse(line: &str) -> Result<Request, (u64, WireError)> {
        let trimmed = line.trim_start();
        let (head, rest) = trimmed.split_once(' ').unwrap_or((trimmed, ""));
        let id = head
            .parse::<u64>()
            .map_err(|_| (0, WireError::bad_request("request must start with an id")))?;
        let kind = RequestKind::parse(rest).map_err(|e| (id, e))?;
        Ok(Request { id, kind })
    }
}

// ---------------------------------------------------------------------
// row codec (shared by response bodies and frames)
// ---------------------------------------------------------------------

/// Appends one `tag SP epoch SP x SP y SP z` row line. `{}` on f64 is
/// the shortest string that parses back to the same bits — exact over
/// the wire.
pub(crate) fn encode_row(s: &mut String, row: &LocationRow) {
    s.push('\n');
    s.push_str(&format!(
        "{} {} {} {} {}",
        row.tag.0, row.epoch.0, row.location.x, row.location.y, row.location.z
    ));
}

fn decode_rows<'a>(
    mut lines: impl Iterator<Item = &'a str>,
    n: usize,
) -> Result<Vec<LocationRow>, WireError> {
    let mut rows = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let line = lines
            .next()
            .ok_or_else(|| WireError::bad_request("truncated response"))?;
        let mut p = line.split_ascii_whitespace();
        let mut next = |name: &str| {
            p.next()
                .ok_or_else(|| WireError::bad_request(format!("row missing {name}: {line:?}")))
        };
        let tag: u64 = next("tag")?
            .parse()
            .map_err(|e| WireError::bad_request(format!("bad tag: {e}")))?;
        let epoch: u64 = next("epoch")?
            .parse()
            .map_err(|e| WireError::bad_request(format!("bad epoch: {e}")))?;
        let x: f64 = next("x")?
            .parse()
            .map_err(|e| WireError::bad_request(format!("bad x: {e}")))?;
        let y: f64 = next("y")?
            .parse()
            .map_err(|e| WireError::bad_request(format!("bad y: {e}")))?;
        let z: f64 = next("z")?
            .parse()
            .map_err(|e| WireError::bad_request(format!("bad z: {e}")))?;
        rows.push(LocationRow {
            tag: TagId(tag),
            epoch: Epoch(epoch),
            location: Point3::new(x, y, z),
        });
    }
    if lines.next().is_some() {
        return Err(WireError::bad_request("trailing response lines"));
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// response bodies
// ---------------------------------------------------------------------

/// The answer to a [`Query`]: what an `OK`/`ERR` frame carries, without
/// the frame's id. Its text form ([`QueryResponse::encode`] /
/// [`QueryResponse::parse`]) is that id-less body, not a dialect of its
/// own: no connection sends it as a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Matched rows (possibly empty), sorted as the store answers
    /// them: snapshot/containment by tag, trail in arrival order.
    Rows(Vec<LocationRow>),
    /// The request was refused (a frame's `ERR`; [`answer`] never
    /// returns it).
    Error(WireError),
}

impl QueryResponse {
    /// The rows, or `None` for an error response.
    pub fn rows(&self) -> Option<&[LocationRow]> {
        match self {
            QueryResponse::Rows(rows) => Some(rows),
            QueryResponse::Error(_) => None,
        }
    }

    /// The rows, or the typed error.
    pub fn into_rows(self) -> Result<Vec<LocationRow>, WireError> {
        match self {
            QueryResponse::Rows(rows) => Ok(rows),
            QueryResponse::Error(e) => Err(e),
        }
    }

    /// The typed error, or `None` for a row response.
    pub fn error(&self) -> Option<&WireError> {
        match self {
            QueryResponse::Rows(_) => None,
            QueryResponse::Error(e) => Some(e),
        }
    }

    /// The id-less body text (`OK n …` or `ERR code message`).
    pub fn encode(&self) -> String {
        match self {
            QueryResponse::Rows(rows) => {
                let mut s = format!("OK {}", rows.len());
                for r in rows {
                    encode_row(&mut s, r);
                }
                s
            }
            QueryResponse::Error(e) => format!("ERR {}", e.encode()),
        }
    }

    /// Parses an id-less body text.
    pub fn parse(payload: &str) -> Result<QueryResponse, WireError> {
        let mut lines = payload.lines();
        let head = lines
            .next()
            .ok_or_else(|| WireError::bad_request("empty response"))?;
        if let Some(rest) = head.strip_prefix("ERR ") {
            return WireError::decode(rest).map(QueryResponse::Error);
        }
        let n: usize = head
            .strip_prefix("OK ")
            .ok_or_else(|| WireError::bad_request(format!("bad response head {head:?}")))?
            .parse()
            .map_err(|e| WireError::bad_request(format!("bad row count: {e}")))?;
        Ok(QueryResponse::Rows(decode_rows(lines, n)?))
    }
}

// ---------------------------------------------------------------------
// frames
// ---------------------------------------------------------------------

/// One server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake reply: the negotiated protocol version.
    Hello { version: u32 },
    /// Response to request `id`.
    Ok { id: u64, rows: Vec<LocationRow> },
    /// Typed failure of request `id` (`id` 0 when the envelope itself
    /// did not parse).
    Err { id: u64, error: WireError },
    /// A committed delta for subscription `id`: the location changes
    /// delivered by the completion of arrival `epoch`.
    Push {
        id: u64,
        epoch: u64,
        rows: Vec<LocationRow>,
    },
    /// Subscription `id` overflowed its queue; `dropped` rows were
    /// discarded since its last delivered frame.
    Lagged { id: u64, dropped: u64 },
    /// Response to a `TELEMETRY` request: a free-form text body (the
    /// registry exposition or the trace ring).
    Telemetry { id: u64, body: String },
}

impl Frame {
    /// The frame payload (without the length prefix).
    pub fn encode(&self) -> String {
        match self {
            Frame::Hello { version } => format!("HELLO {version}"),
            Frame::Ok { id, rows } => {
                let mut s = format!("OK {id} {}", rows.len());
                for r in rows {
                    encode_row(&mut s, r);
                }
                s
            }
            Frame::Err { id, error } => format!("ERR {id} {}", error.encode()),
            Frame::Push { id, epoch, rows } => {
                let mut s = format!("PUSH {id} {epoch} {}", rows.len());
                for r in rows {
                    encode_row(&mut s, r);
                }
                s
            }
            Frame::Lagged { id, dropped } => format!("LAGGED {id} {dropped}"),
            // the byte count makes the body length explicit, so a
            // decoder can reject a frame truncated mid-body
            Frame::Telemetry { id, body } => format!("TELEMETRY {id} {}\n{body}", body.len()),
        }
    }

    /// Parses a server frame.
    pub fn parse(payload: &str) -> Result<Frame, WireError> {
        let mut lines = payload.lines();
        let head = lines
            .next()
            .ok_or_else(|| WireError::bad_request("empty frame"))?;
        let mut parts = head.split_ascii_whitespace();
        let verb = parts
            .next()
            .ok_or_else(|| WireError::bad_request("blank frame head"))?;
        let mut u64_arg = |name: &str| -> Result<u64, WireError> {
            parts
                .next()
                .ok_or_else(|| WireError::bad_request(format!("{verb}: missing {name}")))?
                .parse::<u64>()
                .map_err(|e| WireError::bad_request(format!("{verb}: bad {name}: {e}")))
        };
        match verb {
            "HELLO" => {
                let version = u64_arg("version")?;
                let version = u32::try_from(version).map_err(|_| {
                    WireError::bad_request(format!("HELLO: version {version} out of range"))
                })?;
                Ok(Frame::Hello { version })
            }
            "OK" => {
                let id = u64_arg("id")?;
                let n = u64_arg("row-count")? as usize;
                Ok(Frame::Ok {
                    id,
                    rows: decode_rows(lines, n)?,
                })
            }
            "ERR" => {
                let id = u64_arg("id")?;
                let rest = head
                    .splitn(3, ' ')
                    .nth(2)
                    .ok_or_else(|| WireError::bad_request("ERR: missing error"))?;
                Ok(Frame::Err {
                    id,
                    error: WireError::decode(rest)?,
                })
            }
            "PUSH" => {
                let id = u64_arg("id")?;
                let epoch = u64_arg("arrival-epoch")?;
                let n = u64_arg("row-count")? as usize;
                Ok(Frame::Push {
                    id,
                    epoch,
                    rows: decode_rows(lines, n)?,
                })
            }
            "LAGGED" => Ok(Frame::Lagged {
                id: u64_arg("id")?,
                dropped: u64_arg("dropped")?,
            }),
            "TELEMETRY" => {
                let id = u64_arg("id")?;
                let len = u64_arg("byte-count")? as usize;
                let body = payload.split_once('\n').map(|(_, b)| b).unwrap_or_default();
                if body.len() != len {
                    return Err(WireError::bad_request(format!(
                        "TELEMETRY: body is {} bytes, header says {len}",
                        body.len()
                    )));
                }
                Ok(Frame::Telemetry {
                    id,
                    body: body.to_string(),
                })
            }
            other => Err(WireError::bad_request(format!(
                "unknown frame verb {other:?}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// evaluation
// ---------------------------------------------------------------------

/// Answers a pull query against a store — the single evaluation path
/// shared by the TCP server and in-process callers. Always
/// [`QueryResponse::Rows`].
pub fn answer(store: &EventStore, query: &Query) -> QueryResponse {
    QueryResponse::Rows(match *query {
        Query::CurrentLocation(tag) => store.current_location(tag).into_iter().collect(),
        Query::Trail { tag, from, to } => store
            .trail(tag, from, to)
            .into_iter()
            .map(|s| LocationRow {
                tag: s.event.tag,
                epoch: s.event.epoch,
                location: s.event.location,
            })
            .collect(),
        Query::SnapshotAt(epoch) => store.snapshot_at(epoch),
        Query::SnapshotDelta { at, since } => store.snapshot_delta(at, since),
        Query::Containment {
            x0,
            y0,
            x1,
            y1,
            epoch,
        } => store.containment_at(x0, y0, x1, y1, epoch),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_stream::LocationEvent;

    #[test]
    fn queries_round_trip_the_wire_text() {
        let queries = [
            Query::CurrentLocation(TagId(7)),
            Query::Trail {
                tag: TagId(3),
                from: Epoch(10),
                to: Epoch(99),
            },
            Query::SnapshotAt(Epoch(42)),
            Query::SnapshotDelta {
                at: Epoch(42),
                since: Epoch(17),
            },
            Query::Containment {
                x0: -1.5,
                y0: 0.25,
                x1: 3.0,
                y1: 4.125,
                epoch: Epoch(17),
            },
        ];
        for q in queries {
            assert_eq!(Query::parse(&q.encode()), Ok(q));
        }
    }

    #[test]
    fn requests_round_trip_the_envelope() {
        let requests = [
            Request {
                id: 9,
                kind: RequestKind::Query(Query::CurrentLocation(TagId(1))),
            },
            Request {
                id: 0,
                kind: RequestKind::Subscribe(SubscriptionFilter::All),
            },
            Request {
                id: 3,
                kind: RequestKind::Subscribe(SubscriptionFilter::Region {
                    x0: -1.0,
                    y0: 0.5,
                    x1: 2.0,
                    y1: 3.5,
                }),
            },
            Request {
                id: 4,
                kind: RequestKind::Subscribe(SubscriptionFilter::Tags(vec![
                    TagId(1),
                    TagId(5),
                    TagId(9),
                ])),
            },
            Request {
                id: 5,
                kind: RequestKind::Unsubscribe(3),
            },
            Request {
                id: 6,
                kind: RequestKind::Telemetry(TelemetryCmd::Metrics),
            },
            Request {
                id: 7,
                kind: RequestKind::Telemetry(TelemetryCmd::Trace),
            },
        ];
        for r in requests {
            assert_eq!(Request::parse(&r.encode()), Ok(r));
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_codes() {
        for bad in [
            "",
            "CURRENT",
            "CURRENT x",
            "CURRENT 1 2",
            "TRAIL 1 2",
            "SNAPSHOT -3",
            "SNAPSHOT 5 UNTIL 9",
            "SNAPSHOT 5 SINCE",
            "CONTAIN 0 0 1 1",
            "CONTAIN 0 0 1 one 5",
        ] {
            let err = Query::parse(bad).expect_err(&format!("accepted {bad:?}"));
            assert_eq!(err.code, ErrorCode::BadRequest, "{bad:?}");
        }
        assert_eq!(
            Query::parse("FROB 1").unwrap_err().code,
            ErrorCode::UnknownVerb
        );
        for bad in [
            "SUBSCRIBE",
            "SUBSCRIBE NONE",
            "SUBSCRIBE REGION 0 0 1",
            "SUBSCRIBE TAGS",
            "SUBSCRIBE TAGS x",
            "UNSUBSCRIBE",
            "UNSUBSCRIBE x",
            "TELEMETRY NOPE",
            "TELEMETRY METRICS EXTRA",
        ] {
            let err = RequestKind::parse(bad).expect_err(&format!("accepted {bad:?}"));
            assert_eq!(err.code, ErrorCode::BadRequest, "{bad:?}");
        }
        // an envelope whose id is unreadable reports id 0
        assert_eq!(Request::parse("nope CURRENT 1").unwrap_err().0, 0);
        // a readable id survives a bad body
        let (id, err) = Request::parse("7 FROB 1").unwrap_err();
        assert_eq!((id, err.code), (7, ErrorCode::UnknownVerb));
    }

    #[test]
    fn responses_round_trip_floats_bit_for_bit() {
        // awkward floats: shortest-repr Display must reproduce bits
        let rows = vec![
            LocationRow {
                tag: TagId(1),
                epoch: Epoch(3),
                location: Point3::new(0.1 + 0.2, -1.0 / 3.0, f64::MIN_POSITIVE),
            },
            LocationRow {
                tag: TagId(2),
                epoch: Epoch(4),
                location: Point3::new(1e300, -0.0, 2.0_f64.powi(-40)),
            },
        ];
        let resp = QueryResponse::Rows(rows.clone());
        let parsed = QueryResponse::parse(&resp.encode()).unwrap();
        let QueryResponse::Rows(got) = parsed else {
            panic!("expected rows");
        };
        for (a, b) in rows.iter().zip(&got) {
            assert_eq!(a.tag, b.tag);
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.location.x.to_bits(), b.location.x.to_bits());
            assert_eq!(a.location.y.to_bits(), b.location.y.to_bits());
            assert_eq!(a.location.z.to_bits(), b.location.z.to_bits());
        }
        // and the same rows survive a v2 PUSH frame
        let push = Frame::Push {
            id: 6,
            epoch: 11,
            rows: rows.clone(),
        };
        let Frame::Push {
            id: 6,
            epoch: 11,
            rows: got,
        } = Frame::parse(&push.encode()).unwrap()
        else {
            panic!("expected the same push frame back");
        };
        assert_eq!(got[0].location.x.to_bits(), rows[0].location.x.to_bits());
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnknownVerb,
            ErrorCode::UnsupportedVersion,
            ErrorCode::UnknownSubscription,
            ErrorCode::Overloaded,
        ] {
            let err = QueryResponse::Error(WireError::new(code, "what went wrong"));
            let encoded = err.encode();
            assert!(encoded.starts_with(&format!("ERR {code} ")), "{encoded}");
            assert_eq!(QueryResponse::parse(&encoded).unwrap(), err);
        }

        // an ERR without a known code token is malformed, not a message;
        // a retired token is as unknown as any other
        for bad in [
            "ERR something went wrong",
            "ERR UNKNOWN oops",
            "ERR BEYOND_RETENTION epoch 3 is beyond 8",
        ] {
            let got = QueryResponse::parse(bad).expect_err(bad);
            assert_eq!(got.code, ErrorCode::BadRequest, "{bad:?}");
        }
        let got = Frame::parse("ERR 3 something went wrong").unwrap_err();
        assert_eq!(got.code, ErrorCode::BadRequest);
    }

    #[test]
    fn v2_frames_round_trip() {
        let frames = [
            Frame::Hello { version: 2 },
            Frame::Ok {
                id: 7,
                rows: vec![],
            },
            Frame::Err {
                id: 9,
                error: WireError::new(ErrorCode::UnknownVerb, "unknown request \"FROB\""),
            },
            Frame::Push {
                id: 1,
                epoch: 44,
                rows: vec![LocationRow {
                    tag: TagId(3),
                    epoch: Epoch(40),
                    location: Point3::new(1.5, -2.25, 0.0),
                }],
            },
            Frame::Lagged {
                id: 1,
                dropped: 321,
            },
            Frame::Telemetry {
                id: 8,
                body: String::new(),
            },
            Frame::Telemetry {
                id: 9,
                body: "engine_epochs_total 40\nengine_infer_us_sum 123\n".to_string(),
            },
        ];
        for f in frames {
            assert_eq!(Frame::parse(&f.encode()), Ok(f));
        }
        assert!(Frame::parse("WHAT 1 2").is_err());
        // a telemetry body truncated below its announced byte count
        assert!(Frame::parse("TELEMETRY 1 10\nshort").is_err());
    }

    #[test]
    fn hello_versions_past_u32_are_refused_not_wrapped() {
        assert_eq!(
            Frame::parse("HELLO 4294967295"),
            Ok(Frame::Hello { version: u32::MAX })
        );
        // 2^32 + 2 must not wrap to `HELLO 2`
        for bad in ["HELLO 4294967296", "HELLO 4294967298"] {
            assert_eq!(Frame::parse(bad).unwrap_err().code, ErrorCode::BadRequest);
        }
    }

    #[test]
    fn answer_evaluates_each_kind() {
        let mut store = EventStore::new(crate::store::StoreConfig::default());
        store.push(&LocationEvent::new(
            Epoch(0),
            TagId(1),
            Point3::new(1.0, 2.0, 0.0),
        ));
        store.complete_epoch(Epoch(0));
        store.push(&LocationEvent::new(
            Epoch(1),
            TagId(2),
            Point3::new(4.0, 2.0, 0.0),
        ));
        store.complete_epoch(Epoch(1));
        let rows = |q: &Query| match answer(&store, q) {
            QueryResponse::Rows(r) => r,
            QueryResponse::Error(e) => panic!("unexpected error: {e}"),
        };
        assert_eq!(rows(&Query::CurrentLocation(TagId(1))).len(), 1);
        assert_eq!(rows(&Query::CurrentLocation(TagId(9))).len(), 0);
        assert_eq!(rows(&Query::SnapshotAt(Epoch(1))).len(), 2);
        // the delta since epoch 0 contains only tag 2's arrival
        let delta = rows(&Query::SnapshotDelta {
            at: Epoch(1),
            since: Epoch(0),
        });
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].tag, TagId(2));
        assert_eq!(
            rows(&Query::Trail {
                tag: TagId(1),
                from: Epoch(0),
                to: Epoch(5),
            })
            .len(),
            1
        );
        assert_eq!(
            rows(&Query::Containment {
                x0: 0.0,
                y0: 0.0,
                x1: 2.0,
                y1: 3.0,
                epoch: Epoch(0),
            })
            .len(),
            1
        );
    }

    // The literal wire text of every frame and request the protocol
    // speaks. A change to the row codec or a frame head must move
    // these strings on purpose; every string also parses back to the
    // value it came from, floats bit for bit.
    macro_rules! e300 {
        () => {
            "1\
             000000000000000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000000000000000000000000000"
        };
    }
    macro_rules! min_positive {
        () => {
            "0.\
             000000000000000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000000000000000000000000000000\
             000000022250738585072014"
        };
    }

    /// `PartialEq` on `f64` equates `-0.0` and `0.0`; `Debug` prints
    /// the shortest text that reads back to the same bits, so equal
    /// `Debug` text is bit-for-bit equality for every non-NaN float.
    fn assert_bits_eq<T: std::fmt::Debug + PartialEq>(got: &T, want: &T) {
        assert_eq!(got, want);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    fn awkward_rows() -> Vec<LocationRow> {
        vec![
            LocationRow {
                tag: TagId(1),
                epoch: Epoch(3),
                location: Point3::new(-0.0, 0.1 + 0.2, 1e-7),
            },
            LocationRow {
                tag: TagId(2),
                epoch: Epoch(4),
                location: Point3::new(1e300, f64::MIN_POSITIVE, -1.5),
            },
            LocationRow {
                tag: TagId(u64::MAX),
                epoch: Epoch(0),
                location: Point3::new(0.0, 2.5, -0.25),
            },
        ]
    }

    const AWKWARD_ROWS: &str = concat!(
        "\n1 3 -0 0.30000000000000004 0.0000001",
        "\n2 4 ",
        e300!(),
        " ",
        min_positive!(),
        " -1.5",
        "\n18446744073709551615 0 0 2.5 -0.25",
    );

    #[test]
    fn wire_text_is_pinned_byte_for_byte() {
        let rows = awkward_rows();
        let error = |code, message: &str| WireError::new(code, message);
        let frames = [
            (Frame::Hello { version: 2 }, "HELLO 2".to_string()),
            (
                Frame::Ok {
                    id: 7,
                    rows: vec![],
                },
                "OK 7 0".to_string(),
            ),
            (
                Frame::Ok {
                    id: 8,
                    rows: rows.clone(),
                },
                format!("OK 8 3{AWKWARD_ROWS}"),
            ),
            (
                Frame::Err {
                    id: 0,
                    error: error(ErrorCode::BadRequest, "request must start with an id"),
                },
                "ERR 0 BAD_REQUEST request must start with an id".to_string(),
            ),
            (
                Frame::Err {
                    id: 9,
                    error: error(ErrorCode::UnknownVerb, "unknown request \"FROB\""),
                },
                "ERR 9 UNKNOWN_VERB unknown request \"FROB\"".to_string(),
            ),
            (
                Frame::Err {
                    id: 0,
                    error: error(ErrorCode::UnsupportedVersion, "send HELLO 2 first"),
                },
                "ERR 0 UNSUPPORTED_VERSION send HELLO 2 first".to_string(),
            ),
            (
                Frame::Err {
                    id: 11,
                    error: error(ErrorCode::UnknownSubscription, "no subscription 999"),
                },
                "ERR 11 UNKNOWN_SUBSCRIPTION no subscription 999".to_string(),
            ),
            (
                Frame::Err {
                    id: 0,
                    error: error(ErrorCode::Overloaded, "connection limit of 2 reached"),
                },
                "ERR 0 OVERLOADED connection limit of 2 reached".to_string(),
            ),
            (
                Frame::Push {
                    id: 4,
                    epoch: 44,
                    rows: rows.clone(),
                },
                format!("PUSH 4 44 3{AWKWARD_ROWS}"),
            ),
            (
                Frame::Lagged {
                    id: 4,
                    dropped: 321,
                },
                "LAGGED 4 321".to_string(),
            ),
            (
                Frame::Telemetry {
                    id: 12,
                    body: "engine_epochs_total 40\n".to_string(),
                },
                "TELEMETRY 12 23\nengine_epochs_total 40\n".to_string(),
            ),
        ];
        for (frame, text) in &frames {
            assert_eq!(&frame.encode(), text);
            assert_bits_eq(&Frame::parse(text).unwrap(), frame);
        }

        let kinds = [
            (
                RequestKind::Query(Query::CurrentLocation(TagId(7))),
                "1 CURRENT 7",
            ),
            (
                RequestKind::Query(Query::Trail {
                    tag: TagId(3),
                    from: Epoch(10),
                    to: Epoch(99),
                }),
                "1 TRAIL 3 10 99",
            ),
            (
                RequestKind::Query(Query::SnapshotAt(Epoch(42))),
                "1 SNAPSHOT 42",
            ),
            (
                RequestKind::Query(Query::SnapshotDelta {
                    at: Epoch(42),
                    since: Epoch(17),
                }),
                "1 SNAPSHOT 42 SINCE 17",
            ),
            (
                RequestKind::Query(Query::Containment {
                    x0: -0.0,
                    y0: 0.1 + 0.2,
                    x1: 1e300,
                    y1: 1e-7,
                    epoch: Epoch(5),
                }),
                concat!("1 CONTAIN -0 0.30000000000000004 ", e300!(), " 0.0000001 5"),
            ),
            (
                RequestKind::Subscribe(SubscriptionFilter::All),
                "1 SUBSCRIBE ALL",
            ),
            (
                RequestKind::Subscribe(SubscriptionFilter::Region {
                    x0: f64::MIN_POSITIVE,
                    y0: -0.0,
                    x1: 0.1 + 0.2,
                    y1: 2.5,
                }),
                concat!(
                    "1 SUBSCRIBE REGION ",
                    min_positive!(),
                    " -0 0.30000000000000004 2.5"
                ),
            ),
            (
                RequestKind::Subscribe(SubscriptionFilter::Tags(vec![TagId(1), TagId(5)])),
                "1 SUBSCRIBE TAGS 1 5",
            ),
            (RequestKind::Unsubscribe(3), "1 UNSUBSCRIBE 3"),
            (
                RequestKind::Telemetry(TelemetryCmd::Metrics),
                "1 TELEMETRY METRICS",
            ),
            (
                RequestKind::Telemetry(TelemetryCmd::Trace),
                "1 TELEMETRY TRACE",
            ),
        ];
        for (kind, text) in kinds {
            let request = Request { id: 1, kind };
            assert_eq!(request.encode(), text);
            assert_bits_eq(&Request::parse(text).unwrap(), &request);
        }

        let responses = [
            (
                QueryResponse::Rows(rows.clone()),
                format!("OK 3{AWKWARD_ROWS}"),
            ),
            (
                QueryResponse::Error(error(ErrorCode::BadRequest, "CURRENT: missing tag")),
                "ERR BAD_REQUEST CURRENT: missing tag".to_string(),
            ),
        ];
        for (response, text) in &responses {
            assert_eq!(&response.encode(), text);
            assert_bits_eq(&QueryResponse::parse(text).unwrap(), response);
        }
    }
}

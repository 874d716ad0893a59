//! In-memory spans recorded at the layer boundaries the benchmark can
//! reach from outside — around calls into public functions — and the
//! self-time arithmetic over them.

use rfid_stream::{Epoch, EpochBatch, EventSink, InferenceStage, LocationEvent};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call. Spans caused by the same epoch (or query) of the
/// same pass share `(pass, id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub pass: u32,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
}

/// A thread's span recorder. Nesting follows the call stack: a span
/// entered while another is open becomes its child.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    paused: bool,
}

impl SpanLog {
    /// A recorder whose clock starts at `origin`; logs that share an
    /// origin can be merged with [`SpanLog::adopt`].
    pub fn new(origin: Instant, pass: u32) -> Self {
        Self {
            origin,
            pass,
            spans: Vec::new(),
            open: Vec::new(),
            paused: false,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. An `id` of `None`
    /// inherits the parent's.
    pub fn enter(&mut self, name: &'static str, id: Option<u64>) -> u32 {
        let parent = self.open.last().copied();
        let id = id
            .or_else(|| parent.map(|p| self.spans[p as usize].id))
            .unwrap_or(0);
        let now = self.now_ns();
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            pass: self.pass,
            id,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: u32) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Closes `idx` and stamps it and everything recorded under it
    /// with `id` — for a request whose identity (the epoch a push
    /// completed) is only known once it returns.
    pub fn exit_as(&mut self, idx: u32, id: u64) {
        self.exit(idx);
        for s in &mut self.spans[idx as usize..] {
            s.id = id;
        }
    }

    /// Closes `idx` and forgets it, returning its duration in
    /// nanoseconds. Only valid when nothing was recorded under it.
    pub fn discard(&mut self, idx: u32) -> u64 {
        self.exit(idx);
        debug_assert_eq!(self.spans.len(), idx as usize + 1);
        let s = self.spans.pop().expect("span to discard");
        s.end_ns - s.start_ns
    }

    /// Appends another thread's finished spans, hanging its roots
    /// under `parent`.
    pub fn adopt(&mut self, other: SpanLog, parent: Option<u32>) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The handle the harness loop and its adaptors record through. With
/// tracing off (or paused, for in-pass warm-up rounds) every method is
/// a no-op behind one branch, so untraced and traced passes run the
/// same code.
#[derive(Debug, Clone)]
pub struct Tracer(Option<Arc<Mutex<SpanLog>>>);

impl Tracer {
    pub fn off() -> Self {
        Tracer(None)
    }

    pub fn on(origin: Instant, pass: u32) -> Self {
        Tracer(Some(Arc::new(Mutex::new(SpanLog::new(origin, pass)))))
    }

    fn with<R>(&self, f: impl FnOnce(&mut SpanLog) -> R) -> Option<R> {
        self.0
            .as_ref()
            .map(|log| f(&mut log.lock().expect("span log poisoned")))
    }

    /// Stops (or resumes) recording; spans entered while paused are
    /// never opened.
    pub fn set_paused(&self, paused: bool) {
        self.with(|l| l.paused = paused);
    }

    /// Opens a span; `None` when nothing is being recorded.
    pub fn enter(&self, name: &'static str, id: Option<u64>) -> Option<u32> {
        self.with(|l| (!l.paused).then(|| l.enter(name, id)))
            .flatten()
    }

    pub fn exit(&self, idx: Option<u32>) {
        if let Some(idx) = idx {
            self.with(|l| l.exit(idx));
        }
    }

    pub fn exit_as(&self, idx: Option<u32>, id: u64) {
        if let Some(idx) = idx {
            self.with(|l| l.exit_as(idx, id));
        }
    }

    /// Forgets the span and returns its duration in nanoseconds.
    pub fn discard(&self, idx: Option<u32>) -> u64 {
        idx.and_then(|idx| self.with(|l| l.discard(idx)))
            .unwrap_or(0)
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name, None);
        let out = f();
        self.exit(idx);
        out
    }

    /// Merges a finished thread's spans under `parent`.
    pub fn adopt(&self, other: Tracer, parent: Option<u32>) {
        if let Some(log) = other.into_log() {
            self.with(|l| l.adopt(log, parent));
        }
    }

    /// Takes the log back once every adaptor holding the tracer is
    /// gone; `None` when tracing is off.
    pub fn into_log(self) -> Option<SpanLog> {
        self.0.map(|log| {
            Arc::try_unwrap(log)
                .expect("span log still shared")
                .into_inner()
                .expect("span log poisoned")
        })
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the part of it its children cover (children may overlap when they
/// ran on different threads, so the union is subtracted, not the sum).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(start, end) in kids.iter() {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        *out.entry(s.name).or_default() += (s.end_ns - s.start_ns) - covered;
    }
    out
}

/// Durations of the spans called `name`, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect()
}

/// Timing adaptor around an inference stage or a sink: every call into
/// the wrapped value becomes a span.
#[derive(Debug)]
pub struct Timed<T> {
    inner: T,
    name: &'static str,
    tracer: Tracer,
}

impl<T> Timed<T> {
    pub fn new(inner: T, name: &'static str, tracer: &Tracer) -> Self {
        Self {
            inner,
            name,
            tracer: tracer.clone(),
        }
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }

    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: InferenceStage> InferenceStage for Timed<T> {
    fn process_batch_into(&mut self, batch: &EpochBatch, out: &mut Vec<LocationEvent>) {
        let inner = &mut self.inner;
        self.tracer
            .span(self.name, || inner.process_batch_into(batch, out));
    }

    fn finalize_into(&mut self, last_epoch: Epoch, out: &mut Vec<LocationEvent>) {
        let inner = &mut self.inner;
        self.tracer
            .span(self.name, || inner.finalize_into(last_epoch, out));
    }
}

impl<T: EventSink> EventSink for Timed<T> {
    fn on_event(&mut self, event: &LocationEvent) {
        let inner = &mut self.inner;
        self.tracer.span(self.name, || inner.on_event(event));
    }

    fn on_epoch_complete(&mut self, epoch: Epoch) {
        let inner = &mut self.inner;
        self.tracer
            .span(self.name, || inner.on_epoch_complete(epoch));
    }

    fn on_finish(&mut self) {
        let inner = &mut self.inner;
        self.tracer.span(self.name, || inner.on_finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            pass: 0,
            id: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("push", 0, 100, None),
            span("engine", 10, 70, Some(0)),
            span("sink", 70, 90, Some(0)),
            span("store", 72, 80, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["push"], 100 - 60 - 20);
        assert_eq!(t["engine"], 60);
        assert_eq!(t["sink"], 20 - 8);
        assert_eq!(t["store"], 8);
        // the self times of a tree add up to its root
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_subtract_their_union_once() {
        // two workers running side by side under one pass, one of them
        // outliving the parent
        let spans = [
            span("pass", 0, 100, None),
            span("worker", 10, 60, Some(0)),
            span("worker", 40, 120, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"], 10, "only [0, 10) is uncovered");
        assert_eq!(t["worker"], 50 + 80);
    }

    #[test]
    fn log_nests_by_call_stack_and_restamps_ids() {
        let mut log = SpanLog::new(Instant::now(), 3);
        let push = log.enter("push", Some(7));
        let engine = log.enter("engine", None);
        log.exit(engine);
        log.exit_as(push, 42);
        let idle = log.enter("push", Some(8));
        log.discard(idle);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 42 && s.pass == 3));
    }

    #[test]
    fn adopting_a_thread_log_rebases_parents() {
        let origin = Instant::now();
        let mut main = SpanLog::new(origin, 0);
        let pass = main.enter("pass", Some(0));
        let mut thread = SpanLog::new(origin, 0);
        let outer = thread.enter("client", Some(1));
        let inner = thread.enter("query", None);
        thread.exit(inner);
        thread.exit(outer);
        main.exit(pass);
        main.adopt(thread, Some(pass));
        let spans = main.spans();
        assert_eq!(spans[1].parent, Some(0), "thread root hangs under pass");
        assert_eq!(spans[2].parent, Some(1), "nested parent is rebased");
    }
}

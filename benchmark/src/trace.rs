//! The traced run's span recorder. Spans are recorded from the
//! benchmark's own files, around its calls into each layer; no program
//! file gains a span. They stay in memory until the run ends and are then
//! written as Chrome `trace_event` JSON (loads in Perfetto).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the recorder, from 1.
    pub id: u32,
    /// The span open on the same thread when this one opened; 0 for none.
    pub parent: u32,
    /// Span name; the layer boundary it wraps.
    pub name: String,
    /// Recording thread, numbered from 1 in order of first span.
    pub tid: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the served request the span belongs to; the `submit` and
    /// `wait` spans of one request share it.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store shared by the generator, batcher and executor
/// threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Thread numbers are process-wide so two recorders never give two live
/// threads the same one.
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// (thread number, ids of the spans open on this thread).
    static OPEN: RefCell<(u32, Vec<u32>)> = const { RefCell::new((0, Vec::new())) };
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    recorder: &'a Recorder,
    id: u32,
    parent: u32,
    tid: u32,
    name: String,
    start_ns: u64,
    request: Option<u64>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span on the calling thread.
    pub fn span(&self, name: impl Into<String>) -> Guard<'_> {
        self.open(name.into(), None)
    }

    /// Opens a span that belongs to served request `request`.
    pub fn request_span(&self, name: &str, request: u64) -> Guard<'_> {
        self.open(name.to_owned(), Some(request))
    }

    fn open(&self, name: String, request: Option<u64>) -> Guard<'_> {
        // Relaxed: the counters only hand out distinct numbers.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tid, parent) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.0 == 0 {
                open.0 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            }
            let parent = open.1.last().copied().unwrap_or(0);
            open.1.push(id);
            (open.0, parent)
        });
        Guard {
            recorder: self,
            id,
            parent,
            tid,
            name,
            start_ns: self.now_ns(),
            request,
        }
    }

    /// Every span finished so far, in order of finishing.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.recorder.now_ns();
        OPEN.with(|open| {
            let stack = &mut open.borrow_mut().1;
            if let Some(at) = stack.iter().rposition(|&id| id == self.id) {
                stack.truncate(at);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            tid: self.tid,
            start_ns: self.start_ns,
            end_ns,
            request: self.request,
        };
        // A poisoned store only loses this span; `Drop` must not panic.
        if let Ok(mut spans) = self.recorder.spans.lock() {
            spans.push(span);
        }
    }
}

/// Total seconds of the spans called `name`.
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// Renders spans as Chrome `trace_event` JSON: one complete (`X`) event
/// per span, timestamps in microseconds.
pub fn chrome_json(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + 160 * spans.len());
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let name = s.name.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}",
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent
        );
        if let Some(r) = s.request {
            let _ = write!(out, ",\"request\":{r}");
        }
        out.push_str("}}");
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]}\n");
    out
}

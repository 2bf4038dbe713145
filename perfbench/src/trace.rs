//! The benchmark's span recorder.
//!
//! Spans are opened and closed around calls into the program's public
//! functions, never inside the program. Each span has a name, a start and
//! an end, its parent span and the id of the operation it belongs to.
//! They are kept in memory on the recording thread and summarised (or
//! written out) when the run ends. Recording is off unless [`start`] was
//! called on the thread, so an untraced run pays one thread-local lookup
//! per span at most.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary it brackets, e.g. `engine.verify`.
    pub name: &'static str,
    /// Operation (request, event, scenario) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, or `NO_PARENT`.
    parent: u32,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
}

impl Span {
    /// Duration, seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// All spans of one traced pass.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// Start recording on this thread (discarding any earlier recording).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Trace {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
        })
    });
}

/// Stop recording and hand back what was recorded.
pub fn finish() -> Trace {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .expect("trace::finish without trace::start")
}

/// Run `f` with recording suspended: the untraced arm of a traced pass
/// interleaves its ops with the traced arm's.
pub fn suspended<R>(f: impl FnOnce() -> R) -> R {
    let saved = RECORDER.with(|r| r.borrow_mut().take());
    let out = f();
    RECORDER.with(|r| *r.borrow_mut() = saved);
    out
}

/// Set the operation id stamped on spans opened from now on.
pub fn set_op(op: u64) {
    RECORDER.with(|r| {
        if let Some(t) = r.borrow_mut().as_mut() {
            t.op = op;
        }
    });
}

/// Run `f` inside a span named `name` (a plain call when not recording).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|t| {
            let idx = t.spans.len() as u32;
            let parent = t.open.last().copied().unwrap_or(NO_PARENT);
            let now = t.origin.elapsed().as_nanos() as u64;
            t.spans.push(Span {
                name,
                op: t.op,
                parent,
                start_ns: now,
                end_ns: now,
            });
            t.open.push(idx);
            idx
        })
    });
    let out = f();
    if let Some(idx) = idx {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let t = r.as_mut().expect("recorder vanished inside a span");
            t.spans[idx as usize].end_ns = t.origin.elapsed().as_nanos() as u64;
            t.open.pop();
        });
    }
    out
}

/// Total and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stat {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, seconds.
    pub total_s: f64,
    /// Sum of durations minus the time covered by direct children.
    pub self_s: f64,
}

impl Stat {
    /// Mean duration, microseconds (0 when the span never ran).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s * 1e6 / self.count as f64
        }
    }
}

impl Trace {
    /// Per-name totals and self times. Children of one span run one after
    /// another on the recording thread, so their durations never overlap.
    pub fn stats(&self) -> BTreeMap<&'static str, Stat> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_s[s.parent as usize] += s.seconds();
            }
        }
        let mut out: BTreeMap<&'static str, Stat> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_s) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += s.seconds();
            e.self_s += (s.seconds() - child).max(0.0);
        }
        out
    }

    /// Share of the root spans' time that no child span covers: the part
    /// of an operation's end-to-end time no layer accounts for.
    pub fn unaccounted_share(&self, root: &str) -> f64 {
        let stats = self.stats();
        match stats.get(root) {
            Some(s) if s.total_s > 0.0 => s.self_s / s.total_s,
            _ => 0.0,
        }
    }

    /// Durations of every span named `name`, seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// The first `cap` spans in Chrome trace-event format, one complete
    /// ("X") event per span on a single thread lane.
    pub fn chrome_json(&self, cap: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().take(cap).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                i,
                parent
            );
        }
        let _ = write!(
            out,
            "\n],\"otherData\":{{\"spans\":{},\"written\":{}}}}}\n",
            self.spans.len(),
            self.spans.len().min(cap)
        );
        out
    }
}

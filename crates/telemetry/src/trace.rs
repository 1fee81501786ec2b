//! Structured hierarchical tracing for the F_G pipeline.
//!
//! Where the metrics layer ([`crate::Metrics`]) answers *how much* work a
//! run did, this module answers *what happened and why*: a causal record
//! of spans (begin/end pairs with parent links and monotonic timestamps)
//! and typed instant events (model-resolution candidates, congruence
//! unions, same-type proofs) collected into a bounded ring buffer.
//!
//! # Design
//!
//! A [`Tracer`] is a cheap cloneable handle. Disabled (the default) it
//! holds no buffer at all, so every record call is a single `Option`
//! check — the moral equivalent of the VM profiler's monomorphized
//! no-op path, but shareable across the checker, the type-equality
//! engine, and the interpreter without making those types generic.
//! Closures passed to the `*_with` variants are only evaluated when the
//! tracer is enabled, so attribute formatting costs nothing when off.
//!
//! Enabled, the handle points at a shared ring buffer ([`Tracer::with_capacity`]):
//! when full, the oldest events are dropped and counted, never
//! reallocated — tracing a pathological run degrades to a suffix window
//! instead of exhausting memory.
//!
//! Span parentage is tracked with an open-span stack inside the
//! collector, so parent ids are consistent by construction: a span's
//! parent is whatever span was open when it began.
//!
//! # The `fg-trace/1` JSONL schema
//!
//! [`Tracer::to_jsonl`] emits one JSON object per line. The first line
//! is a header:
//!
//! ```json
//! {"schema":"fg-trace/1","command":"run","source":"prog.fg","events":12,"dropped":0}
//! ```
//!
//! Every following line is an event with `"ev"`, `"name"` and `"ts_ns"`
//! keys. `begin` lines carry the span id and (for non-roots) its parent;
//! `end` lines close a span; `instant` lines attach a point event to the
//! innermost open span. `attrs` is an object of string/integer values
//! and is omitted when empty:
//!
//! ```json
//! {"ev":"begin","span":1,"name":"check","ts_ns":120}
//! {"ev":"instant","span":1,"name":"model_selected","ts_ns":340,"attrs":{"concept":"Monoid"}}
//! {"ev":"end","span":1,"name":"check","ts_ns":900}
//! ```
//!
//! [`Tracer::to_chrome_json`] renders the same record as Chrome
//! trace-event JSON (`B`/`E`/`i` phases, microsecond timestamps)
//! loadable in Perfetto or `chrome://tracing`.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::push_escaped;

/// Version tag emitted in the [`Tracer::to_jsonl`] header line.
pub const TRACE_SCHEMA: &str = "fg-trace/1";

/// Default ring-buffer capacity (events) for [`Tracer::enabled`].
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// An opaque span handle returned by [`Tracer::begin`]; pass it back to
/// [`Tracer::end`]. The handle from a disabled tracer is inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The inert id handed out by a disabled tracer (real ids start at 1).
    pub const NONE: SpanId = SpanId(0);

    /// The raw id as it appears in the emitted trace.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// An attribute value: traces carry only strings and unsigned integers,
/// which keeps both emitters trivial and diffing exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// A string attribute.
    Str(String),
    /// An integer attribute.
    U64(u64),
}

impl AttrValue {
    /// Renders the value as a plain string (integers in decimal).
    pub fn render(&self) -> String {
        match self {
            AttrValue::Str(s) => s.clone(),
            AttrValue::U64(n) => n.to_string(),
        }
    }

    /// The string payload, if this is a string attribute.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            AttrValue::U64(_) => None,
        }
    }

    /// The integer payload, if this is an integer attribute.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::U64(n) => Some(*n),
            AttrValue::Str(_) => None,
        }
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> AttrValue {
        AttrValue::Str(s)
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> AttrValue {
        AttrValue::Str(s.to_owned())
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> AttrValue {
        AttrValue::U64(n)
    }
}

impl From<usize> for AttrValue {
    fn from(n: usize) -> AttrValue {
        AttrValue::U64(n as u64)
    }
}

/// Event attributes: small ordered key/value lists (events rarely carry
/// more than a handful, so a map would be overkill).
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// One collected trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened.
    Begin {
        /// The span id (unique within the trace, starting at 1).
        span: u64,
        /// The id of the enclosing open span, if any.
        parent: Option<u64>,
        /// The span name.
        name: &'static str,
        /// Nanoseconds since the tracer was created.
        ts_ns: u64,
        /// Attributes recorded at open.
        attrs: Attrs,
    },
    /// A span closed.
    End {
        /// The span id being closed.
        span: u64,
        /// The span name (repeated for self-contained lines).
        name: &'static str,
        /// Nanoseconds since the tracer was created.
        ts_ns: u64,
        /// Attributes recorded at close (e.g. an outcome).
        attrs: Attrs,
    },
    /// A point event inside the innermost open span.
    Instant {
        /// The innermost open span at the time, if any.
        span: Option<u64>,
        /// The event name.
        name: &'static str,
        /// Nanoseconds since the tracer was created.
        ts_ns: u64,
        /// Attributes.
        attrs: Attrs,
    },
}

impl Event {
    /// The event name.
    pub fn name(&self) -> &'static str {
        match self {
            Event::Begin { name, .. } | Event::End { name, .. } | Event::Instant { name, .. } => {
                name
            }
        }
    }

    /// The event timestamp (nanoseconds since tracer creation).
    pub fn ts_ns(&self) -> u64 {
        match self {
            Event::Begin { ts_ns, .. } | Event::End { ts_ns, .. } | Event::Instant { ts_ns, .. } => {
                *ts_ns
            }
        }
    }

    /// The event's attributes.
    pub fn attrs(&self) -> &Attrs {
        match self {
            Event::Begin { attrs, .. } | Event::End { attrs, .. } | Event::Instant { attrs, .. } => {
                attrs
            }
        }
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs().iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// The shared collector state behind an enabled [`Tracer`].
#[derive(Debug)]
struct Shared {
    start: Instant,
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    next_span: u64,
    /// Currently open spans, outermost first.
    stack: Vec<u64>,
}

impl Shared {
    fn push(&mut self, ev: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A cheap cloneable tracing handle; see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Shared>>>,
}

impl Tracer {
    /// A disabled tracer: every record call is a no-op `Option` check.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// An enabled tracer with the [default capacity](DEFAULT_CAPACITY).
    pub fn enabled() -> Tracer {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled tracer whose ring buffer holds at most `capacity`
    /// events (oldest dropped first, counted in the header).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Mutex::new(Shared {
                start: Instant::now(),
                events: VecDeque::with_capacity(capacity.min(1024)),
                capacity: capacity.max(1),
                dropped: 0,
                next_span: 1,
                stack: Vec::new(),
            }))),
        }
    }

    /// Whether events are being collected. Call sites with expensive
    /// attribute rendering should gate on this (or use the `*_with`
    /// variants, which do it for them).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, Shared>> {
        // A poisoned mutex means a panic mid-record on another thread;
        // tracing is best-effort, so keep collecting.
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&self, name: &'static str, attrs: Attrs) -> SpanId {
        let Some(mut s) = self.lock() else {
            return SpanId::NONE;
        };
        let span = s.next_span;
        s.next_span += 1;
        let parent = s.stack.last().copied();
        let ts_ns = s.now_ns();
        s.stack.push(span);
        s.push(Event::Begin {
            span,
            parent,
            name,
            ts_ns,
            attrs,
        });
        SpanId(span)
    }

    /// [`Tracer::begin`], but the attributes are only computed when the
    /// tracer is enabled.
    #[inline]
    pub fn begin_with(&self, name: &'static str, attrs: impl FnOnce() -> Attrs) -> SpanId {
        if self.inner.is_none() {
            return SpanId::NONE;
        }
        self.begin(name, attrs())
    }

    /// Closes `span` (and, defensively, any still-open descendants so
    /// parentage stays consistent even if a caller leaks a child).
    pub fn end(&self, span: SpanId) {
        self.end_with(span, Vec::new());
    }

    /// [`Tracer::end`], recording closing attributes (e.g. an outcome).
    pub fn end_with(&self, span: SpanId, attrs: Attrs) {
        if span == SpanId::NONE {
            return;
        }
        let Some(mut s) = self.lock() else { return };
        let Some(pos) = s.stack.iter().rposition(|&id| id == span.0) else {
            return;
        };
        while s.stack.len() > pos + 1 {
            let leaked = s.stack.pop().expect("stack longer than pos");
            let ts_ns = s.now_ns();
            s.push(Event::End {
                span: leaked,
                name: "(leaked)",
                ts_ns,
                attrs: Vec::new(),
            });
        }
        s.stack.pop();
        let name = Self::begin_name(&s.events, span.0).unwrap_or("(forgotten)");
        let ts_ns = s.now_ns();
        s.push(Event::End {
            span: span.0,
            name,
            ts_ns,
            attrs,
        });
    }

    fn begin_name(events: &VecDeque<Event>, span: u64) -> Option<&'static str> {
        events.iter().rev().find_map(|e| match e {
            Event::Begin { span: s, name, .. } if *s == span => Some(*name),
            _ => None,
        })
    }

    /// Records a point event inside the innermost open span.
    pub fn instant(&self, name: &'static str, attrs: Attrs) {
        let Some(mut s) = self.lock() else { return };
        let span = s.stack.last().copied();
        let ts_ns = s.now_ns();
        s.push(Event::Instant {
            span,
            name,
            ts_ns,
            attrs,
        });
    }

    /// [`Tracer::instant`], but the attributes are only computed when the
    /// tracer is enabled.
    #[inline]
    pub fn instant_with(&self, name: &'static str, attrs: impl FnOnce() -> Attrs) {
        if self.inner.is_none() {
            return;
        }
        self.instant(name, attrs());
    }

    /// A snapshot of the collected events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.lock()
            .map(|s| s.events.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// How many events have been dropped by the ring buffer so far.
    pub fn dropped(&self) -> u64 {
        self.lock().map(|s| s.dropped).unwrap_or(0)
    }

    /// Renders the collected record as `fg-trace/1` JSONL (see the
    /// [module docs](self) for the line grammar).
    pub fn to_jsonl(&self, command: &str, source: &str) -> String {
        render_jsonl(command, source, &self.events(), self.dropped())
    }

    /// Renders the collected record as Chrome trace-event JSON: one
    /// `B`/`E`/`i` event per collected event, timestamps in microseconds,
    /// attributes in `args`. Load the file in Perfetto or
    /// `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        render_chrome_json(&self.events())
    }
}

/// Renders an event record as `fg-trace/1` JSONL — the emitter behind
/// [`Tracer::to_jsonl`], exposed so merged multi-worker records (see
/// [`merge_worker_events`]) share the exact same line grammar.
pub fn render_jsonl(command: &str, source: &str, events: &[Event], dropped: u64) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":");
    push_escaped(&mut out, TRACE_SCHEMA);
    out.push_str(",\"command\":");
    push_escaped(&mut out, command);
    out.push_str(",\"source\":");
    push_escaped(&mut out, source);
    let _ = write!(out, ",\"events\":{}", events.len());
    let _ = write!(out, ",\"dropped\":{dropped}");
    out.push_str("}\n");
    for e in events {
        match e {
            Event::Begin {
                span,
                parent,
                name,
                ts_ns,
                attrs,
            } => {
                let _ = write!(out, "{{\"ev\":\"begin\",\"span\":{span}");
                if let Some(p) = parent {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                out.push_str(",\"name\":");
                push_escaped(&mut out, name);
                let _ = write!(out, ",\"ts_ns\":{ts_ns}");
                push_attrs(&mut out, attrs);
                out.push_str("}\n");
            }
            Event::End {
                span,
                name,
                ts_ns,
                attrs,
            } => {
                let _ = write!(out, "{{\"ev\":\"end\",\"span\":{span}");
                out.push_str(",\"name\":");
                push_escaped(&mut out, name);
                let _ = write!(out, ",\"ts_ns\":{ts_ns}");
                push_attrs(&mut out, attrs);
                out.push_str("}\n");
            }
            Event::Instant {
                span,
                name,
                ts_ns,
                attrs,
            } => {
                out.push_str("{\"ev\":\"instant\"");
                if let Some(s) = span {
                    let _ = write!(out, ",\"span\":{s}");
                }
                out.push_str(",\"name\":");
                push_escaped(&mut out, name);
                let _ = write!(out, ",\"ts_ns\":{ts_ns}");
                push_attrs(&mut out, attrs);
                out.push_str("}\n");
            }
        }
    }
    out
}

/// Renders an event record as Chrome trace-event JSON — the emitter
/// behind [`Tracer::to_chrome_json`], shared with merged multi-worker
/// records.
pub fn render_chrome_json(events: &[Event]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for e in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let (ph, name, ts_ns, attrs, span) = match e {
            Event::Begin {
                name, ts_ns, attrs, span, ..
            } => ("B", *name, *ts_ns, attrs, Some(*span)),
            Event::End {
                name, ts_ns, attrs, span, ..
            } => ("E", *name, *ts_ns, attrs, Some(*span)),
            Event::Instant {
                name, ts_ns, attrs, span, ..
            } => ("i", *name, *ts_ns, attrs, *span),
        };
        out.push_str("{\"name\":");
        push_escaped(&mut out, name);
        let _ = write!(
            out,
            ",\"ph\":\"{ph}\",\"pid\":1,\"tid\":1,\"ts\":{}.{:03}",
            ts_ns / 1000,
            ts_ns % 1000
        );
        if ph == "i" {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":{");
        let mut first_attr = true;
        if let Some(s) = span {
            let _ = write!(out, "\"span\":{s}");
            first_attr = false;
        }
        for (k, v) in attrs {
            if !first_attr {
                out.push(',');
            }
            first_attr = false;
            push_escaped(&mut out, k);
            out.push(':');
            match v {
                AttrValue::Str(s) => push_escaped(&mut out, s),
                AttrValue::U64(n) => {
                    let _ = write!(out, "{n}");
                }
            }
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// Merges per-worker event records into one, as collected by the
/// `--jobs` batch driver and `fg serve`: each worker traces into its own
/// [`Tracer`] (created together at batch start, so timestamps share one
/// epoch to within thread-spawn jitter), and the driver folds the
/// snapshots here. Span ids are renumbered with a per-worker offset so
/// they stay unique, root spans are tagged with a `worker` attribute,
/// and the merged record is ordered by timestamp. Returns the merged
/// events plus the summed drop count.
pub fn merge_worker_events(parts: Vec<(Vec<Event>, u64)>) -> (Vec<Event>, u64) {
    let mut merged = Vec::new();
    let mut dropped = 0u64;
    let mut offset = 0u64;
    for (worker, (events, part_dropped)) in parts.into_iter().enumerate() {
        dropped += part_dropped;
        let mut max_span = 0u64;
        for e in events {
            let e = match e {
                Event::Begin {
                    span,
                    parent,
                    name,
                    ts_ns,
                    mut attrs,
                } => {
                    max_span = max_span.max(span);
                    if parent.is_none() {
                        attrs.push(("worker", AttrValue::U64(worker as u64)));
                    }
                    Event::Begin {
                        span: span + offset,
                        parent: parent.map(|p| p + offset),
                        name,
                        ts_ns,
                        attrs,
                    }
                }
                Event::End {
                    span,
                    name,
                    ts_ns,
                    attrs,
                } => {
                    max_span = max_span.max(span);
                    Event::End {
                        span: span + offset,
                        name,
                        ts_ns,
                        attrs,
                    }
                }
                Event::Instant {
                    span,
                    name,
                    ts_ns,
                    attrs,
                } => Event::Instant {
                    span: span.map(|s| s + offset),
                    name,
                    ts_ns,
                    attrs,
                },
            };
            merged.push(e);
        }
        offset += max_span;
    }
    merged.sort_by_key(Event::ts_ns);
    (merged, dropped)
}

fn push_attrs(out: &mut String, attrs: &Attrs) {
    if attrs.is_empty() {
        return;
    }
    out.push_str(",\"attrs\":{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(out, k);
        out.push(':');
        match v {
            AttrValue::Str(s) => push_escaped(out, s),
            AttrValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
        }
    }
    out.push('}');
}

// ---------------------------------------------------------------------
// Span-tree reconstruction (used by `fg explain`)
// ---------------------------------------------------------------------

/// A node of the reconstructed span tree: a span with its children (both
/// sub-spans and instants) in event order.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span id.
    pub span: u64,
    /// The span name.
    pub name: &'static str,
    /// Open timestamp.
    pub ts_ns: u64,
    /// Duration, if the span was closed.
    pub dur_ns: Option<u64>,
    /// Attributes recorded at open.
    pub attrs: Attrs,
    /// Attributes recorded at close.
    pub end_attrs: Attrs,
    /// Children in event order.
    pub items: Vec<TreeItem>,
}

impl SpanNode {
    /// Looks up an open attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Looks up a close attribute by key.
    pub fn end_attr(&self, key: &str) -> Option<&AttrValue> {
        self.end_attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// One child of a [`SpanNode`] (or of the tree root).
#[derive(Debug, Clone)]
pub enum TreeItem {
    /// A nested span.
    Span(SpanNode),
    /// A point event.
    Instant {
        /// The event name.
        name: &'static str,
        /// The event timestamp.
        ts_ns: u64,
        /// The event attributes.
        attrs: Attrs,
    },
}

/// Rebuilds the span tree from a flat event record. Spans never closed
/// (e.g. the trace was cut by the ring buffer) are attached where they
/// began with `dur_ns: None`.
pub fn build_tree(events: &[Event]) -> Vec<TreeItem> {
    let mut roots: Vec<TreeItem> = Vec::new();
    let mut open: Vec<SpanNode> = Vec::new();
    fn attach(open: &mut [SpanNode], roots: &mut Vec<TreeItem>, item: TreeItem) {
        match open.last_mut() {
            Some(parent) => parent.items.push(item),
            None => roots.push(item),
        }
    }
    for e in events {
        match e {
            Event::Begin {
                span,
                name,
                ts_ns,
                attrs,
                ..
            } => open.push(SpanNode {
                span: *span,
                name,
                ts_ns: *ts_ns,
                dur_ns: None,
                attrs: attrs.clone(),
                end_attrs: Vec::new(),
                items: Vec::new(),
            }),
            Event::End {
                span, ts_ns, attrs, ..
            } => {
                // Close everything down to (and including) the matching
                // open node; unmatched ends are ignored.
                if let Some(pos) = open.iter().rposition(|n| n.span == *span) {
                    while open.len() > pos {
                        let mut node = open.pop().expect("open.len() > pos");
                        if node.span == *span {
                            node.dur_ns = Some(ts_ns.saturating_sub(node.ts_ns));
                            node.end_attrs = attrs.clone();
                        }
                        attach(&mut open, &mut roots, TreeItem::Span(node));
                    }
                }
            }
            Event::Instant {
                name, ts_ns, attrs, ..
            } => {
                attach(
                    &mut open,
                    &mut roots,
                    TreeItem::Instant {
                        name,
                        ts_ns: *ts_ns,
                        attrs: attrs.clone(),
                    },
                );
            }
        }
    }
    while let Some(node) = open.pop() {
        attach(&mut open, &mut roots, TreeItem::Span(node));
    }
    roots
}

// ---------------------------------------------------------------------
// Trace diffing (used by the cross-lane differential tests)
// ---------------------------------------------------------------------

/// Projects, in order, the instant events named `name` onto the given
/// attribute keys (a missing key renders as the empty string). This is
/// the comparison key for cross-lane trace diffs: two traces agree on a
/// decision sequence iff their projections are equal.
pub fn instant_sequence(events: &[Event], name: &str, keys: &[&str]) -> Vec<Vec<String>> {
    events
        .iter()
        .filter(|e| matches!(e, Event::Instant { .. }) && e.name() == name)
        .map(|e| {
            keys.iter()
                .map(|k| e.attr(k).map(AttrValue::render).unwrap_or_default())
                .collect()
        })
        .collect()
}

/// Compares two instant-event projections, returning the first index at
/// which they diverge together with the rows at that index (`None` for a
/// missing row when one sequence is a strict prefix of the other).
/// Returns `None` when the sequences are identical.
#[allow(clippy::type_complexity)]
pub fn first_divergence(
    a: &[Vec<String>],
    b: &[Vec<String>],
) -> Option<(usize, Option<Vec<String>>, Option<Vec<String>>)> {
    let n = a.len().max(b.len());
    (0..n).find_map(|i| match (a.get(i), b.get(i)) {
        (Some(x), Some(y)) if x == y => None,
        (x, y) => Some((i, x.cloned(), y.cloned())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(events: &[Event], idx: usize, key: &str) -> Option<String> {
        events[idx].attr(key).map(AttrValue::render)
    }

    #[test]
    fn merge_worker_events_renumbers_and_tags_workers() {
        let a = Tracer::enabled();
        let sp = a.begin("check", Vec::new());
        a.instant("model_selected", Vec::new());
        a.end(sp);
        let b = Tracer::enabled();
        let sp = b.begin("check", Vec::new());
        b.end(sp);

        let (merged, dropped) =
            merge_worker_events(vec![(a.events(), 0), (b.events(), 3)]);
        assert_eq!(dropped, 3);
        assert_eq!(merged.len(), 5);
        // Span ids stay unique across workers: worker 0 keeps span 1,
        // worker 1's span 1 is shifted past worker 0's max.
        let mut spans: Vec<u64> = merged
            .iter()
            .filter_map(|e| match e {
                Event::Begin { span, .. } => Some(*span),
                _ => None,
            })
            .collect();
        spans.sort_unstable();
        assert_eq!(spans, [1, 2]);
        // Root spans carry the worker tag.
        let workers: Vec<u64> = merged
            .iter()
            .filter(|e| matches!(e, Event::Begin { .. }))
            .filter_map(|e| e.attr("worker").and_then(AttrValue::as_u64))
            .collect();
        assert_eq!(workers.len(), 2);
        assert!(workers.contains(&0) && workers.contains(&1), "{workers:?}");
        // Timestamp-ordered, and still renderable through the shared
        // emitters.
        assert!(merged.windows(2).all(|w| w[0].ts_ns() <= w[1].ts_ns()));
        let jsonl = render_jsonl("check", "batch", &merged, dropped);
        assert!(jsonl.starts_with("{\"schema\":\"fg-trace/1\""), "{jsonl}");
        assert!(jsonl.contains("\"events\":5"), "{jsonl}");
        assert!(jsonl.contains("\"dropped\":3"), "{jsonl}");
        let chrome = render_chrome_json(&merged);
        assert!(chrome.contains("\"ph\":\"B\""), "{chrome}");
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let id = t.begin("x", vec![("k", AttrValue::U64(1))]);
        assert_eq!(id, SpanId::NONE);
        t.instant("y", Vec::new());
        t.end(id);
        assert!(t.events().is_empty());
        // The `_with` variants must not even build the attributes.
        let called = std::cell::Cell::new(false);
        t.instant_with("z", || {
            called.set(true);
            Vec::new()
        });
        assert!(!called.get());
    }

    #[test]
    fn spans_nest_and_record_parentage() {
        let t = Tracer::enabled();
        let a = t.begin("outer", Vec::new());
        let b = t.begin("inner", vec![("n", 3u64.into())]);
        t.instant("hit", vec![("what", "x".into())]);
        t.end(b);
        t.end(a);
        let evs = t.events();
        assert_eq!(evs.len(), 5);
        match &evs[0] {
            Event::Begin { span, parent, name, .. } => {
                assert_eq!((*span, *parent, *name), (1, None, "outer"));
            }
            e => panic!("expected begin, got {e:?}"),
        }
        match &evs[1] {
            Event::Begin { span, parent, name, .. } => {
                assert_eq!((*span, *parent, *name), (2, Some(1), "inner"));
            }
            e => panic!("expected begin, got {e:?}"),
        }
        match &evs[2] {
            Event::Instant { span, name, .. } => {
                assert_eq!((*span, *name), (Some(2), "hit"));
            }
            e => panic!("expected instant, got {e:?}"),
        }
        assert_eq!(attr(&evs, 2, "what").as_deref(), Some("x"));
        match (&evs[3], &evs[4]) {
            (Event::End { span: s1, .. }, Event::End { span: s2, .. }) => {
                assert_eq!((*s1, *s2), (2, 1));
            }
            other => panic!("expected two ends, got {other:?}"),
        }
        // Timestamps are monotonic.
        let ts: Vec<u64> = evs.iter().map(Event::ts_ns).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn ending_a_parent_closes_leaked_children() {
        let t = Tracer::enabled();
        let a = t.begin("outer", Vec::new());
        let _leak = t.begin("inner", Vec::new());
        t.end(a);
        let evs = t.events();
        // begin(outer), begin(inner), end(inner as leaked), end(outer)
        assert_eq!(evs.len(), 4);
        match &evs[2] {
            Event::End { span, .. } => assert_eq!(*span, 2),
            e => panic!("expected end, got {e:?}"),
        }
        match &evs[3] {
            Event::End { span, .. } => assert_eq!(*span, 1),
            e => panic!("expected end, got {e:?}"),
        }
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let t = Tracer::with_capacity(3);
        for _ in 0..5 {
            t.instant("tick", Vec::new());
        }
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn jsonl_schema_is_golden() {
        // A synthetic record with pinned timestamps is not possible (the
        // collector stamps them), so pin everything except ts_ns by
        // substituting the timestamps out.
        let t = Tracer::enabled();
        let a = t.begin("check", vec![("source", "p.fg".into())]);
        t.instant("model_selected", vec![("concept", "Monoid".into()), ("index", 2u64.into())]);
        t.end_with(a, vec![("outcome", "ok".into())]);
        let jsonl = t.to_jsonl("check", "p.fg");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"schema\":\"fg-trace/1\",\"command\":\"check\",\"source\":\"p.fg\",\
             \"events\":3,\"dropped\":0}"
        );
        let strip_ts = |line: &str| -> String {
            let start = line.find("\"ts_ns\":").expect("has ts_ns");
            let rest = &line[start + 8..];
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            format!("{}TS{}", &line[..start + 8], &rest[end..])
        };
        assert_eq!(
            strip_ts(lines[1]),
            "{\"ev\":\"begin\",\"span\":1,\"name\":\"check\",\"ts_ns\":TS,\
             \"attrs\":{\"source\":\"p.fg\"}}"
        );
        assert_eq!(
            strip_ts(lines[2]),
            "{\"ev\":\"instant\",\"span\":1,\"name\":\"model_selected\",\"ts_ns\":TS,\
             \"attrs\":{\"concept\":\"Monoid\",\"index\":2}}"
        );
        assert_eq!(
            strip_ts(lines[3]),
            "{\"ev\":\"end\",\"span\":1,\"name\":\"check\",\"ts_ns\":TS,\
             \"attrs\":{\"outcome\":\"ok\"}}"
        );
    }

    #[test]
    fn chrome_export_emits_b_e_i_phases() {
        let t = Tracer::enabled();
        let a = t.begin("check", Vec::new());
        t.instant("hit", vec![("n", 1u64.into())]);
        t.end(a);
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"ph\":\"E\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"s\":\"t\""), "{json}");
        assert!(json.trim_end().ends_with("]}"), "{json}");
    }

    #[test]
    fn json_strings_are_escaped_in_both_exports() {
        let t = Tracer::enabled();
        t.instant("e", vec![("k", "a\"b\\c\nd".into())]);
        let jsonl = t.to_jsonl("check", "we\"ird.fg");
        assert!(jsonl.contains("\"a\\\"b\\\\c\\nd\""), "{jsonl}");
        assert!(jsonl.contains("\"we\\\"ird.fg\""), "{jsonl}");
        let chrome = t.to_chrome_json();
        assert!(chrome.contains("\"a\\\"b\\\\c\\nd\""), "{chrome}");
    }

    #[test]
    fn build_tree_reconstructs_nesting() {
        let t = Tracer::enabled();
        let a = t.begin("outer", Vec::new());
        t.instant("before", Vec::new());
        let b = t.begin("inner", Vec::new());
        t.instant("during", Vec::new());
        t.end(b);
        t.end_with(a, vec![("outcome", "ok".into())]);
        t.instant("after", Vec::new());
        let tree = build_tree(&t.events());
        assert_eq!(tree.len(), 2);
        let TreeItem::Span(outer) = &tree[0] else {
            panic!("expected span, got {:?}", tree[0]);
        };
        assert_eq!(outer.name, "outer");
        assert!(outer.dur_ns.is_some());
        assert_eq!(outer.end_attr("outcome").and_then(AttrValue::as_str), Some("ok"));
        assert_eq!(outer.items.len(), 2);
        assert!(matches!(&outer.items[0], TreeItem::Instant { name: "before", .. }));
        let TreeItem::Span(inner) = &outer.items[1] else {
            panic!("expected inner span");
        };
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.items.len(), 1);
        assert!(matches!(&tree[1], TreeItem::Instant { name: "after", .. }));
    }

    #[test]
    fn build_tree_keeps_unclosed_spans() {
        let t = Tracer::enabled();
        t.begin("never_closed", Vec::new());
        t.instant("inside", Vec::new());
        let tree = build_tree(&t.events());
        assert_eq!(tree.len(), 1);
        let TreeItem::Span(node) = &tree[0] else {
            panic!("expected span");
        };
        assert_eq!(node.name, "never_closed");
        assert!(node.dur_ns.is_none());
        assert_eq!(node.items.len(), 1);
    }

    #[test]
    fn instant_sequence_projects_and_diffs() {
        let t1 = Tracer::enabled();
        t1.instant("sel", vec![("c", "A".into()), ("n", 1u64.into())]);
        t1.instant("other", vec![("c", "X".into())]);
        t1.instant("sel", vec![("c", "B".into()), ("n", 2u64.into())]);
        let t2 = Tracer::enabled();
        t2.instant("sel", vec![("c", "A".into()), ("n", 1u64.into())]);
        t2.instant("sel", vec![("c", "B".into()), ("n", 3u64.into())]);
        let s1 = instant_sequence(&t1.events(), "sel", &["c", "n"]);
        let s2 = instant_sequence(&t2.events(), "sel", &["c", "n"]);
        assert_eq!(s1, vec![vec!["A".to_owned(), "1".to_owned()], vec!["B".to_owned(), "2".to_owned()]]);
        let (i, a, b) = first_divergence(&s1, &s2).expect("diverges");
        assert_eq!(i, 1);
        assert_eq!(a.unwrap()[1], "2");
        assert_eq!(b.unwrap()[1], "3");
        // Projection on only the stable key agrees.
        let p1 = instant_sequence(&t1.events(), "sel", &["c"]);
        let p2 = instant_sequence(&t2.events(), "sel", &["c"]);
        assert_eq!(first_divergence(&p1, &p2), None);
        // Prefix divergence reports the missing row.
        let (i, a, b) = first_divergence(&p1, &p1[..1]).expect("prefix");
        assert_eq!(i, 1);
        assert!(a.is_some() && b.is_none());
    }

    #[test]
    fn tracer_handle_is_shared_across_clones_and_threads() {
        let t = Tracer::enabled();
        let a = t.begin("outer", Vec::new());
        let t2 = t.clone();
        std::thread::spawn(move || {
            t2.instant("from_thread", Vec::new());
        })
        .join()
        .expect("thread");
        t.end(a);
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert!(matches!(&evs[1], Event::Instant { name: "from_thread", span: Some(1), .. }));
    }
}
